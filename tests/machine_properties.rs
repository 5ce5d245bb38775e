//! Property-based machine tests: random workloads, machine-level
//! invariants.

use flash::config::{default_watchdog_window, node_addr};
use flash::{Machine, MachineConfig, MachineReport, RunResult, DEFAULT_WATCHDOG_WINDOW};
use flash_cpu::{RefStream, SliceStream, WorkItem};
use flash_engine::{Addr, NodeId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Busy(u8),
    Read { node: u8, line: u8 },
    Write { node: u8, line: u8 },
    Barrier,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u8..100).prop_map(Op::Busy),
        4 => ((0u8..4), (0u8..16)).prop_map(|(node, line)| Op::Read { node, line }),
        3 => ((0u8..4), (0u8..16)).prop_map(|(node, line)| Op::Write { node, line }),
        1 => Just(Op::Barrier),
    ]
}

fn to_items(ops: &[Op]) -> Vec<WorkItem> {
    let addr = |node: u8, line: u8| node_addr(NodeId(node as u16), line as u64 * 128);
    let mut v: Vec<WorkItem> = ops
        .iter()
        .filter(|o| !matches!(o, Op::Barrier))
        .map(|o| match *o {
            Op::Busy(n) => WorkItem::Busy(n as u64),
            Op::Read { node, line } => WorkItem::Read(addr(node, line)),
            Op::Write { node, line } => WorkItem::Write(addr(node, line)),
            Op::Barrier => unreachable!(),
        })
        .collect();
    // Barriers must balance across processors, so they are appended
    // uniformly rather than taken from the per-processor ops.
    v.push(WorkItem::Barrier);
    v
}

fn run_machine(cfg: MachineConfig, per_proc: &[Vec<Op>]) -> (Machine, u64) {
    let streams: Vec<Box<dyn RefStream>> = per_proc
        .iter()
        .map(|ops| Box::new(SliceStream::new(to_items(ops))) as Box<dyn RefStream>)
        .collect();
    let mut m = Machine::new(cfg, streams);
    match m.run(200_000_000) {
        RunResult::Completed { exec_cycles } => (m, exec_cycles),
        other => panic!("machine stuck on random workload: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every random workload completes on every controller kind, the
    /// ideal machine is never slower than FLASH, and runs are
    /// deterministic.
    #[test]
    fn machines_complete_and_ideal_is_fastest(
        per_proc in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..60), 4),
    ) {
        let (_, flash_t) = run_machine(MachineConfig::flash(4), &per_proc);
        let (_, flash_t2) = run_machine(MachineConfig::flash(4), &per_proc);
        prop_assert_eq!(flash_t, flash_t2, "nondeterministic FLASH run");
        let (_, ideal_t) = run_machine(MachineConfig::ideal(4), &per_proc);
        // Allow a whisker of slack: sub-cycle rounding can differ.
        prop_assert!(
            ideal_t <= flash_t + 2,
            "ideal ({ideal_t}) slower than FLASH ({flash_t})"
        );
    }

    /// The report's invariants hold on arbitrary workloads.
    #[test]
    fn report_invariants(
        per_proc in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..40), 4),
    ) {
        let (m, exec) = run_machine(MachineConfig::flash(4), &per_proc);
        let r = MachineReport::from_machine(&m);
        prop_assert_eq!(r.exec_cycles, exec);
        let sum: f64 = r.breakdown.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(r.pp_occupancy.1 <= 1.0 + 1e-9);
        prop_assert!(r.spec.1 <= r.spec.0, "useless spec reads exceed issued");
        // No transaction left a line pending.
        for node in 0..4u16 {
            for line in 0..16u64 {
                let a = node_addr(NodeId(node), line * 128);
                let h = m.chips()[node as usize].peek_header(flash_protocol::dir_addr(a));
                prop_assert!(!h.pending(), "line {a} left pending");
            }
        }
    }

    /// Pointer-store bookkeeping conserves entries: after completion the
    /// free count plus recorded sharers equals the initial capacity.
    #[test]
    fn pointer_store_is_conserved(
        per_proc in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..40), 4),
    ) {
        let (m, _) = run_machine(MachineConfig::flash(4), &per_proc);
        for node in 0..4u16 {
            let mut recorded = 0usize;
            for line in 0..16u64 {
                let a = node_addr(NodeId(node), line * 128);
                recorded += m.chips()[node as usize].sharer_nodes(flash_protocol::dir_addr(a)).len();
            }
            // The free list plus recorded entries must not exceed capacity
            // (leaks shrink the free list; double frees corrupt the walk,
            // which sharer_nodes would catch as a cycle).
            prop_assert!(recorded <= flash_protocol::dir::DEFAULT_PS_CAPACITY as usize);
        }
    }
}

/// Machine construction writes only what a run touches: each node's
/// pointer-store free list is a preset, so a fresh 1024-node machine holds
/// at most one protocol page per chip (was 129 each).
#[test]
fn machine_construction_materializes_no_free_list() {
    let streams: Vec<Box<dyn RefStream>> = (0..1024)
        .map(|_| Box::new(SliceStream::new(Vec::new())) as Box<dyn RefStream>)
        .collect();
    let m = Machine::new(MachineConfig::flash(1024), streams);
    let pages: usize = m
        .chips()
        .iter()
        .map(|c| c.proto_mem().resident_pages())
        .sum();
    assert!(
        pages <= 1024,
        "{pages} protocol pages resident after construction"
    );
}

/// MAGIC's instruction cache holds every handler (paper §5.3), so a
/// chip's only instruction-fetch misses are the first fetch of each entry
/// line it dispatched to.
#[test]
fn icache_misses_are_the_distinct_entry_lines_invoked() {
    let cfg = MachineConfig::flash(16);
    let program = flash_magic::MagicChip::default_program(cfg.codegen);
    let streams: Vec<Box<dyn RefStream>> = flash_check::stress_streams(16, 8, 60, 7)
        .into_iter()
        .map(|v| Box::new(SliceStream::new(v)) as Box<dyn RefStream>)
        .collect();
    let mut m = Machine::new(cfg, streams);
    let RunResult::Completed { .. } = m.run(2_000_000_000) else {
        panic!("stress workload did not complete");
    };
    let mut misses = 0;
    for chip in m.chips() {
        // An entry pair is 8 bytes and a cache line 128.
        let lines: std::collections::BTreeSet<usize> = chip
            .stats()
            .handlers
            .iter()
            .map(|(name, _)| program.entry(name).expect("dispatched handler") * 8 / 128)
            .collect();
        let cold = chip.stats().icache_cold_misses;
        assert_eq!(cold, lines.len() as u64, "node {}", chip.node().0);
        misses += cold;
    }
    assert!(misses > 16, "the run dispatched {misses} entry lines");
}

/// A fixed, non-trivial observed workload for the host-instrumentation
/// invariance tests below: 16 nodes, mixed sharing, a few thousand
/// events per run.
fn invariance_run(cfg: MachineConfig) -> (u64, String, Option<String>, Option<f64>) {
    let streams: Vec<Box<dyn RefStream>> = flash_check::stress_streams(16, 8, 60, 7)
        .into_iter()
        .map(|v| Box::new(SliceStream::new(v)) as Box<dyn RefStream>)
        .collect();
    let mut m = Machine::new(cfg, streams);
    let RunResult::Completed { exec_cycles } = m.run(2_000_000_000) else {
        panic!("invariance workload did not complete");
    };
    let report = format!("{:?}", MachineReport::from_machine(&m));
    let coverage = m.host_profile().map(|p| p.coverage());
    (exec_cycles, report, m.trace_json(), coverage)
}

/// The host-time profiler is a pure observer: arming it must not change
/// any simulated observable, and its segments must explain (nearly) all
/// of the wall time they bracket.
#[test]
fn host_profile_is_timing_invisible() {
    let cfg = || MachineConfig::flash(16).with_observe(true);
    let (base_t, base_r, base_trace, none) = invariance_run(cfg());
    assert!(none.is_none(), "profiler must stay off by default");
    let (prof_t, prof_r, prof_trace, coverage) = invariance_run(cfg().with_host_profile(true));
    assert_eq!(base_t, prof_t, "profiling changed exec_cycles");
    assert_eq!(base_r, prof_r, "profiling changed the report");
    assert_eq!(base_trace, prof_trace, "profiling changed the trace");
    let coverage = coverage.expect("profiler armed via config");
    assert!(
        coverage >= 0.95,
        "segment sum must explain >=95% of wall, got {coverage:.3}"
    );
}

/// The inline run fast path (eliding the event-queue round-trip for
/// next-to-execute processor wakeups) is a host-side optimization only:
/// disabling it must reproduce the exact same schedule.
#[test]
fn inline_fast_path_is_schedule_invisible() {
    let cfg = || MachineConfig::flash(16).with_observe(true);
    let (fast_t, fast_r, fast_trace, _) = invariance_run(cfg());
    let (slow_t, slow_r, slow_trace, _) = invariance_run(cfg().with_inline_runs(false));
    assert_eq!(fast_t, slow_t, "inline elision changed exec_cycles");
    assert_eq!(fast_r, slow_r, "inline elision changed the report");
    assert_eq!(fast_trace, slow_trace, "inline elision changed the trace");
}

#[test]
fn dma_and_sync_mix_completes() {
    let mk = |n: u16| {
        let a = node_addr(NodeId(0), 0x100);
        vec![
            WorkItem::Read(a),
            WorkItem::Barrier,
            WorkItem::Lock(1),
            WorkItem::Write(node_addr(NodeId(n), 0x200)),
            WorkItem::Unlock(1),
            WorkItem::Barrier,
            WorkItem::Read(a),
            WorkItem::Busy(4),
        ]
    };
    let streams: Vec<Box<dyn RefStream>> = (0..4)
        .map(|n| Box::new(SliceStream::new(mk(n))) as _)
        .collect();
    let mut m = Machine::new(MachineConfig::flash(4), streams);
    m.add_dma_write(flash_engine::Cycle::new(50), NodeId(0), Addr::new(0x100));
    let RunResult::Completed { .. } = m.run(10_000_000) else {
        panic!("stuck");
    };
}

#[test]
fn watchdog_default_scales_with_node_count() {
    assert_eq!(default_watchdog_window(4), DEFAULT_WATCHDOG_WINDOW);
    assert_eq!(default_watchdog_window(64), DEFAULT_WATCHDOG_WINDOW);
    assert_eq!(default_watchdog_window(256), DEFAULT_WATCHDOG_WINDOW * 4);
    assert_eq!(default_watchdog_window(1024), DEFAULT_WATCHDOG_WINDOW * 16);
    assert_eq!(
        MachineConfig::flash(1024).watchdog_window,
        DEFAULT_WATCHDOG_WINDOW * 16
    );
}

/// A *healthy* big-mesh workload: every node works mostly on its own
/// home lines with a read of its ring neighbor's line mixed in. Real
/// mesh traffic (remote gets, forwards, a bounded two-sharer inval
/// pattern) without the designed hot-spot of `stress_streams`, whose
/// "30% of all references target node 0" shape is a NACK-storm study,
/// not a steady state.
fn healthy_streams(nodes: u16, lines: u64) -> Vec<Box<dyn RefStream>> {
    use flash_engine::LINE_BYTES;
    (0..nodes)
        .map(|p| {
            let mut items = Vec::new();
            for l in 0..lines {
                let own = Addr::new(((p as u64) << 32) | (l * LINE_BYTES));
                let neighbor = Addr::new((((p + 1) % nodes) as u64) << 32 | (l * LINE_BYTES));
                items.push(WorkItem::Read(own));
                items.push(WorkItem::Write(own));
                items.push(WorkItem::Read(neighbor));
                items.push(WorkItem::Busy(8));
            }
            Box::new(SliceStream::new(items)) as Box<dyn RefStream>
        })
        .collect()
}

#[test]
fn healthy_1024_node_run_completes_unwedged() {
    // Regression for the big-mesh wedge: a healthy 1024-node mesh must
    // finish inside the scaled watchdog window, and the transit-sized
    // timing wheel must absorb the traffic (the overflow heap is for the
    // rare genuinely far-future event, not the steady state).
    let mut m = Machine::new(
        MachineConfig::flash(1024).with_cache_bytes(16 << 10),
        healthy_streams(1024, 4),
    );
    match m.run(2_000_000_000) {
        RunResult::Completed { .. } => {}
        other => panic!(
            "healthy 1024-node run must complete, got {other:?}\n{}",
            m.diagnose("1024-node regression")
        ),
    }
    let (wheel, heap) = m.queue_push_routing();
    assert!(
        wheel > heap * 10,
        "wheel must absorb the steady state at 1024 nodes (wheel {wheel}, heap {heap})"
    );
}
