//! Observed-mode integration tests: timing invisibility, the
//! sums-to-total attribution invariant, and the golden Chrome trace.

use flash::config::node_addr;
use flash::observe::ROW_NAMES;
use flash::{Machine, MachineConfig, MachineReport, RunResult};
use flash_cpu::{RefStream, SliceStream, WorkItem};
use flash_engine::NodeId;
use proptest::prelude::*;

fn run(cfg: MachineConfig, per_proc: Vec<Vec<WorkItem>>) -> Machine {
    let streams: Vec<Box<dyn RefStream>> = per_proc
        .into_iter()
        .map(|items| Box::new(SliceStream::new(items)) as Box<dyn RefStream>)
        .collect();
    let mut m = Machine::new(cfg, streams);
    match m.run(200_000_000) {
        RunResult::Completed { .. } => m,
        other => panic!("machine did not complete: {other:?}"),
    }
}

/// A 4-node workload that drives all five Table 3.3 read classes plus
/// writes and upgrades, with barriers sequencing the dirty-state setup.
fn all_class_workload() -> Vec<Vec<WorkItem>> {
    let a = |n: u16, line: u64| node_addr(NodeId(n), line * 128);
    vec![
        vec![
            // Dirty node 0's line 1 (for node 1's local_dirty_remote? no:
            // node 1 reading node 0's line is remote). Dirty node 1's
            // line 2 so node 1's later local read finds it dirty remote.
            WorkItem::Write(a(1, 2)),
            WorkItem::Barrier,
            // local_clean: own line, nobody has it.
            WorkItem::Read(a(0, 0)),
            // remote_clean: node 2's untouched line.
            WorkItem::Read(a(2, 0)),
            // remote_dirty_home: node 3 wrote its own line 3 before the
            // barrier; reading it finds it dirty in the home's cache.
            WorkItem::Read(a(3, 3)),
            // remote_dirty_remote: node 2's line 4 is dirty in node 3's
            // cache.
            WorkItem::Read(a(2, 4)),
            WorkItem::Barrier,
            // upgrade: write a line already held shared.
            WorkItem::Write(a(0, 0)),
            WorkItem::Busy(20),
        ],
        vec![
            WorkItem::Barrier,
            // local_dirty_remote: own line 2, dirtied by node 0.
            WorkItem::Read(a(1, 2)),
            WorkItem::Barrier,
            WorkItem::Busy(20),
        ],
        vec![WorkItem::Barrier, WorkItem::Barrier, WorkItem::Busy(20)],
        vec![
            // Set up remote_dirty_home and remote_dirty_remote lines.
            WorkItem::Write(a(3, 3)),
            WorkItem::Write(a(2, 4)),
            WorkItem::Barrier,
            WorkItem::Barrier,
            WorkItem::Busy(20),
        ],
    ]
}

/// Turning observation on must not move a single event: execution time
/// and the whole statistics report are identical, for every controller
/// kind.
#[test]
fn observation_is_timing_invisible() {
    for cfg in [
        MachineConfig::flash(4),
        MachineConfig::ideal(4),
        MachineConfig::flash_cost_table(4),
    ] {
        let base = run(cfg.clone(), all_class_workload());
        let observed = run(cfg.clone().with_observe(true), all_class_workload());
        assert_eq!(
            base.exec_cycles(),
            observed.exec_cycles(),
            "{:?}: observation changed execution time",
            cfg.controller
        );
        let r_base = MachineReport::from_machine(&base);
        let mut r_obs = MachineReport::from_machine(&observed);
        assert!(r_base.observe.is_none());
        assert!(r_obs.observe.is_some());
        r_obs.observe = None;
        assert_eq!(
            r_base, r_obs,
            "{:?}: observation perturbed the report",
            cfg.controller
        );
    }
}

/// On the all-class workload every class row is populated and the
/// attribution closes: no request left pending, no breakdown whose
/// segments fail to sum to its end-to-end latency.
#[test]
fn all_classes_are_attributed_and_sums_close() {
    for cfg in [MachineConfig::flash(4), MachineConfig::ideal(4)] {
        let m = run(cfg.clone().with_observe(true), all_class_workload());
        let r = m.observe_report().expect("observed mode");
        assert_eq!(
            r.sum_mismatches, 0,
            "{:?}: attribution drift",
            cfg.controller
        );
        assert_eq!(r.unresolved, 0, "{:?}: leaked requests", cfg.controller);
        assert_eq!(r.requests, r.completed + r.replaced);
        let count_of = |name: &str| {
            r.rows
                .iter()
                .find(|row| row.class == name)
                .unwrap_or_else(|| panic!("missing row {name}"))
                .count
        };
        for name in [
            "read_local_clean",
            "read_local_dirty_remote",
            "read_remote_clean",
            "read_remote_dirty_home",
            "read_remote_dirty_remote",
            "write",
            "upgrade",
        ] {
            assert!(
                count_of(name) > 0,
                "{:?}: class {name} never observed",
                cfg.controller
            );
        }
        // Row counts and the latency histogram both partition the
        // completed set.
        let row_total: u64 = r.rows.iter().map(|row| row.count).sum();
        assert_eq!(row_total, r.completed);
        let hist_total: u64 = r.latency_buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(hist_total, r.completed);
        // The ideal machine charges no handler occupancy.
        if cfg.controller == flash::ControllerKind::Ideal {
            for h in &r.handlers {
                assert_eq!(h.occupancy_cycles, 0);
            }
        }
        // The JSON export carries the schema tag and all rows.
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"flash-observe-v1\""));
        for name in ROW_NAMES {
            assert!(json.contains(name));
        }
    }
}

/// The golden Chrome trace for a fixed 2-node micro-scenario. Pins both
/// determinism (any event reordering changes the file) and the
/// trace_event output format (viewable in Perfetto as-is). Regenerate
/// with `FLASH_BLESS=1 cargo test -p flash --test observe` after an
/// intentional timing change.
#[test]
fn golden_trace_snapshot_2node() {
    let items0 = vec![
        WorkItem::Read(node_addr(NodeId(0), 0x000)),
        WorkItem::Read(node_addr(NodeId(1), 0x080)),
        WorkItem::Write(node_addr(NodeId(1), 0x080)),
        WorkItem::Busy(10),
    ];
    let items1 = vec![WorkItem::Busy(10)];
    let m = run(
        MachineConfig::ideal(2).with_observe(true),
        vec![items0, items1],
    );
    let got = m.trace_json().expect("observed mode");
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/observe_trace_2node.json"
    );
    if flash_engine::knobs::BLESS.is_on() {
        std::fs::write(golden_path, &got).unwrap();
    }
    let want = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {golden_path}: {e}"));
    assert_eq!(
        got, want,
        "2-node trace deviates from the golden snapshot; if the timing \
         change is intentional, regenerate tests/golden/observe_trace_2node.json"
    );
}

/// `Machine::trace_json` is `None` when not observing and valid Chrome
/// JSON when it is.
#[test]
fn trace_json_only_when_observing() {
    let mk = || {
        vec![
            vec![WorkItem::Read(node_addr(NodeId(1), 0)), WorkItem::Busy(4)],
            vec![WorkItem::Busy(4)],
        ]
    };
    let off = run(MachineConfig::flash(2), mk());
    assert!(off.trace_json().is_none(), "not observing must yield None");
    let on = run(MachineConfig::flash(2).with_observe(true), mk());
    let body = on.trace_json().expect("observing machine has a trace");
    assert!(body.starts_with("{\"displayTimeUnit\""));
    assert!(body.contains("\"traceEvents\""));
    assert!(body.contains("\"ph\":\"X\""));
}

#[derive(Debug, Clone)]
enum Op {
    Busy(u8),
    Read { node: u8, line: u8 },
    Write { node: u8, line: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u8..60).prop_map(Op::Busy),
        4 => ((0u8..4), (0u8..12)).prop_map(|(node, line)| Op::Read { node, line }),
        3 => ((0u8..4), (0u8..12)).prop_map(|(node, line)| Op::Write { node, line }),
    ]
}

fn to_items(ops: &[Op]) -> Vec<WorkItem> {
    let addr = |node: u8, line: u8| node_addr(NodeId(node as u16), line as u64 * 128);
    let mut v: Vec<WorkItem> = ops
        .iter()
        .map(|o| match *o {
            Op::Busy(n) => WorkItem::Busy(n as u64),
            Op::Read { node, line } => WorkItem::Read(addr(node, line)),
            Op::Write { node, line } => WorkItem::Write(addr(node, line)),
        })
        .collect();
    v.push(WorkItem::Barrier);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On arbitrary contended workloads the attribution still closes for
    /// every read class: segments sum to end-to-end latency on every
    /// completed request (policed by `sum_mismatches`), nothing leaks,
    /// and observation never moves execution time.
    #[test]
    fn attribution_closes_on_random_workloads(
        per_proc in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..40), 4),
    ) {
        let items: Vec<Vec<WorkItem>> = per_proc.iter().map(|ops| to_items(ops)).collect();
        let base = run(MachineConfig::flash(4), items.clone());
        let m = run(MachineConfig::flash(4).with_observe(true), items);
        prop_assert_eq!(base.exec_cycles(), m.exec_cycles());
        let r = m.observe_report().expect("observed mode");
        prop_assert_eq!(r.sum_mismatches, 0, "attribution drift");
        prop_assert_eq!(r.unresolved, 0, "leaked requests");
        prop_assert_eq!(r.requests, r.completed + r.replaced);
        let row_total: u64 = r.rows.iter().map(|row| row.count).sum();
        prop_assert_eq!(row_total, r.completed);
    }
}
