//! Fault-injection soak: the correctness net under adversarial timing.
//!
//! Runs seeded random workloads through the detailed machine with the
//! deterministic fault injector armed (transient link stalls, hop delay
//! spikes, NI queue freezes, PP slowdown bursts, DRAM refresh stalls) and
//! checked mode on, then asserts the whole stack still converges with the
//! correctness net quiet: timing-only faults may slow a run down but must
//! never change what the protocol computes.
//!
//! `FLASH_SOAK_SEEDS=n` widens the per-configuration seed sweep for soak
//! runs (CI uses a small bounded sweep; the default keeps `cargo test`
//! fast).

use flash::{FaultPlan, Machine, MachineConfig, RunResult};
use flash_cpu::{RefStream, SliceStream};
use flash_engine::knobs;
use flash_minimize::{FaultsSpec, Predicate, Spec};

/// Seeds per configuration; `FLASH_SOAK_SEEDS` widens the sweep.
fn seeds(default: u64) -> u64 {
    knobs::SOAK_SEEDS.count().unwrap_or(default)
}

fn streams(nodes: u16, lines_per_node: u64, items: usize, seed: u64) -> Vec<Box<dyn RefStream>> {
    flash_check::stress_streams(nodes, lines_per_node, items, seed)
        .into_iter()
        .map(|v| Box::new(SliceStream::new(v)) as Box<dyn RefStream>)
        .collect()
}

/// The ready-to-paste `minimize` invocation that shrinks a failure of
/// this soak configuration to a minimal `flash-repro-v1` artifact.
fn shrink_hint(
    cfg: &MachineConfig,
    faults: FaultsSpec,
    lines: u64,
    items: usize,
    seed: u64,
    predicate: Predicate,
) -> String {
    let mut spec = Spec::stress(cfg.nodes, lines, items, seed)
        .with_faults(faults)
        .with_check(true)
        .with_predicate(predicate);
    spec.controller = cfg.controller;
    if cfg.cache_bytes != MachineConfig::flash(cfg.nodes).cache_bytes {
        spec.cache_bytes = Some(cfg.cache_bytes);
    }
    format!(
        "to shrink this failure to a minimal repro, run:\n  {}",
        spec.command_line()
    )
}

/// Runs one faulted, checked configuration to completion and returns the
/// machine for further assertions.
fn soak(cfg: MachineConfig, faults: FaultsSpec, lines: u64, items: usize, seed: u64) -> Machine {
    let nodes = cfg.nodes;
    let kind = cfg.controller;
    let plan = match faults {
        FaultsSpec::None => FaultPlan::none(),
        FaultsSpec::Zeroed(s) => FaultPlan::zeroed(s),
        FaultsSpec::Light(s) => FaultPlan::light(s),
        FaultsSpec::Stress(s) => FaultPlan::stress(s),
    };
    let mut m = Machine::new(
        cfg.clone().with_check(true).with_faults(plan),
        streams(nodes, lines, items, seed),
    );
    match m.run(2_000_000_000) {
        RunResult::Completed { .. } => {}
        RunResult::Wedged { report } => {
            panic!(
                "{kind:?} seed {seed} wedged under faults\n{report}\n{}",
                shrink_hint(
                    &cfg,
                    faults,
                    lines,
                    items,
                    seed,
                    Predicate::Wedge { fingerprint: None }
                )
            )
        }
        other => panic!(
            "{kind:?} seed {seed} did not converge under faults: {other:?}\n{}",
            m.diagnose("fault soak did not converge")
        ),
    }
    let violations = m.check_violations();
    assert!(
        violations.is_empty(),
        "{kind:?} seed {seed}: faults must be timing-only; {} violation(s):\n{}\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n"),
        shrink_hint(
            &cfg,
            faults,
            lines,
            items,
            seed,
            Predicate::Violation { fingerprint: None }
        )
    );
    m
}

#[test]
fn fault_soak_flash_4() {
    for seed in 0..seeds(3) {
        let m = soak(
            MachineConfig::flash(4),
            FaultsSpec::Stress(0xA0 + seed),
            16,
            250,
            seed,
        );
        let stats = m.fault_stats().expect("injector armed");
        assert!(
            stats.hop_spikes + stats.link_stalls + stats.ni_freezes + stats.pp_bursts > 0,
            "seed {seed}: the stress plan must actually inject"
        );
        assert!(m.oracle_checked() > 0, "oracle must run under faults");
    }
}

#[test]
fn fault_soak_flash_8() {
    for seed in 0..seeds(2) {
        let m = soak(
            MachineConfig::flash(8),
            FaultsSpec::Light(0xB0 + seed),
            12,
            200,
            40 + seed,
        );
        assert!(m.oracle_checked() > 0);
    }
}

#[test]
fn fault_soak_cost_table() {
    for seed in 0..seeds(2) {
        soak(
            MachineConfig::flash_cost_table(4),
            FaultsSpec::Stress(0xC0 + seed),
            16,
            250,
            80 + seed,
        );
    }
}

#[test]
fn fault_soak_ideal() {
    // The ideal machine has no MAGIC occupancy, but the mesh-facing fault
    // classes (hop spikes, link stalls, NI freezes) still apply.
    for seed in 0..seeds(2) {
        soak(
            MachineConfig::ideal(4),
            FaultsSpec::Light(0xD0 + seed),
            16,
            250,
            120 + seed,
        );
    }
}

#[test]
fn fault_soak_small_cache_evictions() {
    // Tiny caches force writebacks mid-transaction; faults on top of the
    // richest transient-state source is the hardest soak configuration.
    for seed in 0..seeds(2) {
        soak(
            MachineConfig::flash(4).with_cache_bytes(4 << 10),
            FaultsSpec::Stress(0xE0 + seed),
            96,
            250,
            160 + seed,
        );
    }
}

#[test]
fn faults_slow_but_do_not_change_work() {
    // The same workload with and without faults must execute the same
    // references (timing-only contract) and the faulted run cannot be
    // faster than the clean one.
    let mk = |plan: FaultPlan| {
        let mut m = Machine::new(
            MachineConfig::flash(4).with_faults(plan),
            streams(4, 16, 200, 7),
        );
        let RunResult::Completed { exec_cycles } = m.run(2_000_000_000) else {
            panic!("run stuck");
        };
        let refs: u64 = m
            .procs()
            .iter()
            .map(|p| p.stats().reads + p.stats().writes)
            .sum();
        (exec_cycles, refs)
    };
    let (clean_cycles, clean_refs) = mk(FaultPlan::none());
    let (fault_cycles, fault_refs) = mk(FaultPlan::stress(5));
    assert_eq!(clean_refs, fault_refs, "faults must not change the work");
    assert!(
        fault_cycles >= clean_cycles,
        "injected delays cannot speed the machine up ({fault_cycles} < {clean_cycles})"
    );
}

#[test]
fn fault_soak_replays_byte_identically() {
    // Same plan + same seed = the same machine, cycle for cycle: the
    // whole point of deterministic injection.
    let run = || {
        let mut m = Machine::new(
            MachineConfig::flash(4).with_faults(FaultPlan::stress(21)),
            streams(4, 16, 200, 3),
        );
        let RunResult::Completed { exec_cycles } = m.run(2_000_000_000) else {
            panic!("replay run stuck");
        };
        (exec_cycles, m.fault_stats().unwrap())
    };
    let (c0, s0) = run();
    let (c1, s1) = run();
    assert_eq!(c0, c1, "replay must be cycle-identical");
    assert_eq!(s0, s1, "replay must inject the identical fault schedule");
}
