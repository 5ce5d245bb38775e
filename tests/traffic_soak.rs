//! Open-loop traffic soak: the arrival machinery composed with the whole
//! correctness net.
//!
//! Runs seeded open-loop traffic through the detailed machine with the
//! deterministic fault injector armed and checked mode on, then asserts
//! the stack still converges with the net quiet: timing faults may grow
//! the admission backlog, but they must never change what the protocol
//! computes, lose an arrival, or wedge the machine. Failures print a
//! ready-to-paste `minimize --traffic` invocation (the open-loop
//! [`flash_minimize::Spec`] source, which materializes arrival gaps into
//! `Busy` pacing so the ordinary stream shrinker applies).
//!
//! `FLASH_SOAK_SEEDS=n` widens the per-configuration seed sweep (CI
//! sets it; the default keeps `cargo test` fast).

use flash::{FaultPlan, Machine, MachineConfig, RunResult};
use flash_engine::knobs;
use flash_minimize::{FaultsSpec, Predicate, Spec};
use flash_traffic::TrafficSpec;

/// Seeds per configuration; `FLASH_SOAK_SEEDS` widens the sweep.
fn seeds(default: u64) -> u64 {
    knobs::SOAK_SEEDS.count().unwrap_or(default)
}

fn spec(nodes: u16, objects: u64, items: u64, gap: u64, seed: u64) -> TrafficSpec {
    TrafficSpec::poisson(nodes, objects, items, gap, seed)
}

/// The ready-to-paste `minimize` invocation for this soak configuration.
fn shrink_hint(t: &TrafficSpec, faults: FaultsSpec, predicate: Predicate) -> String {
    let spec = Spec::traffic(t.nodes, t.objects, t.items_per_node, t.mean_gap, t.seed)
        .with_faults(faults)
        .with_check(true)
        .with_predicate(predicate);
    format!(
        "to shrink this failure to a minimal repro, run:\n  {}",
        spec.command_line()
    )
}

/// Runs one faulted, checked open-loop configuration to completion and
/// returns the machine for further assertions.
fn soak(cfg: MachineConfig, t: &TrafficSpec, faults: FaultsSpec) -> Machine {
    let plan = match faults {
        FaultsSpec::None => FaultPlan::none(),
        FaultsSpec::Zeroed(s) => FaultPlan::zeroed(s),
        FaultsSpec::Light(s) => FaultPlan::light(s),
        FaultsSpec::Stress(s) => FaultPlan::stress(s),
    };
    let mut m = Machine::new_open_loop(cfg.with_check(true).with_faults(plan), t.sources());
    match m.run(2_000_000_000) {
        RunResult::Completed { .. } => {}
        RunResult::Wedged { report } => panic!(
            "traffic seed {} wedged under faults\n{report}\n{}",
            t.seed,
            shrink_hint(t, faults, Predicate::Wedge { fingerprint: None })
        ),
        other => panic!(
            "traffic seed {} did not converge under faults: {other:?}\n{}",
            t.seed,
            m.diagnose("traffic soak did not converge")
        ),
    }
    let violations = m.check_violations();
    assert!(
        violations.is_empty(),
        "traffic seed {}: faults must be timing-only; {} violation(s):\n{}\n{}",
        t.seed,
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n"),
        shrink_hint(t, faults, Predicate::Violation { fingerprint: None })
    );
    let stats = m.traffic_stats().expect("open-loop machine");
    let arrivals: u64 = stats.iter().map(|(_, s)| s.arrivals).sum();
    let admitted: u64 = stats.iter().map(|(_, s)| s.admitted).sum();
    assert_eq!(
        arrivals,
        t.nodes as u64 * t.items_per_node,
        "seed {}: every scheduled arrival must be delivered",
        t.seed
    );
    assert_eq!(
        admitted, arrivals,
        "seed {}: a completed run admits everything",
        t.seed
    );
    m
}

#[test]
fn traffic_soak_flash_4() {
    for seed in 0..seeds(2) {
        let t = spec(4, 256, 200, 30, seed);
        let m = soak(MachineConfig::flash(4), &t, FaultsSpec::Stress(0xF0 + seed));
        let stats = m.fault_stats().expect("injector armed");
        assert!(
            stats.hop_spikes + stats.link_stalls + stats.ni_freezes + stats.pp_bursts > 0,
            "seed {seed}: the stress plan must actually inject"
        );
        assert!(m.oracle_checked() > 0, "oracle must run under faults");
    }
}

#[test]
fn traffic_soak_overload() {
    // Offered load well past capacity: the backlog grows deep and every
    // admission drains a multi-item burst, under faults, with the
    // oracle watching. The run still completes (sources are finite) and
    // still conserves arrivals.
    for seed in 0..seeds(2) {
        let t = spec(4, 4096, 400, 5, 0x30 + seed);
        let m = soak(MachineConfig::flash(4), &t, FaultsSpec::Light(0x31 + seed));
        let stats = m.traffic_stats().unwrap();
        assert!(
            stats.iter().any(|(_, s)| s.peak_backlog > 1),
            "seed {seed}: overload must actually queue"
        );
    }
}

#[test]
fn traffic_soak_sharded_is_identical() {
    // Faults + checked mode + open-loop arrivals, run under 1 and 2
    // shards: cycle-identical, stat-identical. The composition stress
    // that matters for the conservative-window engine.
    let t = spec(4, 256, 150, 25, 9);
    let run = |shards: usize| {
        let m = soak(
            MachineConfig::flash(4).with_shards(shards),
            &t,
            FaultsSpec::Light(0x90),
        );
        (m.exec_cycles(), m.traffic_stats(), m.fault_stats())
    };
    assert_eq!(run(1), run(2), "shard count must be timing-invisible");
}
