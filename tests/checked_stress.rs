//! Checked-mode stress: the `flash-check` correctness net on live runs.
//!
//! Drives seeded random workloads (hot-set contention, lock triples,
//! barriers) through the detailed FLASH machine with checked mode on and
//! asserts the full correctness net stays quiet:
//!
//! * coherence invariants (SWMR, directory/cache agreement) per event,
//! * directory audits (list integrity, stuck PENDING/acks) per line,
//! * pointer-store conservation and MSHR drain at end of run,
//! * the native-vs-PP differential oracle on every handler invocation.
//!
//! Also pins the contract that checked mode never perturbs timing: the
//! same workload with `check` on and off finishes at the same cycle.

use flash::{Machine, MachineConfig, RunResult};
use flash_cpu::{RefStream, SliceStream};
use flash_engine::knobs;
use flash_minimize::{Predicate, Spec};

/// Seeds per configuration; `FLASH_SOAK_SEEDS` widens the sweep for
/// soak runs.
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
/// this stress configuration to a minimal `flash-repro-v1` artifact.
fn shrink_hint(
    cfg: &MachineConfig,
    lines: u64,
    items: usize,
    seed: u64,
    predicate: Predicate,
) -> String {
    let mut spec = Spec::stress(cfg.nodes, lines, items, seed)
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

fn run_checked(cfg: MachineConfig, lines_per_node: u64, items: usize, seed: u64) -> Machine {
    let nodes = cfg.nodes;
    let kind = cfg.controller;
    let mut m = Machine::new(
        cfg.clone().with_check(true),
        streams(nodes, lines_per_node, items, seed),
    );
    assert!(m.checked_mode());
    match m.run(500_000_000) {
        RunResult::Completed { .. } => {}
        RunResult::Wedged { report } => panic!(
            "{kind:?}: checked stress wedged (seed {seed})\n{report}\n{}",
            shrink_hint(
                &cfg,
                lines_per_node,
                items,
                seed,
                Predicate::Wedge { fingerprint: None }
            )
        ),
        other => panic!("{kind:?}: checked stress stuck (seed {seed}): {other:?}"),
    }
    let violations = m.check_violations();
    assert!(
        violations.is_empty(),
        "seed {seed}: {} violation(s):\n{}\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n"),
        shrink_hint(
            &cfg,
            lines_per_node,
            items,
            seed,
            Predicate::Violation { fingerprint: None }
        )
    );
    m
}

#[test]
fn checked_stress_flash_4() {
    for seed in 0..seeds(4) {
        let m = run_checked(MachineConfig::flash(4), 16, 300, seed);
        assert!(
            m.oracle_checked() > 0,
            "oracle must have compared handler invocations"
        );
    }
}

#[test]
fn checked_stress_flash_8() {
    for seed in 0..seeds(3) {
        let m = run_checked(MachineConfig::flash(8), 12, 250, 40 + seed);
        assert!(m.oracle_checked() > 0);
    }
}

#[test]
fn checked_stress_small_cache_evictions() {
    // Tiny caches force writebacks and replacement hints mid-transaction;
    // the richest source of transient directory states.
    for seed in 0..seeds(3) {
        run_checked(
            MachineConfig::flash(4).with_cache_bytes(4 << 10),
            96,
            300,
            80 + seed,
        );
    }
}

#[test]
fn checked_stress_ideal() {
    for seed in 0..seeds(3) {
        // The ideal controller runs the native handlers, so the oracle is
        // inert, but the machine-level invariants still apply.
        let m = run_checked(MachineConfig::ideal(4), 16, 300, 160 + seed);
        assert_eq!(m.oracle_checked(), 0, "oracle only arms FlashEmulated");
    }
}

#[test]
fn checked_stress_emulated_backend() {
    // The other sweeps run the default translated PP; this one arms the
    // reference emulator, so the native-vs-PP differential oracle stays
    // quiet on both backends.
    use flash::PpBackend;
    for seed in 0..seeds(3) {
        let m = run_checked(
            MachineConfig::flash(4).with_pp_backend(PpBackend::Emulated),
            16,
            300,
            200 + seed,
        );
        assert!(m.oracle_checked() > 0);
    }
}

#[test]
fn pp_backends_are_cycle_identical() {
    // The PP backend is a host-performance knob, never a model knob:
    // the same workload must finish at the same cycle with identical
    // per-processor stats under the emulator and the translated path.
    use flash::PpBackend;
    let base = MachineConfig::flash(4);
    let mut emu = Machine::new(
        base.clone().with_pp_backend(PpBackend::Emulated),
        streams(4, 16, 250, 11),
    );
    let mut fast = Machine::new(
        base.with_pp_backend(PpBackend::Translated),
        streams(4, 16, 250, 11),
    );
    let RunResult::Completed { exec_cycles: c0 } = emu.run(500_000_000) else {
        panic!("emulated run stuck");
    };
    let RunResult::Completed { exec_cycles: c1 } = fast.run(500_000_000) else {
        panic!("translated run stuck");
    };
    assert_eq!(c0, c1, "backend changed the finish cycle");
    for (a, b) in emu.procs().iter().zip(fast.procs()) {
        assert_eq!(a.finish_time(), b.finish_time());
        assert_eq!(a.stats().read_stall_q, b.stats().read_stall_q);
        assert_eq!(a.stats().write_stall_q, b.stats().write_stall_q);
    }
    let ra = flash::MachineReport::from_machine(&emu);
    let rb = flash::MachineReport::from_machine(&fast);
    assert_eq!(ra.pp_stats, rb.pp_stats, "PP statistics diverged");
}

#[test]
fn checked_mode_does_not_perturb_timing() {
    // The check flag must be timing-invisible: identical finish cycles
    // and execution stats with the net on and off.
    let base = MachineConfig::flash(4);
    let mut plain = Machine::new(base.clone(), streams(4, 16, 200, 7));
    let mut checked = Machine::new(base.with_check(true), streams(4, 16, 200, 7));
    let RunResult::Completed { exec_cycles: c0 } = plain.run(500_000_000) else {
        panic!("plain run stuck");
    };
    let RunResult::Completed { exec_cycles: c1 } = checked.run(500_000_000) else {
        panic!("checked run stuck");
    };
    assert_eq!(c0, c1, "checked mode changed the finish cycle");
    for (a, b) in plain.procs().iter().zip(checked.procs()) {
        assert_eq!(a.finish_time(), b.finish_time());
        assert_eq!(a.stats().read_stall_q, b.stats().read_stall_q);
        assert_eq!(a.stats().write_stall_q, b.stats().write_stall_q);
    }
}

#[test]
fn monitoring_disarms_oracle_but_keeps_invariants() {
    // The monitoring variant's handlers write counters the native oracle
    // does not model, so the differential is disabled; the machine-level
    // net still runs and must stay quiet.
    let cfg = MachineConfig::flash(4)
        .with_monitoring(true)
        .with_check(true);
    let mut m = Machine::new(cfg, streams(4, 16, 200, 9));
    let RunResult::Completed { .. } = m.run(500_000_000) else {
        panic!("monitoring run stuck");
    };
    assert_eq!(m.oracle_checked(), 0);
    let violations = m.check_violations();
    assert!(violations.is_empty(), "{violations:?}");
}

/// Runs `name` (4 processors, problem size / 16) on `cfg` to completion
/// and returns its execution cycles and any check violations.
fn run_app(name: &str, cfg: &MachineConfig) -> (u64, Vec<flash_check::Violation>) {
    let w = flash_workloads::by_name(name, 4, 16);
    let mut m = flash_workloads::build_machine(cfg, w.as_ref());
    let RunResult::Completed { exec_cycles } = m.run(flash_workloads::budget()) else {
        panic!("{name} did not complete (check {})", cfg.check);
    };
    (exec_cycles, m.check_violations())
}

#[test]
fn checked_phase_workloads() {
    // The application workloads reach the processor as whole sweep lines
    // (runs), which the stress streams above never produce: the net must
    // stay quiet on them, and checking must not move their finish cycle.
    for name in ["LU", "MP3D"] {
        let (plain, _) = run_app(name, &MachineConfig::flash(4));
        let (checked, violations) = run_app(name, &MachineConfig::flash(4).with_check(true));
        assert!(violations.is_empty(), "{name}: {violations:?}");
        assert_eq!(
            plain, checked,
            "{name}: checked mode changed the finish cycle"
        );
    }
}
