//! Workload generators for the FLASH flexibility study.
//!
//! The paper drives its evaluation with SPLASH-family parallel
//! applications traced through Tango Lite and an IRIX multiprogramming
//! workload captured by SimOS (paper §3.4). This crate substitutes
//! synthetic reference-stream generators that reproduce the *address
//! stream shapes* of those programs — partitioned sweeps, all-to-all
//! transposes, pivot-block broadcasts, scatter permutations, stencil
//! boundary exchanges, tree walks, shared-cell collisions, and kernel
//! activity with migratory data structures — which is the level of detail
//! the paper's memory-system evaluation actually consumes.
//!
//! See [`apps`] for the seven workloads and [`run_workload`] for the
//! one-call experiment driver.

pub mod apps;
pub mod explicit;
pub mod phases;

pub use apps::{Barnes, Fft, HotspotFft, Lu, Mp3d, Ocean, OsWorkload, Radix, Workload};
pub use explicit::ExplicitWorkload;
pub use phases::{Phase, PhaseStream};

use flash::{Machine, MachineConfig, MachineReport, RunResult};

/// Per-run cycle budget (deadlock guard).
pub const DEFAULT_BUDGET: u64 = 40_000_000_000;

/// The per-run cycle budget: [`DEFAULT_BUDGET`].
pub fn budget() -> u64 {
    DEFAULT_BUDGET
}

/// Builds a machine for `workload` under `cfg` (node count and placement
/// are taken from the workload).
pub fn build_machine(cfg: &MachineConfig, workload: &dyn Workload) -> Machine {
    let mut cfg = cfg.clone();
    cfg.nodes = workload.procs();
    cfg.placement = workload.placement();
    let mut m = Machine::new(cfg, workload.streams());
    for (at, node, addr) in workload.dma_events() {
        m.add_dma_write(at, node, addr);
    }
    m
}

/// Runs `workload` on a machine configured by `cfg` and reports.
///
/// # Panics
///
/// As [`run_to_completion`].
pub fn run_workload(cfg: &MachineConfig, workload: &dyn Workload) -> MachineReport {
    MachineReport::from_machine(&run_workload_machine(cfg, workload))
}

/// Runs `workload` on a machine configured by `cfg` within the cycle
/// [`budget`] and returns the machine, for callers that need more than
/// its report.
///
/// # Panics
///
/// As [`run_to_completion`].
pub fn run_workload_machine(cfg: &MachineConfig, workload: &dyn Workload) -> Machine {
    run_to_completion(build_machine(cfg, workload), budget(), workload.name())
}

/// Runs `m` to completion within `budget` cycles and returns it.
///
/// # Panics
///
/// Panics, naming the run `what`, if the run exhausts the budget,
/// deadlocks, or wedges (forward-progress watchdog). The panic message
/// carries the full structured diagnosis so the run matrix's
/// failure table shows who was waiting on what.
pub fn run_to_completion(mut m: Machine, budget: u64, what: &str) -> Machine {
    match m.run(budget) {
        RunResult::Completed { .. } => m,
        RunResult::BudgetExhausted => panic!(
            "{what} exhausted the cycle budget\n{}",
            m.diagnose("cycle budget exhausted")
        ),
        RunResult::Deadlocked { stuck } => panic!(
            "{what} deadlocked with {stuck} processors unfinished\n{}",
            m.diagnose("event queue drained with processors unfinished")
        ),
        RunResult::Wedged { report } => panic!("{what} wedged\n{report}"),
    }
}

/// Constructs a paper-size workload by name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn by_name(name: &str, procs: u16, scale: u32) -> Box<dyn Workload> {
    match name {
        "Barnes" => Box::new(Barnes::scaled(procs, scale)),
        "FFT" => Box::new(Fft::scaled(procs, scale)),
        "LU" => Box::new(Lu::scaled(procs, scale)),
        "MP3D" => Box::new(Mp3d::scaled(procs, scale)),
        "Ocean" => Box::new(Ocean::scaled(procs, scale)),
        "OS" => Box::new(OsWorkload::scaled(procs, scale)),
        "Radix" => Box::new(Radix::scaled(procs, scale)),
        other => panic!("unknown workload `{other}`"),
    }
}

/// The parallel application names, in the paper's table order.
pub const PARALLEL_APPS: [&str; 6] = ["Barnes", "FFT", "LU", "MP3D", "Ocean", "Radix"];

#[cfg(test)]
mod tests {
    use super::*;
    use flash_cpu::WorkItem;

    #[test]
    fn all_workloads_produce_balanced_streams() {
        // Every stream must contain the same number of barriers per
        // processor (or the machine deadlocks) and terminate.
        for name in PARALLEL_APPS {
            let w = by_name(name, 4, 16);
            let streams = w.streams();
            assert_eq!(streams.len(), 4);
            let mut barrier_counts = Vec::new();
            for mut s in streams {
                let mut barriers = 0;
                let mut items = 0u64;
                let mut lock_depth: i64 = 0;
                loop {
                    match s.next_item() {
                        WorkItem::Done => break,
                        WorkItem::Barrier => barriers += 1,
                        WorkItem::Lock(_) => lock_depth += 1,
                        WorkItem::Unlock(_) => lock_depth -= 1,
                        _ => {}
                    }
                    items += 1;
                    assert!(items < 50_000_000, "{name}: runaway stream");
                }
                assert_eq!(lock_depth, 0, "{name}: unbalanced locks");
                barrier_counts.push(barriers);
            }
            assert!(
                barrier_counts.windows(2).all(|w| w[0] == w[1]),
                "{name}: unbalanced barriers {barrier_counts:?}"
            );
        }
    }

    #[test]
    fn os_workload_has_dma_and_rr_placement() {
        let w = OsWorkload::scaled(8, 4);
        assert!(matches!(
            w.placement(),
            flash::Placement::RoundRobinPages { .. }
        ));
        assert!(!w.dma_events().is_empty());
        let orig = w.original_port();
        assert!(matches!(orig.placement(), flash::Placement::FirstNode));
    }

    #[test]
    fn by_name_rejects_unknown() {
        let r = std::panic::catch_unwind(|| by_name("NotAnApp", 4, 1));
        assert!(r.is_err());
    }

    #[test]
    fn scaled_sizes_shrink() {
        let full = Fft::paper(16);
        let small = Fft::scaled(16, 8);
        assert!(small.dim < full.dim);
        let r = Radix::scaled(16, 16);
        assert!(r.keys < Radix::paper(16).keys);
    }
}
