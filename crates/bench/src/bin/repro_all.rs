//! Regenerates the tables and figures of the paper's evaluation:
//! `repro_all` renders every artifact, `repro_all NAME…` only the named
//! ones (the names of [`flash_bench::tables::ARTIFACTS`]), in the order
//! given. Set `FLASH_SCALE=1` for the paper's problem sizes and
//! `FLASH_JOBS=n` to control how many simulations run concurrently
//! (default: all cores).
//!
//! Robustness: each artifact renders under panic isolation, so a single
//! wedged or panicked simulation point degrades the run to a failure
//! summary at the end (and a nonzero exit status) instead of killing the
//! remaining artifacts. An unknown name is rejected before anything is
//! simulated: the valid names go to stderr and the exit status is 2.
use flash_bench::tables::{prefetch_all, ARTIFACTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut selected = Vec::new();
    for arg in std::env::args_os().skip(1) {
        let arg = arg.to_string_lossy();
        let Some(&artifact) = ARTIFACTS.iter().find(|(name, _)| *name == arg) else {
            eprintln!("repro_all: unknown artifact {arg:?}; the artifacts are:");
            for (name, _) in ARTIFACTS {
                eprintln!("  {name}");
            }
            return ExitCode::from(2);
        };
        selected.push(artifact);
    }
    if selected.is_empty() {
        // Simulate the whole deduplicated run matrix up front, in
        // parallel; the renders below are then pure cache reads. Jobs
        // that fail are recorded by the runner and re-surface as
        // render-time panics in the artifacts that need them. A named
        // artifact prefetches its own points as it renders.
        prefetch_all();
        selected = ARTIFACTS.to_vec();
    }
    flash_bench::suite_main(
        &mut selected
            .into_iter()
            .map(|(name, render)| (name, Some(Box::new(render) as Box<dyn FnOnce()>)))
            .collect::<Vec<_>>(),
    )
}
