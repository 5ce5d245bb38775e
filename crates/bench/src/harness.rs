//! Entry-point harness for the repro binaries.
//!
//! Every `repro_*` binary renders one or more artifacts (tables/figures)
//! whose simulation points run isolated in [`crate::runner`]'s worker
//! pool. The harness completes the robustness story at the process
//! boundary: a panicking render (one of its points failed, so
//! [`crate::cached_run`] re-hit the panic at render time) is caught, the
//! remaining artifacts still render, and the process exits nonzero with
//! a per-job failure table on stdout.
//!
//! On a fully healthy run nothing extra is printed and the exit status is
//! zero — repro output stays byte-identical to the pre-harness binaries.

use crate::isolate::first_line_of;
use crate::runner::{drain_failures, JobFailure};
use std::process::ExitCode;

/// One artifact that failed to render completely.
#[derive(Debug)]
struct ArtifactFailure {
    name: &'static str,
    error: String,
}

/// Runs one artifact render with panic isolation, returning the panic
/// message on failure.
fn run_artifact(name: &'static str, f: impl FnOnce()) -> Option<ArtifactFailure> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .err()
        .map(|payload| ArtifactFailure {
            name,
            error: first_line_of(payload),
        })
}

/// Renders the failure tail: the per-job failure table from the
/// runner plus any artifacts whose rendering panicked. Returns
/// whether anything failed.
fn report_failures(artifacts: &[ArtifactFailure], jobs: &[JobFailure]) -> bool {
    if artifacts.is_empty() && jobs.is_empty() {
        return false;
    }
    println!();
    println!("== FAILURES ==");
    if !jobs.is_empty() {
        println!("{} simulation job(s) failed:", jobs.len());
        println!("job | error");
        for j in jobs {
            println!("{} | {}", j.key, j.error);
        }
    }
    if !artifacts.is_empty() {
        println!("{} artifact(s) did not render completely:", artifacts.len());
        for a in artifacts {
            println!("  {}: {}", a.name, a.error);
        }
    }
    true
}

/// Main body for a single-artifact repro binary: render with panic
/// isolation, then print the failure tail and pick the exit status.
///
/// # Examples
///
/// ```no_run
/// use std::process::ExitCode;
///
/// fn main() -> ExitCode {
///     flash_bench::artifact_main("table_4_1", flash_bench::tables::table_4_1)
/// }
/// ```
pub fn artifact_main(name: &'static str, f: impl FnOnce()) -> ExitCode {
    if run_suite(&mut [(name, Some(Box::new(f)))]) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Main body for a multi-artifact repro binary (`repro_all`): every
/// artifact renders even if an earlier one fails; the failure tail lists
/// the runner's per-job failures and any incompletely rendered
/// artifacts, and the exit status is nonzero if anything failed.
///
/// Artifacts are `(name, Some(render))` pairs; the `Option` is taken as
/// each artifact runs.
#[allow(clippy::type_complexity)]
pub fn suite_main(artifacts: &mut [(&'static str, Option<Box<dyn FnOnce() + '_>>)]) -> ExitCode {
    if run_suite(artifacts) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Shared body for [`artifact_main`] / [`suite_main`]: renders every
/// artifact, prints the failure tail, and returns whether anything
/// failed (testable without comparing `ExitCode`s).
#[allow(clippy::type_complexity)]
fn run_suite(artifacts: &mut [(&'static str, Option<Box<dyn FnOnce() + '_>>)]) -> bool {
    let mut failed: Vec<ArtifactFailure> = Vec::new();
    for (name, f) in artifacts.iter_mut() {
        let f = f.take().expect("artifact taken twice");
        if let Some(fail) = run_artifact(name, f) {
            failed.push(fail);
        }
    }
    let jobs = drain_failures();
    report_failures(&failed, &jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_artifact_exits_success() {
        assert!(!run_suite(&mut [("noop", Some(Box::new(|| {})))]));
    }

    #[test]
    fn panicking_artifact_exits_failure_but_runs_the_rest() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static RAN: AtomicBool = AtomicBool::new(false);
        let failed = run_suite(&mut [
            ("boom", Some(Box::new(|| panic!("render failed")))),
            (
                "after",
                Some(Box::new(|| RAN.store(true, Ordering::SeqCst))),
            ),
        ]);
        assert!(failed);
        assert!(RAN.load(Ordering::SeqCst), "later artifacts must still run");
    }
}
