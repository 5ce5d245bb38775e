//! End-to-end tests of run-matrix job isolation and the repro process
//! boundary.
//!
//! The library-level tests drive [`flash_bench::prefetch_with`] directly
//! with the self-test hooks (`FLASH_INJECT_PANIC`, `FLASH_INJECT_HANG`)
//! and assert that a poisoned job is isolated, recorded once, and never
//! takes the rest of the matrix down. The subprocess tests run
//! `repro_all table_3_3` and pin the process contract: healthy runs
//! exit zero with no failure tail; poisoned runs exit nonzero with the
//! per-job failure table on stdout.

use flash::MachineConfig;
use flash_bench::runner::{clear_caches, drain_failures, prefetch_with, Job, RunSpec, WorkSpec};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the env-mutating tests: the hooks are process-global.
fn env_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

fn run_job(app: &'static str, scale: u32) -> Job {
    Job::Run(RunSpec {
        work: WorkSpec::Named {
            app,
            procs: 2,
            scale,
        },
        cfg: MachineConfig::flash(2),
    })
}

#[test]
fn injected_panic_is_isolated_and_recorded_once() {
    let _g = env_lock().lock().unwrap_or_else(|e| e.into_inner());
    clear_caches();
    drain_failures();
    // Poison exactly the FFT point; the LU point must be unaffected.
    std::env::set_var("FLASH_INJECT_PANIC", "app: \"FFT\", procs: 2, scale: 63");
    let jobs = vec![run_job("FFT", 63), run_job("LU", 63)];
    let ran = prefetch_with(&jobs, 2, None);
    std::env::remove_var("FLASH_INJECT_PANIC");
    assert_eq!(ran, 2, "both points must be attempted");
    let failures = drain_failures();
    assert_eq!(
        failures.len(),
        1,
        "only the poisoned job fails: {failures:?}"
    );
    assert!(failures[0].key.contains("FFT"));
    assert!(failures[0].error.contains("FLASH_INJECT_PANIC"));
    // The healthy point is cached; re-prefetching it is a no-op.
    assert_eq!(
        prefetch_with(&[run_job("LU", 63)], 2, None),
        0,
        "healthy job must have been cached despite its neighbour panicking"
    );
    // The poisoned point was never cached — with the hook gone it runs
    // cleanly, proving a failure does not poison the memo cache.
    assert_eq!(prefetch_with(&[run_job("FFT", 63)], 2, None), 1);
    assert!(drain_failures().is_empty());
}

/// Hangs the LU point (a runaway simulation that ignores its cycle
/// budget) under a 300 ms limit and asserts that `workers` workers
/// abandon it on wall clock, record it once, and still finish and cache
/// the FFT point. Each caller uses its own `scale` so the points are
/// distinct from every other test's.
fn hung_job_times_out(workers: usize, scale: u32) {
    let _g = env_lock().lock().unwrap_or_else(|e| e.into_inner());
    clear_caches();
    drain_failures();
    std::env::set_var(
        "FLASH_INJECT_HANG",
        format!("app: \"LU\", procs: 2, scale: {scale}"),
    );
    let t0 = Instant::now();
    let ran = prefetch_with(
        &[run_job("LU", scale), run_job("FFT", scale)],
        workers,
        Some(Duration::from_millis(300)),
    );
    std::env::remove_var("FLASH_INJECT_HANG");
    assert_eq!(ran, 2);
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "the pool must not wait out the hour-long hang"
    );
    let failures = drain_failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].key.contains("LU"));
    assert!(failures[0].error.contains("timed out"));
    // The healthy point completed and is cached.
    assert_eq!(prefetch_with(&[run_job("FFT", scale)], workers, None), 0);
}

#[test]
fn hung_job_times_out_and_the_matrix_completes() {
    hung_job_times_out(2, 62);
}

#[test]
fn hung_job_times_out_with_one_worker() {
    hung_job_times_out(1, 61);
}

#[test]
fn repro_binary_healthy_run_exits_zero_without_failure_tail() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("table_3_3")
        .env_remove("FLASH_INJECT_PANIC")
        .env_remove("FLASH_INJECT_HANG")
        .output()
        .expect("spawn repro_all table_3_3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "healthy repro must exit zero\n{stdout}"
    );
    assert!(
        !stdout.contains("== FAILURES =="),
        "healthy repro output must carry no failure tail\n{stdout}"
    );
    assert!(stdout.contains("Table 3.3"), "{stdout}");
}

#[test]
fn repro_binary_poisoned_run_exits_nonzero_with_failure_table() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("table_3_3")
        .env("FLASH_INJECT_PANIC", "lat|")
        .output()
        .expect("spawn repro_all table_3_3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "poisoned repro must exit nonzero\n{stdout}"
    );
    assert!(stdout.contains("== FAILURES =="), "{stdout}");
    assert!(
        stdout.contains("simulation job(s) failed"),
        "per-job failure table expected\n{stdout}"
    );
    assert!(stdout.contains("lat|"), "failed job keys listed\n{stdout}");
    assert!(
        stdout.contains("table_3_3"),
        "the artifact itself is reported incomplete\n{stdout}"
    );
}
