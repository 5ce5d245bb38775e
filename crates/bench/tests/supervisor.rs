//! End-to-end tests of run-matrix job isolation and the repro process
//! boundary.
//!
//! The library-level tests drive [`flash_bench::prefetch_with`] directly
//! with failures that really happen: a job whose cache size
//! `L2Cache::new` rejects panics, and real simulations overrun a tiny
//! wall-clock limit. They assert that a failed job is isolated, recorded
//! once, and never takes the rest of the matrix down. The subprocess
//! tests run `repro_all table_3_3` and pin the process contract: healthy
//! runs exit zero with no failure tail; runs whose jobs overrun
//! `FLASH_JOB_TIMEOUT` exit nonzero with the per-job failure table on
//! stdout.

use flash::MachineConfig;
use flash_bench::runner::{clear_caches, drain_failures, prefetch_with, Job, RunSpec, WorkSpec};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the pool tests: the memo caches and the failure log are
/// process-global.
fn pool_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

fn run_job(app: &'static str, scale: u32) -> Job {
    job_on(app, 2, scale, MachineConfig::flash(2))
}

fn job_on(app: &'static str, procs: u16, scale: u32, cfg: MachineConfig) -> Job {
    Job::Run(RunSpec {
        work: WorkSpec::Named { app, procs, scale },
        cfg,
    })
}

#[test]
fn injected_panic_is_isolated_and_recorded_once() {
    let _g = pool_lock().lock().unwrap_or_else(|e| e.into_inner());
    clear_caches();
    drain_failures();
    // A 3,000-byte cache is no power-of-two set count: building the FFT
    // point's processors panics. The LU point must be unaffected.
    let bad = job_on(
        "FFT",
        2,
        63,
        MachineConfig::flash(2).with_cache_bytes(3_000),
    );
    let jobs = vec![bad.clone(), run_job("LU", 63)];
    let ran = prefetch_with(&jobs, 2, None);
    assert_eq!(ran, 2, "both points must be attempted");
    let failures = drain_failures();
    assert_eq!(
        failures.len(),
        1,
        "only the panicking job fails: {failures:?}"
    );
    assert!(failures[0].key.contains("FFT"));
    assert!(failures[0].error.contains("bad cache size 3000"));
    // The healthy point is cached; re-prefetching it is a no-op.
    assert_eq!(
        prefetch_with(&[run_job("LU", 63)], 2, None),
        0,
        "healthy job must have been cached despite its neighbour panicking"
    );
    // The failed point was never cached: prefetching it again simulates
    // it again, and it fails again, once.
    assert_eq!(prefetch_with(&[bad], 2, None), 1);
    assert_eq!(drain_failures().len(), 1);
}

/// Wall-clock limit of the pool timeout tests: about 25 times what the
/// FFT points take, and about a twelfth of the slow points.
const LIMIT: Duration = Duration::from_millis(50);

/// Runs the slow point `slow` (a full-size MP3D, which takes 0.6 s or
/// more) beside a small FFT point under [`LIMIT`] and asserts that
/// `workers` workers abandon the slow one on wall clock, record it once,
/// and still finish and cache the FFT point. Each caller uses its own
/// points, because an abandoned simulation still finishes, and caches its
/// point, in the background.
fn slow_job_times_out(workers: usize, slow: Job, scale: u32) {
    let _g = pool_lock().lock().unwrap_or_else(|e| e.into_inner());
    clear_caches();
    drain_failures();
    let t0 = Instant::now();
    let ran = prefetch_with(&[slow, run_job("FFT", scale)], workers, Some(LIMIT));
    assert_eq!(ran, 2);
    // Waiting the slow point out would take over 0.6 s.
    assert!(
        t0.elapsed() < LIMIT * 8,
        "the pool must not wait out the slow point"
    );
    let failures = drain_failures();
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].key.contains("MP3D"));
    assert!(failures[0].error.contains("timed out"));
    // The healthy point completed and is cached.
    assert_eq!(prefetch_with(&[run_job("FFT", scale)], workers, None), 0);
}

#[test]
fn hung_job_times_out_and_the_matrix_completes() {
    slow_job_times_out(2, run_job("MP3D", 1), 62);
}

#[test]
fn hung_job_times_out_with_one_worker() {
    slow_job_times_out(1, job_on("MP3D", 4, 1, MachineConfig::flash(4)), 61);
}

#[test]
fn repro_binary_healthy_run_exits_zero_without_failure_tail() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("table_3_3")
        .env_remove("FLASH_JOB_TIMEOUT")
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
    // Each latency point takes tens of microseconds: at least one of the
    // ten overruns a one-microsecond limit.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .arg("table_3_3")
        .env("FLASH_JOB_TIMEOUT", "0.000001")
        .output()
        .expect("spawn repro_all table_3_3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "a repro with failed jobs must exit nonzero\n{stdout}"
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
