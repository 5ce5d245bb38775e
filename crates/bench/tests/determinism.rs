//! Determinism under parallelism: a simulation point must produce a
//! field-for-field identical [`MachineReport`] whether it is run directly
//! on the caller's thread, prefetched by a single runner worker, or
//! prefetched by a pool of four workers. This is the property that makes
//! the parallel run-matrix driver safe: table output is byte-identical
//! for any `FLASH_JOBS`.

use flash::MachineConfig;
use flash_bench::{cached_run, clear_caches, prefetch_with, Job, RunSpec, WorkSpec};
use flash_workloads::{by_name, run_workload};

#[test]
fn reports_identical_serial_one_worker_four_workers() {
    let specs: Vec<RunSpec> = [
        (
            WorkSpec::Named {
                app: "FFT",
                procs: 2,
                scale: 64,
            },
            MachineConfig::flash(2),
        ),
        (
            WorkSpec::Named {
                app: "FFT",
                procs: 2,
                scale: 64,
            },
            MachineConfig::ideal(2),
        ),
        (
            WorkSpec::Named {
                app: "Radix",
                procs: 2,
                scale: 64,
            },
            MachineConfig::flash(2).with_cache_bytes(4 << 10),
        ),
    ]
    .into_iter()
    .map(|(work, cfg)| RunSpec { work, cfg })
    .collect();

    // Serial reference: exactly what the pre-runner code path did.
    let serial: Vec<_> = specs
        .iter()
        .map(|s| {
            let WorkSpec::Named { app, procs, scale } = s.work else {
                unreachable!()
            };
            let w = by_name(app, procs, scale);
            run_workload(&s.cfg, w.as_ref())
        })
        .collect();

    let jobs: Vec<Job> = specs.iter().cloned().map(Job::Run).collect();

    // One worker: jobs run inline on this thread through the memo cache.
    clear_caches();
    let ran = prefetch_with(&jobs, 1, None);
    assert_eq!(ran, specs.len(), "every unique point should simulate once");
    let one_worker: Vec<_> = specs.iter().map(cached_run).collect();

    // Four workers: jobs run on scoped worker threads.
    clear_caches();
    let ran = prefetch_with(&jobs, 4, None);
    assert_eq!(ran, specs.len());
    let four_workers: Vec<_> = specs.iter().map(cached_run).collect();

    for ((s, w1), w4) in serial.iter().zip(&one_worker).zip(&four_workers) {
        assert_eq!(s, w1, "serial vs 1-worker report mismatch");
        assert_eq!(w1, w4, "1-worker vs 4-worker report mismatch");
    }

    // And the memo cache really memoizes: a second prefetch is a no-op.
    assert_eq!(prefetch_with(&jobs, 4, None), 0);
}
