//! Parallel run-matrix driver with memoized simulation results.
//!
//! The table/figure regeneration functions in [`crate::tables`] share many
//! simulation points: the Figure 4.x FLASH runs are the same machine
//! configurations that Table 4.x, Table 5.1 (speculation on) and Table 5.2
//! re-measure, and the Table 3.3 latency harness is consulted by three
//! artifacts. This module enumerates every `(workload, config)` point a set
//! of artifacts needs as a [`Job`], deduplicates the list, executes it
//! across `std::thread::scope` workers, and memoizes each
//! [`MachineReport`] in a process-wide cache so every unique point
//! simulates exactly once per invocation.
//!
//! Determinism: each simulation owns its machine, its workload streams and
//! its [`flash_engine::DetRng`] instances; no simulation state is shared
//! between worker threads, so a point's report is bit-identical whether it
//! was computed inline, by one worker, or by eight. Rendering stays on the
//! caller's thread and reads only the cache, so table output is
//! byte-identical to the serial path for any worker count.
//!
//! Worker count: `FLASH_JOBS=n` forces `n` workers; the default is
//! [`std::thread::available_parallelism`]. `FLASH_JOBS=1` runs every job
//! on the caller's thread (no worker threads are spawned).
//!
//! Isolation: every job runs once under [`isolate::call`], so a panicking
//! point is recorded for [`drain_failures`] and the rest of the matrix
//! still runs. `FLASH_JOB_TIMEOUT=<seconds>` bounds each job's wall clock
//! at any worker count; a job that overruns it is abandoned on its own
//! detached thread and recorded the same way.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use flash::{ControllerKind, Machine, MachineConfig, MachineReport};
use flash_engine::knobs;
use flash_workloads::{budget, by_name, run_to_completion, run_workload_machine, Fft, OsWorkload};

use crate::{isolate, mdc_stress_stream, MissClass};

/// Locks a mutex, tolerating poisoning: a panicking job (isolated by
/// [`isolate::call`]) must not take the whole memo cache down with it.
/// Cache values are only written complete, so the inner state is always
/// usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// What to simulate: a workload family plus the parameters that pick one
/// member. Kept `Copy` + `Debug` so a spec both reconstructs the workload
/// and (via its `Debug` rendering) keys the memo cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkSpec {
    /// A named application from [`flash_workloads::by_name`].
    Named {
        /// Application name ("FFT", "Ocean", "OS", ...).
        app: &'static str,
        /// Processor count.
        procs: u16,
        /// Problem-size divisor.
        scale: u32,
    },
    /// FFT with an explicit matrix dimension (the §4.5 scaled-data run).
    FftDim {
        /// Processor count.
        procs: u16,
        /// Matrix dimension.
        dim: u64,
    },
    /// The original first-node IRIX port of the OS workload (§4.3).
    OsOriginalPort {
        /// Processor count.
        procs: u16,
        /// Problem-size divisor.
        scale: u32,
    },
    /// The §5.2 uniprocessor MDC stress stream.
    MdcStress {
        /// Data-set size in MB before scaling.
        data_mb: u64,
        /// Problem-size divisor.
        scale: u32,
    },
}

impl WorkSpec {
    /// Runs this workload under `cfg` to completion.
    fn execute(&self, cfg: &MachineConfig) -> Machine {
        match *self {
            WorkSpec::Named { app, procs, scale } => {
                let w = by_name(app, procs, scale);
                run_workload_machine(cfg, w.as_ref())
            }
            WorkSpec::FftDim { procs, dim } => {
                run_workload_machine(cfg, &Fft::with_dim(procs, dim))
            }
            WorkSpec::OsOriginalPort { procs, scale } => {
                run_workload_machine(cfg, &OsWorkload::scaled(procs, scale).original_port())
            }
            WorkSpec::MdcStress { data_mb, scale } => run_to_completion(
                Machine::new(cfg.clone(), mdc_stress_stream(data_mb, scale)),
                budget(),
                "mdc stress",
            ),
        }
    }
}

/// One point of the run matrix: a workload and the exact machine
/// configuration to run it under.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload selector.
    pub work: WorkSpec,
    /// Machine configuration (every knob participates in the memo key).
    pub cfg: MachineConfig,
}

impl RunSpec {
    /// Memo-cache key. `MachineConfig` derives `Debug` over every field,
    /// so two specs share a key exactly when they would simulate the same
    /// deterministic machine.
    pub fn key(&self) -> String {
        format!("{:?}|{:?}", self.work, self.cfg)
    }
}

/// One unit of prefetchable work.
///
/// The size skew between variants is deliberate: a job list holds at
/// most a few hundred entries, so boxing `RunSpec` would buy nothing.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum Job {
    /// A full workload simulation producing a [`MachineReport`].
    Run(RunSpec),
    /// One Table 3.3 no-contention latency measurement.
    Latency(ControllerKind, MissClass),
}

impl Job {
    fn key(&self) -> String {
        match self {
            Job::Run(s) => s.key(),
            Job::Latency(kind, class) => format!("lat|{kind:?}|{class:?}"),
        }
    }

    fn is_cached(&self, key: &str) -> bool {
        match self {
            Job::Run(_) => lock(run_cache()).contains_key(key),
            Job::Latency(..) => lock(lat_cache()).contains_key(key),
        }
    }

    /// Executes this job through the memo cache, discarding the result —
    /// it is retrievable via [`cached_run`] / [`cached_latency`].
    pub fn run(&self) {
        match self {
            Job::Run(spec) => {
                cached_run(spec);
            }
            Job::Latency(kind, class) => {
                cached_latency(*kind, *class);
            }
        }
    }
}

fn run_cache() -> &'static Mutex<HashMap<String, MachineReport>> {
    static CACHE: OnceLock<Mutex<HashMap<String, MachineReport>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lat_cache() -> &'static Mutex<HashMap<String, f64>> {
    static CACHE: OnceLock<Mutex<HashMap<String, f64>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// `FLASH_OBSERVE_OUT=<dir>` turns on observed mode for every run-matrix
/// job and exports each job's cycle-attribution report as
/// `<dir>/observe_<job>.json` (the `flash-observe-v1` schema of
/// `METRICS.md`) and its Chrome trace as `<dir>/trace_<job>.json`.
/// Observation is timing-invisible, so memoized reports and rendered
/// tables are unchanged; only the JSON files are added.
fn observe_out_dir() -> Option<&'static str> {
    static DIR: OnceLock<Option<String>> = OnceLock::new();
    DIR.get_or_init(|| knobs::OBSERVE_OUT.text()).as_deref()
}

/// 64-bit FNV-1a, for collision-proofing the export file names.
fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `<job>` part of a memo key's export file names: a readable sanitized
/// prefix plus the key's FNV-1a hash (distinct keys can sanitize alike).
fn export_stem(key: &str) -> String {
    let mut slug: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    slug.truncate(96);
    while slug.contains("__") {
        slug = slug.replace("__", "_");
    }
    format!("{}_{:016x}", slug.trim_matches('_'), fnv64(key))
}

/// Best-effort export of one observed job's attribution report and trace
/// (an unwritable directory must not fail the simulation that produced
/// the tables).
fn export_observe(dir: &str, key: &str, m: &Machine) {
    let (Some(report), Some(trace)) = (m.observe_report(), m.trace_json()) else {
        return;
    };
    let dir = std::path::Path::new(dir);
    let stem = export_stem(key);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("observe_{stem}.json")), report.to_json())?;
        std::fs::write(dir.join(format!("trace_{stem}.json")), trace)
    };
    if let Err(e) = write() {
        eprintln!(
            "[runner] observe export of {stem} to {} failed: {e}",
            dir.display()
        );
    }
}

/// Worker count: [`knobs::JOBS`] if set, otherwise the machine's
/// available parallelism (at least 1).
pub fn jobs() -> usize {
    knobs::JOBS
        .count()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Empties both memo caches (used by tests that compare cold serial and
/// cold parallel execution of the same matrix).
pub fn clear_caches() {
    lock(run_cache()).clear();
    lock(lat_cache()).clear();
}

/// Number of memoized simulation reports currently held.
pub fn cached_run_count() -> usize {
    lock(run_cache()).len()
}

/// Runs (or recalls) one simulation point. The lock is never held across
/// the simulation itself, so concurrent callers of *distinct* points
/// proceed in parallel; concurrent callers of the *same* point both
/// compute it and the first insertion wins — harmless, because the
/// simulation is deterministic and both results are identical.
pub fn cached_run(spec: &RunSpec) -> MachineReport {
    let key = spec.key();
    if let Some(r) = lock(run_cache()).get(&key) {
        return r.clone();
    }
    maybe_inject_panic(&key);
    maybe_inject_hang(&key);
    // With FLASH_OBSERVE_OUT set, the job executes under observation (the
    // memo key stays the caller's spec: observation is timing-invisible,
    // so the report's table-facing fields are identical either way) and
    // its attribution report and trace are exported.
    let report = match observe_out_dir() {
        Some(dir) => {
            let m = spec.work.execute(&spec.cfg.clone().with_observe(true));
            export_observe(dir, &key, &m);
            MachineReport::from_machine(&m)
        }
        None => MachineReport::from_machine(&spec.work.execute(&spec.cfg)),
    };
    lock(run_cache()).entry(key).or_insert(report).clone()
}

/// Runs (or recalls) one Table 3.3 latency measurement.
pub fn cached_latency(kind: ControllerKind, class: MissClass) -> f64 {
    let key = Job::Latency(kind, class).key();
    if let Some(v) = lock(lat_cache()).get(&key) {
        return *v;
    }
    maybe_inject_panic(&key);
    maybe_inject_hang(&key);
    let cfg = crate::base_cfg(kind, 3);
    let v = crate::measure_class_uncached(&cfg, class);
    if let Some(dir) = observe_out_dir() {
        export_observe(dir, &key, &crate::observed_class_scenario(&cfg, class));
    }
    *lock(lat_cache()).entry(key).or_insert(v)
}

/// Isolation self-test hook: `FLASH_INJECT_PANIC=<substring>` panics any
/// job whose memo key contains the substring, *after* the cache miss is
/// established (so only a real simulation attempt trips it). Used by the
/// panic-isolation tests; unset in normal operation.
fn maybe_inject_panic(key: &str) {
    if knobs::INJECT_PANIC
        .text()
        .is_some_and(|pat| key.contains(&pat))
    {
        panic!("FLASH_INJECT_PANIC matched `{key}`");
    }
}

/// Isolation self-test hook: `FLASH_INJECT_HANG=<substring>` stalls any
/// job whose memo key contains the substring for an hour — forever, on
/// test timescales — modelling a runaway simulation that ignores its
/// cycle budget. Exercises the wall-clock timeout and thread-abandonment
/// path; unset in normal operation.
fn maybe_inject_hang(key: &str) {
    if knobs::INJECT_HANG
        .text()
        .is_some_and(|pat| key.contains(&pat))
    {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

// ---- worker pool -----------------------------------------------------------

/// One job that failed: it panicked, or overran `FLASH_JOB_TIMEOUT`. The
/// matrix keeps going; failures are drained at the end and rendered as a
/// tail summary with a nonzero exit.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The job's memo key (identifies the simulation point).
    pub key: String,
    /// Why it failed: [`isolate::IsolateError`]'s display (the panic
    /// payload's first line, or the timeout).
    pub error: String,
}

fn failure_log() -> &'static Mutex<Vec<JobFailure>> {
    static LOG: OnceLock<Mutex<Vec<JobFailure>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Takes (and clears) every job failure recorded since the last drain.
/// Bins call this after rendering to decide their exit status.
pub fn drain_failures() -> Vec<JobFailure> {
    std::mem::take(&mut *lock(failure_log()))
}

/// Prefetches a job list with the default worker count ([`jobs`]) and the
/// `FLASH_JOB_TIMEOUT` wall-clock limit per job. Returns the number of
/// points actually simulated (attempted points count even if they
/// failed — see [`drain_failures`]).
pub fn prefetch(list: &[Job]) -> usize {
    prefetch_with(list, jobs(), knobs::JOB_TIMEOUT.seconds())
}

/// Deduplicates `list`, drops already-cached points, and executes the rest
/// on `workers` scoped threads (`workers <= 1`: on the caller's thread)
/// that take jobs in list order. Each job runs once under
/// [`isolate::call`]: a job that panics or overruns `timeout` is recorded
/// for [`drain_failures`] instead of killing the matrix, and an overrun
/// job's thread is abandoned, never joined. Returns the number of points
/// actually simulated.
pub fn prefetch_with(list: &[Job], workers: usize, timeout: Option<Duration>) -> usize {
    let mut seen = HashSet::new();
    let mut pending: Vec<Job> = Vec::new();
    for job in list {
        let key = job.key();
        if !job.is_cached(&key) && seen.insert(key) {
            pending.push(job.clone());
        }
    }
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some(job) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
            let owned = job.clone();
            if let Err(e) = isolate::call(timeout, move || owned.run()) {
                lock(failure_log()).push(JobFailure {
                    key: job.key(),
                    error: e.to_string(),
                });
            }
        }
    };
    let workers = workers.clamp(1, pending.len().max(1));
    if workers == 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(work);
            }
        });
    }
    pending.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_distinguish_every_knob() {
        let a = RunSpec {
            work: WorkSpec::Named {
                app: "FFT",
                procs: 4,
                scale: 8,
            },
            cfg: MachineConfig::flash(4),
        };
        let b = RunSpec {
            cfg: MachineConfig::flash(4).with_speculation(false),
            ..a.clone()
        };
        let c = RunSpec {
            work: WorkSpec::Named {
                app: "FFT",
                procs: 4,
                scale: 4,
            },
            ..a.clone()
        };
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_eq!(a.key(), a.clone().key());
    }

    #[test]
    fn same_cache_default_and_explicit_share_a_key() {
        // `flash()` defaults to 1 MB caches, so spelling the cache size
        // explicitly must dedupe against the default — this is what lets
        // Figure 4.1 share runs with tables that do not set a size.
        let work = WorkSpec::Named {
            app: "FFT",
            procs: 4,
            scale: 8,
        };
        let a = RunSpec {
            work,
            cfg: MachineConfig::flash(4),
        };
        let b = RunSpec {
            work,
            cfg: MachineConfig::flash(4).with_cache_bytes(1 << 20),
        };
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn observe_file_names_are_sane_and_collision_resistant() {
        let a = export_stem("lat|FlashEmulated|RemoteClean");
        let b = export_stem("lat|FlashEmulated|RemoteDirtyHome");
        assert_ne!(a, b);
        assert!(a.starts_with("lat_FlashEmulated_RemoteClean_"));
        assert!(a.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        // Keys that sanitize identically still get distinct files.
        let c = export_stem("lat.FlashEmulated.RemoteClean");
        assert_ne!(a, c);
        assert_eq!(&a[..a.len() - 17], &c[..c.len() - 17]);
    }

    #[test]
    fn prefetch_deduplicates_and_memoizes() {
        let spec = RunSpec {
            work: WorkSpec::Named {
                app: "FFT",
                procs: 2,
                scale: 64,
            },
            cfg: MachineConfig::flash(2),
        };
        let before = cached_run_count();
        let list = vec![
            Job::Run(spec.clone()),
            Job::Run(spec.clone()),
            Job::Run(spec.clone()),
        ];
        let ran = prefetch_with(&list, 2, None);
        assert!(
            ran <= 1,
            "duplicates must collapse to at most one run, got {ran}"
        );
        assert!(cached_run_count() >= before);
        // A later call finds everything cached.
        assert_eq!(prefetch_with(&list, 2, None), 0);
        // And cached_run returns the memoized report without re-simulating.
        let r1 = cached_run(&spec);
        let r2 = cached_run(&spec);
        assert_eq!(r1.exec_cycles, r2.exec_cycles);
    }
}
