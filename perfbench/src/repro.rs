//! The `repro` workload: the whole `repro_all` job matrix.
//!
//! Timed runs execute the matrix exactly as the `repro_all` binary does
//! (deduplicated prefetch across the runner's workers, then every table
//! rendered from the memo cache) in a child process, so stdout can be
//! compared byte for byte with `tests/golden/repro_all.txt`. The child
//! reports its own spans and per-job results on stderr.
//!
//! The host profiler cannot be armed through the runner, so the traced
//! run re-executes the matrix's unique machine jobs on a pool of the
//! same width, each machine profiled, and checks that every job's
//! results equal the runner's.

use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use flash::{ControllerKind, HostProfile, LatencyReport, Machine, MachineConfig};
use flash_bench::tables::{self as t, repro_all_jobs};
use flash_bench::{base_cfg, cached_run, mdc_stress_stream, Job, RunSpec, WorkSpec};
use flash_engine::json::Json;
use flash_workloads::{budget, build_machine, by_name, Fft, OsWorkload};

use crate::check::{completed, golden, same};
use crate::layers::{merge_profiles, Counters};
use crate::stats::{HostSpeed, Spans};
use crate::workload::compile_uncached;

/// Argument that turns the benchmark binary into the `repro` child.
pub const CHILD_ARG: &str = "--repro-child";
/// Prefix of the child's result line on stderr.
const CHILD_MARK: &str = "perfbench-repro-child";

/// The golden transcript of `repro_all`.
pub fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden/repro_all.txt")
}

/// Peak resident set of this process in KiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The matrix's machine jobs, deduplicated by the runner's memo key, in
/// first-listed order.
pub fn unique_runs(jobs: &[Job]) -> Vec<RunSpec> {
    let mut seen = std::collections::HashSet::new();
    jobs.iter()
        .filter_map(|j| match j {
            Job::Run(spec) if seen.insert(spec.key()) => Some(spec.clone()),
            _ => None,
        })
        .collect()
}

/// Builds the machine for one matrix job, as the runner does.
pub fn build(spec: &RunSpec, profiled: bool) -> Machine {
    let cfg = spec.cfg.clone().with_host_profile(profiled);
    match spec.work {
        WorkSpec::Named { app, procs, scale } => {
            build_machine(&cfg, by_name(app, procs, scale).as_ref())
        }
        WorkSpec::FftDim { procs, dim } => build_machine(&cfg, &Fft::with_dim(procs, dim)),
        WorkSpec::OsOriginalPort { procs, scale } => {
            build_machine(&cfg, &OsWorkload::scaled(procs, scale).original_port())
        }
        WorkSpec::MdcStress { data_mb, scale } => {
            Machine::new(cfg, mdc_stress_stream(data_mb, scale))
        }
    }
}

/// One set-up sample of the matrix: job enumeration, an uncached
/// compile + translate of every handler variant the jobs use, and the
/// construction of every unique machine.
pub fn setup(spans: &mut Spans) {
    let specs = spans.time("workloads.gen_s", || unique_runs(&repro_all_jobs()));
    spans.time("protocol.compile_s", || {
        let mut variants: Vec<&MachineConfig> = Vec::new();
        for s in &specs {
            let c = &s.cfg;
            if c.controller == ControllerKind::FlashEmulated
                && !variants.iter().any(|v| {
                    v.codegen == c.codegen
                        && v.monitoring == c.monitoring
                        && v.pp_backend == c.pp_backend
                })
            {
                variants.push(c);
            }
        }
        variants.into_iter().for_each(compile_uncached);
    });
    spans.time("core.build_s", || {
        for s in &specs {
            drop(build(s, false));
        }
    });
}

/// The child: `repro_all`'s main with spans around the runner's
/// prefetch, then its facts on stderr.
pub fn child_main() -> ExitCode {
    let jobs = repro_all_jobs();
    let start = Instant::now();
    let unique = flash_bench::prefetch(&jobs);
    let prefetch_s = start.elapsed().as_secs_f64();
    let code = flash_bench::suite_main(&mut [
        ("table_3_2", Some(Box::new(t::table_3_2))),
        ("table_3_3", Some(Box::new(t::table_3_3))),
        ("table_3_4", Some(Box::new(t::table_3_4))),
        ("fig_4_1", Some(Box::new(t::fig_4_1))),
        ("table_4_1", Some(Box::new(t::table_4_1))),
        ("fig_4_2", Some(Box::new(t::fig_4_2))),
        ("fig_4_3", Some(Box::new(t::fig_4_3))),
        ("table_4_2", Some(Box::new(t::table_4_2))),
        ("sec_4_3_hotspot", Some(Box::new(t::sec_4_3_hotspot))),
        ("sec_4_5_scale64", Some(Box::new(t::sec_4_5_scale64))),
        ("table_5_1", Some(Box::new(t::table_5_1))),
        ("sec_5_2_mdc", Some(Box::new(t::sec_5_2_mdc))),
        ("table_5_2", Some(Box::new(t::table_5_2))),
        ("table_5_3", Some(Box::new(t::table_5_3))),
        ("sec_5_3_ppext", Some(Box::new(t::sec_5_3_ppext))),
        ("ablations", Some(Box::new(t::ablations))),
        ("flexibility_note", Some(Box::new(t::flexibility_note))),
    ]);
    let per_job = unique_runs(&jobs)
        .iter()
        .map(|s| {
            let r = cached_run(s);
            Json::Arr(vec![Json::UInt(r.exec_cycles), Json::UInt(r.references)])
        })
        .collect();
    let facts = Json::obj(vec![
        ("prefetch_s", Json::Float(prefetch_s)),
        ("unique", Json::UInt(unique as u64)),
        ("listed", Json::UInt(jobs.len() as u64)),
        ("rss_kb", Json::UInt(peak_rss_kb().unwrap_or(0))),
        ("jobs", Json::Arr(per_job)),
    ]);
    eprintln!("{CHILD_MARK} {}", facts.render());
    code
}

/// What one child run reported.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Spawn to exit, in reference seconds (see [`HostSpeed`]).
    pub wall_s: f64,
    /// Host seconds in the runner's prefetch.
    pub prefetch_s: f64,
    /// Simulations the prefetch ran.
    pub unique: u64,
    /// Jobs the matrix lists.
    pub listed: u64,
    /// The child's peak resident set, KiB.
    pub rss_kb: u64,
    /// `(exec_cycles, references)` per unique machine job.
    pub jobs: Vec<(u64, u64)>,
}

/// Runs the matrix in a child process and checks its stdout against
/// `want`.
pub fn run_child(want: &[u8]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    // The runner's workers use every core.
    let speed = HostSpeed::probe(flash_bench::runner::jobs());
    let start = Instant::now();
    let out = Command::new(exe)
        .arg(CHILD_ARG)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawning the repro child: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64() * speed.scale();
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!("repro child exited with {}: {tail:?}", out.status));
    }
    golden(&out.stdout, want)?;
    let line = stderr
        .lines()
        .find_map(|l| l.strip_prefix(CHILD_MARK))
        .ok_or("repro child printed no result line")?;
    let j = Json::parse(line.trim()).map_err(|e| format!("repro child result: {e:?}"))?;
    let num = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("child result lacks {k}"))
    };
    let jobs = j
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or("child result lacks jobs")?
        .iter()
        .map(|p| match p.as_arr() {
            Some([e, r]) => e.as_u64().zip(r.as_u64()),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed per-job results")?;
    Ok(ChildRun {
        wall_s,
        prefetch_s: j
            .get("prefetch_s")
            .and_then(Json::as_f64)
            .ok_or("child result lacks prefetch_s")?,
        unique: num("unique")?,
        listed: num("listed")?,
        rss_kb: num("rss_kb")?,
        jobs,
    })
}

/// One in-process pass over the unique machine jobs.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// The whole pass, in reference seconds (see [`HostSpeed`]).
    pub wall_s: f64,
    /// Host seconds in `Machine::run`, summed over jobs.
    pub run_s: f64,
    /// Counters per job, in [`unique_runs`] order.
    pub jobs: Vec<Counters>,
    /// Merged host profile (empty unless profiled).
    pub profile: HostProfile,
}

impl MatrixRun {
    /// Counters summed over every job.
    pub fn total(&self) -> Counters {
        let mut c = Counters::default();
        self.jobs.iter().for_each(|j| c.add(j));
        c
    }
}

/// Runs every job on `workers` threads, as the runner's prefetch does,
/// optionally with each machine's host profiler armed.
pub fn run_matrix(specs: &[RunSpec], profiled: bool, workers: usize) -> Result<MatrixRun, String> {
    type JobOut = Result<(Counters, Option<HostProfile>, f64), String>;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobOut>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    let speed = HostSpeed::probe(workers);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| loop {
                // A work index only: it publishes no other data.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut m = build(spec, profiled);
                    let t = Instant::now();
                    let result = m.run(budget());
                    let run_s = t.elapsed().as_secs_f64();
                    completed(&result)?;
                    Ok((Counters::of(&m), m.host_profile().cloned(), run_s))
                }))
                .unwrap_or_else(|_| Err(format!("job {} panicked", spec.key())));
                *slots[i]
                    .lock()
                    .expect("no job holds the lock while panicking") = Some(out);
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64() * speed.scale();
    let mut run = MatrixRun {
        wall_s,
        run_s: 0.0,
        jobs: Vec::with_capacity(specs.len()),
        profile: HostProfile::default(),
    };
    for slot in slots {
        let (c, p, run_s) = slot
            .into_inner()
            .expect("workers have joined")
            .ok_or("job never ran")??;
        if let Some(p) = p {
            merge_profiles(&mut run.profile, &p);
        }
        run.run_s += run_s;
        run.jobs.push(c);
    }
    Ok(run)
}

/// The pool's per-job results must equal the runner's.
pub fn agrees_with_child(run: &MatrixRun, child: &ChildRun) -> Result<(), String> {
    let pool: Vec<(u64, u64)> = run.jobs.iter().map(|c| (c.exec_cycles, c.refs)).collect();
    same(
        "per-job (exec_cycles, references) of pool and runner",
        &child.jobs,
        &pool,
    )
}

/// Latency percentiles of the matrix's headline point (MP3D, FLASH,
/// 1 MB caches), from an observed re-run that must match the runner's
/// execution cycles for that job.
pub fn headline_latency(specs: &[RunSpec], child: &ChildRun) -> Result<LatencyReport, String> {
    let headline = RunSpec {
        work: WorkSpec::Named {
            app: "MP3D",
            procs: 16,
            scale: 4,
        },
        cfg: base_cfg(ControllerKind::FlashEmulated, 16).with_cache_bytes(1 << 20),
    };
    let i = specs
        .iter()
        .position(|s| s.key() == headline.key())
        .ok_or("the matrix no longer lists its MP3D headline point")?;
    let observed = RunSpec {
        cfg: headline.cfg.clone().with_observe(true),
        ..headline
    };
    let runner_cycles = child
        .jobs
        .get(i)
        .ok_or("the child reported too few jobs")?
        .0;
    let mut m = build(&observed, false);
    let cycles = completed(&m.run(budget()))?;
    same(
        "observed headline execution cycles",
        &runner_cycles,
        &cycles,
    )?;
    m.latency_report()
        .ok_or_else(|| "observed run has no latency report".to_string())
}
