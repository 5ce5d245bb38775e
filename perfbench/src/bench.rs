//! One benchmark invocation: the measured rounds of a workload, the
//! checks on their outputs, and the metrics they yield.
//!
//! A round sets up and runs the workload once. Rounds repeat while
//! another fits in `--seconds` (at least [`MIN_ROUNDS`]); timings are
//! medians over rounds. With `--trace 1` every round is followed by a
//! profiled copy, and the per-layer metrics come from those copies.

use std::time::Instant;

use flash::{ControllerKind, HostProfile, LatencyReport, LatencyTable};
use flash_bench::tables::repro_all_jobs;

use crate::alloc::allocations;
use crate::check::{same, Tally};
use crate::layers::{per_call_ns, Counters, SEGMENT_METRICS};
use crate::repro::{self, peak_rss_kb, ChildRun, MatrixRun};
use crate::stats::{median, HostSpeed, Spans};
use crate::workload::{run_round, Facts, Round, Workload};

/// Fewest measured rounds per invocation, whatever `--seconds` says
/// (traced invocations run every round twice, so they need fewer).
const MIN_ROUNDS: u32 = 3;
const MIN_TRACED_ROUNDS: u32 = 2;
/// Most measured rounds per invocation.
const MAX_ROUNDS: u32 = 100;
/// Set-up samples of the `repro` matrix per invocation.
const REPRO_SETUPS: u32 = 3;
/// The spans that make up one set-up.
const SETUP_SPANS: [&str; 3] = ["workloads.gen_s", "protocol.compile_s", "core.build_s"];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed (only `open1024` draws its inputs from it).
    pub seed: u64,
    /// How long to measure.
    pub seconds: u64,
    /// Report per-layer metrics from profiled runs instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 120)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value (the median, for a metric measured once per round).
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// Smallest and largest sample.
    pub range: (f64, f64),
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Runs attempted and failed.
    pub tally: Tally,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Reports the median of `samples` (0 when there are none).
    fn push(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        let finite = |v: f64| if v.is_finite() { v } else { 0.0 };
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.metrics.push(Metric {
            name,
            unit,
            value: finite(median(samples)),
            samples: samples.len(),
            range: (finite(min), finite(max)),
        });
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table of the metrics with their sample counts.
    pub fn table(&self) -> String {
        let mut s = format!(
            "runs attempted {}, failed {}, error rate {}\n",
            self.tally.attempted,
            self.tally.failed,
            self.tally.error_rate()
        );
        for m in &self.metrics {
            s.push_str(&format!(
                "  {:<32} {:>20.6} {:<9} n={:<3} [{:.6} .. {:.6}]\n",
                m.name, m.value, m.unit, m.samples, m.range.0, m.range.1
            ));
        }
        s
    }
}

/// Runs one invocation.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::Repro => run_repro(args),
        w => run_machine(w, args),
    }
}

/// Whether another round should run: always up to the minimum, then
/// while one more round of the mean length so far ends within
/// `seconds` of `start`.
fn more_rounds(round: u32, start: Instant, args: &Args) -> bool {
    let min = if args.trace {
        MIN_TRACED_ROUNDS
    } else {
        MIN_ROUNDS
    };
    if round < min {
        return true;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let next_end = elapsed * f64::from(round + 1) / f64::from(round);
    round < MAX_ROUNDS && next_end <= args.seconds as f64
}

/// The "all" row's p50, p99 and p999.
fn percentiles(r: &LatencyReport) -> [f64; 3] {
    r.rows
        .iter()
        .find(|row| row.class == "all")
        .map_or([0.0; 3], |a| [a.p50 as f64, a.p99 as f64, a.p999 as f64])
}

/// Largest relative error, in percent, of the measured FLASH Table 3.3
/// latencies against the paper's.
fn table33_err_pct() -> f64 {
    let measured = flash_bench::measure_latency_table(ControllerKind::FlashEmulated);
    measured
        .as_array()
        .iter()
        .zip(LatencyTable::paper_flash().as_array())
        .map(|(m, p)| 100.0 * (m - p).abs() / p)
        .fold(0.0, f64::max)
}

/// The end-to-end metrics shared by every workload.
struct EndToEnd {
    walls: Vec<f64>,
    setups: Vec<f64>,
    refs: u64,
    rss_mb: Vec<f64>,
    exec_cycles: u64,
    latency: Option<LatencyReport>,
}

impl EndToEnd {
    fn report(self, out: &mut Outcome) {
        out.push("wall_s", "s", &self.walls);
        out.push("setup_s", "s", &self.setups);
        let rates: Vec<f64> = self.walls.iter().map(|w| self.refs as f64 / w).collect();
        out.push("refs_per_s", "1/s", &rates);
        out.push("peak_rss_mb", "MB", &self.rss_mb);
        out.push("exec_cycles", "cycles", &[self.exec_cycles as f64]);
        let [p50, p99, p999] = self.latency.as_ref().map_or([0.0; 3], percentiles);
        out.push("lat_p50_cycles", "cycles", &[p50]);
        out.push("lat_p99_cycles", "cycles", &[p99]);
        out.push("lat_p999_cycles", "cycles", &[p999]);
        out.push("table33_err_pct", "%", &[table33_err_pct()]);
    }
}

/// The per-layer metrics shared by every workload.
struct PerLayer {
    spans: Spans,
    profiles: Vec<HostProfile>,
    untraced_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    counters: Counters,
    unique_sims: u64,
    listed_jobs: u64,
    setup_allocs: Vec<f64>,
    run_allocs: Vec<f64>,
}

impl PerLayer {
    fn report(self, out: &mut Outcome) {
        for (i, name) in SEGMENT_METRICS.iter().enumerate() {
            let ns: Vec<f64> = self.profiles.iter().map(|p| p.acc.ns[i] as f64).collect();
            out.push(name, "ns", &ns);
        }
        let coverage: Vec<f64> = self.profiles.iter().map(HostProfile::coverage).collect();
        out.push("trace.coverage", "ratio", &coverage);
        let untraced = median(&self.untraced_walls);
        let overhead = median(&self.traced_walls) / untraced;
        out.push("trace.overhead", "ratio", &[overhead]);
        for name in SETUP_SPANS
            .into_iter()
            .chain(["core.run_s", "runner.prefetch_s"])
        {
            out.push(name, "s", &self.spans.durations(name));
        }
        for (name, ns) in per_call_ns() {
            out.push(name, "ns", &[ns]);
        }
        let events = self.profiles.first().map_or(0, |p| p.acc.events) as f64;
        out.push("engine.events", "count", &[events]);
        out.push("host.ns_per_event", "ns/event", &[untraced * 1e9 / events]);
        for (name, unit, value) in self.counters.metrics() {
            out.push(name, unit, &[value]);
        }
        out.push("runner.unique_sims", "count", &[self.unique_sims as f64]);
        out.push("runner.listed_jobs", "count", &[self.listed_jobs as f64]);
        out.push("alloc.setup_allocs", "count", &self.setup_allocs);
        out.push("alloc.run_allocs", "count", &self.run_allocs);
    }
}

/// `mp3d`, `lu` and `open1024`.
fn run_machine(w: Workload, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let generated = w.generated_refs(args.seed);
    let mut spans = Spans::default();
    // Spans of profiled copies are not reported: the profiler's cost
    // would leak into the set-up and run spans.
    let mut profiled_spans = Spans::default();
    // An untimed warm-up fills the process-wide handler caches and the
    // allocator's pages first. It runs with the observer armed, which is
    // timing-invisible: its latency rows are the workload's, and its
    // counters must equal every timed round's. The peak resident set is
    // read after it, before any host-speed probe has used memory.
    let warm = run_round(w, args.seed, false, true, generated, &mut Spans::default());
    let warm = out.tally.record(&format!("{} warm-up", w.name()), warm);
    let rss_mb = peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0);
    let probed_round = |profiled: bool, spans: &mut Spans| {
        let speed = HostSpeed::probe(1);
        let r = run_round(w, args.seed, profiled, false, generated, spans);
        let scale = speed.scale();
        r.map(|r| r.scaled(scale))
    };
    let mut reference: Option<Facts> = None;
    let mut events: Option<u64> = None;
    let (mut untraced, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0;
    while more_rounds(round, start, args) {
        let r = probed_round(false, &mut spans).and_then(|r| {
            if let Some(warm) = &warm {
                same(
                    "counters of the warm-up and a timed run",
                    &warm.facts.counters,
                    &r.facts.counters,
                )?;
            }
            match &reference {
                Some(f) => same("simulated results of two rounds", f, &r.facts)?,
                None => reference = Some(r.facts.clone()),
            }
            Ok(r)
        });
        let what = format!("{} round {round}", w.name());
        untraced.extend(out.tally.record(&what, r));
        if args.trace {
            let t = probed_round(true, &mut profiled_spans).and_then(|t| {
                if let Some(f) = &reference {
                    same("simulated results of traced and untraced runs", f, &t.facts)?;
                }
                let n = t.profile.as_ref().map_or(0, |p| p.acc.events);
                same("profiled event counts", events.get_or_insert(n), &n)?;
                Ok(t)
            });
            traced.extend(out.tally.record(&format!("{what} traced"), t));
        }
        round += 1;
    }
    let facts = reference.unwrap_or(Facts {
        counters: Counters::default(),
        latency: None,
    });
    let walls = |rs: &[Round]| rs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    if args.trace {
        let allocs = |f: fn(&Round) -> u64| untraced.iter().map(|r| f(r) as f64).collect();
        PerLayer {
            profiles: traced.iter().filter_map(|r| r.profile.clone()).collect(),
            untraced_walls: walls(&untraced),
            traced_walls: walls(&traced),
            counters: facts.counters,
            unique_sims: 0,
            listed_jobs: 0,
            setup_allocs: allocs(|r| r.setup_allocs),
            run_allocs: allocs(|r| r.run_allocs),
            spans,
        }
        .report(&mut out);
    } else {
        EndToEnd {
            walls: walls(&untraced),
            setups: untraced.iter().map(|r| r.setup_s).collect(),
            refs: facts.counters.refs,
            rss_mb: vec![rss_mb],
            exec_cycles: facts.counters.exec_cycles,
            latency: warm.and_then(|w| w.facts.latency),
        }
        .report(&mut out);
    }
    out
}

/// `repro`.
fn run_repro(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let want = match std::fs::read(repro::golden_path()) {
        Ok(w) => w,
        Err(e) => {
            out.tally.record::<()>("repro golden", Err(e.to_string()));
            return out;
        }
    };
    let mut spans = Spans::default();
    let (mut setups, mut setup_allocs) = (Vec::new(), Vec::new());
    for _ in 0..REPRO_SETUPS {
        let (speed, a, t) = (HostSpeed::probe(1), allocations(), Instant::now());
        repro::setup(&mut spans);
        let secs = t.elapsed().as_secs_f64();
        setup_allocs.push((allocations() - a) as f64);
        setups.push(secs * speed.scale());
    }
    let specs = repro::unique_runs(&repro_all_jobs());
    let mut children: Vec<ChildRun> = Vec::new();
    let mut child = |out: &mut Outcome, round: u32| {
        let c = repro::run_child(&want).and_then(|c| {
            if let Some(first) = children.first() {
                same("per-job results of two runs", &first.jobs, &c.jobs)?;
            }
            Ok(c)
        });
        let c = out.tally.record(&format!("repro round {round}"), c);
        children.extend(c);
    };
    let start = Instant::now();
    if !args.trace {
        let mut round = 0;
        while more_rounds(round, start, args) {
            child(&mut out, round);
            round += 1;
        }
        let Some(first) = children.first() else {
            return out;
        };
        let latency = out
            .tally
            .record("repro observed", repro::headline_latency(&specs, first));
        EndToEnd {
            walls: children.iter().map(|c| c.wall_s).collect(),
            setups,
            refs: first.jobs.iter().map(|j| j.1).sum(),
            rss_mb: children.iter().map(|c| c.rss_kb as f64 / 1024.0).collect(),
            exec_cycles: first.jobs.iter().map(|j| j.0).sum(),
            latency,
        }
        .report(&mut out);
        return out;
    }

    child(&mut out, 0);
    let child_run = children.first().cloned();
    if let Some(c) = &child_run {
        spans.record("runner.prefetch_s", c.prefetch_s);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut untraced, mut traced): (Vec<MatrixRun>, Vec<MatrixRun>) = (Vec::new(), Vec::new());
    let mut run_allocs = Vec::new();
    let mut round = 0;
    while more_rounds(round, start, args) {
        let a = allocations();
        let u = repro::run_matrix(&specs, false, workers).and_then(|u| {
            if let Some(c) = &child_run {
                repro::agrees_with_child(&u, c)?;
            }
            Ok(u)
        });
        run_allocs.push((allocations() - a) as f64);
        if let Some(u) = out.tally.record(&format!("repro pool round {round}"), u) {
            spans.record("core.run_s", u.run_s);
            let t = repro::run_matrix(&specs, true, workers).and_then(|t| {
                same(
                    "per-job results of traced and untraced runs",
                    &u.jobs,
                    &t.jobs,
                )?;
                Ok(t)
            });
            traced.extend(
                out.tally
                    .record(&format!("repro pool round {round} traced"), t),
            );
            untraced.push(u);
        }
        round += 1;
    }
    PerLayer {
        profiles: traced.iter().map(|t| t.profile.clone()).collect(),
        untraced_walls: untraced.iter().map(|u| u.wall_s).collect(),
        traced_walls: traced.iter().map(|t| t.wall_s).collect(),
        counters: untraced.first().map(MatrixRun::total).unwrap_or_default(),
        unique_sims: child_run.as_ref().map_or(0, |c| c.unique),
        listed_jobs: child_run.as_ref().map_or(0, |c| c.listed),
        setup_allocs,
        run_allocs,
        spans,
    }
    .report(&mut out);
    out
}
