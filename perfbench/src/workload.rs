//! The single-machine workloads (`mp3d`, `lu`, `open1024`): their
//! inputs, set-up and one measured run each.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use flash::{HostProfile, LatencyReport, Machine, MachineConfig, PpBackend};
use flash_cpu::{RefStream, WorkItem};
use flash_pp::translate::Translated;
use flash_traffic::TrafficSpec;
use flash_workloads::{build_machine, by_name, DEFAULT_BUDGET};

use crate::alloc::allocations;
use crate::check::{completed, same};
use crate::layers::Counters;
use crate::stats::Spans;

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole `repro_all` job matrix, checked against its golden.
    Repro,
    /// Full-size MP3D on 16 processors, translated PP backend.
    Mp3d,
    /// Full-size LU on 16 processors.
    Lu,
    /// Open-loop Poisson/uniform traffic on a 1024-node mesh.
    Open1024,
}

/// Processors of the closed-loop applications (the paper's 16).
const PROCS: u16 = 16;

/// `open1024` shape. At 200 references per node the saturated machine
/// needs ~280 cycles per reference per node, so a mean gap of 550
/// cycles offers about half of capacity, well below the knee: the
/// backlog stays bounded.
const OPEN_NODES: u16 = 1024;
const OPEN_OBJECTS: u64 = 1 << 18;
const OPEN_ITEMS_PER_NODE: u64 = 200;
const OPEN_MEAN_GAP: u64 = 550;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Repro,
        Workload::Mp3d,
        Workload::Lu,
        Workload::Open1024,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::Mp3d => "mp3d",
            Workload::Lu => "lu",
            Workload::Open1024 => "open1024",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The machine configuration (single-machine workloads only).
    fn config(self) -> MachineConfig {
        match self {
            Workload::Mp3d => MachineConfig::flash(PROCS).with_pp_backend(PpBackend::Translated),
            Workload::Lu => MachineConfig::flash(PROCS),
            // The observer is part of this workload: its latency
            // histograms are the output a user of open-loop runs reads.
            Workload::Open1024 => MachineConfig::flash(OPEN_NODES).with_observe(true),
            Workload::Repro => unreachable!("repro runs a job matrix, not one machine"),
        }
    }

    fn app(self) -> &'static str {
        match self {
            Workload::Mp3d => "MP3D",
            Workload::Lu => "LU",
            _ => unreachable!("only the closed-loop applications have an app name"),
        }
    }

    fn traffic(seed: u64) -> TrafficSpec {
        TrafficSpec::poisson(
            OPEN_NODES,
            OPEN_OBJECTS,
            OPEN_ITEMS_PER_NODE,
            OPEN_MEAN_GAP,
            seed,
        )
    }

    /// References the workload's inputs contain, counted by draining a
    /// separate copy of them.
    pub fn generated_refs(self, seed: u64) -> u64 {
        let is_ref = |i: &WorkItem| matches!(i, WorkItem::Read(_) | WorkItem::Write(_));
        match self {
            Workload::Open1024 => Self::traffic(seed)
                .sources()
                .into_iter()
                .map(|mut s| std::iter::from_fn(|| s.next_arrival()).count() as u64)
                .sum(),
            _ => by_name(self.app(), PROCS, 1)
                .streams()
                .into_iter()
                .map(|mut s: Box<dyn RefStream>| {
                    std::iter::from_fn(|| Some(s.next_item()))
                        .take_while(|i| *i != WorkItem::Done)
                        .filter(is_ref)
                        .count() as u64
                })
                .sum(),
        }
    }

    /// Builds the machine, recording the set-up spans: input generation,
    /// handler compile + translate, machine construction.
    ///
    /// The machine itself takes the handler program from the process-wide
    /// cache, which only the first build in a process fills; compiling
    /// and translating uncached here makes every set-up sample pay what
    /// a fresh process pays.
    pub fn setup(self, seed: u64, profiled: bool, observed: bool, spans: &mut Spans) -> Machine {
        let mut cfg = self.config().with_host_profile(profiled);
        cfg.observe |= observed;
        spans.time("protocol.compile_s", || compile_uncached(&cfg));
        if self == Workload::Open1024 {
            let sources = spans.time("workloads.gen_s", || Self::traffic(seed).sources());
            spans.time("core.build_s", || Machine::new_open_loop(cfg, sources))
        } else {
            let w = spans.time("workloads.gen_s", || by_name(self.app(), PROCS, 1));
            spans.time("core.build_s", || build_machine(&cfg, w.as_ref()))
        }
    }
}

/// Compiles and translates the configuration's handler program without
/// the process-wide caches.
pub fn compile_uncached(cfg: &MachineConfig) {
    let program = if cfg.monitoring {
        flash_protocol::handlers::compile_monitoring(cfg.codegen)
    } else {
        flash_protocol::handlers::compile(cfg.codegen)
    };
    let program = Arc::new(program.expect("protocol handlers assemble"));
    if cfg.pp_backend == PpBackend::Translated {
        black_box(Translated::new(program));
    }
}

/// What one run of a workload produced that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Exact work counters.
    pub counters: Counters,
    /// Latency percentile rows (observed runs only).
    pub latency: Option<LatencyReport>,
}

/// One measured run of a single-machine workload. Its times are host
/// seconds until [`Round::scaled`] converts them.
#[derive(Debug, Clone)]
pub struct Round {
    /// Set-up time.
    pub setup_s: f64,
    /// Time in `Machine::run`.
    pub wall_s: f64,
    /// Simulated outputs.
    pub facts: Facts,
    /// The host profile, when the run was profiled.
    pub profile: Option<HostProfile>,
    /// Allocations during set-up.
    pub setup_allocs: u64,
    /// Allocations during the run.
    pub run_allocs: u64,
}

impl Round {
    /// The round with its times multiplied by `scale` (a
    /// [`HostSpeed::scale`](crate::stats::HostSpeed::scale) factor).
    pub fn scaled(self, scale: f64) -> Round {
        Round {
            setup_s: self.setup_s * scale,
            wall_s: self.wall_s * scale,
            ..self
        }
    }
}

/// Sets up and runs `w` once, checking that it completed and retired
/// exactly the `generated` references.
pub fn run_round(
    w: Workload,
    seed: u64,
    profiled: bool,
    observed: bool,
    generated: u64,
    spans: &mut Spans,
) -> Result<Round, String> {
    let a0 = allocations();
    let t = Instant::now();
    let mut m = w.setup(seed, profiled, observed, spans);
    let setup_s = t.elapsed().as_secs_f64();
    let a1 = allocations();
    let t = Instant::now();
    let result = m.run(DEFAULT_BUDGET);
    let wall_s = t.elapsed().as_secs_f64();
    let a2 = allocations();
    spans.record("core.run_s", wall_s);
    completed(&result)?;
    let facts = Facts {
        counters: Counters::of(&m),
        latency: m.latency_report(),
    };
    same("retired references", &generated, &facts.counters.refs)?;
    if w == Workload::Open1024 {
        same("admitted references", &generated, &facts.counters.admitted)?;
    }
    Ok(Round {
        setup_s,
        wall_s,
        facts,
        profile: m.host_profile().cloned(),
        setup_allocs: a1 - a0,
        run_allocs: a2 - a1,
    })
}
