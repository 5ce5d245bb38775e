//! Shared experiment drivers for the paper's tables and figures.
//!
//! [`tables`] holds one render function per table or figure of the
//! paper's evaluation, and the `repro_all` binary renders them; this
//! library holds the common machinery: scale selection, the Table 3.3
//! latency measurement harness, and the standard application suite
//! runner.
//!
//! Scale control: the artifacts default to reduced problem sizes
//! (`scale = 4`) so the whole suite regenerates in seconds. Set
//! `FLASH_SCALE=1` for the paper's Table 3.5 sizes, or `FLASH_SCALE=n`
//! for another divisor.

pub mod harness;
pub mod isolate;
pub mod runner;
pub mod tables;

pub use harness::suite_main;
pub use runner::{
    cached_latency, cached_run, clear_caches, drain_failures, prefetch, prefetch_with, Job,
    JobFailure, RunSpec, WorkSpec,
};

use flash::config::node_addr;
use flash::{ControllerKind, LatencyTable, Machine, MachineConfig, MachineReport};
use flash_cpu::{RefStream, SliceStream, WorkItem};
use flash_engine::{knobs, NodeId, SEGMENT_COUNT};
use flash_workloads::{by_name, run_to_completion, Workload};

/// Problem-size divisor ([`knobs::SCALE`]).
pub fn scale() -> u32 {
    knobs::SCALE.count().unwrap_or(4)
}

/// Processor count for the parallel applications ([`knobs::PROCS`];
/// paper: 16).
pub fn parallel_procs() -> u16 {
    knobs::PROCS.count().unwrap_or(16)
}

/// Processor count for the OS workload (paper: 8).
pub fn os_procs() -> u16 {
    parallel_procs().min(8)
}

/// The applications run at each cache size (paper §3.4: LU and OS are not
/// simulated at the small sizes, Barnes not at 4 KB; Ocean uses 16 KB in
/// place of 4 KB).
pub fn apps_at(cache_bytes: u64) -> Vec<&'static str> {
    match cache_bytes {
        b if b >= (1 << 20) => vec!["Barnes", "FFT", "LU", "MP3D", "Ocean", "Radix"],
        b if b >= (64 << 10) => vec!["Barnes", "FFT", "MP3D", "Ocean", "Radix"],
        _ => vec!["FFT", "MP3D", "Ocean", "Radix"],
    }
}

/// Effective cache size for an app at the "4 KB" level (Ocean: 16 KB,
/// paper footnote 2).
pub fn small_cache_for(app: &str, cache_bytes: u64) -> u64 {
    if app == "Ocean" && cache_bytes < (16 << 10) {
        16 << 10
    } else {
        cache_bytes
    }
}

/// Builds the named workload at the current scale.
pub fn workload(app: &str) -> Box<dyn Workload> {
    let procs = if app == "OS" {
        os_procs()
    } else {
        parallel_procs()
    };
    by_name(app, procs, scale())
}

/// The run-matrix point for one app on one controller kind at a cache
/// size, capturing the current scale/processor environment.
pub fn run_spec(app: &'static str, kind: ControllerKind, cache_bytes: u64) -> RunSpec {
    let procs = if app == "OS" {
        os_procs()
    } else {
        parallel_procs()
    };
    RunSpec {
        work: WorkSpec::Named {
            app,
            procs,
            scale: scale(),
        },
        cfg: base_cfg(kind, procs).with_cache_bytes(small_cache_for(app, cache_bytes)),
    }
}

/// Runs one app on one controller kind at a cache size (memoized: repeat
/// calls with the same point return the cached report).
pub fn run_app(app: &'static str, kind: ControllerKind, cache_bytes: u64) -> MachineReport {
    cached_run(&run_spec(app, kind, cache_bytes))
}

/// Standard configuration for a controller kind.
pub fn base_cfg(kind: ControllerKind, procs: u16) -> MachineConfig {
    match kind {
        ControllerKind::FlashEmulated => MachineConfig::flash(procs),
        ControllerKind::Ideal => MachineConfig::ideal(procs),
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

// ====================================================================
// Table 3.3 measurement harness
// ====================================================================

/// One read-miss class scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissClass {
    /// Local read, clean at home.
    LocalClean,
    /// Local read, dirty in a remote cache.
    LocalDirtyRemote,
    /// Remote read, clean at home.
    RemoteClean,
    /// Remote read, dirty in the home node's cache.
    RemoteDirtyHome,
    /// Remote read, dirty in a third node's cache.
    RemoteDirtyRemote,
}

impl MissClass {
    /// All classes in Table 3.3 order.
    pub const ALL: [MissClass; 5] = [
        MissClass::LocalClean,
        MissClass::LocalDirtyRemote,
        MissClass::RemoteClean,
        MissClass::RemoteDirtyHome,
        MissClass::RemoteDirtyRemote,
    ];

    /// Table 3.3 row label.
    pub fn label(self) -> &'static str {
        match self {
            MissClass::LocalClean => "Local read miss, clean in local memory",
            MissClass::LocalDirtyRemote => "Local read miss, dirty in remote cache",
            MissClass::RemoteClean => "Remote read miss, clean in home memory",
            MissClass::RemoteDirtyHome => "Remote read miss, dirty in home cache",
            MissClass::RemoteDirtyRemote => "Remote read miss, dirty in 3rd node",
        }
    }

    /// `(home, writer)` for the measured line, from the reader's (node 0)
    /// perspective. `writer == home` means the home's own processor
    /// dirties it; `None` leaves the line clean.
    fn roles(self) -> (u16, Option<u16>) {
        match self {
            MissClass::LocalClean => (0, None),
            MissClass::LocalDirtyRemote => (0, Some(1)),
            MissClass::RemoteClean => (1, None),
            MissClass::RemoteDirtyHome => (1, Some(1)),
            MissClass::RemoteDirtyRemote => (1, Some(2)),
        }
    }

    /// Index of this class's row in a [`flash::ObserveReport`] (the
    /// `flash::observe::ROW_NAMES` order matches Table 3.3 order).
    pub fn row(self) -> usize {
        match self {
            MissClass::LocalClean => 0,
            MissClass::LocalDirtyRemote => 1,
            MissClass::RemoteClean => 2,
            MissClass::RemoteDirtyHome => 3,
            MissClass::RemoteDirtyRemote => 4,
        }
    }
}

/// Measures the no-contention read-miss latency of one class (memoized:
/// the ten `(kind, class)` points are shared by Table 3.3, Table 4.1 and
/// Table 4.2).
pub fn measure_class(kind: ControllerKind, class: MissClass) -> f64 {
    cached_latency(kind, class)
}

/// Measures the no-contention read-miss latency of one class on the
/// 3-node machine `cfg` (e.g. `base_cfg(kind, 3)`), isolating warm-path
/// latency by differencing against a warm-up transaction of the same
/// class on an adjacent line (same MDC header line, same handlers).
/// Uncached; use [`measure_class`].
pub fn measure_class_uncached(cfg: &MachineConfig, class: MissClass) -> f64 {
    reader_stall(&class_scenario(cfg, class, true, false))
        - reader_stall(&class_scenario(cfg, class, false, false))
}

/// The Table 3.3 reader's (node 0's) read-stall cycles.
fn reader_stall(m: &Machine) -> f64 {
    m.procs()[0].stats().read_stall_q as f64 / 4.0
}

/// Runs one Table 3.3 scenario on the 3-node machine `cfg` (optionally
/// without the measured read, optionally observed) to completion.
fn class_scenario(cfg: &MachineConfig, class: MissClass, measured: bool, observe: bool) -> Machine {
    assert_eq!(cfg.nodes, 3, "the Table 3.3 scenarios run on 3 nodes");
    let (home, writer) = class.roles();
    let line_a = node_addr(NodeId(home), 0x2000);
    let line_b = node_addr(NodeId(home), 0x2080); // adjacent: shares the MDC line
    let reader_items = |measured: bool| {
        let mut v = Vec::new();
        v.push(WorkItem::Barrier); // writers dirty the lines first
        v.push(WorkItem::Read(line_b)); // warm-up transaction
        v.push(WorkItem::Busy(4000));
        if measured {
            v.push(WorkItem::Read(line_a));
        }
        v
    };
    let writer_items = || {
        let mut v = Vec::new();
        if let Some(_w) = writer {
            v.push(WorkItem::Write(line_b));
            v.push(WorkItem::Write(line_a));
        }
        v.push(WorkItem::Barrier);
        v.push(WorkItem::Busy(4));
        v
    };
    let mut cfg = cfg.clone().with_observe(observe);
    // Pin the paper's 16-node average network transit for
    // comparability with Table 3.3.
    cfg.net.transit_override = Some(22);
    let streams: Vec<Box<dyn RefStream>> = (0..3u16)
        .map(|n| {
            let items = if n == 0 {
                reader_items(measured)
            } else if Some(n) == writer {
                writer_items()
            } else {
                vec![WorkItem::Barrier, WorkItem::Busy(4)]
            };
            Box::new(SliceStream::new(items)) as Box<dyn RefStream>
        })
        .collect();
    run_to_completion(
        Machine::new(cfg, streams),
        10_000_000,
        &format!("latency scenario for {class:?}"),
    )
}

/// Decomposes one Table 3.3 class latency on the 3-node machine `cfg`
/// into per-[`flash_engine::Segment`] cycles, by differencing the
/// observed class row between the measured run and the warm-up-only run
/// (the same differencing [`measure_class_uncached`] applies to the
/// stall counter, so both isolate exactly the measured transaction).
/// Returns the segment cycles and the stall-counter latency the segments
/// must sum to.
pub fn measure_class_breakdown(
    cfg: &MachineConfig,
    class: MissClass,
) -> ([u64; SEGMENT_COUNT], f64) {
    let measured = class_scenario(cfg, class, true, true);
    let warm_up = class_scenario(cfg, class, false, true);
    let rep_t = measured.observe_report().expect("observed");
    let rep_f = warm_up.observe_report().expect("observed");
    assert_eq!(rep_t.sum_mismatches, 0, "attribution drift for {class:?}");
    assert_eq!(rep_f.sum_mismatches, 0, "attribution drift for {class:?}");
    let (a, b) = (&rep_t.rows[class.row()], &rep_f.rows[class.row()]);
    assert_eq!(
        a.count,
        b.count + 1,
        "measured run must add exactly one {class:?} request"
    );
    let mut segs = [0u64; SEGMENT_COUNT];
    for (i, s) in segs.iter_mut().enumerate() {
        *s = a.segs[i] - b.segs[i];
    }
    (segs, reader_stall(&measured) - reader_stall(&warm_up))
}

/// The measured Table 3.3 scenario for one class on the 3-node machine
/// `cfg`, run to completion under observation (the run-matrix driver
/// exports its report and trace as `observe_<job>.json` and
/// `trace_<job>.json` when `FLASH_OBSERVE_OUT` is set).
pub fn observed_class_scenario(cfg: &MachineConfig, class: MissClass) -> Machine {
    class_scenario(cfg, class, true, true)
}

/// The ten Table 3.3 measurement jobs (both controller kinds, all five
/// miss classes) — prefetch these before calling
/// [`measure_latency_table`].
pub fn latency_jobs() -> Vec<Job> {
    let mut v = Vec::new();
    for kind in [ControllerKind::FlashEmulated, ControllerKind::Ideal] {
        for class in MissClass::ALL {
            v.push(Job::Latency(kind, class));
        }
    }
    v
}

/// Measures the full Table 3.3 latency column for a controller kind.
pub fn measure_latency_table(kind: ControllerKind) -> LatencyTable {
    LatencyTable {
        local_clean: measure_class(kind, MissClass::LocalClean),
        local_dirty_remote: measure_class(kind, MissClass::LocalDirtyRemote),
        remote_clean: measure_class(kind, MissClass::RemoteClean),
        remote_dirty_home: measure_class(kind, MissClass::RemoteDirtyHome),
        remote_dirty_remote: measure_class(kind, MissClass::RemoteDirtyRemote),
    }
}

/// Uniprocessor radix stressing the MDC: a large data set streamed with a
/// stride wide enough to defeat the MDC's 2 KB-per-line reach (paper
/// §5.2's 16 MB, radix-2048 experiment).
pub fn mdc_stress_stream(data_mb: u64, scale: u32) -> Vec<Box<dyn RefStream>> {
    let lines = (data_mb << 20) / 128 / scale as u64;
    let buckets = 2048u64;
    let mut items = Vec::new();
    // Sequential histogram read of the keys.
    let mut l = 0;
    while l < lines {
        items.push(WorkItem::Busy(8));
        items.push(WorkItem::Read(node_addr(NodeId(0), l * 128)));
        l += 1;
    }
    // Permutation writes with bucket stride > MDC reach.
    let region = node_addr(NodeId(0), lines * 128 + 4096);
    let mut rng = flash_engine::DetRng::for_stream(0x5d2, 0);
    for _ in 0..lines {
        items.push(WorkItem::Busy(10));
        let b = rng.below(buckets);
        let o = rng.below((lines / buckets).max(1));
        items.push(WorkItem::Write(
            region.offset((b * (lines / buckets).max(1) + o) * 128),
        ));
    }
    vec![Box::new(SliceStream::new(items))]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_table_close_to_paper_flash() {
        let measured = measure_latency_table(ControllerKind::FlashEmulated);
        let paper = LatencyTable::paper_flash();
        for (m, p) in measured.as_array().iter().zip(paper.as_array()) {
            let rel = (m - p).abs() / p;
            assert!(
                rel < 0.25,
                "measured {m:.0} vs paper {p:.0} ({:.0}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn latency_table_close_to_paper_ideal() {
        let measured = measure_latency_table(ControllerKind::Ideal);
        let paper = LatencyTable::paper_ideal();
        for (m, p) in measured.as_array().iter().zip(paper.as_array()) {
            let rel = (m - p).abs() / p;
            assert!(
                rel < 0.25,
                "measured {m:.0} vs paper {p:.0} ({:.0}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn flash_latencies_exceed_ideal_per_class() {
        let f = measure_latency_table(ControllerKind::FlashEmulated);
        let i = measure_latency_table(ControllerKind::Ideal);
        for (a, b) in f.as_array().iter().zip(i.as_array()) {
            assert!(a > &b, "FLASH {a:.0} vs ideal {b:.0}");
        }
    }

    /// The acceptance bar for the observability layer: for every
    /// controller kind and Table 3.3 class, the observed per-segment
    /// breakdown sums to the stall-counter latency within one cycle.
    #[test]
    fn breakdowns_sum_to_measured_latencies() {
        for kind in [ControllerKind::FlashEmulated, ControllerKind::Ideal] {
            for class in MissClass::ALL {
                let (segs, stall) = measure_class_breakdown(&base_cfg(kind, 3), class);
                let sum: u64 = segs.iter().sum();
                assert!(
                    (sum as f64 - stall).abs() <= 1.0,
                    "{kind:?}/{class:?}: segments {segs:?} sum to {sum} \
                     but the stall counter measured {stall}"
                );
            }
        }
    }

    /// The observed breakdown explains *why* FLASH trails the ideal
    /// machine per class: the entire gap is controller-side (handler
    /// occupancy, inbox wait, memory serialization), never the mesh.
    #[test]
    fn flash_gap_is_controller_side() {
        use flash_engine::Segment;
        for class in [MissClass::RemoteClean, MissClass::RemoteDirtyRemote] {
            let (f, _) =
                measure_class_breakdown(&base_cfg(ControllerKind::FlashEmulated, 3), class);
            let (i, _) = measure_class_breakdown(&base_cfg(ControllerKind::Ideal, 3), class);
            assert_eq!(
                f[Segment::Mesh.index()],
                i[Segment::Mesh.index()],
                "{class:?}: the mesh does not know the controller kind"
            );
            assert!(
                f[Segment::Handler.index()] > 0,
                "{class:?}: FLASH must charge handler occupancy"
            );
            assert_eq!(
                i[Segment::Handler.index()],
                0,
                "{class:?}: the ideal machine handles in zero time"
            );
        }
    }

    /// The PP backend is a host-performance knob, never a model knob:
    /// every Table 3.3 class measures the same latency and the same
    /// observed attribution under the reference emulator and the
    /// translated fast path.
    #[test]
    fn pp_backends_agree_on_every_miss_class() {
        use flash::PpBackend;
        let cfg = |backend| base_cfg(ControllerKind::FlashEmulated, 3).with_pp_backend(backend);
        let (emu, translated) = (cfg(PpBackend::Emulated), cfg(PpBackend::Translated));
        for class in MissClass::ALL {
            assert_eq!(
                measure_class_uncached(&emu, class),
                measure_class_uncached(&translated, class),
                "{class:?} latency"
            );
            let observed = |cfg| {
                let m = observed_class_scenario(cfg, class);
                m.observe_report().expect("observed").to_json()
            };
            assert_eq!(
                observed(&emu),
                observed(&translated),
                "{class:?} observe JSON"
            );
        }
    }

    /// A zero divisor would divide by zero in every job, so zero and
    /// garbage fall back to the default; whitespace is trimmed.
    #[test]
    fn scale_rejects_zero_and_trims() {
        for (value, want) in [("0", 4), (" 0 ", 4), ("x", 4), (" 8 ", 8), ("2", 2)] {
            std::env::set_var("FLASH_SCALE", value);
            assert_eq!(scale(), want, "FLASH_SCALE={value:?}");
        }
        std::env::remove_var("FLASH_SCALE");
        assert_eq!(scale(), 4);
    }

    /// Same contract for `FLASH_PROCS`.
    #[test]
    fn parallel_procs_rejects_zero_and_trims() {
        for (value, want) in [("0", 16), (" 0 ", 16), ("x", 16), (" 8 ", 8), ("4", 4)] {
            std::env::set_var("FLASH_PROCS", value);
            assert_eq!(parallel_procs(), want, "FLASH_PROCS={value:?}");
        }
        std::env::remove_var("FLASH_PROCS");
        assert_eq!(parallel_procs(), 16);
    }

    #[test]
    fn apps_at_matches_paper_footnotes() {
        assert_eq!(apps_at(1 << 20).len(), 6);
        assert!(!apps_at(64 << 10).contains(&"LU"));
        assert!(!apps_at(4 << 10).contains(&"Barnes"));
        assert_eq!(small_cache_for("Ocean", 4 << 10), 16 << 10);
        assert_eq!(small_cache_for("FFT", 4 << 10), 4 << 10);
    }
}
