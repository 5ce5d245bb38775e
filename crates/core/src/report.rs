//! Machine-level statistics reports (the rows of the paper's tables).

use crate::machine::Machine;
use crate::observe::ObserveReport;
use flash_magic::{ControllerKind, ReadClassCounts};
use flash_pp::RunStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// No-contention read-miss latency per class, in cycles (paper Table 3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyTable {
    /// Local read miss, clean in local memory.
    pub local_clean: f64,
    /// Local read miss, dirty in a remote cache.
    pub local_dirty_remote: f64,
    /// Remote read miss, clean in home memory.
    pub remote_clean: f64,
    /// Remote read miss, dirty in the home node's cache.
    pub remote_dirty_home: f64,
    /// Remote read miss, dirty in a third node's cache.
    pub remote_dirty_remote: f64,
}

impl LatencyTable {
    /// The paper's published FLASH column.
    pub const fn paper_flash() -> Self {
        LatencyTable {
            local_clean: 27.0,
            local_dirty_remote: 143.0,
            remote_clean: 111.0,
            remote_dirty_home: 145.0,
            remote_dirty_remote: 191.0,
        }
    }

    /// The paper's published ideal-machine column.
    pub const fn paper_ideal() -> Self {
        LatencyTable {
            local_clean: 24.0,
            local_dirty_remote: 100.0,
            remote_clean: 92.0,
            remote_dirty_home: 100.0,
            remote_dirty_remote: 136.0,
        }
    }

    /// Latency for the classes in [`ReadClassCounts`] order.
    pub fn as_array(&self) -> [f64; 5] {
        [
            self.local_clean,
            self.local_dirty_remote,
            self.remote_clean,
            self.remote_dirty_home,
            self.remote_dirty_remote,
        ]
    }
}

/// MDC summary statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MdcSummary {
    /// Total MDC accesses.
    pub accesses: u64,
    /// Total MDC misses.
    pub misses: u64,
    /// Overall miss rate.
    pub miss_rate: f64,
    /// Read miss rate.
    pub read_miss_rate: f64,
    /// PP cycles lost to MDC misses.
    pub stall_cycles: u64,
}

/// Everything a paper table needs from one run.
///
/// Derives `PartialEq` so determinism tests can assert that a point
/// simulated serially and a point simulated on a worker thread produce
/// field-for-field identical reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineReport {
    /// Controller kind of the machine.
    pub controller: ControllerKind,
    /// Node count.
    pub nodes: u16,
    /// Application execution time in cycles.
    pub exec_cycles: u64,
    /// Execution-time fractions `[busy, cont, read, write, sync]`
    /// aggregated over processors (the Figure 4.1 buckets).
    pub breakdown: [f64; 5],
    /// Processor-cache miss rate (misses + upgrades over references).
    pub miss_rate: f64,
    /// Total references issued.
    pub references: u64,
    /// Read misses classified at homes.
    pub read_class: ReadClassCounts,
    /// Mean / maximum PP occupancy across nodes.
    pub pp_occupancy: (f64, f64),
    /// Mean / maximum memory occupancy across nodes.
    pub mem_occupancy: (f64, f64),
    /// Speculative reads issued and useless (Table 5.1).
    pub spec: (u64, u64),
    /// Aggregate PP instruction statistics (Table 5.2).
    pub pp_stats: RunStats,
    /// MDC summary (§5.2).
    pub mdc: MdcSummary,
    /// Per-handler `(invocations, occupancy cycles)`.
    pub handlers: BTreeMap<&'static str, (u64, u64)>,
    /// Network messages carried.
    pub messages: u64,
    /// Mean inbox wait per processed message (PP queueing delay, cycles).
    pub inbox_wait_mean: f64,
    /// Deferred interventions (race safety valve).
    pub interv_deferrals: u64,
    /// Cycle-attribution breakdown, present when the machine ran with
    /// [`MachineConfig::with_observe`](crate::MachineConfig::with_observe)
    /// (see `METRICS.md` for the exported schema).
    pub observe: Option<ObserveReport>,
}

impl MachineReport {
    /// Gathers the report from a finished machine.
    pub fn from_machine(m: &Machine) -> Self {
        let end = flash_engine::Cycle::new(m.exec_cycles().max(1));
        let mut breakdown_q = [0u64; 5];
        let mut references = 0;
        let mut miss_events = 0;
        for p in m.procs() {
            let s = p.stats();
            breakdown_q[0] += s.busy_q;
            breakdown_q[1] += s.cont_q;
            breakdown_q[2] += s.read_stall_q;
            breakdown_q[3] += s.write_stall_q;
            breakdown_q[4] += s.sync_stall_q;
            references += s.references();
            miss_events += s.read_misses + s.write_misses + s.upgrades;
        }
        let total_q: u64 = breakdown_q.iter().sum::<u64>().max(1);
        let breakdown = breakdown_q.map(|q| q as f64 / total_q as f64);

        let mut read_class = ReadClassCounts::default();
        let mut spec = (0u64, 0u64);
        let mut pp_stats = RunStats::default();
        let mut handlers: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut pp_occ = Vec::new();
        let mut mem_occ = Vec::new();
        let mut mdc = MdcSummary::default();
        let (mut mdc_rh, mut mdc_rm) = (0u64, 0u64);
        let (mut inbox_wait, mut msgs) = (0u64, 0u64);
        for c in m.chips() {
            let s = c.stats();
            let rc = s.read_class;
            read_class.local_clean += rc.local_clean;
            read_class.local_dirty_remote += rc.local_dirty_remote;
            read_class.remote_clean += rc.remote_clean;
            read_class.remote_dirty_home += rc.remote_dirty_home;
            read_class.remote_dirty_remote += rc.remote_dirty_remote;
            spec.0 += s.spec_issued;
            spec.1 += s.spec_useless;
            pp_stats.merge(&s.pp);
            for (name, (n, cyc)) in &s.handlers {
                let e = handlers.entry(name).or_default();
                e.0 += n;
                e.1 += cyc;
            }
            pp_occ.push(c.pp_occupancy(end));
            mem_occ.push(c.memory().occupancy(end));
            mdc.stall_cycles += s.mdc_stall_cycles;
            inbox_wait += s.inbox_wait_cycles;
            msgs += s.messages;
            if let Some(cache) = c.mdc() {
                mdc_rh += cache.read_hits();
                mdc_rm += cache.read_misses();
                mdc.accesses += cache.read_hits()
                    + cache.read_misses()
                    + cache.write_hits()
                    + cache.write_misses();
                mdc.misses += cache.read_misses() + cache.write_misses();
            }
        }
        if mdc.accesses > 0 {
            mdc.miss_rate = mdc.misses as f64 / mdc.accesses as f64;
            if mdc_rh + mdc_rm > 0 {
                mdc.read_miss_rate = mdc_rm as f64 / (mdc_rh + mdc_rm) as f64;
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
        MachineReport {
            controller: m.config().controller,
            nodes: m.config().nodes,
            exec_cycles: m.exec_cycles(),
            breakdown,
            miss_rate: if references == 0 {
                0.0
            } else {
                miss_events as f64 / references as f64
            },
            references,
            read_class,
            pp_occupancy: (mean(&pp_occ), max(&pp_occ)),
            mem_occupancy: (mean(&mem_occ), max(&mem_occ)),
            spec,
            pp_stats,
            mdc,
            handlers,
            messages: m.network().messages(),
            inbox_wait_mean: inbox_wait as f64 / msgs.max(1) as f64,
            interv_deferrals: m.interv_deferrals(),
            observe: m.observe_report(),
        }
    }

    /// Fractions of classified read misses, in [`ReadClassCounts`] order.
    pub fn class_fractions(&self) -> [f64; 5] {
        let t = self.read_class.total().max(1) as f64;
        [
            self.read_class.local_clean as f64 / t,
            self.read_class.local_dirty_remote as f64 / t,
            self.read_class.remote_clean as f64 / t,
            self.read_class.remote_dirty_home as f64 / t,
            self.read_class.remote_dirty_remote as f64 / t,
        ]
    }

    /// Contentionless read miss time: the class distribution weighted by a
    /// per-class latency table (paper §4.1's CRMT).
    pub fn crmt(&self, lat: &LatencyTable) -> f64 {
        self.class_fractions()
            .iter()
            .zip(lat.as_array())
            .map(|(f, l)| f * l)
            .sum()
    }

    /// Fraction of useless speculative reads (Table 5.1).
    pub fn useless_spec_fraction(&self) -> f64 {
        if self.spec.0 == 0 {
            0.0
        } else {
            self.spec.1 as f64 / self.spec.0 as f64
        }
    }
}

/// A FLASH-vs-ideal comparison (the paper's headline measurement).
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// FLASH execution cycles.
    pub flash_cycles: u64,
    /// Ideal-machine execution cycles.
    pub ideal_cycles: u64,
    /// FLASH slowdown over ideal, in percent (the "2%–12%" result).
    pub slowdown_pct: f64,
}

/// Compares two runs of the same workload.
pub fn compare(flash: &MachineReport, ideal: &MachineReport) -> Comparison {
    let f = flash.exec_cycles as f64;
    let i = ideal.exec_cycles.max(1) as f64;
    Comparison {
        flash_cycles: flash.exec_cycles,
        ideal_cycles: ideal.exec_cycles,
        slowdown_pct: (f / i - 1.0) * 100.0,
    }
}

/// Formats a plain-text table with padded columns (for the table bins).
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: Vec<String>, out: &mut String| {
        for (i, c) in cells.iter().enumerate().take(cols) {
            let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(headers.iter().map(|s| s.to_string()).collect(), &mut out);
    line(widths.iter().map(|w| "-".repeat(*w)).collect(), &mut out);
    for r in rows {
        line(r.clone(), &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{node_addr, MachineConfig};
    use crate::machine::RunResult;
    use flash_cpu::{RefStream, SliceStream, WorkItem};
    use flash_engine::NodeId;

    fn small_run(cfg: MachineConfig) -> MachineReport {
        let mk = |n: u16| {
            let items = vec![
                WorkItem::Read(node_addr(NodeId(n), 0x100)),
                WorkItem::Read(node_addr(NodeId((n + 1) % 2), 0x100)),
                WorkItem::Busy(40),
            ];
            Box::new(SliceStream::new(items)) as Box<dyn RefStream>
        };
        let mut m = Machine::new(cfg, (0..2).map(mk).collect());
        let RunResult::Completed { .. } = m.run(1_000_000) else {
            panic!("stuck");
        };
        MachineReport::from_machine(&m)
    }

    #[test]
    fn report_totals_are_consistent() {
        let r = small_run(MachineConfig::flash(2));
        assert!(r.exec_cycles > 0);
        let sum: f64 = r.breakdown.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "breakdown must sum to 1, got {sum}"
        );
        assert_eq!(r.references, 4);
        assert_eq!(r.read_class.total(), 4);
        assert_eq!(r.read_class.local_clean, 2);
        assert_eq!(r.read_class.remote_clean, 2);
        assert!(r.miss_rate > 0.9);
        assert!(r.pp_occupancy.1 >= r.pp_occupancy.0);
        assert!(r.pp_stats.invocations > 0);
    }

    #[test]
    fn crmt_weights_classes() {
        let r = small_run(MachineConfig::flash(2));
        let crmt = r.crmt(&LatencyTable::paper_flash());
        // Half local clean (27), half remote clean (111): 69.
        assert!((crmt - 69.0).abs() < 1.0, "crmt {crmt}");
    }

    #[test]
    fn comparison_slowdown() {
        let f = small_run(MachineConfig::flash(2));
        let i = small_run(MachineConfig::ideal(2));
        let c = compare(&f, &i);
        assert!(c.slowdown_pct >= 0.0, "FLASH should not beat ideal: {c:?}");
        assert_eq!(c.flash_cycles, f.exec_cycles);
    }

    #[test]
    fn ideal_reports_zero_pp_occupancy() {
        let r = small_run(MachineConfig::ideal(2));
        assert_eq!(r.pp_occupancy, (0.0, 0.0));
        assert_eq!(r.spec, (0, 0));
    }

    #[test]
    fn format_table_pads_columns() {
        let t = format_table(
            &["App", "Cycles"],
            &[
                vec!["FFT".into(), "123".into()],
                vec!["Barnes".into(), "4".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("App"));
        assert!(lines[2].starts_with("FFT"));
        assert!(lines[3].starts_with("Barnes"));
    }
}
