//! Structured forward-progress diagnostics.
//!
//! When the machine's watchdog sees no retirements, message deliveries,
//! or handler invocations for a whole window, it assembles a
//! [`WedgeReport`] instead of panicking `"stuck"`: who is waiting on
//! what, which directory lines are PENDING, which links are held, and the
//! last messages that touched the suspect lines (from the machine's
//! always-on message ring).
//!
//! The report is plain data — no references into the machine — so it can
//! ride a [`RunResult`](../../flash/machine/enum.RunResult.html) variant,
//! cross threads, and be rendered late.

use crate::inject::FaultStats;
use flash_engine::json::Json;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

/// One message observation in the machine's always-on message ring, kept
/// for every line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle of the observation.
    pub at: u64,
    /// Node whose MAGIC processed the message.
    pub node: u16,
    /// Message type name.
    pub kind: &'static str,
    /// Source node of the message.
    pub src: u16,
    /// 128-byte line address.
    pub line: u64,
    /// Auxiliary field (requester/type packing).
    pub aux: u64,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] node{} {} src={} line={:#x} aux={:#x}",
            self.at, self.node, self.kind, self.src, self.line, self.aux
        )
    }
}

/// A fixed-capacity ring of the most recent message observations.
///
/// # Examples
///
/// ```
/// use flash_fault::{MsgRing, TraceEntry};
///
/// let mut ring = MsgRing::new(2);
/// for at in 0..5 {
///     ring.push(TraceEntry { at, node: 0, kind: "NGet", src: 1, line: 0x80, aux: 0 });
/// }
/// assert_eq!(ring.entries().len(), 2);
/// assert_eq!(ring.entries()[0].at, 3, "oldest surviving entry");
/// ```
#[derive(Debug, Clone, Default)]
pub struct MsgRing {
    cap: usize,
    buf: VecDeque<TraceEntry>,
}

impl MsgRing {
    /// A ring keeping the last `cap` observations.
    pub fn new(cap: usize) -> Self {
        MsgRing {
            cap,
            buf: VecDeque::with_capacity(cap),
        }
    }

    /// Records one observation, evicting the oldest when full.
    pub fn push(&mut self, e: TraceEntry) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(e);
    }

    /// All surviving observations, oldest first.
    pub fn entries(&self) -> Vec<TraceEntry> {
        self.buf.iter().copied().collect()
    }

    /// Surviving observations touching `line`, oldest first.
    pub fn for_line(&self, line: u64) -> Vec<TraceEntry> {
        self.buf
            .iter()
            .filter(|e| e.line == line)
            .copied()
            .collect()
    }

    /// Distinct lines observed, most recent last.
    pub fn lines(&self) -> Vec<u64> {
        let mut v: Vec<u64> = Vec::new();
        for e in &self.buf {
            if !v.contains(&e.line) {
                v.push(e.line);
            }
        }
        v
    }
}

/// One outstanding miss, snapshotted from an MSHR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrSnap {
    /// Line address of the miss.
    pub line: u64,
    /// Transaction kind ("Read" / "Write" / "Upgrade").
    pub kind: &'static str,
    /// Cycle the miss was issued.
    pub issued_at: u64,
}

/// One node's state at wedge time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeWedge {
    /// Node id.
    pub node: u16,
    /// Processor scheduling state ("scheduled" / "wait-reply" /
    /// "wait-sync" / "done").
    pub state: &'static str,
    /// Outstanding misses.
    pub mshrs: Vec<MshrSnap>,
    /// Queued inbox (`MagicIn`) events bound for this node.
    pub inbox_queued: usize,
    /// Queued processor-bus (`ProcDeliver`) events bound for this node.
    pub proc_queued: usize,
    /// Messages from this node held by the network fault layer.
    pub net_held: usize,
    /// Open-loop references that arrived but were never admitted to the
    /// processor's mailbox (0 for closed-loop nodes). Distinguishes
    /// *overload* — big backlog, nothing PENDING, the machine simply
    /// cannot keep up — from a *protocol wedge* that starves admission.
    /// Excluded from [`WedgeReport::fingerprint`]: shrinking legitimately
    /// changes queue depths.
    pub arrivals_backlog: usize,
}

/// A directory line stuck PENDING at wedge time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingLine {
    /// 128-byte line address.
    pub line: u64,
    /// Home node of the line.
    pub home: u16,
    /// Raw directory header word.
    pub header: u64,
}

/// A directed link held by a scripted outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalledLink {
    /// Source node.
    pub src: u16,
    /// Destination node.
    pub dst: u16,
    /// Messages held (re-offer events) so far.
    pub holds: u64,
    /// Whether the outage never ends.
    pub permanent: bool,
}

/// Why and how a run wedged: the structured replacement for
/// `panic!("stuck")`.
#[derive(Debug, Clone, PartialEq)]
pub struct WedgeReport {
    /// Cycle the watchdog fired.
    pub at: u64,
    /// Watchdog window in cycles.
    pub window: u64,
    /// Last cycle any retirement, delivery, or handler invocation
    /// advanced.
    pub last_progress_at: u64,
    /// Human-oriented one-line reason.
    pub reason: String,
    /// Processors that finished their streams.
    pub done: usize,
    /// Total processors.
    pub total: usize,
    /// Per-node state.
    pub nodes: Vec<NodeWedge>,
    /// Directory lines stuck PENDING.
    pub pending_lines: Vec<PendingLine>,
    /// Links held by scripted outages.
    pub stalled_links: Vec<StalledLink>,
    /// Fault statistics, when an injector was armed.
    pub fault_stats: Option<FaultStats>,
    /// Recent messages touching the suspect lines (or the overall tail
    /// when no line stands out).
    pub recent: Vec<TraceEntry>,
}

impl WedgeReport {
    /// A stable structural identifier for "the same wedge".
    ///
    /// Minimization predicates need to distinguish *this* deadlock from
    /// *any* deadlock while shrinking, but must not key on anything the
    /// shrink legitimately changes — cycle counts, hold counts, queue
    /// depths, trace contents all shift as references and faults are
    /// removed. The fingerprint therefore keeps only the causal shape:
    ///
    /// * every stalled link, sorted, with a `!` marking permanence;
    /// * every PENDING directory line with its home, sorted;
    /// * every waiting MSHR `(node, kind, line)` whose line is stuck
    ///   PENDING (all waiters when nothing is PENDING), sorted.
    ///
    /// # Examples
    ///
    /// ```
    /// use flash_fault::{MshrSnap, NodeWedge, PendingLine, StalledLink, WedgeReport};
    ///
    /// let report = WedgeReport {
    ///     at: 150_000, window: 100_000, last_progress_at: 49_000,
    ///     reason: "no forward progress".into(), done: 2, total: 3,
    ///     nodes: vec![NodeWedge {
    ///         node: 0, state: "wait-reply",
    ///         mshrs: vec![MshrSnap { line: 0x1_0000_4000, kind: "Read", issued_at: 20_000 }],
    ///         inbox_queued: 0, proc_queued: 0, net_held: 0, arrivals_backlog: 0,
    ///     }],
    ///     pending_lines: vec![PendingLine { line: 0x1_0000_4000, home: 1, header: 1 }],
    ///     stalled_links: vec![StalledLink { src: 1, dst: 2, holds: 97, permanent: true }],
    ///     fault_stats: None, recent: vec![],
    /// };
    /// assert_eq!(
    ///     report.fingerprint(),
    ///     "wedge|links=[1->2!]|pending=[0x100004000@n1]|waiters=[n0:Read:0x100004000]"
    /// );
    /// ```
    pub fn fingerprint(&self) -> String {
        let mut links: Vec<&StalledLink> = self.stalled_links.iter().collect();
        links.sort_by_key(|l| (l.src, l.dst));
        let mut pending: Vec<&PendingLine> = self.pending_lines.iter().collect();
        pending.sort_by_key(|p| (p.line, p.home));
        let mut waiters: Vec<(u16, &'static str, u64)> = Vec::new();
        for n in &self.nodes {
            for m in &n.mshrs {
                if self.pending_lines.is_empty()
                    || self.pending_lines.iter().any(|p| p.line == m.line)
                {
                    waiters.push((n.node, m.kind, m.line));
                }
            }
        }
        waiters.sort();
        waiters.dedup();

        let mut s = String::from("wedge|links=[");
        for (i, l) in links.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}->{}{}",
                l.src,
                l.dst,
                if l.permanent { "!" } else { "" }
            );
        }
        s.push_str("]|pending=[");
        for (i, p) in pending.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{:#x}@n{}", p.line, p.home);
        }
        s.push_str("]|waiters=[");
        for (i, (node, kind, line)) in waiters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "n{node}:{kind}:{line:#x}");
        }
        s.push(']');
        s
    }

    /// Serializes the full report (not just the fingerprint) for CI
    /// triage artifacts. The fingerprint is embedded so downstream
    /// tooling can match structurally without re-deriving it.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str("flash-wedge-v1")),
            ("fingerprint", Json::str(self.fingerprint())),
            ("at", Json::UInt(self.at)),
            ("window", Json::UInt(self.window)),
            ("last_progress_at", Json::UInt(self.last_progress_at)),
            ("reason", Json::str(self.reason.clone())),
            ("done", Json::UInt(self.done as u64)),
            ("total", Json::UInt(self.total as u64)),
            (
                "nodes",
                Json::Arr(
                    self.nodes
                        .iter()
                        .map(|n| {
                            Json::obj(vec![
                                ("node", Json::UInt(n.node as u64)),
                                ("state", Json::str(n.state)),
                                (
                                    "mshrs",
                                    Json::Arr(
                                        n.mshrs
                                            .iter()
                                            .map(|m| {
                                                Json::obj(vec![
                                                    ("line", Json::UInt(m.line)),
                                                    ("kind", Json::str(m.kind)),
                                                    ("issued_at", Json::UInt(m.issued_at)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                ("inbox_queued", Json::UInt(n.inbox_queued as u64)),
                                ("proc_queued", Json::UInt(n.proc_queued as u64)),
                                ("net_held", Json::UInt(n.net_held as u64)),
                                ("arrivals_backlog", Json::UInt(n.arrivals_backlog as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "pending_lines",
                Json::Arr(
                    self.pending_lines
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("line", Json::UInt(p.line)),
                                ("home", Json::UInt(p.home as u64)),
                                ("header", Json::UInt(p.header)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stalled_links",
                Json::Arr(
                    self.stalled_links
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("src", Json::UInt(l.src as u64)),
                                ("dst", Json::UInt(l.dst as u64)),
                                ("holds", Json::UInt(l.holds)),
                                ("permanent", Json::Bool(l.permanent)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fault_stats",
                match &self.fault_stats {
                    Some(s) => Json::obj(vec![
                        ("hop_spikes", Json::UInt(s.hop_spikes)),
                        ("link_stalls", Json::UInt(s.link_stalls)),
                        ("link_holds", Json::UInt(s.link_holds)),
                        ("ni_freezes", Json::UInt(s.ni_freezes)),
                        ("pp_bursts", Json::UInt(s.pp_bursts)),
                        ("dram_stalls", Json::UInt(s.dram_stalls)),
                        ("delay_cycles", Json::UInt(s.delay_cycles)),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl fmt::Display for WedgeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "WEDGE at cycle {}: {} (no progress for > {} cycles; last progress at {})",
            self.at, self.reason, self.window, self.last_progress_at
        )?;
        writeln!(f, "  processors: {}/{} finished", self.done, self.total)?;
        for n in &self.nodes {
            // Quiet nodes (done, nothing queued, nothing outstanding)
            // would drown the signal on big meshes.
            if n.state == "done"
                && n.mshrs.is_empty()
                && n.inbox_queued == 0
                && n.proc_queued == 0
                && n.net_held == 0
                && n.arrivals_backlog == 0
            {
                continue;
            }
            write!(
                f,
                "  node{}: {} | inbox={} procq={} held={}",
                n.node, n.state, n.inbox_queued, n.proc_queued, n.net_held
            )?;
            if n.arrivals_backlog > 0 {
                write!(f, " backlog={}", n.arrivals_backlog)?;
            }
            writeln!(f)?;
            for m in &n.mshrs {
                writeln!(
                    f,
                    "    mshr: {} line={:#x} issued at {}",
                    m.kind, m.line, m.issued_at
                )?;
            }
        }
        if !self.pending_lines.is_empty() {
            writeln!(f, "  PENDING directory lines:")?;
            for p in &self.pending_lines {
                writeln!(
                    f,
                    "    line={:#x} home=node{} header={:#x}",
                    p.line, p.home, p.header
                )?;
            }
        }
        if !self.stalled_links.is_empty() {
            writeln!(f, "  stalled links:")?;
            for l in &self.stalled_links {
                writeln!(
                    f,
                    "    {}->{} held {} message offer(s){}",
                    l.src,
                    l.dst,
                    l.holds,
                    if l.permanent { " [permanent]" } else { "" }
                )?;
            }
        }
        if let Some(s) = &self.fault_stats {
            writeln!(
                f,
                "  faults injected: {} hop spikes, {} link stalls, {} link holds, {} NI freezes, {} PP bursts, {} DRAM stalls ({} delay cycles)",
                s.hop_spikes,
                s.link_stalls,
                s.link_holds,
                s.ni_freezes,
                s.pp_bursts,
                s.dram_stalls,
                s.delay_cycles
            )?;
        }
        if !self.recent.is_empty() {
            writeln!(f, "  recent messages on suspect lines:")?;
            for e in &self.recent {
                writeln!(f, "    {e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, line: u64) -> TraceEntry {
        TraceEntry {
            at,
            node: 1,
            kind: "NGet",
            src: 0,
            line,
            aux: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_filters_by_line() {
        let mut r = MsgRing::new(3);
        for at in 0..5 {
            r.push(entry(at, 0x80 * (at % 2)));
        }
        let e = r.entries();
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].at, 2);
        assert_eq!(
            r.for_line(0x80).iter().map(|e| e.at).collect::<Vec<_>>(),
            [3]
        );
        assert_eq!(r.lines(), vec![0, 0x80]);
    }

    #[test]
    fn zero_capacity_ring_is_inert() {
        let mut r = MsgRing::new(0);
        r.push(entry(1, 0));
        assert!(r.entries().is_empty());
    }

    #[test]
    fn report_renders_every_section() {
        let report = WedgeReport {
            at: 150_000,
            window: 100_000,
            last_progress_at: 49_000,
            reason: "no forward progress within the watchdog window".into(),
            done: 2,
            total: 3,
            nodes: vec![
                NodeWedge {
                    node: 0,
                    state: "wait-reply",
                    mshrs: vec![MshrSnap {
                        line: 0x1_0000_8000,
                        kind: "Read",
                        issued_at: 20_000,
                    }],
                    inbox_queued: 0,
                    proc_queued: 0,
                    net_held: 0,
                    arrivals_backlog: 0,
                },
                NodeWedge {
                    node: 2,
                    state: "done",
                    mshrs: vec![],
                    inbox_queued: 0,
                    proc_queued: 0,
                    net_held: 0,
                    arrivals_backlog: 0,
                },
            ],
            pending_lines: vec![PendingLine {
                line: 0x1_0000_8000,
                home: 1,
                header: 0x8000_0001,
            }],
            stalled_links: vec![StalledLink {
                src: 1,
                dst: 2,
                holds: 97,
                permanent: true,
            }],
            fault_stats: Some(FaultStats {
                link_holds: 97,
                ..FaultStats::default()
            }),
            recent: vec![entry(20_010, 0x1_0000_8000)],
        };
        let text = report.to_string();
        assert!(text.contains("WEDGE at cycle 150000"));
        assert!(text.contains("1->2 held 97"));
        assert!(text.contains("[permanent]"));
        assert!(text.contains("PENDING directory lines"));
        assert!(text.contains("line=0x100008000 home=node1"));
        assert!(text.contains("mshr: Read line=0x100008000"));
        assert!(text.contains("97 link holds"));
        assert!(!text.contains("node2"), "quiet done nodes are elided");
    }

    fn sample_report() -> WedgeReport {
        WedgeReport {
            at: 150_000,
            window: 100_000,
            last_progress_at: 49_000,
            reason: "no forward progress within the watchdog window".into(),
            done: 2,
            total: 3,
            nodes: vec![
                NodeWedge {
                    node: 2,
                    state: "wait-sync",
                    mshrs: vec![MshrSnap {
                        line: 0x2_0000_0080,
                        kind: "Write",
                        issued_at: 30_000,
                    }],
                    inbox_queued: 1,
                    proc_queued: 0,
                    net_held: 3,
                    arrivals_backlog: 0,
                },
                NodeWedge {
                    node: 0,
                    state: "wait-reply",
                    mshrs: vec![MshrSnap {
                        line: 0x1_0000_8000,
                        kind: "Read",
                        issued_at: 20_000,
                    }],
                    inbox_queued: 0,
                    proc_queued: 0,
                    net_held: 0,
                    arrivals_backlog: 0,
                },
            ],
            pending_lines: vec![PendingLine {
                line: 0x1_0000_8000,
                home: 1,
                header: 0x8000_0001,
            }],
            stalled_links: vec![StalledLink {
                src: 1,
                dst: 2,
                holds: 97,
                permanent: true,
            }],
            fault_stats: Some(FaultStats {
                link_holds: 97,
                ..FaultStats::default()
            }),
            recent: vec![entry(20_010, 0x1_0000_8000)],
        }
    }

    #[test]
    fn fingerprint_keeps_shape_and_drops_timing() {
        let report = sample_report();
        assert_eq!(
            report.fingerprint(),
            "wedge|links=[1->2!]|pending=[0x100008000@n1]|waiters=[n0:Read:0x100008000]",
            "waiter on the non-pending line 0x200000080 is excluded"
        );
        // Everything the shrink is allowed to change leaves it untouched.
        let mut shifted = report.clone();
        shifted.at = 999_999;
        shifted.last_progress_at = 1;
        shifted.window = 5_000;
        shifted.stalled_links[0].holds = 3;
        shifted.nodes[1].mshrs[0].issued_at = 50;
        shifted.nodes[1].inbox_queued = 7;
        shifted.recent.clear();
        shifted.fault_stats = None;
        assert_eq!(shifted.fingerprint(), report.fingerprint());
        // But a different held link is a different wedge.
        let mut other = report.clone();
        other.stalled_links[0].dst = 0;
        assert_ne!(other.fingerprint(), report.fingerprint());
    }

    #[test]
    fn fingerprint_without_pending_lines_keeps_all_waiters() {
        let mut report = sample_report();
        report.pending_lines.clear();
        let fp = report.fingerprint();
        assert!(fp.contains("n0:Read:0x100008000"));
        assert!(fp.contains("n2:Write:0x200000080"));
    }

    #[test]
    fn json_form_embeds_fingerprint_and_structure() {
        let report = sample_report();
        let v = report.to_json();
        let round = Json::parse(&v.render()).unwrap();
        assert_eq!(
            round.get("schema").and_then(Json::as_str),
            Some("flash-wedge-v1")
        );
        assert_eq!(
            round.get("fingerprint").and_then(Json::as_str),
            Some(report.fingerprint().as_str())
        );
        assert_eq!(round.get("at").and_then(Json::as_u64), Some(150_000));
        let links = round.get("stalled_links").and_then(Json::as_arr).unwrap();
        assert_eq!(
            links[0].get("permanent").and_then(Json::as_bool),
            Some(true)
        );
        let stats = round.get("fault_stats").unwrap();
        assert_eq!(stats.get("link_holds").and_then(Json::as_u64), Some(97));
    }
}
