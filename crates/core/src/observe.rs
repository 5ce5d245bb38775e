//! Cycle-attribution observability: per-request latency breakdowns,
//! per-class/per-handler accumulation, and the bounded event trace.
//!
//! # What this measures
//!
//! The paper's argument is an *attribution* argument: Section 4 decomposes
//! execution time into handler occupancy vs. network and queueing latency
//! to show where the flexible controller's cycles go. This module gives
//! the reproduction the same instrument. With
//! [`MachineConfig::with_observe`](crate::MachineConfig::with_observe)
//! enabled, every processor miss (read, write, upgrade) is tracked from
//! the cycle it leaves the processor to the cycle its reply is delivered,
//! and the interval is decomposed into the six [`Segment`] buckets:
//! `{pi, inbox_wait, handler, mem, ni_wait, mesh}`.
//!
//! # The frontier algorithm
//!
//! Each in-flight request is a `PendingReq` keyed by
//! `(requester node, line address)` with an *attribution frontier* — the
//! latest simulation time already accounted for. Every message the
//! machine reports (`issued`, `arrived`, `handled`, `sent`, `delivering`,
//! `delivered`) that the observer can associate with the request advances
//! the frontier and charges the gap to exactly one segment; the MAGIC
//! chip contributes exact per-emission [`ObsParts`] for the time spent
//! inside it. Because every charge is a frontier gap, the segments of a
//! completed request sum to its end-to-end latency *by construction* —
//! the sums-to-total guarantee does not depend on the protocol path
//! taken (NACKs, retries, deferred interventions, and fault-injected
//! stalls included).
//!
//! On contended lines an event can occasionally be matched to the wrong
//! same-line request, moving cycles between buckets of two requests; the
//! per-request and per-class *totals* stay exact. The uncontended
//! micro-measurements behind Table 3.3 have no such ambiguity.
//!
//! # Timing invisibility
//!
//! The observer only ever appends to side buffers owned by the machine
//! and the chips; it takes no branch that affects event scheduling.
//! `tests/observe.rs` pins byte-identical schedules and reports with the
//! observer on and off, for both controller kinds.

use flash_engine::{Cycle, FastMap, LatencySplit, LogHist, Segment, SEGMENT_COUNT};
use flash_magic::{Emission, MagicScratch, ObsParts, ReadClass};
use flash_protocol::fields::aux;
use flash_protocol::{Msg, MsgType, ProcMsg};
use std::collections::{BTreeMap, VecDeque};

/// Default capacity of the trace ring: oldest events are dropped beyond
/// this many (the drop count is reported).
pub const TRACE_CAPACITY: usize = 65_536;

/// What kind of processor request a tracked record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// A read miss (`PiGet`).
    Read,
    /// A write miss (`PiGetX`).
    Write,
    /// An upgrade (`PiUpgrade`).
    Upgrade,
}

/// Number of breakdown rows in an [`ObserveReport`]: the five Table 3.3
/// read classes, unclassified reads, writes, and upgrades.
pub const ROW_COUNT: usize = 8;

/// Stable row names, aligned with [`row_index`].
pub const ROW_NAMES: [&str; ROW_COUNT] = [
    "read_local_clean",
    "read_local_dirty_remote",
    "read_remote_clean",
    "read_remote_dirty_home",
    "read_remote_dirty_remote",
    "read_unclassified",
    "write",
    "upgrade",
];

/// Maps a request kind (and, for reads, the home's classification) to its
/// breakdown row.
pub fn row_index(kind: ReqKind, class: Option<ReadClass>) -> usize {
    match (kind, class) {
        (ReqKind::Read, Some(c)) => c.index(),
        (ReqKind::Read, None) => 5,
        (ReqKind::Write, _) => 6,
        (ReqKind::Upgrade, _) => 7,
    }
}

/// One in-flight tracked request.
#[derive(Debug, Clone, Copy)]
struct PendingReq {
    issue: Cycle,
    frontier: Cycle,
    segs: [u64; SEGMENT_COUNT],
    class: Option<ReadClass>,
    kind: ReqKind,
}

/// One entry in the bounded event trace (a Chrome `trace_event` complete
/// event: name, category, start, duration, track).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSlice {
    /// Event name (handler name or breakdown row name).
    pub name: &'static str,
    /// Category: `"handler"` or `"request"`.
    pub cat: &'static str,
    /// Start time in cycles.
    pub ts: u64,
    /// Duration in cycles.
    pub dur: u64,
    /// Track id (the node, for handlers; the requester, for requests).
    pub tid: u16,
}

/// The machine-wide observer. Owned by `Machine` when
/// [`MachineConfig::observe`](crate::MachineConfig::observe) is set;
/// all hooks are no-ops when it is absent.
#[derive(Debug)]
pub struct Observer {
    pending: FastMap<(u16, u64), PendingReq>,
    rows: [LatencySplit; ROW_COUNT],
    /// Per-class end-to-end latency in log-bucketed histograms: the
    /// percentile (p50/p99/p999) side of the latency story, exact to a
    /// bucket floor and mergeable across runs by bucket addition.
    lat: [LogHist; ROW_COUNT],
    handler_seed: Vec<&'static str>,
    trace: VecDeque<TraceSlice>,
    trace_cap: usize,
    trace_dropped: u64,
    requests: u64,
    completed: u64,
    replaced: u64,
    sum_mismatches: u64,
}

impl Observer {
    /// Creates an observer. `handler_seed` (typically
    /// `JumpTable::handler_names()`) gives every handler a stable report
    /// row even when it is never invoked.
    pub fn new(handler_seed: Vec<&'static str>) -> Self {
        Observer {
            pending: FastMap::default(),
            rows: [LatencySplit::new(); ROW_COUNT],
            lat: std::array::from_fn(|_| LogHist::new()),
            handler_seed,
            trace: VecDeque::new(),
            trace_cap: TRACE_CAPACITY,
            trace_dropped: 0,
            requests: 0,
            completed: 0,
            replaced: 0,
            sum_mismatches: 0,
        }
    }

    /// Advances a request's frontier to `now`, charging the gap to `seg`.
    /// No-op for unknown keys or when `now` is not ahead of the frontier.
    fn advance(&mut self, key: (u16, u64), now: Cycle, seg: Segment) {
        if let Some(r) = self.pending.get_mut(&key) {
            if now > r.frontier {
                r.segs[seg.index()] += now - r.frontier;
                r.frontier = now;
            }
        }
    }

    /// Applies a chip's exact per-emission decomposition: the frontier
    /// must already stand at the chip arrival time (the caller advanced
    /// it when the message reached the inbox), and `em_at − frontier ==
    /// parts.total()` holds by the chip's invariant. `net` selects where
    /// the outbound cycles land: NI-out for network emissions, PI for
    /// processor emissions.
    fn apply_parts(&mut self, key: (u16, u64), em_at: Cycle, parts: &ObsParts, net: bool) {
        if let Some(r) = self.pending.get_mut(&key) {
            r.segs[Segment::InboxWait.index()] += parts.inbox + parts.wait;
            r.segs[Segment::Handler.index()] += parts.occ;
            r.segs[Segment::Mem.index()] += parts.mem;
            let out_seg = if net { Segment::NiWait } else { Segment::Pi };
            r.segs[out_seg.index()] += parts.out;
            // The invariant makes frontier + total() == em_at; a drift
            // here would silently break sums-to-total, so police it.
            let expect = r.frontier + parts.total();
            if expect != em_at {
                self.sum_mismatches += 1;
            }
            r.frontier = r.frontier.max(em_at);
        }
    }

    fn push_slice(&mut self, s: TraceSlice) {
        if self.trace.len() == self.trace_cap {
            self.trace.pop_front();
            self.trace_dropped += 1;
        }
        self.trace.push_back(s);
    }

    /// Builds the structured report. `handlers` yields per-handler
    /// `(invocations, occupancy cycles)`, summed by name (every chip's
    /// rows, for a machine-wide report).
    pub fn report<'a>(
        &self,
        handlers: impl IntoIterator<Item = (&'a &'static str, &'a (u64, u64))>,
    ) -> ObserveReport {
        let rows = ROW_NAMES
            .iter()
            .zip(self.rows.iter())
            .map(|(&name, split)| ClassRow {
                class: name,
                count: split.count(),
                segs: split.segs(),
            })
            .collect();
        let mut merged: BTreeMap<&'static str, (u64, u64)> = self
            .handler_seed
            .iter()
            .map(|&name| (name, (0, 0)))
            .collect();
        for (&name, &(n, cyc)) in handlers {
            let e = merged.entry(name).or_insert((0, 0));
            e.0 += n;
            e.1 += cyc;
        }
        let handlers = merged
            .into_iter()
            .map(|(handler, (invocations, occupancy_cycles))| HandlerRow {
                handler,
                invocations,
                occupancy_cycles,
            })
            .collect();
        ObserveReport {
            rows,
            handlers,
            latency_buckets: octave_buckets(&self.merged_latency()),
            requests: self.requests,
            completed: self.completed,
            unresolved: self.pending.len() as u64,
            replaced: self.replaced,
            trace_events: self.trace.len() as u64,
            trace_dropped: self.trace_dropped,
            sum_mismatches: self.sum_mismatches,
        }
    }

    /// Renders the trace ring as Chrome `trace_event` JSON (the "JSON
    /// Array Format" with complete `"ph":"X"` events), viewable in
    /// Perfetto / `chrome://tracing`. Timestamps are simulation cycles
    /// presented as microseconds.
    pub fn trace_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.trace.len() * 96);
        s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in self.trace.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
                e.name, e.cat, e.ts, e.dur, e.tid
            ));
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Message-level hooks: the machine reports each message once, and the
/// observer decides which tracked request, if any, it continues.
impl Observer {
    /// A processor request for `line` left `node`'s processor at `t`: a
    /// miss (`PiGet`, `PiGetX`, `PiUpgrade`) starts a tracked request.
    pub fn issued(&mut self, node: u16, mtype: MsgType, line: u64, t: Cycle) {
        let kind = match mtype {
            MsgType::PiGet => ReqKind::Read,
            MsgType::PiGetX => ReqKind::Write,
            MsgType::PiUpgrade => ReqKind::Upgrade,
            _ => return,
        };
        self.requests += 1;
        let r = PendingReq {
            issue: t,
            frontier: t,
            segs: [0; SEGMENT_COUNT],
            class: None,
            kind,
        };
        if self.pending.insert((node, line), r).is_some() {
            self.replaced += 1;
        }
    }

    /// `msg` reached the inbox of `msg.dst` at `now`: the tracked request
    /// it continues advances its frontier to the arrival. Returns that
    /// request's key for [`Observer::handled`].
    pub fn arrived(&mut self, msg: &Msg, now: Cycle) -> Option<(u16, u64)> {
        let (cands, seg) = arrival_cands(msg)?;
        let key = self.tracked(cands, msg.addr.line().raw())?;
        self.advance(key, now, seg);
        Some(key)
    }

    /// The chip at `node` processed a message into `emissions`: records
    /// the handler invocation and, for the tracked request `key` the
    /// message continued ([`Observer::arrived`]), the home's read class
    /// and the continuing emission's exact decomposition.
    pub fn handled(
        &mut self,
        node: u16,
        key: Option<(u16, u64)>,
        class: Option<ReadClass>,
        scratch: &MagicScratch,
        emissions: &[Emission],
    ) {
        if let Some(inv) = scratch.obs_invocation() {
            self.push_slice(TraceSlice {
                name: inv.handler,
                cat: "handler",
                ts: inv.start.raw(),
                dur: inv.occupied,
                tid: node,
            });
        }
        let Some(key) = key else {
            return;
        };
        if let (Some(r), Some(class)) = (self.pending.get_mut(&key), class) {
            r.class = r.class.or(Some(class));
        }
        if let Some(ei) = emissions
            .iter()
            .position(|em| emission_continues(em, key, node))
        {
            let em = &emissions[ei];
            let net = matches!(em, Emission::Net { .. });
            self.apply_parts(key, em.at(), &scratch.obs_parts()[ei], net);
        }
    }

    /// `msg` entered the mesh at `depart` and reaches its destination NI
    /// at `arrive`. If it continues a tracked request (of the requester
    /// or the destination), source-side holds (fault layer) count as
    /// NI-wait and the hop as mesh transit.
    pub fn sent(&mut self, msg: &Msg, depart: Cycle, arrive: Cycle) {
        if !continues_request(msg.mtype) {
            return;
        }
        let cands = [Some(aux::requester(msg.aux).0), Some(msg.dst.0)];
        if let Some(key) = self.tracked(cands, msg.addr.line().raw()) {
            self.advance(key, depart, Segment::NiWait);
            self.advance(key, arrive, Segment::Mesh);
        }
    }

    /// MAGIC delivers `pm` to `node`'s processor at `now`: a reply
    /// (`PPut`, `PPutX`, `PUpgAck`) completes the tracked request. The
    /// last frontier gap is PI time; the row, the latency histogram and a
    /// `request` trace slice record it. Call it before the processor
    /// applies the message, whose freed MSHR may re-issue on the line.
    pub fn delivering(&mut self, node: u16, pm: &ProcMsg, now: Cycle) {
        if !matches!(pm.mtype, MsgType::PPut | MsgType::PPutX | MsgType::PUpgAck) {
            return;
        }
        let Some(mut r) = self.pending.remove(&(node, pm.addr.line().raw())) else {
            return;
        };
        if now > r.frontier {
            r.segs[Segment::Pi.index()] += now - r.frontier;
        }
        let total: u64 = r.segs.iter().sum();
        if total != now - r.issue {
            self.sum_mismatches += 1;
        }
        self.completed += 1;
        let row = row_index(r.kind, r.class);
        self.rows[row].record(r.segs);
        self.lat[row].record(total);
        self.push_slice(TraceSlice {
            name: ROW_NAMES[row],
            cat: "request",
            ts: r.issue.raw(),
            dur: total,
            tid: node,
        });
    }

    /// `node`'s processor applied the non-reply `pm` at `now` (not
    /// deferred): an intervention's requester waited out the owner's bus
    /// transaction, deferrals included, and a NACK's requester its retry
    /// round trip. Both are PI time.
    pub fn delivered(&mut self, node: u16, pm: &ProcMsg, now: Cycle) {
        let requester = match pm.mtype {
            MsgType::PIntervGet | MsgType::PIntervGetX => aux::requester(pm.aux).0,
            MsgType::PNackRetry => node,
            _ => return,
        };
        self.advance((requester, pm.addr.line().raw()), now, Segment::Pi);
    }

    /// The first candidate requester whose request on `line` is tracked.
    fn tracked(&self, cands: [Option<u16>; 2], line: u64) -> Option<(u16, u64)> {
        cands
            .into_iter()
            .flatten()
            .map(|c| (c, line))
            .find(|key| self.pending.contains_key(key))
    }
}

/// The requester candidates (and charged segment) a message arriving at
/// the inbox of `msg.dst` may belong to; [`Observer::tracked`] picks the
/// one being tracked.
///
/// Requests and forwards carry the requester in their aux field; replies
/// from third-party owners carry the responder, so replies also try the
/// receiving node (replies terminate at the requester's own chip).
/// Messages that never continue a request path (invals, acks,
/// writebacks, sharing writebacks) resolve to `None`. The frontier gap
/// is charged to PI for bus-side messages, mesh for network-side (which
/// folds the receiving NI input stage into mesh transit).
fn arrival_cands(msg: &Msg) -> Option<([Option<u16>; 2], Segment)> {
    match msg.mtype {
        MsgType::PiGet | MsgType::PiGetX | MsgType::PiUpgrade => {
            Some(([Some(msg.src.0), None], Segment::Pi))
        }
        MsgType::PiIntervReply | MsgType::PiIntervMiss => {
            Some(([Some(aux::requester(msg.aux).0), None], Segment::Pi))
        }
        t if continues_request(t) => {
            let reply = t.is_reply_class() || t == MsgType::NIntervMiss;
            Some((
                [Some(aux::requester(msg.aux).0), reply.then_some(msg.dst.0)],
                Segment::Mesh,
            ))
        }
        _ => None,
    }
}

/// Whether a network message of type `t` continues a request path: the
/// requests and forwards, which carry the requester, and the replies to
/// them.
fn continues_request(t: MsgType) -> bool {
    use MsgType::*;
    matches!(
        t,
        NGet | NGetX | NUpgrade | NFwdGet | NFwdGetX | NPut | NPutX | NUpgAck | NNack | NIntervMiss
    )
}

/// Whether a chip emission at `node` continues the tracked request `key`
/// (the first match takes the per-emission attribution).
fn emission_continues(em: &Emission, key: (u16, u64), node: u16) -> bool {
    match em {
        Emission::Proc { msg: pm, .. } => {
            pm.addr.line().raw() == key.1
                && match pm.mtype {
                    MsgType::PPut | MsgType::PPutX | MsgType::PUpgAck | MsgType::PNackRetry => {
                        key.0 == node
                    }
                    MsgType::PIntervGet | MsgType::PIntervGetX => aux::requester(pm.aux).0 == key.0,
                    _ => false,
                }
        }
        Emission::Net { msg: m, .. } => {
            m.addr.line().raw() == key.1
                && continues_request(m.mtype)
                && (aux::requester(m.aux).0 == key.0 || m.dst.0 == key.0)
        }
    }
}

/// Regroups a [`LogHist`]'s buckets into power-of-two octaves as
/// `(octave floor, count)` pairs: floor 0 holds only the sample 0, floor
/// `2^k` holds `[2^k, 2^(k+1))`. Every `LogHist` bucket lies inside one
/// octave, so the regrouping is exact.
fn octave_buckets(h: &LogHist) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (floor, count) in h.buckets() {
        let octave = if floor == 0 { 0 } else { 1 << floor.ilog2() };
        match out.last_mut() {
            Some((f, c)) if *f == octave => *c += count,
            _ => out.push((octave, count)),
        }
    }
    out
}

/// One breakdown row of an [`ObserveReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRow {
    /// Row name (one of [`ROW_NAMES`]).
    pub class: &'static str,
    /// Completed requests accumulated into this row.
    pub count: u64,
    /// Total cycles per [`Segment`], in [`Segment::ALL`] order.
    pub segs: [u64; SEGMENT_COUNT],
}

impl ClassRow {
    /// Total cycles across all segments.
    pub fn total(&self) -> u64 {
        self.segs.iter().sum()
    }

    /// Mean end-to-end latency per request (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total() as f64 / self.count as f64
        }
    }

    /// Mean cycles per request in one segment (0.0 when empty).
    pub fn mean_seg(&self, s: Segment) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.segs[s.index()] as f64 / self.count as f64
        }
    }
}

/// One per-handler row of an [`ObserveReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerRow {
    /// Handler name (native-dispatch name; identical across controller
    /// kinds).
    pub handler: &'static str,
    /// Invocations over the run.
    pub invocations: u64,
    /// Total PP occupancy cycles charged to this handler (0 on the ideal
    /// machine).
    pub occupancy_cycles: u64,
}

/// The structured cycle-attribution report for one run. Produced by
/// `Machine::observe_report` / `MachineReport::from_machine` when the
/// machine ran with observation on; `METRICS.md` documents every field
/// and the JSON schema emitted by [`ObserveReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct ObserveReport {
    /// Per-class latency breakdowns (fixed [`ROW_NAMES`] order).
    pub rows: Vec<ClassRow>,
    /// Per-handler invocation counts and occupancy (sorted by name; every
    /// jump-table handler appears, invoked or not).
    pub handlers: Vec<HandlerRow>,
    /// End-to-end miss latency histogram as `(bucket floor, count)` pairs
    /// over power-of-two buckets (only non-empty buckets appear).
    pub latency_buckets: Vec<(u64, u64)>,
    /// Requests the observer started tracking.
    pub requests: u64,
    /// Requests that completed (reply delivered).
    pub completed: u64,
    /// Requests still in flight when the report was taken.
    pub unresolved: u64,
    /// Tracked requests that were superseded by a new request on the same
    /// (node, line) key before completing.
    pub replaced: u64,
    /// Trace slices currently held in the ring.
    pub trace_events: u64,
    /// Trace slices dropped after the ring filled.
    pub trace_dropped: u64,
    /// Breakdowns whose segments failed to sum to the end-to-end total
    /// (0 on a healthy run; a nonzero value is an attribution bug, not a
    /// simulation bug).
    pub sum_mismatches: u64,
}

impl ObserveReport {
    /// The row for one Table 3.3 read class.
    pub fn class_row(&self, class: ReadClass) -> &ClassRow {
        &self.rows[class.index()]
    }

    /// Serializes the report as JSON under the `flash-observe-v1` schema
    /// documented in `METRICS.md`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n  \"schema\": \"flash-observe-v1\",\n");
        s.push_str(&format!(
            "  \"requests\": {},\n  \"completed\": {},\n  \"unresolved\": {},\n  \"replaced\": {},\n",
            self.requests, self.completed, self.unresolved, self.replaced
        ));
        s.push_str(&format!(
            "  \"trace_events\": {},\n  \"trace_dropped\": {},\n  \"sum_mismatches\": {},\n",
            self.trace_events, self.trace_dropped, self.sum_mismatches
        ));
        s.push_str("  \"segments\": [");
        for (i, seg) in Segment::ALL.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\"", seg.name()));
        }
        s.push_str("],\n  \"classes\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str(&format!(
                "    {{\"class\": \"{}\", \"count\": {}, \"segs\": [{}], \"total\": {}}}",
                row.class,
                row.count,
                row.segs
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
                row.total()
            ));
        }
        s.push_str("\n  ],\n  \"handlers\": [\n");
        for (i, h) in self.handlers.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            s.push_str(&format!(
                "    {{\"handler\": \"{}\", \"invocations\": {}, \"occupancy_cycles\": {}}}",
                h.handler, h.invocations, h.occupancy_cycles
            ));
        }
        s.push_str("\n  ],\n  \"latency_buckets\": [");
        for (i, (floor, count)) in self.latency_buckets.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("[{floor}, {count}]"));
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Per-node open-loop admission statistics, accumulated by the machine's
/// arrival/admission path and reported through
/// [`LatencyReport::traffic`] (and `Machine::traffic_stats`).
///
/// `admission wait` is the queueing delay an arrival spends between
/// landing (its scheduled arrival cycle) and being admitted to the
/// processor's mailbox — the open-loop half of end-to-end latency, which
/// the per-class service histograms do not see. Past the capacity knee
/// the waits and the backlog grow without bound while service latency
/// saturates; that divergence *is* the knee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// References that arrived (entered the backlog).
    pub arrivals: u64,
    /// References admitted to the mailbox so far.
    pub admitted: u64,
    /// Total admission wait over all admitted references, in cycles.
    pub wait_sum: u64,
    /// Largest single admission wait, in cycles.
    pub wait_max: u64,
    /// Deepest the arrived-but-unadmitted backlog ever got.
    pub peak_backlog: u64,
}

/// One per-class row of a [`LatencyReport`]: integer-exact percentile
/// floors over the class's log-bucketed latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyRow {
    /// Row name (one of [`ROW_NAMES`], or `"all"` for the merged total).
    pub class: &'static str,
    /// Completed requests in this class.
    pub count: u64,
    /// Median latency (bucket floor, cycles).
    pub p50: u64,
    /// 99th-percentile latency (bucket floor, cycles).
    pub p99: u64,
    /// 99.9th-percentile latency (bucket floor, cycles).
    pub p999: u64,
    /// Largest observed latency — exact, not bucket-quantized.
    pub max: u64,
    /// Non-empty `(bucket floor, count)` pairs, ascending. Downstream
    /// tooling can merge rows from different runs by adding counts.
    pub buckets: Vec<(u64, u64)>,
}

impl LatencyRow {
    fn from_hist(class: &'static str, h: &LogHist) -> Self {
        LatencyRow {
            class,
            count: h.count(),
            p50: h.percentile(500),
            p99: h.percentile(990),
            p999: h.percentile(999),
            max: h.max(),
            buckets: h.buckets().collect(),
        }
    }
}

/// The per-class latency percentile report.
///
/// Every number is a pure function of deterministic bucket counts, so
/// the report is identical for either PP backend; it
/// carries no wall-clock values.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Per-class rows in [`ROW_NAMES`] order, then the merged `"all"`
    /// row last.
    pub rows: Vec<LatencyRow>,
    /// Per-node open-loop admission statistics (`(node, stats)`, node
    /// order). Empty for closed-loop runs.
    pub traffic: Vec<(u16, TrafficStats)>,
}

impl Observer {
    /// Every class's latency histogram merged into one.
    fn merged_latency(&self) -> LogHist {
        let mut all = LogHist::new();
        for h in &self.lat {
            all.merge(h);
        }
        all
    }

    /// Builds the per-class latency percentile report (the machine adds
    /// open-loop traffic rows on top when feeds are attached).
    pub fn latency_report(&self) -> LatencyReport {
        let mut rows: Vec<LatencyRow> = ROW_NAMES
            .iter()
            .zip(self.lat.iter())
            .map(|(&name, h)| LatencyRow::from_hist(name, h))
            .collect();
        rows.push(LatencyRow::from_hist("all", &self.merged_latency()));
        LatencyReport {
            rows,
            traffic: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_engine::Addr;

    /// Delivers a `PPut` for `line` to `node` at cycle `at`.
    fn reply(o: &mut Observer, node: u16, line: u64, at: u64) {
        let pm = ProcMsg {
            mtype: MsgType::PPut,
            addr: Addr::new(line),
            aux: 0,
            with_data: true,
        };
        o.delivering(node, &pm, Cycle::new(at));
    }

    #[test]
    fn frontier_sums_are_exact_by_construction() {
        let mut o = Observer::new(vec!["h"]);
        o.issued(0, MsgType::PiGet, 0x80, Cycle::new(10));
        o.advance((0, 0x80), Cycle::new(17), Segment::Pi);
        o.pending.get_mut(&(0, 0x80)).unwrap().class = Some(ReadClass::LocalClean);
        let parts = ObsParts {
            inbox: 3,
            wait: 0,
            occ: 11,
            mem: 0,
            out: 7,
        };
        // Chip arrival at 17, emission at 17 + 21 = 38.
        o.apply_parts((0, 0x80), Cycle::new(38), &parts, false);
        reply(&mut o, 0, 0x80, 38);
        let report = o.report([]);
        assert_eq!(report.sum_mismatches, 0);
        assert_eq!(report.completed, 1);
        let row = report.class_row(ReadClass::LocalClean);
        assert_eq!(row.count, 1);
        assert_eq!(row.total(), 28); // 38 − 10
        assert_eq!(row.segs, [14, 3, 11, 0, 0, 0]); // pi: 7 gap + 7 out
    }

    #[test]
    fn mismatched_parts_are_counted_not_hidden() {
        let mut o = Observer::new(vec![]);
        o.issued(0, MsgType::PiGetX, 0x80, Cycle::new(0));
        let parts = ObsParts {
            inbox: 1,
            wait: 0,
            occ: 0,
            mem: 0,
            out: 0,
        };
        // Claimed emission time disagrees with parts.total().
        o.apply_parts((0, 0x80), Cycle::new(5), &parts, true);
        reply(&mut o, 0, 0x80, 5);
        let report = o.report([]);
        assert!(report.sum_mismatches > 0);
    }

    #[test]
    fn trace_ring_drops_oldest_beyond_capacity() {
        let mut o = Observer::new(vec![]);
        o.trace_cap = 4;
        for i in 0..6u64 {
            o.push_slice(TraceSlice {
                name: "x",
                cat: "handler",
                ts: i,
                dur: 1,
                tid: 0,
            });
        }
        assert_eq!(o.trace.len(), 4);
        assert_eq!(o.trace_dropped, 2);
        assert_eq!(o.trace.front().unwrap().ts, 2, "oldest dropped first");
    }

    #[test]
    fn report_json_has_schema_and_all_rows() {
        let mut o = Observer::new(vec!["pi_get_local", "n_get"]);
        o.issued(1, MsgType::PiUpgrade, 0x100, Cycle::new(0));
        reply(&mut o, 1, 0x100, 40);
        let mut handlers = BTreeMap::new();
        handlers.insert("pi_get_local", (3u64, 33u64));
        let r = o.report(&handlers);
        assert_eq!(r.rows.len(), ROW_COUNT);
        assert_eq!(r.handlers.len(), 2, "seeded handlers always present");
        assert_eq!(r.handlers[1].invocations, 3);
        assert_eq!(r.handlers[0].invocations, 0);
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"flash-observe-v1\""));
        for name in ROW_NAMES {
            assert!(json.contains(name), "row {name} missing from JSON");
        }
        for seg in Segment::ALL {
            assert!(json.contains(seg.name()));
        }
    }

    /// `latency_buckets` is derived from the per-class `LogHist`s; it
    /// must equal a power-of-two histogram of the same samples (bucket
    /// floor 0 for 0, else the largest power of two at or below the
    /// sample), or `observe_*.json` bytes would change.
    #[test]
    fn octave_buckets_match_power_of_two_histogram() {
        let mut samples = vec![0u64, 1, 2, 3, 5, 7, 8, 9, 15, 24, 143, 1000];
        for k in 3..48 {
            samples.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1, 3 << (k - 1)]);
        }
        let mut log = LogHist::new();
        let mut pow2 = BTreeMap::new();
        for &v in &samples {
            log.record(v);
            let floor = if v == 0 {
                0
            } else {
                1 << (63 - v.leading_zeros())
            };
            *pow2.entry(floor).or_insert(0u64) += 1;
        }
        assert_eq!(octave_buckets(&log), pow2.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn trace_json_is_chrome_format() {
        let mut o = Observer::new(vec![]);
        o.push_slice(TraceSlice {
            name: "pi_get_local",
            cat: "handler",
            ts: 10,
            dur: 11,
            tid: 0,
        });
        let json = o.trace_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10"));
        assert!(json.contains("\"dur\":11"));
    }
}
