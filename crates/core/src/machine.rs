//! The machine: nodes, network, and the event loop (the FlashLite role).
//!
//! # Sharded conservative-window execution
//!
//! The machine partitions its nodes into `cfg.shards` contiguous shards,
//! each owning its nodes' processors, MAGIC chips, event queue, network
//! counters, and fault streams. Simulation advances in conservative time
//! windows: every window starts at the earliest pending event time `W`
//! across all shards and extends to `W + L`, where the lookahead `L` is
//! the minimum latency any cross-node message can experience (minimum
//! remote mesh transit plus the receiving NI's input stage). Within a
//! window each shard processes its own events independently — no event
//! it handles can affect another shard sooner than `L` cycles out, so
//! cross-shard messages always land in a later window.
//!
//! Determinism is the design's non-negotiable: results are byte-identical
//! for **any** shard count, including 1. Three mechanisms carry that:
//!
//! * **Canonical event keys.** Every event carries a `(cycle, sub)` key
//!   where `sub` encodes the *originating node* and a per-origin sequence
//!   number. Keys are independent of shard layout and globally unique, so
//!   any set of events sorts the same way no matter which queue held them.
//! * **Boundary-resolved shared state.** Everything nodes share — locks,
//!   barriers, the finish count, the checker, the observer — is owned by
//!   the coordinator and updated only at window boundaries, by replaying
//!   per-shard journals merged in canonical key order.
//! * **Staged cross-shard delivery.** A message bound for another shard
//!   is staged with its precomputed key and drained into the destination
//!   queue at the boundary (provably at or past the window's end, by the
//!   lookahead argument above).
//!
//! With one shard the same windowed loop runs without any worker threads;
//! with more, shards execute on `std::thread::scope` workers that
//! ping-pong shard contexts with the coordinator over channels. The
//! shard count is a host-performance knob
//! ([`MachineConfig::with_shards`]), never a model knob.

use crate::config::MachineConfig;
use crate::hostprof::{HostProfAcc, HostProfile, HostSeg};
use crate::observe::{LatencyReport, ObserveReport, Observer, ReqKind, TrafficStats};
use flash_cpu::{
    CpuOut, Mailbox, MailboxHandle, MailboxStream, Processor, RefStream, RunOutcome, WorkItem,
};
use flash_engine::FastMap;
use flash_engine::{Addr, Cycle, EventQueue, NodeId, Segment};
use flash_fault::{
    FaultInjector, FaultStats, LinkVerdict, MsgRing, MshrSnap, NiDir, NodeWedge, PendingLine,
    TraceEntry, WedgeReport,
};
use flash_magic::{ControllerKind, Emission, MagicChip, ObsInvocation, ObsParts, ReadClass};
use flash_net::{Mesh, NetModel};
use flash_protocol::fields::aux;
use flash_protocol::{dir_addr, InMsg, JumpTable, Msg, MsgType, ProcMsg};
use flash_traffic::ArrivalSource;
use std::collections::{BTreeSet, VecDeque};
use std::sync::mpsc;
use std::time::Instant;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Resume a processor's reference stream.
    ProcRun(u16),
    /// A message is ready at a node's inbox (inbound latency paid).
    /// `net` marks messages that crossed the mesh (they are subject to
    /// the receiver's inbound-NI fault hooks; bus-side and DMA messages
    /// are not).
    MagicIn { node: u16, wire: Wire, net: bool },
    /// MAGIC delivers a message to its local processor.
    ProcDeliver { node: u16, pm: ProcMsg, tries: u32 },
    /// Re-offer a message the fault layer held (scripted link outage).
    /// Processing one is *not* forward progress: a permanently held
    /// message loops here until the watchdog diagnoses the wedge.
    NetSend { msg: Msg },
    /// An open-loop reference arrives at `node` (the feed's pending
    /// arrival lands in the admission backlog; one such event is
    /// outstanding per fed node at a time).
    Arrival { node: u16 },
}

/// A message on the wire (or on a node's internal buses).
#[derive(Debug, Clone, Copy)]
struct Wire {
    mtype: MsgType,
    src: NodeId,
    addr: Addr,
    aux: u64,
    with_data: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Park {
    Scheduled,
    WaitReply,
    WaitSync,
    /// Open-loop node with an empty mailbox: parked until the next
    /// arrival admits work (or the feed closes). Distinguishable from
    /// `WaitReply` in wedge reports — an idle open-loop node is not a
    /// protocol wedge.
    WaitWork,
    Done,
}

#[derive(Debug, Default)]
struct LockState {
    held: bool,
    waiters: VecDeque<(u16, Cycle)>,
}

/// Canonical event identity: `(cycle, sub)` with `sub` from [`sub_key`].
/// Orders identically regardless of shard layout.
type EvKey = (u64, u64);

/// Bits of the per-origin sequence counter inside a sub-key (the origin
/// node occupies the bits above, so keys from different nodes never
/// collide and same-cycle events order by origin, then issue order).
const SUB_SEQ_BITS: u32 = 44;

/// Packs an event's originating node and per-origin sequence number into
/// the within-cycle ordering key.
fn sub_key(origin: u16, seq: u64) -> u64 {
    debug_assert!(seq < 1 << SUB_SEQ_BITS, "per-origin sequence overflow");
    ((origin as u64) << SUB_SEQ_BITS) | seq
}

/// First node and one-past-last node of shard `s` (contiguous partition;
/// the first `nodes % shards` shards take one extra node).
fn shard_bounds(nodes: u16, shards: usize, s: usize) -> (u16, u16) {
    let n = nodes as usize;
    let base = n / shards;
    let rem = n % shards;
    let lo = s * base + s.min(rem);
    let hi = lo + base + usize::from(s < rem);
    (lo as u16, hi as u16)
}

/// Which shard owns `node` under the contiguous partition.
fn shard_of(nodes: u16, shards: usize, node: u16) -> usize {
    let n = nodes as usize;
    let base = n / shards;
    let rem = n % shards;
    let node = node as usize;
    let cut = (base + 1) * rem;
    if node < cut {
        node / (base + 1)
    } else {
        rem + (node - cut) / base.max(1)
    }
}

/// `(shard, index within the shard's slices)` for `node`.
fn locate(nodes: u16, shards: usize, node: u16) -> (usize, usize) {
    let s = shard_of(nodes, shards, node);
    let (lo, _) = shard_bounds(nodes, shards, s);
    (s, (node - lo) as usize)
}

/// A synchronization request journaled by a shard for boundary
/// resolution, tagged with the requesting event's canonical key so the
/// coordinator applies them in a shard-count-invariant order.
#[derive(Debug, Clone, Copy)]
enum SyncOp {
    /// `node` arrived at the global barrier at its pipeline time `pt`.
    Barrier { node: u16, pt: Cycle },
    /// `node` wants lock `id` (parked `WaitSync` until granted).
    Lock { node: u16, id: u32, pt: Cycle },
    /// Lock `id` released at `pt` (the releaser already continued).
    Unlock { id: u32, pt: Cycle },
    /// A processor retired its stream.
    Finished,
}

/// One observer mutation journaled by a shard, replayed against the
/// master [`Observer`] at the boundary in canonical key order. Arrival
/// ops carry *candidate* requester keys instead of a resolved key: the
/// replay resolves them against the master's live pending set, exactly
/// as the serial machine resolved against its own — so attribution is
/// bit-identical for every shard count.
#[derive(Debug, Clone, Copy)]
enum ObsOp {
    /// A miss left a processor: start tracking (from `post_cpu_outs`).
    Begin {
        node: u16,
        line: u64,
        issue: Cycle,
        kind: ReqKind,
    },
    /// Inbox arrival: advance the resolved candidate's frontier.
    ArriveAdvance {
        cands: [Option<u16>; 2],
        line: u64,
        seg: Segment,
        now: Cycle,
    },
    /// Handler invocation trace (independent of any tracked request).
    TraceHandler { node: u16, inv: ObsInvocation },
    /// Post-handler bookkeeping for the same arrival: read class plus the
    /// per-candidate continuing emission's exact decomposition.
    ArriveApply {
        cands: [Option<u16>; 2],
        line: u64,
        class: Option<ReadClass>,
        parts: [Option<(Cycle, ObsParts, bool)>; 2],
    },
    /// A network hop charged to the resolved candidate.
    NetHop {
        cands: [u16; 2],
        line: u64,
        depart: Cycle,
        arrive: Cycle,
    },
    /// Frontier advance with a fixed key (delivery-side ops).
    Advance {
        key: (u16, u64),
        now: Cycle,
        seg: Segment,
    },
    /// The reply reached the processor: close the tracked request.
    Complete { key: (u16, u64), now: Cycle },
}

/// A cross-shard message staged for boundary delivery. The lookahead
/// guarantees `at` is at or past the window's end, so staging never
/// reorders against events the destination already processed.
#[derive(Debug, Clone, Copy)]
struct Staged {
    at: Cycle,
    sub: u64,
    node: u16,
    wire: Wire,
}

/// Checked-mode bookkeeping (allocated only when `cfg.check`).
#[derive(Debug, Default)]
struct CheckCtx {
    /// Every 128-byte line that ever saw protocol activity.
    touched: BTreeSet<u64>,
    /// Invariant violations detected so far (machine-level checks; the
    /// per-chip differential oracle keeps its own list).
    violations: Vec<flash_check::Violation>,
    /// Rogue-copy observations (`shared-under-dirty`, `copy-not-listed`)
    /// awaiting repair, keyed by (copy node, line address), with the
    /// cycle of first observation.
    ///
    /// The stale-transfer self-repair race (DESIGN.md, race rule 2) makes
    /// these states legal transiently: a deferred intervention can answer
    /// a forward the home has since abandoned, granting a rogue shared
    /// copy via a stale `NPut`; the home's `ni_swb` stale branch repairs
    /// it with fire-and-forget `NInval`s. Between the rogue copy
    /// installing and the repair `PInval` reaching the bus there is
    /// nothing local to exempt on — the header is neither `PENDING` nor
    /// is a `PInval` queued yet — so the observation is held here as
    /// *provisional*: discharged when a `PInval` for that (node, line)
    /// delivers, and promoted to a real violation if it survives to
    /// quiescence. (Whether the rogue shows up as `shared-under-dirty` or
    /// `copy-not-listed` depends only on what the header looks like when
    /// the checker happens to observe the window.)
    provisional_rogues: FastMap<(u16, u64), (Cycle, flash_check::Violation)>,
}

/// Why [`Machine::run`] stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum RunResult {
    /// Every processor finished its stream.
    Completed {
        /// Latest processor finish time = application execution time.
        exec_cycles: u64,
    },
    /// The cycle budget was exhausted first.
    BudgetExhausted,
    /// The event queue drained with processors still unfinished — a
    /// protocol or workload deadlock (e.g. unbalanced barriers).
    Deadlocked {
        /// Number of processors that never finished.
        stuck: usize,
    },
    /// The forward-progress watchdog fired: events kept flowing but no
    /// retirement, message delivery, or handler invocation advanced for a
    /// whole watchdog window — a livelock or a held link. The report
    /// says who is waiting on what.
    Wedged {
        /// Structured diagnosis (boxed: reports are large and rare).
        report: Box<WedgeReport>,
    },
}

/// Per-shard state that persists across windows and runs: the shard's
/// event queue, its slice of the network's traffic counters, its fault
/// streams, its recent-message ring, and its checker exemption maps.
struct ShardState {
    queue: EventQueue<Ev>,
    /// Per-shard traffic counters; the machine's master [`NetModel`] is
    /// rebuilt from these at teardown.
    net: NetModel,
    /// Fault-injection runtime (`None` when `cfg.faults` is disarmed).
    /// Draw streams are keyed per (fault class, entity), so schedules
    /// are shard-layout-invariant.
    injector: Option<FaultInjector>,
    /// Recent message observations with canonical keys; merged into the
    /// machine's [`MsgRing`] at teardown.
    ring: VecDeque<(EvKey, TraceEntry)>,
    /// In-flight `PInval` deliveries for this shard's nodes, keyed by
    /// (node, line address).
    ///
    /// The protocol acknowledges an invalidation as soon as the sharer's
    /// MAGIC processes `NInval` — the bus-side `PInval` rides a later
    /// `ProcDeliver` event, so the stale copy legitimately outlives the
    /// directory's PENDING window (the paper's relaxed-consistency
    /// ordering, §2). A copy with a queued `PInval` is logically dead and
    /// exempt from the coherence checks; one still queued at quiescence
    /// is a message-conservation violation.
    inflight_invals: FastMap<(u16, u64), u32>,
    /// In-flight `PIntervGet`/`PIntervGetX` deliveries, keyed the same
    /// way. A copy with a queued intervention is mid-handoff: the home
    /// may have already granted (exclusive) ownership to the requester
    /// while this bus transaction — possibly deferred for many retries —
    /// has yet to invalidate or downgrade the old owner's copy. Such a
    /// copy is exempt from the coherence checks until the intervention
    /// executes; one still queued at quiescence is a conservation
    /// violation.
    inflight_intervs: FastMap<(u16, u64), u32>,
    /// Latest event time this shard has processed.
    now: Cycle,
    /// Last cycle this shard saw forward progress.
    last_progress: Cycle,
}

/// One node's open-loop feed: the arrival source, the admission mailbox
/// its processor drains, and the backlog of references that have arrived
/// but not yet been admitted.
///
/// The mailbox mutex is uncontended by construction — arrivals are
/// admitted and drained on the node's owning shard; the lock exists only
/// so the handle can cross the worker-thread boundary with its shard.
struct OpenFeed {
    source: Box<dyn ArrivalSource>,
    mailbox: MailboxHandle,
    /// Arrived-but-unadmitted references, oldest first, each with its
    /// arrival cycle (the admission-wait clock starts here).
    backlog: VecDeque<(Cycle, WorkItem)>,
    /// The next arrival, already pulled from the source and scheduled as
    /// an [`Ev::Arrival`] event at its cycle.
    pending: Option<(Cycle, WorkItem)>,
    /// The source returned `None`: no further arrivals ever. Once the
    /// backlog and mailbox drain, the mailbox closes and the processor
    /// retires.
    exhausted: bool,
    stats: TrafficStats,
}

/// Open-loop sources feed plain references; synchronization items have
/// no open-loop meaning (nobody to rendezvous with) and `Done` is
/// expressed by source exhaustion, not an item.
fn assert_open_item(item: &WorkItem) {
    assert!(
        matches!(
            item,
            WorkItem::Busy(_) | WorkItem::Read(_) | WorkItem::Write(_)
        ),
        "open-loop source emitted {item:?}: only Busy/Read/Write arrivals are admissible"
    );
}

/// A full machine instance: processors, MAGIC chips, memory, network.
pub struct Machine {
    cfg: MachineConfig,
    procs: Vec<Processor>,
    chips: Vec<MagicChip>,
    /// Merged lifetime traffic totals (rebuilt from shard models at every
    /// teardown so repeated runs never double-count).
    net: NetModel,
    shards: Vec<ShardState>,
    /// Per-origin event sequence counters (canonical sub-key allocation).
    origin_seq: Vec<u64>,
    now: Cycle,
    parked: Vec<Park>,
    /// Per-node open-loop feeds: all `Some` on an open-loop machine, all
    /// `None` on a closed-loop one (the common case; a machine with no
    /// feeds takes no open-loop branch anywhere, so traffic support is
    /// timing-invisible when off).
    feeds: Vec<Option<OpenFeed>>,
    barrier_waiters: Vec<(u16, Cycle)>,
    locks: FastMap<u32, LockState>,
    done: usize,
    finish: Vec<Cycle>,
    interv_deferrals: u64,
    check: Option<CheckCtx>,
    /// Ring of recent message observations, always on: the message
    /// history [`Machine::diagnose`] renders for a wedge's suspect lines.
    /// Rebuilt from the per-shard rings at teardown.
    ring: MsgRing,
    /// Last cycle a retirement, message delivery, or handler invocation
    /// advanced (the forward-progress watchdog's reference point).
    last_progress: Cycle,
    /// Cycle-attribution observer (`None` when `cfg.observe` is off).
    /// Owned by the coordinator; shards journal mutations and the
    /// boundary replays them in canonical order.
    observe: Option<Box<Observer>>,
    /// Host-time profile (`None` unless `cfg.host_profile` arms it). A
    /// pure observer of the host clock — it never feeds back into
    /// simulated state.
    hostprof: Option<Box<HostProfile>>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nodes", &self.cfg.nodes)
            .field("now", &self.now)
            .field("done", &self.done)
            .finish()
    }
}

/// Deferrals allowed for one intervention while the target's in-flight
/// grant lands (16 cycles apart). Beyond this the transaction is assumed
/// to be a request/forward cycle: the intervention reports a miss (the
/// home abandons the pending transaction) and the target's eventual grant
/// is poisoned so no stale copy is cached.
const MAX_INTERV_DEFERRALS: u32 = 64;

/// Capacity of the wedge-diagnostics message ring. Deep enough to cover
/// the full protocol exchange on the handful of lines a wedge involves;
/// each entry is a few words, so the ring is cheap to keep always-on.
const RING_CAPACITY: usize = 64;

/// How many ring entries a wedge report keeps when no suspect line
/// stands out.
const RECENT_TAIL: usize = 8;

/// The requester candidates (and charged segment) a message arriving at
/// `node`'s inbox may belong to — the pure part of the serial machine's
/// key resolution; the pending-set lookup happens at boundary replay.
///
/// Requests and forwards carry the requester in their aux field; replies
/// from third-party owners carry the responder, so replies also try the
/// receiving node (replies terminate at the requester's own chip).
/// Messages that never continue a request path (invals, acks,
/// writebacks, sharing writebacks) resolve to `None`. The frontier gap
/// is charged to PI for bus-side messages, mesh for network-side (which
/// folds the receiving NI input stage into mesh transit).
fn observe_cands(node: u16, wire: &Wire) -> Option<([Option<u16>; 2], Segment)> {
    match wire.mtype {
        MsgType::PiGet | MsgType::PiGetX | MsgType::PiUpgrade => {
            Some(([Some(wire.src.0), None], Segment::Pi))
        }
        MsgType::PiIntervReply | MsgType::PiIntervMiss => {
            Some(([Some(aux::requester(wire.aux).0), None], Segment::Pi))
        }
        t if continues_request(t) => {
            let reply = t.is_reply_class() || t == MsgType::NIntervMiss;
            Some((
                [Some(aux::requester(wire.aux).0), reply.then_some(node)],
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

/// Whether a chip emission continues the tracked request `key`
/// (first match wins when applying per-emission attributions).
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

/// The requester candidates a network message continues (the
/// network-side subset of [`emission_continues`], used to charge NI-wait
/// and mesh-transit cycles in `post_net`).
fn net_msg_cands(msg: &Msg) -> Option<([u16; 2], u64)> {
    continues_request(msg.mtype).then(|| {
        (
            [aux::requester(msg.aux).0, msg.dst.0],
            msg.addr.line().raw(),
        )
    })
}

/// Checks every invariant visible for one line right now: SWMR across
/// all processor caches, directory structural audit, and cache/
/// directory agreement at the line's home. Shared by the boundary
/// checker (reading through shard contexts) and the quiescence audit
/// (reading the machine directly) via the accessor closures.
fn check_line_at<'a>(
    cfg: &MachineConfig,
    ctx: &mut CheckCtx,
    line: Addr,
    now: Cycle,
    proc_at: &dyn Fn(u16) -> &'a Processor,
    chip_at: &dyn Fn(u16) -> &'a MagicChip,
    doomed: &dyn Fn((u16, u64)) -> bool,
) {
    let mut copies = Vec::new();
    for i in 0..cfg.nodes {
        let p = proc_at(i);
        // A copy with a queued `PInval` is logically dead (the sharer's
        // MAGIC already acknowledged the invalidation), and one with a
        // queued `PIntervGet`/`PIntervGetX` is mid-handoff (the requester
        // may install before the bus transaction lands). Both are exempt
        // from SWMR/agreement.
        let key = (i, line.raw());
        if let Some(state) = p.cache().state_of(line) {
            if !doomed(key) {
                copies.push(flash_check::CachedCopy {
                    node: i,
                    exclusive: state == flash_cpu::LineState::Exclusive,
                });
            }
        }
        let in_use = p.outstanding_misses();
        if in_use > cfg.mshrs {
            ctx.violations.push(flash_check::Violation {
                kind: "mshr-over",
                node: i,
                line: line.raw(),
                detail: format!("{in_use} MSHRs in use, limit {}", cfg.mshrs),
            });
        }
    }
    let home = cfg.placement.home_of(line, cfg.nodes);
    let da = dir_addr(line);
    let mem = chip_at(home.0).proto_mem();
    ctx.violations
        .extend(flash_check::audit_directory(mem, da, home.0, false));
    if let Ok(sharers) = flash_check::walk_sharers(mem, da) {
        let h = flash_protocol::DirHeader(mem.load64(da));
        for v in flash_check::check_line_coherence(h, &sharers, home.0, &copies, line.raw()) {
            // Per-copy cache/directory disagreements are legal for a
            // bounded window (stale-transfer self-repair) and are
            // attributed to the copy holder; held provisionally until
            // the copy is invalidated. See `CheckCtx::provisional_rogues`.
            // Everything else (aggregate swmr, structural audits) reports
            // immediately.
            let provisional = matches!(
                v.kind,
                "shared-under-dirty"
                    | "copy-not-listed"
                    | "excl-wrong-owner"
                    | "excl-not-dirty"
                    | "excl-home-not-local"
                    | "home-copy-not-local"
            );
            if provisional {
                ctx.provisional_rogues
                    .entry((v.node, v.line))
                    .or_insert((now, v));
            } else {
                ctx.violations.push(v);
            }
        }
    }
}

/// One shard's working view for a window: its slices of the machine's
/// node-indexed state, its persistent [`ShardState`], and the journals
/// the boundary will replay. Moves between the coordinator and a worker
/// thread when the machine runs more than one shard.
struct ShardCtx<'a> {
    cfg: &'a MachineConfig,
    shard: usize,
    /// First node this shard owns (its slices start here).
    lo: u16,
    nodes: u16,
    nshards: usize,
    check: bool,
    observe: bool,
    procs: &'a mut [Processor],
    chips: &'a mut [MagicChip],
    parked: &'a mut [Park],
    feeds: &'a mut [Option<OpenFeed>],
    finish: &'a mut [Cycle],
    origin_seq: &'a mut [u64],
    st: ShardState,
    /// Deferral count accumulated this run (merged at teardown).
    interv_deferrals: u64,
    // Per-window journals, drained at each boundary.
    sync_ops: Vec<(EvKey, SyncOp)>,
    obs_ops: Vec<(EvKey, ObsOp)>,
    staged: Vec<Staged>,
    discharges: Vec<(u16, u64)>,
    touched: BTreeSet<u64>,
    // Current window parameters and event cursor.
    end: Cycle,
    budget: u64,
    cur: EvKey,
    cur_t: Cycle,
    // Steady-state scratch: reused across events so the hot loop makes
    // no heap allocations (tests/alloc_budget.rs pins this).
    cpu_outs: Vec<(Cycle, CpuOut)>,
    emit_buf: Vec<Emission>,
    /// Host-time profiler accumulator (None unless armed; boxed so the
    /// unarmed hot path carries only a null check).
    prof: Option<Box<HostProfAcc>>,
}

impl<'a> ShardCtx<'a> {
    fn li(&self, node: u16) -> usize {
        debug_assert!(node >= self.lo && ((node - self.lo) as usize) < self.procs.len());
        (node - self.lo) as usize
    }

    /// Allocates the next canonical sub-key for an event originated by
    /// `origin` (which must be one of this shard's nodes).
    fn next_sub(&mut self, origin: u16) -> u64 {
        let li = self.li(origin);
        let seq = self.origin_seq[li];
        self.origin_seq[li] += 1;
        sub_key(origin, seq)
    }

    fn push_local(&mut self, origin: u16, at: Cycle, ev: Ev) {
        let sub = self.next_sub(origin);
        self.st.queue.push_sub(at, sub, ev);
    }

    fn sync(&mut self, op: SyncOp) {
        self.sync_ops.push((self.cur, op));
    }

    fn obs(&mut self, op: ObsOp) {
        self.obs_ops.push((self.cur, op));
    }

    fn mark_progress(&mut self) {
        if self.cur_t > self.st.last_progress {
            self.st.last_progress = self.cur_t;
        }
    }

    /// Advances the event cursor to an inlined continuation, exactly as
    /// the pop path would have.
    fn set_cursor(&mut self, at: Cycle, sub: u64) {
        self.cur = (at.raw(), sub);
        self.cur_t = at;
        if at > self.st.now {
            self.st.now = at;
        }
    }

    /// Processes this shard's events inside the current window, in
    /// canonical `(cycle, sub)` order. Processor run events whose
    /// reschedule would be the very next pop are executed inline
    /// (continuation loop) instead of round-tripping through the queue;
    /// [`ShardCtx::schedule_or_inline`] proves the order is unchanged.
    fn run_window(&mut self) {
        // Profiled path: one chained stamp closes the queue lap and opens
        // the event's outer bracket, and the next closes the bracket and
        // opens the following queue lap — no unattributed gaps between
        // events, and two `Instant::now` calls per event.
        let mut stamp = self.prof.as_mut().map(|p| {
            p.reset_inner();
            Instant::now()
        });
        let (end, budget) = (self.end, self.budget);
        while let Some((t, sub, ev)) = self
            .st
            .queue
            .pop_keyed_if(|t, _| t < end && t.raw() <= budget)
        {
            if let Some(s) = stamp {
                let p = self.prof.as_mut().expect("armed");
                stamp = Some(p.lap(HostSeg::Queue, s));
                p.events += 1;
                p.reset_inner();
            }
            self.cur = (t.raw(), sub);
            self.cur_t = t;
            if t > self.st.now {
                self.st.now = t;
            }
            let ev_line = match &ev {
                Ev::ProcRun(_) | Ev::Arrival { .. } => None,
                Ev::MagicIn { wire, .. } => Some(wire.addr.line().raw()),
                Ev::ProcDeliver { pm, .. } => Some(pm.addr.line().raw()),
                Ev::NetSend { msg } => Some(msg.addr.line().raw()),
            };
            let seg = match ev {
                Ev::ProcRun(n) => {
                    let mut cont = self.ev_proc_run(n);
                    while let Some((at, sub)) = cont {
                        if let Some(p) = self.prof.as_mut() {
                            p.events += 1;
                        }
                        self.set_cursor(at, sub);
                        cont = self.ev_proc_run(n);
                    }
                    HostSeg::Proc
                }
                Ev::MagicIn { node, wire, net } => {
                    self.ev_magic_in(node, wire, net);
                    HostSeg::Magic
                }
                Ev::ProcDeliver { node, pm, tries } => {
                    let mut cont = self.ev_proc_deliver(node, pm, tries);
                    while let Some((at, sub)) = cont {
                        if let Some(p) = self.prof.as_mut() {
                            p.events += 1;
                        }
                        self.set_cursor(at, sub);
                        cont = self.ev_proc_run(node);
                    }
                    HostSeg::Proc
                }
                Ev::NetSend { msg } => {
                    self.post_net(t, msg);
                    HostSeg::Net
                }
                Ev::Arrival { node } => {
                    let mut cont = self.ev_arrival(node);
                    while let Some((at, sub)) = cont {
                        if let Some(p) = self.prof.as_mut() {
                            p.events += 1;
                        }
                        self.set_cursor(at, sub);
                        cont = self.ev_proc_run(node);
                    }
                    HostSeg::Proc
                }
            };
            if let Some(s) = stamp {
                stamp = Some(self.prof.as_mut().expect("armed").lap_outer(seg, s));
            }
            if self.check {
                if let Some(line) = ev_line {
                    self.touched.insert(line);
                }
            }
        }
    }

    /// Runs processor `n`'s reference stream. Returns the continuation
    /// key when the processor's next run event was elided from the queue
    /// (the caller executes it inline — see [`ShardCtx::run_window`]).
    fn ev_proc_run(&mut self, n: u16) -> Option<(Cycle, u64)> {
        let i = self.li(n);
        if self.parked[i] != Park::Scheduled {
            return None; // stale wakeup (not forward progress)
        }
        self.mark_progress();
        let now = self.cur_t;
        let mut outs = std::mem::take(&mut self.cpu_outs);
        outs.clear();
        let outcome = self.procs[i].run(now, &mut outs);
        self.post_cpu_outs(n, &outs);
        self.cpu_outs = outs;
        match outcome {
            RunOutcome::BlockedRead | RunOutcome::BlockedWrite => {
                self.parked[i] = Park::WaitReply;
                None
            }
            RunOutcome::Barrier => {
                // Processors run ahead of the event clock; synchronization
                // uses each processor's own arrival time.
                let pt = self.procs[i].now().max(now);
                self.parked[i] = Park::WaitSync;
                self.sync(SyncOp::Barrier { node: n, pt });
                None
            }
            RunOutcome::Lock(id) => {
                let pt = self.procs[i].now().max(now);
                self.parked[i] = Park::WaitSync;
                self.sync(SyncOp::Lock { node: n, id, pt });
                None
            }
            RunOutcome::Unlock(id) => {
                let pt = self.procs[i].now().max(now);
                self.sync(SyncOp::Unlock { id, pt });
                self.schedule_or_inline(n, pt)
            }
            RunOutcome::Quantum => {
                let at = self.procs[i].now();
                self.schedule_or_inline(n, at.max(now))
            }
            RunOutcome::Finished => {
                if self.parked[i] != Park::Done {
                    self.parked[i] = Park::Done;
                    self.finish[i] = self.procs[i].finish_time();
                    self.sync(SyncOp::Finished);
                }
                None
            }
            RunOutcome::Starved => {
                // Only an open-loop node starves: its mailbox ran dry.
                // Admit whatever has arrived meanwhile, retire the
                // stream if the feed is spent, or park until the next
                // arrival. Admission is the progress point — a wedged
                // protocol keeps arrivals piling into the backlog, which
                // the watchdog then reports as such.
                let (has_backlog, exhausted) = {
                    let feed = self.feeds[i]
                        .as_ref()
                        .expect("closed-loop streams never starve");
                    (!feed.backlog.is_empty(), feed.exhausted)
                };
                if has_backlog {
                    self.admit(i);
                    self.mark_progress();
                    self.schedule_or_inline(n, now)
                } else if exhausted {
                    let feed = self.feeds[i].as_ref().expect("feed present");
                    feed.mailbox.lock().expect("mailbox lock").close();
                    // Rerun: the closed mailbox now yields `Done` and the
                    // processor retires through the ordinary path.
                    self.schedule_or_inline(n, now)
                } else {
                    self.parked[i] = Park::WaitWork;
                    None
                }
            }
        }
    }

    /// An open-loop reference arrives at `node`: the feed's pending item
    /// joins the admission backlog, the source's next arrival is
    /// scheduled, and a processor parked for work is fed and woken.
    /// Returns an inline continuation exactly like [`ShardCtx::ev_proc_run`].
    fn ev_arrival(&mut self, node: u16) -> Option<(Cycle, u64)> {
        let now = self.cur_t;
        let i = self.li(node);
        let next = {
            let feed = self.feeds[i].as_mut().expect("arrival without a feed");
            let (at, item) = feed
                .pending
                .take()
                .expect("arrival event without a pending arrival");
            debug_assert_eq!(at, now, "arrival event fires at its own cycle");
            assert_open_item(&item);
            feed.stats.arrivals += 1;
            feed.backlog.push_back((now, item));
            feed.stats.peak_backlog = feed.stats.peak_backlog.max(feed.backlog.len() as u64);
            match feed.source.next_arrival() {
                Some((at2, item2)) => {
                    // Defensive clamp: the source contract says monotone,
                    // but the event queue must never see the past.
                    let at2 = at2.max(now);
                    feed.pending = Some((at2, item2));
                    Some(at2)
                }
                None => {
                    feed.exhausted = true;
                    None
                }
            }
        };
        if let Some(at2) = next {
            self.push_local(node, at2, Ev::Arrival { node });
        }
        if self.parked[i] == Park::WaitWork {
            self.admit(i);
            self.mark_progress();
            self.schedule_or_inline(node, now)
        } else {
            None
        }
    }

    /// Moves node-index `i`'s entire backlog into its admission mailbox
    /// at the current event time, recording each item's admission wait
    /// (admit cycle − arrival cycle): the queueing-delay half of the
    /// open-loop latency story.
    fn admit(&mut self, i: usize) {
        let now = self.cur_t;
        let feed = self.feeds[i].as_mut().expect("admit without a feed");
        let mut mb = feed.mailbox.lock().expect("mailbox lock");
        while let Some((at, item)) = feed.backlog.pop_front() {
            let wait = now.raw().saturating_sub(at.raw());
            feed.stats.admitted += 1;
            feed.stats.wait_sum += wait;
            feed.stats.wait_max = feed.stats.wait_max.max(wait);
            mb.push(item);
        }
    }

    /// Schedules `ProcRun(n)` at `at` — or, when that event would be the
    /// very next pop anyway, elides the queue round-trip and returns the
    /// continuation key for inline execution.
    ///
    /// Identity proof: the sub-key is allocated unconditionally, so the
    /// canonical `(cycle, sub)` stream every downstream consumer sees
    /// (journals, traces, staged deliveries) is byte-identical to the
    /// always-queue path. Elision requires `(at, sub)` to order before
    /// the current queue head and to fall inside the window and cycle
    /// budget: in the queued execution the loop would pop exactly this
    /// event next (nothing can enqueue an earlier key in between —
    /// events only push at or after their own time, and the head already
    /// orders after us), so executing it inline preserves the canonical
    /// order and leaves the queue at the window boundary in exactly the
    /// state the queued execution would.
    fn schedule_or_inline(&mut self, n: u16, at: Cycle) -> Option<(Cycle, u64)> {
        let sub = self.next_sub(n);
        self.parked[self.li(n)] = Park::Scheduled;
        if self.cfg.inline_runs
            && at < self.end
            && at.raw() <= self.budget
            && self.st.queue.peek_key().is_none_or(|k| (at, sub) < k)
        {
            Some((at, sub))
        } else {
            self.st.queue.push_sub(at, sub, Ev::ProcRun(n));
            None
        }
    }

    fn wake_if_waiting(&mut self, n: u16, at: Cycle) -> Option<(Cycle, u64)> {
        if self.parked[self.li(n)] == Park::WaitReply {
            self.schedule_or_inline(n, at)
        } else {
            None
        }
    }

    /// Converts processor requests into PI messages at the MAGIC inbox.
    fn post_cpu_outs(&mut self, n: u16, outs: &[(Cycle, CpuOut)]) {
        let lat = self.cfg.lat;
        for &(t, o) in outs {
            let (mtype, addr, extra) = match o {
                CpuOut::Get(a) => (MsgType::PiGet, a, lat.miss_to_bus),
                CpuOut::GetX(a) => (MsgType::PiGetX, a, lat.miss_to_bus),
                CpuOut::Upgrade(a) => (MsgType::PiUpgrade, a, lat.miss_to_bus),
                CpuOut::Writeback(a) => (MsgType::PiWriteback, a, 0),
                CpuOut::Hint(a) => (MsgType::PiRplHint, a, 0),
            };
            // Observed mode: a miss leaving the processor starts a
            // tracked request at its issue time.
            if self.observe {
                let kind = match mtype {
                    MsgType::PiGet => Some(ReqKind::Read),
                    MsgType::PiGetX => Some(ReqKind::Write),
                    MsgType::PiUpgrade => Some(ReqKind::Upgrade),
                    _ => None,
                };
                if let Some(kind) = kind {
                    self.obs(ObsOp::Begin {
                        node: n,
                        line: addr.line().raw(),
                        issue: t,
                        kind,
                    });
                }
            }
            self.push_local(
                n,
                t + extra + lat.bus + lat.pi_in,
                Ev::MagicIn {
                    node: n,
                    wire: Wire {
                        mtype,
                        src: NodeId(n),
                        addr,
                        aux: 0,
                        with_data: mtype.carries_data(),
                    },
                    net: false,
                },
            );
        }
    }

    fn ev_magic_in(&mut self, node: u16, wire: Wire, net: bool) {
        let now = self.cur_t;
        let i = self.li(node);
        // Receiver-side inbound-NI freeze: a frozen input queue re-offers
        // the message — identity (canonical key) preserved — at the thaw
        // time. Keyed to the *receiving* node so the draw stream is
        // shard-layout-invariant.
        if net {
            if let Some(inj) = self.st.injector.as_mut() {
                if let Some(resume) = inj.ni_freeze(now, node, NiDir::In) {
                    self.st
                        .queue
                        .push_sub(resume, self.cur.1, Ev::MagicIn { node, wire, net });
                    return;
                }
            }
        }
        let line_raw = wire.addr.line().raw();
        let home = self.cfg.placement.home_of(wire.addr, self.cfg.nodes);
        self.mark_progress();
        self.st.ring.push_back((
            self.cur,
            TraceEntry {
                at: now.raw(),
                node,
                kind: wire.mtype.name(),
                src: wire.src.0,
                line: line_raw,
                aux: wire.aux,
            },
        ));
        if self.st.ring.len() > RING_CAPACITY {
            self.st.ring.pop_front();
        }
        let msg = InMsg {
            mtype: wire.mtype,
            src: wire.src,
            addr: wire.addr,
            aux: wire.aux,
            spec: false,
            self_node: NodeId(node),
            home,
            diraddr: dir_addr(wire.addr),
            with_data: wire.with_data,
        };
        // Fault hooks (taken only when an injector is armed): a PP
        // slowdown burst holds the protocol processor busy past `now`; a
        // handler running inside a DRAM refresh window finds its memory
        // controller blocked to the window's end.
        if let Some(inj) = self.st.injector.as_mut() {
            let burst = inj.pp_burst(now, node);
            if burst > 0 {
                self.chips[i].stall_pp(now + burst);
            }
            if let Some(until) = inj.dram_block(now) {
                self.chips[i].block_memory(until);
            }
        }
        // Observed mode: journal the arrival; the boundary replay
        // resolves the candidate keys against the master pending set and
        // advances the tracked request's frontier to the inbox arrival.
        let arrival = self.observe.then(|| observe_cands(node, &wire)).flatten();
        if let Some((cands, seg)) = arrival {
            self.obs(ObsOp::ArriveAdvance {
                cands,
                line: line_raw,
                seg,
                now,
            });
        }
        // Read-miss classification at the home (paper Tables 4.1/4.2).
        let chip = &mut self.chips[i];
        let class = match wire.mtype {
            MsgType::PiGet if home == NodeId(node) => chip.classify_read(&msg, NodeId(node)),
            MsgType::NGet => chip.classify_read(&msg, aux::requester(wire.aux)),
            _ => None,
        };
        let mut emissions = std::mem::take(&mut self.emit_buf);
        let tp = self.prof.is_some().then(Instant::now);
        chip.process_into(msg, now, &mut emissions);
        if let Some(tp) = tp {
            self.prof
                .as_mut()
                .expect("armed")
                .add_inner(HostSeg::Protocol, tp);
        }
        // Observed mode: record the handler invocation, then journal the
        // read class and the per-candidate continuing emission's exact
        // decomposition (the replay picks the resolved candidate's).
        let to = (self.prof.is_some() && self.observe).then(Instant::now);
        if self.observe {
            if let Some(inv) = self.chips[i].obs_invocation().copied() {
                self.obs(ObsOp::TraceHandler { node, inv });
            }
            if let Some((cands, _)) = arrival {
                let mut parts: [Option<(Cycle, ObsParts, bool)>; 2] = [None, None];
                for (ci, cand) in cands.iter().enumerate() {
                    if let Some(c) = cand {
                        if let Some(ei) = emissions
                            .iter()
                            .position(|em| emission_continues(em, (*c, line_raw), node))
                        {
                            parts[ci] = Some((
                                emissions[ei].at(),
                                self.chips[i].obs_parts()[ei],
                                matches!(emissions[ei], Emission::Net { .. }),
                            ));
                        }
                    }
                }
                self.obs(ObsOp::ArriveApply {
                    cands,
                    line: line_raw,
                    class,
                    parts,
                });
            }
        }
        if let Some(to) = to {
            self.prof
                .as_mut()
                .expect("armed")
                .add_inner(HostSeg::ObsCheck, to);
        }
        for em in emissions.drain(..) {
            match em {
                Emission::Net { at, msg } => self.post_net(at, msg),
                Emission::Proc { at, msg } => {
                    if self.check {
                        let key = (node, msg.addr.line().raw());
                        match msg.mtype {
                            // The copy is logically dead from the moment
                            // the invalidation is queued on the bus.
                            MsgType::PInval => {
                                *self.st.inflight_invals.entry(key).or_insert(0) += 1;
                            }
                            // The copy is mid-handoff: the new owner may
                            // install its (exclusive) copy before this bus
                            // transaction invalidates or downgrades ours.
                            MsgType::PIntervGet | MsgType::PIntervGetX => {
                                *self.st.inflight_intervs.entry(key).or_insert(0) += 1;
                            }
                            _ => {}
                        }
                    }
                    self.push_local(
                        node,
                        at,
                        Ev::ProcDeliver {
                            node,
                            pm: msg,
                            tries: 0,
                        },
                    );
                }
            }
        }
        self.emit_buf = emissions;
    }

    /// Routes an outbound network message (fault hooks, mesh transit,
    /// staging for cross-shard destinations). The bracket wrapper
    /// attributes the whole path to the net segment even when reached
    /// from inside a MAGIC event.
    fn post_net(&mut self, at: Cycle, msg: Msg) {
        let tn = self.prof.is_some().then(Instant::now);
        self.post_net_inner(at, msg);
        if let Some(tn) = tn {
            self.prof
                .as_mut()
                .expect("armed")
                .add_inner(HostSeg::Net, tn);
        }
    }

    fn post_net_inner(&mut self, at: Cycle, msg: Msg) {
        debug_assert_eq!(
            shard_of(self.nodes, self.nshards, msg.src.0),
            self.shard,
            "network sends originate on the sender's shard"
        );
        // Fault hooks on the outbound path: an output-queue freeze at the
        // source NI delays entry to the mesh; then the link verdict may
        // delay further (transient stall, hop spike) or hold the message
        // entirely (scripted outage — re-offered later, not progress).
        let mut at = at;
        if let Some(inj) = self.st.injector.as_mut() {
            if let Some(resume) = inj.ni_freeze(at, msg.src.0, NiDir::Out) {
                at = resume;
            }
            match inj.link_verdict(at, msg.src.0, msg.dst.0) {
                LinkVerdict::Clear => {}
                LinkVerdict::Delay(d) => at += d,
                LinkVerdict::Hold { resume } => {
                    self.push_local(msg.src.0, resume, Ev::NetSend { msg });
                    return;
                }
            }
        }
        let arrival = self.st.net.send(at, msg.src, msg.dst);
        // Observed mode: source-side holds (fault layer) count as
        // NI-wait, the hop itself as mesh transit.
        if self.observe {
            if let Some((cands, line)) = net_msg_cands(&msg) {
                self.obs(ObsOp::NetHop {
                    cands,
                    line,
                    depart: at,
                    arrive: arrival,
                });
            }
        }
        let deliver = arrival + self.cfg.lat.ni_in;
        let wire = Wire {
            mtype: msg.mtype,
            src: msg.src,
            addr: msg.addr,
            aux: msg.aux,
            with_data: msg.with_data,
        };
        let dst = msg.dst.0;
        let sub = self.next_sub(msg.src.0);
        if shard_of(self.nodes, self.nshards, dst) == self.shard {
            self.st.queue.push_sub(
                deliver,
                sub,
                Ev::MagicIn {
                    node: dst,
                    wire,
                    net: true,
                },
            );
        } else {
            // The lookahead proof: deliver >= send time + minimum remote
            // transit + NI input >= window start + lookahead = window end.
            debug_assert!(
                deliver >= self.end,
                "cross-shard delivery inside the window violates the lookahead"
            );
            self.staged.push(Staged {
                at: deliver,
                sub,
                node: dst,
                wire,
            });
        }
    }

    /// Delivers a MAGIC→processor message. Returns the continuation key
    /// when a reply wake's run event was elided (see
    /// [`ShardCtx::schedule_or_inline`]).
    fn ev_proc_deliver(&mut self, node: u16, pm: ProcMsg, tries: u32) -> Option<(Cycle, u64)> {
        let i = self.li(node);
        let now = self.cur_t;
        let lat = self.cfg.lat;
        // Consuming a delivery is forward progress; the intervention
        // *deferral* path below re-queues without consuming and is
        // deliberately not counted (a deferral loop is a livelock).
        if !matches!(pm.mtype, MsgType::PIntervGet | MsgType::PIntervGetX) {
            self.mark_progress();
        }
        match pm.mtype {
            MsgType::PPut | MsgType::PPutX | MsgType::PUpgAck => {
                // Observed mode: the reply reaching the processor closes
                // the tracked request (before `deliver_reply`, whose
                // freed MSHR may immediately re-issue on this line).
                if self.observe {
                    self.obs(ObsOp::Complete {
                        key: (node, pm.addr.line().raw()),
                        now,
                    });
                }
                let excl = pm.mtype != MsgType::PPut;
                let mut outs = std::mem::take(&mut self.cpu_outs);
                outs.clear();
                self.procs[i].deliver_reply(pm.addr, excl, now, &mut outs);
                self.post_cpu_outs(node, &outs);
                self.cpu_outs = outs;
                return self.wake_if_waiting(node, now);
            }
            MsgType::PInval => {
                self.procs[i].inval(pm.addr, now);
                if self.check {
                    let key = (node, pm.addr.line().raw());
                    if let Some(n) = self.st.inflight_invals.get_mut(&key) {
                        *n -= 1;
                        if *n == 0 {
                            self.st.inflight_invals.remove(&key);
                        }
                    }
                    // An invalidation reaching this copy discharges any
                    // provisional rogue-copy observation: the self-repair
                    // completed.
                    self.discharges.push(key);
                }
            }
            MsgType::PIntervGet | MsgType::PIntervGetX => {
                let excl = pm.mtype == MsgType::PIntervGetX;
                let mut give_up = false;
                if self.procs[i].has_mshr(pm.addr) {
                    if tries < MAX_INTERV_DEFERRALS {
                        // Data for this line is in flight; the bus
                        // transaction retries until it lands.
                        self.interv_deferrals += 1;
                        self.push_local(
                            node,
                            now + 16,
                            Ev::ProcDeliver {
                                node,
                                pm,
                                tries: tries + 1,
                            },
                        );
                        return None;
                    }
                    // Request/forward cycle: break it. The miss report
                    // makes the home abandon the transaction; poisoning
                    // keeps the eventual grant from caching a stale copy.
                    self.procs[i].poison_pending(pm.addr);
                    give_up = true;
                }
                // The intervention is being consumed (not re-deferred):
                // the copy's handoff window closes here.
                self.mark_progress();
                // Observed mode: the requester's frontier waited out the
                // owner's bus transaction (deferrals included) — PI time.
                if self.observe {
                    self.obs(ObsOp::Advance {
                        key: (aux::requester(pm.aux).0, pm.addr.line().raw()),
                        now,
                        seg: Segment::Pi,
                    });
                }
                if self.check {
                    let key = (node, pm.addr.line().raw());
                    if let Some(n) = self.st.inflight_intervs.get_mut(&key) {
                        *n -= 1;
                        if *n == 0 {
                            self.st.inflight_intervs.remove(&key);
                        }
                    }
                }
                let found = !give_up && self.procs[i].intervention(pm.addr, excl, now);
                let (mtype, delay) = if found {
                    (MsgType::PiIntervReply, lat.cache_data)
                } else {
                    (MsgType::PiIntervMiss, lat.cache_state)
                };
                self.push_local(
                    node,
                    now + delay + lat.bus + lat.pi_in,
                    Ev::MagicIn {
                        node,
                        wire: Wire {
                            mtype,
                            src: NodeId(node),
                            addr: pm.addr,
                            aux: pm.aux,
                            with_data: found,
                        },
                        net: false,
                    },
                );
            }
            MsgType::PNackRetry => {
                // Observed mode: the NACK round trip ends on the
                // requester's bus; the retry gap is PI time.
                if self.observe {
                    self.obs(ObsOp::Advance {
                        key: (node, pm.addr.line().raw()),
                        now,
                        seg: Segment::Pi,
                    });
                }
                if let Some(o) = self.procs[i].nack_retry(pm.addr) {
                    // Bus retry: the miss was already detected, so only
                    // the retry delay plus bus/PI path applies.
                    let (mtype, addr) = match o {
                        flash_cpu::CpuOut::Get(a) => (MsgType::PiGet, a),
                        flash_cpu::CpuOut::GetX(a) => (MsgType::PiGetX, a),
                        flash_cpu::CpuOut::Upgrade(a) => (MsgType::PiUpgrade, a),
                        other => unreachable!("{other:?} is not retryable"),
                    };
                    self.push_local(
                        node,
                        now + lat.retry + lat.bus + lat.pi_in,
                        Ev::MagicIn {
                            node,
                            wire: Wire {
                                mtype,
                                src: NodeId(node),
                                addr,
                                aux: 0,
                                with_data: false,
                            },
                            net: false,
                        },
                    );
                }
            }
            MsgType::PIoData => {}
            other => unreachable!("{other:?} is not a processor-bound message"),
        }
        None
    }
}

/// How a windowed run ended (the machine-facing [`RunResult`] is built
/// after teardown, when the merged state is back on the machine).
enum DriveEnd {
    Completed,
    Deadlocked,
    Budget,
    Wedged,
}

/// The coordinator's boundary-owned state: everything nodes share.
struct Coord<'a> {
    cfg: &'a MachineConfig,
    locks: &'a mut FastMap<u32, LockState>,
    barrier_waiters: &'a mut Vec<(u16, Cycle)>,
    done: &'a mut usize,
    check: &'a mut Option<CheckCtx>,
    observe: &'a mut Option<Box<Observer>>,
    total: usize,
    nodes: u16,
    nshards: usize,
    /// Boundary-side host-profiler accumulator (None unless armed);
    /// merged into the machine's profile after the drive loop.
    prof: Option<HostProfAcc>,
}

impl Coord<'_> {
    /// Wakes `node` (sets it runnable and pushes its `ProcRun`) on its
    /// owning shard. The wake time may predate cycles other shards have
    /// already processed — the queue's overflow heap handles behind-
    /// cursor pushes, and the event still executes at its own simulated
    /// time — one window late by construction, identically for every
    /// shard count.
    fn wake(&self, ctxs: &mut [ShardCtx], node: u16, at: Cycle) {
        let (s, li) = locate(self.nodes, self.nshards, node);
        let ctx = &mut ctxs[s];
        ctx.parked[li] = Park::Scheduled;
        let seq = ctx.origin_seq[li];
        ctx.origin_seq[li] += 1;
        ctx.st
            .queue
            .push_sub(at, sub_key(node, seq), Ev::ProcRun(node));
    }

    fn maybe_release_barrier(&mut self, ctxs: &mut [ShardCtx], at: Cycle) {
        let active = self.total - *self.done;
        if active > 0 && self.barrier_waiters.len() == active {
            let waiters = std::mem::take(self.barrier_waiters);
            let release = waiters.iter().map(|&(_, t)| t).fold(at, Cycle::max);
            for (w, _) in waiters {
                self.wake(ctxs, w, release);
            }
        }
    }

    /// Applies the window's synchronization ops in canonical key order —
    /// the exact order a serial machine would have encountered them.
    fn apply_sync(&mut self, ctxs: &mut [ShardCtx], mut ops: Vec<(EvKey, SyncOp)>) {
        ops.sort_unstable_by_key(|&(k, _)| k);
        let grant = self.cfg.lat.lock_grant;
        for (key, op) in ops {
            let at = Cycle::new(key.0);
            match op {
                SyncOp::Barrier { node, pt } => {
                    self.barrier_waiters.push((node, pt));
                    self.maybe_release_barrier(ctxs, at);
                }
                SyncOp::Lock { node, id, pt } => {
                    let lock = self.locks.entry(id).or_default();
                    if lock.held {
                        lock.waiters.push_back((node, pt));
                    } else {
                        lock.held = true;
                        self.wake(ctxs, node, pt + grant);
                    }
                }
                SyncOp::Unlock { id, pt } => {
                    let lock = self.locks.entry(id).or_default();
                    match lock.waiters.pop_front() {
                        Some((w, wt)) => self.wake(ctxs, w, pt.max(wt) + grant),
                        None => lock.held = false,
                    }
                }
                SyncOp::Finished => {
                    *self.done += 1;
                    self.maybe_release_barrier(ctxs, at);
                }
            }
        }
    }

    /// Replays the window's observer journal against the master observer
    /// in canonical key order. Stable sort: ops from one event keep
    /// their program order. Arrival ops resolve their candidate keys
    /// against the master's live pending set here, which evolves in the
    /// same canonical order for every shard count.
    fn apply_obs(&mut self, mut ops: Vec<(EvKey, ObsOp)>) {
        let Some(obs) = self.observe.as_deref_mut() else {
            return;
        };
        ops.sort_by_key(|&(k, _)| k);
        for (_, op) in ops {
            match op {
                ObsOp::Begin {
                    node,
                    line,
                    issue,
                    kind,
                } => obs.begin(node, line, issue, kind),
                ObsOp::ArriveAdvance {
                    cands,
                    line,
                    seg,
                    now,
                } => {
                    if let Some(c) = cands
                        .into_iter()
                        .flatten()
                        .find(|&c| obs.is_pending((c, line)))
                    {
                        obs.advance((c, line), now, seg);
                    }
                }
                ObsOp::TraceHandler { node, inv } => obs.trace_handler(node, &inv),
                ObsOp::ArriveApply {
                    cands,
                    line,
                    class,
                    parts,
                } => {
                    let hit = cands.iter().enumerate().find_map(|(ci, c)| {
                        c.filter(|&c| obs.is_pending((c, line))).map(|c| (ci, c))
                    });
                    if let Some((ci, c)) = hit {
                        let key = (c, line);
                        if let Some(class) = class {
                            obs.note_class(key, class);
                        }
                        if let Some((em_at, p, net)) = parts[ci] {
                            obs.apply_parts(key, em_at, &p, net);
                        }
                    }
                }
                ObsOp::NetHop {
                    cands,
                    line,
                    depart,
                    arrive,
                } => {
                    if let Some(c) = cands.into_iter().find(|&c| obs.is_pending((c, line))) {
                        obs.net_hop((c, line), depart, arrive);
                    }
                }
                ObsOp::Advance { key, now, seg } => obs.advance(key, now, seg),
                ObsOp::Complete { key, now } => obs.complete(key, now),
            }
        }
    }
}

/// The conservative-window loop: pick the next window, let every shard
/// process it (via `exec` — serial in-place or fanned out to workers),
/// then resolve the boundary. Returns how the run ended; all merged
/// state lives in `ctxs`/`coord` for the caller's teardown.
fn window_loop<'a>(
    ctxs: &mut Vec<ShardCtx<'a>>,
    coord: &mut Coord<'_>,
    budget: u64,
    lookahead: u64,
    mut exec: impl FnMut(&mut Vec<ShardCtx<'a>>),
) -> DriveEnd {
    loop {
        // Window start: the canonical global minimum pending event.
        let tb = coord.prof.as_ref().map(|_| Instant::now());
        let mut min: Option<(Cycle, u64, usize)> = None;
        for (i, c) in ctxs.iter().enumerate() {
            if let Some((t, s)) = c.st.queue.peek_key() {
                if min.is_none_or(|(mt, ms, _)| (t, s) < (mt, ms)) {
                    min = Some((t, s, i));
                }
            }
        }
        let Some((w, _, wi)) = min else {
            // Quiescent: every queue (and the boundary staging) drained.
            return if *coord.done == coord.total {
                DriveEnd::Completed
            } else {
                DriveEnd::Deadlocked
            };
        };
        if w.raw() > budget {
            // Budget semantics match the serial loop: the first
            // over-budget event is consumed (dropped) and the clock
            // stops at its time.
            let (t, _, _) = ctxs[wi].st.queue.pop_keyed().expect("peeked non-empty");
            if t > ctxs[wi].st.now {
                ctxs[wi].st.now = t;
            }
            return DriveEnd::Budget;
        }
        let end = w + lookahead;
        for c in ctxs.iter_mut() {
            c.end = end;
            c.budget = budget;
        }
        if let Some(t) = tb {
            coord
                .prof
                .as_mut()
                .expect("armed")
                .add_flat(HostSeg::Queue, t);
        }
        exec(ctxs);
        // ---- boundary ------------------------------------------------
        // (exec's elapsed time is attributed inside the shards' own
        // accumulators, so the coordinator re-stamps here.)
        let tb = coord.prof.as_ref().map(|_| Instant::now());
        let boundary_now = ctxs.iter().map(|c| c.st.now).max().unwrap_or(Cycle::ZERO);
        // 1. Synchronization (locks, barriers, retirement).
        let sync: Vec<(EvKey, SyncOp)> =
            ctxs.iter_mut().flat_map(|c| c.sync_ops.drain(..)).collect();
        coord.apply_sync(ctxs, sync);
        let tb = tb.map(|t| {
            coord
                .prof
                .as_mut()
                .expect("armed")
                .lap(HostSeg::Boundary, t)
        });
        // 2. Observer journal.
        if coord.observe.is_some() {
            let obs: Vec<(EvKey, ObsOp)> =
                ctxs.iter_mut().flat_map(|c| c.obs_ops.drain(..)).collect();
            coord.apply_obs(obs);
        } else {
            for c in ctxs.iter_mut() {
                debug_assert!(c.obs_ops.is_empty());
            }
        }
        // 3. Invariant checks over every line the window touched.
        if coord.check.is_some() {
            let discharges: Vec<(u16, u64)> = ctxs
                .iter_mut()
                .flat_map(|c| c.discharges.drain(..))
                .collect();
            let mut touched: BTreeSet<u64> = BTreeSet::new();
            for c in ctxs.iter_mut() {
                touched.append(&mut c.touched);
            }
            let mut check = coord.check.take().expect("checked mode");
            for key in discharges {
                check.provisional_rogues.remove(&key);
            }
            let nodes = coord.nodes;
            let nshards = coord.nshards;
            let view: &[ShardCtx] = ctxs;
            for &raw in &touched {
                check.touched.insert(raw);
                check_line_at(
                    coord.cfg,
                    &mut check,
                    Addr::new(raw),
                    boundary_now,
                    &|n| {
                        let (s, li) = locate(nodes, nshards, n);
                        &view[s].procs[li]
                    },
                    &|n| {
                        let (s, li) = locate(nodes, nshards, n);
                        &view[s].chips[li]
                    },
                    &|key| {
                        let (s, _) = locate(nodes, nshards, key.0);
                        view[s].st.inflight_invals.contains_key(&key)
                            || view[s].st.inflight_intervs.contains_key(&key)
                    },
                );
            }
            *coord.check = Some(check);
        }
        let tb = tb.map(|t| {
            coord
                .prof
                .as_mut()
                .expect("armed")
                .lap(HostSeg::ObsCheck, t)
        });
        // 4. Cross-shard staged deliveries into destination queues. First
        // advance every shard's wheel window to the boundary: an idle
        // shard's cursor freezes at its last pop, and against that stale
        // base the near-future staged deliveries (and coordinator
        // wakeups) would look far-future and degrade to the overflow
        // heap. Safe because every event before `end` was popped this
        // window, so no wheel-resident event is earlier than `end`.
        for c in ctxs.iter_mut() {
            c.st.queue.advance_to(end);
        }
        let mut staged: Vec<Staged> = ctxs.iter_mut().flat_map(|c| c.staged.drain(..)).collect();
        staged.sort_unstable_by_key(|s| (s.at, s.sub));
        for s in staged {
            let (sh, _) = locate(coord.nodes, coord.nshards, s.node);
            ctxs[sh].st.queue.push_sub(
                s.at,
                s.sub,
                Ev::MagicIn {
                    node: s.node,
                    wire: s.wire,
                    net: true,
                },
            );
        }
        if let Some(t) = tb {
            coord
                .prof
                .as_mut()
                .expect("armed")
                .add_flat(HostSeg::Queue, t);
        }
        // 5. Forward-progress watchdog, at boundary granularity.
        let progress = ctxs
            .iter()
            .map(|c| c.st.last_progress)
            .max()
            .unwrap_or(Cycle::ZERO);
        if coord.cfg.watchdog_window > 0
            && boundary_now.raw().saturating_sub(progress.raw()) > coord.cfg.watchdog_window
        {
            return DriveEnd::Wedged;
        }
    }
}

impl Machine {
    /// Builds a machine running one reference stream per node.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len() != cfg.nodes`.
    pub fn new(cfg: MachineConfig, streams: Vec<Box<dyn RefStream>>) -> Self {
        assert_eq!(streams.len(), cfg.nodes as usize, "one stream per node");
        // Handler modules are immutable once scheduled; they are compiled
        // at most once per (codegen, monitoring) variant for the whole
        // process and shared across nodes, machines, and worker threads.
        let program = match (cfg.controller, cfg.monitoring) {
            (ControllerKind::FlashEmulated, false) => {
                Some(flash_protocol::handlers::compile_shared(cfg.codegen))
            }
            (ControllerKind::FlashEmulated, true) => Some(
                flash_protocol::handlers::compile_monitoring_shared(cfg.codegen),
            ),
            _ => None,
        };
        let jump = if cfg.monitoring && cfg.controller == ControllerKind::FlashEmulated {
            JumpTable::dpa_with_monitoring()
        } else {
            JumpTable::dpa_protocol()
        };
        let mut chips: Vec<MagicChip> = (0..cfg.nodes)
            .map(|i| {
                MagicChip::new(
                    cfg.controller,
                    NodeId(i),
                    program.clone(),
                    jump.clone(),
                    cfg.mem_timing,
                    cfg.speculation,
                    cfg.mdc_enabled,
                )
            })
            .collect();
        // Apply the configured PP backend (a host-performance knob;
        // timing is backend-invariant, so this never changes results).
        for chip in &mut chips {
            chip.set_pp_backend(cfg.pp_backend);
        }
        // Checked mode: the differential oracle replays every emulated
        // handler through the native protocol. The monitoring protocol
        // writes per-line counters the native oracle does not model, so
        // the oracle stays off there (invariant checks still run).
        if cfg.check && !cfg.monitoring {
            for chip in &mut chips {
                chip.enable_oracle();
            }
        }
        // Observed mode: chips record per-emission attributions
        // (timing-invisible side buffers).
        if cfg.observe {
            for chip in &mut chips {
                chip.set_observe(true);
            }
        }
        let procs: Vec<Processor> = streams
            .into_iter()
            .map(|s| Processor::new(cfg.cache_bytes, cfg.mshrs, s))
            .collect();
        let n = cfg.nodes as usize;
        // The shard count is a host knob: clamp to something sane, never
        // more shards than nodes.
        let nshards = cfg.shards.max(1).min(n.max(1));
        // Size each shard's timing wheel to the longest routine scheduling
        // distance: worst-case mesh transit plus NI ingress, with 4x slack
        // for the per-home protocol-processor queuing backlog that pushes
        // emission times past raw transit under load. Tuned for 128 slots
        // on small meshes and 512 at 1024 nodes; without it, a large share
        // of big-mesh pushes degrade to the overflow heap.
        let horizon = (NetModel::new(Mesh::for_nodes(cfg.nodes), cfg.net).max_remote_transit()
            + cfg.lat.ni_in)
            * 4;
        let shards: Vec<ShardState> = (0..nshards)
            .map(|_| ShardState {
                queue: EventQueue::with_horizon(horizon),
                net: NetModel::new(Mesh::for_nodes(cfg.nodes), cfg.net),
                injector: FaultInjector::new(&cfg.faults),
                ring: VecDeque::new(),
                inflight_invals: FastMap::default(),
                inflight_intervs: FastMap::default(),
                now: Cycle::ZERO,
                last_progress: Cycle::ZERO,
            })
            .collect();
        let net = NetModel::new(Mesh::for_nodes(cfg.nodes), cfg.net);
        let check_enabled = cfg.check;
        let cfg_host_profile = cfg.host_profile;
        let observe = cfg
            .observe
            .then(|| Box::new(Observer::new(jump.handler_names())));
        let mut m = Machine {
            cfg,
            procs,
            chips,
            net,
            shards,
            origin_seq: vec![0; n],
            now: Cycle::ZERO,
            parked: vec![Park::Scheduled; n],
            feeds: (0..n).map(|_| None).collect(),
            barrier_waiters: Vec::new(),
            locks: FastMap::default(),
            done: 0,
            finish: vec![Cycle::ZERO; n],
            interv_deferrals: 0,
            check: check_enabled.then(CheckCtx::default),
            ring: MsgRing::new(RING_CAPACITY),
            last_progress: Cycle::ZERO,
            observe,
            hostprof: cfg_host_profile.then(|| Box::new(HostProfile::default())),
        };
        for i in 0..m.cfg.nodes {
            m.push_origin(i, Cycle::ZERO, Ev::ProcRun(i));
        }
        m
    }

    /// Schedules `ev` at `at` under `origin`'s next canonical sub-key, on
    /// the queue of the shard that owns `origin`.
    fn push_origin(&mut self, origin: u16, at: Cycle, ev: Ev) {
        let s = shard_of(self.cfg.nodes, self.shards.len(), origin);
        let seq = self.origin_seq[origin as usize];
        self.origin_seq[origin as usize] += 1;
        self.shards[s].queue.push_sub(at, sub_key(origin, seq), ev);
    }

    /// Builds an open-loop machine: every node runs from an arrival
    /// source instead of a closed-loop reference stream.
    ///
    /// Each node's stream is an admission mailbox fed from its source,
    /// and the source's first arrival is scheduled as an event.
    /// References then *arrive* on the source's schedule whether or not
    /// the processor has kept up — arrivals the processor is not ready
    /// for accumulate in a backlog ([`Machine::traffic_stats`] reports
    /// the queueing).
    ///
    /// # Panics
    ///
    /// Panics if `sources.len() != cfg.nodes`.
    pub fn new_open_loop(cfg: MachineConfig, sources: Vec<Box<dyn ArrivalSource>>) -> Self {
        assert_eq!(sources.len(), cfg.nodes as usize, "one source per node");
        let mailboxes: Vec<MailboxHandle> = sources.iter().map(|_| Mailbox::handle()).collect();
        let streams = mailboxes
            .iter()
            .map(|mb| Box::new(MailboxStream::new(mb.clone())) as Box<dyn RefStream>)
            .collect();
        let mut m = Machine::new(cfg, streams);
        for (i, (mut source, mailbox)) in sources.into_iter().zip(mailboxes).enumerate() {
            let pending = source.next_arrival();
            if let Some((at, item)) = &pending {
                assert_open_item(item);
                let node = i as u16;
                m.push_origin(node, *at, Ev::Arrival { node });
            }
            m.feeds[i] = Some(OpenFeed {
                source,
                mailbox,
                backlog: VecDeque::new(),
                exhausted: pending.is_none(),
                pending,
                stats: TrafficStats::default(),
            });
        }
        m
    }

    /// Per-node admission statistics, `(node, stats)` in node order, for
    /// an open-loop machine, or `None` for a closed-loop one.
    pub fn traffic_stats(&self) -> Option<Vec<(u16, TrafficStats)>> {
        // Every node is fed or none is, so this is all-`Some` or `None`.
        self.feeds
            .iter()
            .enumerate()
            .map(|(i, f)| f.as_ref().map(|f| (i as u16, f.stats)))
            .collect()
    }

    /// Schedules a DMA write into `node`'s memory at time `at` (the OS
    /// workload's zero-latency disk, paper §3.4).
    pub fn add_dma_write(&mut self, at: Cycle, node: NodeId, addr: Addr) {
        self.push_origin(
            node.0,
            at,
            Ev::MagicIn {
                node: node.0,
                wire: Wire {
                    mtype: MsgType::IoDmaWrite,
                    src: node,
                    addr: addr.line(),
                    aux: 0,
                    with_data: true,
                },
                net: false,
            },
        );
    }

    /// The conservative lookahead: the minimum latency any cross-node
    /// message experiences (minimum remote mesh transit plus the
    /// receiver's NI input stage). A pure function of the configuration —
    /// never of the shard count — so the window structure, and therefore
    /// every result, is identical for any `FLASH_SHARDS`.
    fn lookahead(&self) -> u64 {
        (self.net.min_remote_transit() + self.cfg.lat.ni_in).max(1)
    }

    /// Runs until every processor finishes or `budget_cycles` elapse.
    pub fn run(&mut self, budget_cycles: u64) -> RunResult {
        let lookahead = self.lookahead();
        let wall0 = self.hostprof.is_some().then(Instant::now);
        let (end, fins) = self.drive(budget_cycles, lookahead);
        if let Some(t0) = wall0 {
            let hp = self.hostprof.as_mut().expect("armed");
            hp.wall_ns += t0.elapsed().as_nanos() as u64;
            hp.runs += 1;
        }
        // Teardown: every exit path restores the shard states and merges
        // shard-accumulated views back onto the machine.
        self.interv_deferrals += fins.iter().map(|&(_, d)| d).sum::<u64>();
        self.shards = fins.into_iter().map(|(st, _)| st).collect();
        self.now = self.shards.iter().map(|s| s.now).fold(self.now, Cycle::max);
        self.last_progress = self
            .shards
            .iter()
            .map(|s| s.last_progress)
            .fold(self.last_progress, Cycle::max);
        let mut net = NetModel::new(Mesh::for_nodes(self.cfg.nodes), self.cfg.net);
        for st in &self.shards {
            net.absorb_counts(&st.net);
        }
        self.net = net;
        let mut entries: Vec<(EvKey, TraceEntry)> = self
            .shards
            .iter()
            .flat_map(|s| s.ring.iter().copied())
            .collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        let mut ring = MsgRing::new(RING_CAPACITY);
        for &(_, e) in entries
            .iter()
            .skip(entries.len().saturating_sub(RING_CAPACITY))
        {
            ring.push(e);
        }
        self.ring = ring;
        match end {
            DriveEnd::Budget => RunResult::BudgetExhausted,
            DriveEnd::Wedged => RunResult::Wedged {
                report: Box::new(self.diagnose("no forward progress within the watchdog window")),
            },
            DriveEnd::Deadlocked => RunResult::Deadlocked {
                stuck: self.procs.len() - self.done,
            },
            DriveEnd::Completed => {
                self.finalize_check();
                RunResult::Completed {
                    exec_cycles: self.exec_cycles(),
                }
            }
        }
    }

    /// Builds the shard contexts over disjoint slices of the machine's
    /// node-indexed state and runs the window loop — serially in place
    /// for one shard, on scoped worker threads otherwise. Returns each
    /// shard's persistent state (in shard order) for teardown.
    fn drive(&mut self, budget: u64, lookahead: u64) -> (DriveEnd, Vec<(ShardState, u64)>) {
        let Machine {
            cfg,
            procs,
            chips,
            shards,
            origin_seq,
            parked,
            feeds,
            finish,
            locks,
            barrier_waiters,
            done,
            check,
            observe,
            hostprof,
            ..
        } = self;
        let profiled = hostprof.is_some();
        let states = std::mem::take(shards);
        let nshards = states.len();
        let nodes = cfg.nodes;
        let total = procs.len();
        let mut ctxs: Vec<ShardCtx> = Vec::with_capacity(nshards);
        {
            let mut procs: &mut [Processor] = procs;
            let mut chips: &mut [MagicChip] = chips;
            let mut parked: &mut [Park] = parked;
            let mut feeds: &mut [Option<OpenFeed>] = feeds;
            let mut finish: &mut [Cycle] = finish;
            let mut origin_seq: &mut [u64] = origin_seq;
            for (s, st) in states.into_iter().enumerate() {
                let (lo, hi) = shard_bounds(nodes, nshards, s);
                let len = (hi - lo) as usize;
                let (pa, pr) = procs.split_at_mut(len);
                procs = pr;
                let (ca, cr) = chips.split_at_mut(len);
                chips = cr;
                let (ka, kr) = parked.split_at_mut(len);
                parked = kr;
                let (da, dr) = feeds.split_at_mut(len);
                feeds = dr;
                let (fa, fr) = finish.split_at_mut(len);
                finish = fr;
                let (oa, or) = origin_seq.split_at_mut(len);
                origin_seq = or;
                ctxs.push(ShardCtx {
                    cfg,
                    shard: s,
                    lo,
                    nodes,
                    nshards,
                    check: cfg.check,
                    observe: cfg.observe,
                    procs: pa,
                    chips: ca,
                    parked: ka,
                    feeds: da,
                    finish: fa,
                    origin_seq: oa,
                    st,
                    interv_deferrals: 0,
                    sync_ops: Vec::new(),
                    obs_ops: Vec::new(),
                    staged: Vec::new(),
                    discharges: Vec::new(),
                    touched: BTreeSet::new(),
                    end: Cycle::ZERO,
                    budget,
                    cur: (0, 0),
                    cur_t: Cycle::ZERO,
                    cpu_outs: Vec::new(),
                    emit_buf: Vec::new(),
                    prof: profiled.then(Box::default),
                });
            }
        }
        let mut coord = Coord {
            cfg,
            locks,
            barrier_waiters,
            done,
            check,
            observe,
            total,
            nodes,
            nshards,
            prof: profiled.then(HostProfAcc::default),
        };
        let end = if nshards == 1 {
            window_loop(&mut ctxs, &mut coord, budget, lookahead, |cs| {
                for c in cs.iter_mut() {
                    c.run_window();
                }
            })
        } else {
            // Persistent workers ping-pong shard contexts with the
            // coordinator: one send and one receive per shard per window.
            std::thread::scope(|scope| {
                let (back_tx, back_rx) = mpsc::channel();
                let txs: Vec<mpsc::Sender<ShardCtx>> = (0..nshards)
                    .map(|_| {
                        let (tx, rx) = mpsc::channel::<ShardCtx>();
                        let back = back_tx.clone();
                        scope.spawn(move || {
                            while let Ok(mut ctx) = rx.recv() {
                                ctx.run_window();
                                if back.send(ctx).is_err() {
                                    return;
                                }
                            }
                        });
                        tx
                    })
                    .collect();
                window_loop(&mut ctxs, &mut coord, budget, lookahead, move |cs| {
                    let n = cs.len();
                    for c in cs.drain(..) {
                        let s = c.shard;
                        txs[s].send(c).expect("worker alive");
                    }
                    let mut got: Vec<Option<ShardCtx>> = (0..n).map(|_| None).collect();
                    for _ in 0..n {
                        let c = back_rx.recv().expect("worker alive");
                        let s = c.shard;
                        got[s] = Some(c);
                    }
                    cs.extend(got.into_iter().map(|o| o.expect("all shards returned")));
                })
            })
        };
        // Merge the per-shard and boundary profiler accumulators into the
        // machine's profile (host-clock observation only — no simulated
        // state flows through here).
        if let Some(hp) = hostprof.as_mut() {
            if let Some(acc) = coord.prof.take() {
                hp.acc.merge(&acc);
            }
            for c in &ctxs {
                if let Some(p) = &c.prof {
                    hp.acc.merge(p);
                }
            }
        }
        let fins = ctxs
            .into_iter()
            .map(|c| (c.st, c.interv_deferrals))
            .collect();
        (end, fins)
    }

    // ---- observed mode ---------------------------------------------------

    /// Whether the cycle-attribution observer is on.
    pub fn observed_mode(&self) -> bool {
        self.observe.is_some()
    }

    /// The structured cycle-attribution report (`None` unless the machine
    /// was built with [`MachineConfig::with_observe`]). Per-handler rows
    /// aggregate invocation counts and occupancy over all chips.
    ///
    /// [`MachineConfig::with_observe`]: crate::MachineConfig::with_observe
    pub fn observe_report(&self) -> Option<ObserveReport> {
        let obs = self.observe.as_ref()?;
        let mut handlers: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for chip in &self.chips {
            for (&name, &(n, cyc)) in &chip.stats().handlers {
                let e = handlers.entry(name).or_insert((0, 0));
                e.0 += n;
                e.1 += cyc;
            }
        }
        Some(obs.report(&handlers))
    }

    /// The event trace as Chrome `trace_event` JSON (`None` unless
    /// observing).
    pub fn trace_json(&self) -> Option<String> {
        self.observe.as_ref().map(|o| o.trace_json())
    }

    /// The per-class latency percentile report (`None` unless the
    /// machine was built with [`MachineConfig::with_observe`]). Rows are
    /// exact integer percentiles over log-bucketed histograms; for
    /// open-loop machines the report also carries each fed node's
    /// admission statistics, so service latency and queueing delay land
    /// in one artifact.
    ///
    /// [`MachineConfig::with_observe`]: crate::MachineConfig::with_observe
    pub fn latency_report(&self) -> Option<LatencyReport> {
        let mut report = self.observe.as_ref()?.latency_report();
        report.traffic = self.traffic_stats().unwrap_or_default();
        Some(report)
    }

    /// The host-time profile (`None` unless armed with
    /// [`MachineConfig::with_host_profile`]).
    ///
    /// [`MachineConfig::with_host_profile`]: crate::MachineConfig::with_host_profile
    pub fn host_profile(&self) -> Option<&HostProfile> {
        self.hostprof.as_deref()
    }

    // ---- checked mode ----------------------------------------------------

    /// Whether checked mode is on.
    pub fn checked_mode(&self) -> bool {
        self.check.is_some()
    }

    /// Handler invocations the differential oracle has diffed so far,
    /// summed over all chips (0 when checked mode or the oracle is off).
    pub fn oracle_checked(&self) -> u64 {
        self.chips.iter().map(|c| c.oracle_checked()).sum()
    }

    /// All invariant violations detected so far: machine-level checks
    /// (coherence, directory audits, conservation) plus every chip's
    /// differential-oracle divergences. Empty on a healthy checked run —
    /// and always empty when checked mode is off.
    pub fn check_violations(&self) -> Vec<flash_check::Violation> {
        let mut out: Vec<flash_check::Violation> = self
            .check
            .as_ref()
            .map(|c| c.violations.clone())
            .unwrap_or_default();
        for chip in &self.chips {
            out.extend(chip.oracle_violations().iter().cloned());
        }
        out
    }

    /// End-of-run audits, called once the machine is quiescent (all
    /// processors done, event queues drained): every touched line must
    /// have retired its transactions (no `PENDING`, no residual acks,
    /// caches and directory in agreement), every MSHR must have drained,
    /// each node's pointer store must conserve entries, and the MAGIC
    /// cache tag stores must be internally consistent.
    fn finalize_check(&mut self) {
        let Some(mut check) = self.check.take() else {
            return;
        };
        let touched: Vec<u64> = check.touched.iter().copied().collect();
        let now = self.now;
        for &raw in &touched {
            let line = Addr::new(raw);
            let home = self.cfg.placement.home_of(line, self.cfg.nodes);
            let da = dir_addr(line);
            let mem = self.chips[home.index()].proto_mem();
            check
                .violations
                .extend(flash_check::audit_directory(mem, da, home.0, true));
            check_line_at(
                &self.cfg,
                &mut check,
                line,
                now,
                &|n| &self.procs[n as usize],
                &|n| &self.chips[n as usize],
                &|key| {
                    let (s, _) = locate(self.cfg.nodes, self.shards.len(), key.0);
                    self.shards[s].inflight_invals.contains_key(&key)
                        || self.shards[s].inflight_intervs.contains_key(&key)
                },
            );
        }
        for (i, p) in self.procs.iter().enumerate() {
            let n = p.outstanding_misses();
            if n != 0 {
                check.violations.push(flash_check::Violation {
                    kind: "mshr-leak",
                    node: i as u16,
                    line: 0,
                    detail: format!("{n} MSHRs still allocated at quiescence"),
                });
            }
        }
        // Message conservation: every scheduled `PInval` must have been
        // delivered by the time the event queues drain. Collected across
        // shards and sorted for deterministic output.
        let mut leaked: Vec<((u16, u64), u32)> = self
            .shards
            .iter()
            .flat_map(|st| st.inflight_invals.iter().map(|(&k, &v)| (k, v)))
            .collect();
        leaked.sort_unstable();
        for ((node, l), n) in leaked {
            check.violations.push(flash_check::Violation {
                kind: "inval-leak",
                node,
                line: l,
                detail: format!("{n} PInval(s) still queued at quiescence"),
            });
        }
        let mut leaked_intervs: Vec<((u16, u64), u32)> = self
            .shards
            .iter()
            .flat_map(|st| st.inflight_intervs.iter().map(|(&k, &v)| (k, v)))
            .collect();
        leaked_intervs.sort_unstable();
        for ((node, l), n) in leaked_intervs {
            check.violations.push(flash_check::Violation {
                kind: "interv-leak",
                node,
                line: l,
                detail: format!("{n} bus intervention(s) still queued at quiescence"),
            });
        }
        // Provisional rogue-copy observations had to be repaired by an
        // invalidation before quiescence; any survivor is a real
        // coherence violation (a rogue copy the protocol never cleaned
        // up). Sorted for deterministic output.
        let mut stale: Vec<(Cycle, flash_check::Violation)> =
            check.provisional_rogues.drain().map(|(_, v)| v).collect();
        stale.sort_by_key(|(at, v)| (*at, v.node, v.line));
        for (at, mut v) in stale {
            v.detail = format!("{} (observed at cycle {at}, never invalidated)", v.detail);
            check.violations.push(v);
        }
        for node in 0..self.cfg.nodes {
            let diraddrs: Vec<u64> = touched
                .iter()
                .filter(|&&l| self.cfg.placement.home_of(Addr::new(l), self.cfg.nodes).0 == node)
                .map(|&l| dir_addr(Addr::new(l)))
                .collect();
            let mem = self.chips[node as usize].proto_mem();
            check.violations.extend(flash_check::check_pointer_store(
                mem,
                diraddrs.iter(),
                flash_protocol::dir::DEFAULT_PS_CAPACITY,
                node,
            ));
        }
        for chip in &self.chips {
            if let Some(mdc) = chip.mdc() {
                if let Err(e) = mdc.audit() {
                    check.violations.push(flash_check::Violation {
                        kind: "mdc-integrity",
                        node: chip.node().0,
                        line: 0,
                        detail: e,
                    });
                }
            }
        }
        self.check = Some(check);
    }

    /// Latest processor finish time.
    pub fn exec_cycles(&self) -> u64 {
        self.finish.iter().map(|c| c.raw()).max().unwrap_or(0)
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The machine's processors (stats inspection).
    pub fn procs(&self) -> &[Processor] {
        &self.procs
    }

    /// The machine's MAGIC chips (stats inspection).
    pub fn chips(&self) -> &[MagicChip] {
        &self.chips
    }

    /// The network model (stats inspection; traffic totals merged over
    /// all shards).
    pub fn network(&self) -> &NetModel {
        &self.net
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Wheel-vs-heap push routing summed over every shard queue (event
    /// scheduler health at scale).
    pub fn queue_push_routing(&self) -> (u64, u64) {
        let mut wheel = 0;
        let mut heap = 0;
        for st in &self.shards {
            let (w, h) = st.queue.push_routing();
            wheel += w;
            heap += h;
        }
        (wheel, heap)
    }

    /// Interventions that had to be deferred waiting for in-flight data.
    pub fn interv_deferrals(&self) -> u64 {
        self.interv_deferrals
    }

    /// Cumulative fault-injection statistics, when a plan is armed
    /// (summed over shards).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        let mut acc: Option<FaultStats> = None;
        for st in &self.shards {
            if let Some(inj) = &st.injector {
                acc.get_or_insert_with(FaultStats::default)
                    .absorb(inj.stats());
            }
        }
        acc
    }

    /// Assembles a structured diagnosis of the machine's current state:
    /// who is waiting on what, which directory lines are PENDING, which
    /// links the fault layer holds, and the recent messages touching the
    /// suspect lines. The watchdog calls this to build
    /// [`RunResult::Wedged`]; callers can also invoke it after
    /// `Deadlocked` or `BudgetExhausted` to render the same report.
    pub fn diagnose(&self, reason: &str) -> WedgeReport {
        let n = self.procs.len();
        let mut inbox_queued = vec![0usize; n];
        let mut proc_queued = vec![0usize; n];
        let mut net_held = vec![0usize; n];
        // Suspect lines: anything queued, outstanding in an MSHR, or
        // recently observed by the trace ring.
        let mut suspects: BTreeSet<u64> = BTreeSet::new();
        for st in &self.shards {
            for (_, ev) in st.queue.iter() {
                match ev {
                    Ev::ProcRun(_) | Ev::Arrival { .. } => {}
                    Ev::MagicIn { node, wire, .. } => {
                        inbox_queued[*node as usize] += 1;
                        suspects.insert(wire.addr.line().raw());
                    }
                    Ev::ProcDeliver { node, pm, .. } => {
                        proc_queued[*node as usize] += 1;
                        suspects.insert(pm.addr.line().raw());
                    }
                    Ev::NetSend { msg } => {
                        net_held[msg.src.index()] += 1;
                        suspects.insert(msg.addr.line().raw());
                    }
                }
            }
        }
        let nodes: Vec<NodeWedge> = (0..n)
            .map(|i| {
                let mshrs: Vec<MshrSnap> = self.procs[i]
                    .mshr_entries()
                    .map(|m| {
                        suspects.insert(m.line.line().raw());
                        MshrSnap {
                            line: m.line.line().raw(),
                            kind: match m.kind {
                                flash_cpu::MissKind::Read => "Read",
                                flash_cpu::MissKind::Write => "Write",
                                flash_cpu::MissKind::Upgrade => "Upgrade",
                            },
                            issued_at: m.issued_at.raw(),
                        }
                    })
                    .collect();
                NodeWedge {
                    node: i as u16,
                    state: match self.parked[i] {
                        Park::Scheduled => "scheduled",
                        Park::WaitReply => "wait-reply",
                        Park::WaitSync => "wait-sync",
                        Park::WaitWork => "wait-work",
                        Park::Done => "done",
                    },
                    mshrs,
                    inbox_queued: inbox_queued[i],
                    proc_queued: proc_queued[i],
                    net_held: net_held[i],
                    // Arrived-but-unadmitted open-loop references. A big
                    // backlog with quiet queues is overload; a big
                    // backlog with a PENDING line is a protocol wedge
                    // starving admission.
                    arrivals_backlog: self.feeds[i].as_ref().map_or(0, |f| f.backlog.len()),
                }
            })
            .collect();
        suspects.extend(self.ring.lines());
        let pending_lines: Vec<PendingLine> = suspects
            .iter()
            .filter_map(|&raw| {
                let line = Addr::new(raw);
                let home = self.cfg.placement.home_of(line, self.cfg.nodes);
                let header = self.chips[home.index()].peek_header(dir_addr(line));
                header.pending().then_some(PendingLine {
                    line: raw,
                    home: home.0,
                    header: header.0,
                })
            })
            .collect();
        // Recent traffic: everything touching a PENDING line when one
        // stands out, otherwise the overall tail.
        let recent: Vec<TraceEntry> = if pending_lines.is_empty() {
            let all = self.ring.entries();
            all[all.len().saturating_sub(RECENT_TAIL)..].to_vec()
        } else {
            let hot: BTreeSet<u64> = pending_lines.iter().map(|p| p.line).collect();
            self.ring
                .entries()
                .into_iter()
                .filter(|e| hot.contains(&e.line))
                .collect()
        };
        WedgeReport {
            at: self.now.raw(),
            window: self.cfg.watchdog_window,
            last_progress_at: self.last_progress.raw(),
            reason: reason.to_string(),
            done: self.done,
            total: n,
            nodes,
            pending_lines,
            stalled_links: {
                let mut links = Vec::new();
                for st in &self.shards {
                    if let Some(inj) = &st.injector {
                        links.extend(inj.held_links());
                    }
                }
                links
            },
            fault_stats: self.fault_stats(),
            recent,
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::node_addr;
    use flash_cpu::{SliceStream, WorkItem};

    fn machine_with(cfg: MachineConfig, per_proc: Vec<Vec<WorkItem>>) -> Machine {
        let streams = per_proc
            .into_iter()
            .map(|v| Box::new(SliceStream::new(v)) as Box<dyn RefStream>)
            .collect();
        Machine::new(cfg, streams)
    }

    fn idle(n: usize) -> Vec<Vec<WorkItem>> {
        vec![vec![WorkItem::Busy(4)]; n]
    }

    /// Runs to completion or panics with the full structured diagnosis
    /// (the `WedgeReport` path) instead of a bare "stuck".
    fn must_complete(m: &mut Machine, budget: u64) -> u64 {
        match m.run(budget) {
            RunResult::Completed { exec_cycles } => exec_cycles,
            RunResult::Wedged { report } => panic!("{report}"),
            other => panic!("{}", m.diagnose(&format!("{other:?}"))),
        }
    }

    #[test]
    fn open_loop_machine_completes_and_accounts_admissions() {
        let spec = flash_traffic::TrafficSpec::poisson(4, 64, 300, 50, 42);
        let mut m = Machine::new_open_loop(MachineConfig::flash(4), spec.sources());
        let cycles = must_complete(&mut m, 50_000_000);
        assert!(cycles > 0);
        let stats = m.traffic_stats().expect("open-loop machine");
        assert_eq!(stats.len(), 4);
        for (node, t) in stats {
            assert_eq!(t.arrivals, 300, "node {node} must see every arrival");
            assert_eq!(t.admitted, 300, "node {node} must admit every arrival");
            assert!(
                t.peak_backlog >= 1,
                "every arrival passes through the backlog"
            );
        }
        // Every admitted reference executed: per-node reads + writes
        // equal the spec's per-node budget.
        for p in m.procs() {
            let s = p.stats();
            assert_eq!(s.reads + s.writes, 300);
        }
    }

    #[test]
    fn open_loop_reports_identical_across_shard_counts() {
        let spec = flash_traffic::TrafficSpec::poisson(8, 128, 150, 40, 7);
        let run = |shards: usize| {
            let cfg = MachineConfig::flash(8)
                .with_shards(shards)
                .with_observe(true);
            let mut m = Machine::new_open_loop(cfg, spec.sources());
            let cycles = must_complete(&mut m, 50_000_000);
            let latency = m.latency_report().expect("observed");
            (cycles, latency, m.traffic_stats())
        };
        let base = run(1);
        assert_eq!(run(2), base, "2 shards must be byte-identical");
        assert_eq!(run(4), base, "4 shards must be byte-identical");
    }

    #[test]
    fn overload_backlog_is_visible_in_diagnose() {
        // One reference per cycle over an object set far larger than the
        // cache: nearly every reference is a multi-ten-cycle miss, so
        // offered load sits far beyond capacity and arrivals outpace
        // admission — the backlog must grow.
        let spec = flash_traffic::TrafficSpec::poisson(2, 65_536, 50_000, 1, 3);
        let mut m = Machine::new_open_loop(MachineConfig::flash(2), spec.sources());
        match m.run(20_000) {
            RunResult::BudgetExhausted => {}
            r => panic!("expected budget exhaustion under overload, got {r:?}"),
        }
        let report = m.diagnose("offered load exceeds capacity");
        assert!(
            report.nodes.iter().any(|n| n.arrivals_backlog > 100),
            "overload must surface as admission backlog:\n{report}"
        );
        let stats = m.traffic_stats().expect("open-loop machine");
        assert!(
            stats.iter().any(|(_, t)| t.admitted < t.arrivals),
            "arrivals must outpace admission under overload"
        );
    }

    #[test]
    fn empty_open_loop_source_retires_immediately() {
        struct Empty;
        impl flash_traffic::ArrivalSource for Empty {
            fn next_arrival(&mut self) -> Option<(Cycle, WorkItem)> {
                None
            }
        }
        let sources: Vec<Box<dyn flash_traffic::ArrivalSource>> =
            (0..2).map(|_| Box::new(Empty) as _).collect();
        let mut m = Machine::new_open_loop(MachineConfig::flash(2), sources);
        let cycles = must_complete(&mut m, 10_000);
        assert!(cycles <= 1, "nothing to do, nothing to charge: {cycles}");
        let stats = m.traffic_stats().expect("feeds attached");
        assert!(stats.iter().all(|(_, t)| t.arrivals == 0));
    }

    #[test]
    fn open_loop_latency_report_has_percentiles_per_class() {
        let spec = flash_traffic::TrafficSpec::poisson(4, 64, 120, 25, 5);
        let cfg = MachineConfig::flash(4).with_observe(true);
        let mut m = Machine::new_open_loop(cfg, spec.sources());
        must_complete(&mut m, 50_000_000);
        let report = m.latency_report().expect("observed");
        let all = report.rows.last().expect("merged row");
        assert_eq!(all.class, "all");
        assert!(all.count > 0, "misses must have been tracked");
        assert!(all.p50 <= all.p99 && all.p99 <= all.p999 && all.p999 <= all.max);
        let class_sum: u64 = report.rows[..report.rows.len() - 1]
            .iter()
            .map(|r| r.count)
            .sum();
        assert_eq!(class_sum, all.count, "the merged row is the class sum");
        assert_eq!(
            report.traffic.len(),
            4,
            "per-node admission stats ride along"
        );
    }

    #[test]
    fn empty_machine_completes() {
        for cfg in [
            MachineConfig::flash(4),
            MachineConfig::ideal(4),
            MachineConfig::flash_cost_table(4),
        ] {
            let mut m = machine_with(cfg, idle(4));
            match m.run(10_000) {
                RunResult::Completed { exec_cycles } => assert_eq!(exec_cycles, 1),
                r => panic!("unexpected {r:?}"),
            }
        }
    }

    /// Read stall of the final read in `items` relative to `warm_items`
    /// (which excludes it), isolating warm-path latency from cold MAGIC
    /// cache effects — the paper's Table 3.3 assumes warm steady state.
    fn marginal_read_stall(
        cfg: &MachineConfig,
        procs: u16,
        warm_items: Vec<WorkItem>,
        items: Vec<WorkItem>,
    ) -> f64 {
        let idle: Vec<WorkItem> = vec![WorkItem::Busy(1)];
        let run = |it: Vec<WorkItem>| {
            let mut streams = vec![it];
            for _ in 1..procs {
                streams.push(idle.clone());
            }
            let mut m = machine_with(cfg.clone(), streams);
            must_complete(&mut m, 1_000_000);
            m.procs()[0].stats().read_stall_q as f64 / 4.0
        };
        run(items) - run(warm_items)
    }

    #[test]
    fn single_local_read_latency_matches_table_3_3() {
        // Warm-up read to a neighbouring line (same MDC header line), then
        // a timed read: ~27 cycles on FLASH, 24 on ideal (paper Table 3.3).
        let a = node_addr(NodeId(0), 0x2000);
        let warm = node_addr(NodeId(0), 0x2080);
        let warm_items = vec![WorkItem::Read(warm), WorkItem::Busy(4000)];
        let mut items = warm_items.clone();
        items.push(WorkItem::Read(a));
        for (cfg, expect) in [
            (MachineConfig::flash(1), 27u64),
            (MachineConfig::ideal(1), 24u64),
        ] {
            let per_miss = marginal_read_stall(&cfg, 1, warm_items.clone(), items.clone());
            assert!(
                (per_miss - expect as f64).abs() <= 3.0,
                "per-miss read stall {per_miss:.1} vs paper {expect}"
            );
        }
    }

    #[test]
    fn remote_read_latency_roughly_matches_table_3_3() {
        // Processor 0 reads a line homed on node 1 (clean): FLASH 111,
        // ideal 92 (paper Table 3.3), measured after warming the remote
        // handler paths and MDC header line.
        let a = node_addr(NodeId(1), 0x4000);
        let warm = node_addr(NodeId(1), 0x4080);
        let warm_items = vec![WorkItem::Read(warm), WorkItem::Busy(8000)];
        let mut items = warm_items.clone();
        items.push(WorkItem::Read(a));
        // Small machines have shorter meshes; pin the paper's 16-node
        // 22-cycle average transit for comparability with Table 3.3.
        let mut fcfg = MachineConfig::flash(2);
        fcfg.net.transit_override = Some(22);
        let mut icfg = MachineConfig::ideal(2);
        icfg.net.transit_override = Some(22);
        for (cfg, expect, tol) in [(fcfg, 111.0, 15.0), (icfg, 92.0, 12.0)] {
            let stall = marginal_read_stall(&cfg, 2, warm_items.clone(), items.clone());
            assert!(
                (stall - expect).abs() <= tol,
                "remote clean read stall {stall:.1} vs paper {expect}"
            );
        }
    }

    #[test]
    fn dirty_remote_transfer_works() {
        // P1 writes a line homed on node 0; P0 then reads it (local read,
        // dirty remote). Both machines must complete with correct traffic.
        let a = node_addr(NodeId(0), 0x8000);
        let w = vec![WorkItem::Write(a), WorkItem::Barrier, WorkItem::Busy(4)];
        let r = vec![WorkItem::Barrier, WorkItem::Read(a), WorkItem::Busy(4)];
        for cfg in [
            MachineConfig::flash(2),
            MachineConfig::ideal(2),
            MachineConfig::flash_cost_table(2),
        ] {
            let kind = cfg.controller;
            let mut m = machine_with(cfg, vec![r.clone(), w.clone()]);
            match m.run(1_000_000) {
                RunResult::Completed { exec_cycles } => {
                    assert!(exec_cycles > 100, "{kind:?}: too fast ({exec_cycles})");
                }
                r => panic!("{kind:?}: {r:?}"),
            }
            // The read was classified local-dirty-remote at the home.
            let class = m.chips()[0].stats().read_class;
            assert_eq!(class.local_dirty_remote, 1, "{kind:?}");
        }
    }

    #[test]
    fn barrier_synchronizes_all_processors() {
        let a = |n: u16| node_addr(NodeId(n), 0x100);
        let mk = |n: u16| {
            vec![
                WorkItem::Busy(400 * (n as u64 + 1)), // staggered arrival
                WorkItem::Barrier,
                WorkItem::Read(a(n)),
                WorkItem::Busy(4),
            ]
        };
        let mut m = machine_with(MachineConfig::flash(4), (0..4).map(mk).collect());
        let exec_cycles = must_complete(&mut m, 1_000_000);
        // The fastest processor waited for the slowest: sync stall > 0.
        assert!(m.procs()[0].stats().sync_stall_q > 0);
        assert_eq!(m.procs()[3].stats().sync_stall_q, 0);
        assert!(exec_cycles >= 400);
    }

    #[test]
    fn locks_serialize_critical_sections() {
        let mk = |_n: u16| {
            vec![
                WorkItem::Lock(7),
                WorkItem::Busy(400),
                WorkItem::Unlock(7),
                WorkItem::Busy(4),
            ]
        };
        let mut m = machine_with(MachineConfig::flash(4), (0..4).map(mk).collect());
        let exec_cycles = must_complete(&mut m, 1_000_000);
        // Four 100-cycle critical sections must serialize.
        assert!(exec_cycles >= 400, "exec {exec_cycles}");
        let total_sync: u64 = m.procs().iter().map(|p| p.stats().sync_stall_q).sum();
        assert!(total_sync > 0);
    }

    #[test]
    fn sharing_and_invalidation_round_trip() {
        // All processors read a line homed on node 0, then P1 writes it.
        let a = node_addr(NodeId(0), 0xc000);
        let mk = |n: u16| {
            let mut v = vec![WorkItem::Read(a), WorkItem::Barrier];
            if n == 1 {
                v.push(WorkItem::Write(a));
            }
            v.push(WorkItem::Barrier);
            v.push(WorkItem::Busy(4));
            v
        };
        for cfg in [MachineConfig::flash(4), MachineConfig::ideal(4)] {
            let kind = cfg.controller;
            let mut m = machine_with(cfg, (0..4).map(mk).collect());
            match m.run(1_000_000) {
                RunResult::Completed { .. } => {}
                r => panic!("{kind:?}: {r:?}"),
            }
            let invals: u64 = m.procs().iter().map(|p| p.stats().invals_received).sum();
            assert!(
                invals >= 2,
                "{kind:?}: sharers must be invalidated, got {invals}"
            );
        }
    }

    #[test]
    fn dma_write_invalidates_cached_copies() {
        let a = node_addr(NodeId(0), 0x3000);
        let items = vec![
            WorkItem::Read(a),
            WorkItem::Busy(40_000),
            WorkItem::Read(a),
            WorkItem::Busy(4),
        ];
        let mut m = machine_with(
            MachineConfig::flash(2),
            vec![items, vec![WorkItem::Busy(1)]],
        );
        m.add_dma_write(Cycle::new(2_000), NodeId(0), a);
        must_complete(&mut m, 1_000_000);
        assert_eq!(m.procs()[0].stats().invals_received, 1);
        // Second read misses again after the DMA invalidation.
        assert_eq!(m.procs()[0].stats().read_misses, 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = node_addr(NodeId(1), 0x9000);
        let mk = |n: u16| {
            vec![
                WorkItem::Read(node_addr(NodeId(n), 0x100)),
                WorkItem::Write(a),
                WorkItem::Barrier,
                WorkItem::Read(a),
                WorkItem::Busy(8),
            ]
        };
        let run_once = || {
            let mut m = machine_with(MachineConfig::flash(4), (0..4).map(mk).collect());
            match m.run(1_000_000) {
                RunResult::Completed { exec_cycles } => exec_cycles,
                r => panic!("{r:?}"),
            }
        };
        assert_eq!(run_once(), run_once());
    }

    /// A small sharing workload with remote traffic on every path.
    fn sharing_workload(n: u16) -> Vec<Vec<WorkItem>> {
        let a = node_addr(NodeId(0), 0xc000);
        (0..n)
            .map(|i| {
                let mut v = vec![WorkItem::Read(a), WorkItem::Barrier];
                if i == 1 {
                    v.push(WorkItem::Write(a));
                }
                v.push(WorkItem::Barrier);
                v.push(WorkItem::Read(node_addr(NodeId(i), 0x100)));
                v.push(WorkItem::Busy(8));
                v
            })
            .collect()
    }

    #[test]
    fn armed_but_zeroed_fault_plan_is_timing_invisible() {
        // The acceptance pin: with every rate zeroed, the injector is
        // constructed and every hook is called — yet no RNG draw happens
        // and the schedule is cycle-identical to a disarmed machine.
        let run = |faults: crate::FaultPlan| {
            let cfg = MachineConfig::flash(4).with_faults(faults);
            let mut m = machine_with(cfg, sharing_workload(4));
            let exec = must_complete(&mut m, 1_000_000);
            (exec, m.fault_stats())
        };
        let (base, none_stats) = run(crate::FaultPlan::none());
        let (armed, zero_stats) = run(crate::FaultPlan::zeroed(7));
        assert_eq!(base, armed, "zeroed plan perturbed timing");
        assert_eq!(none_stats, None);
        assert_eq!(zero_stats, Some(flash_fault::FaultStats::default()));
    }

    #[test]
    fn light_faults_delay_but_converge() {
        let base = {
            let mut m = machine_with(MachineConfig::flash(4), sharing_workload(4));
            must_complete(&mut m, 10_000_000)
        };
        let cfg = MachineConfig::flash(4).with_faults(crate::FaultPlan::stress(11));
        let mut m = machine_with(cfg, sharing_workload(4));
        let exec = must_complete(&mut m, 10_000_000);
        assert!(
            exec >= base,
            "faults may only slow the machine down ({exec} < {base})"
        );
        let stats = m.fault_stats().expect("injector armed");
        assert!(
            stats.hop_spikes + stats.link_stalls + stats.ni_freezes + stats.pp_bursts > 0,
            "stress plan injected nothing: {stats:?}"
        );
    }

    #[test]
    fn fault_schedules_replay_byte_identically() {
        let run = |seed: u64| {
            let cfg = MachineConfig::flash(4).with_faults(crate::FaultPlan::stress(seed));
            let mut m = machine_with(cfg, sharing_workload(4));
            let exec = must_complete(&mut m, 10_000_000);
            (exec, m.fault_stats().unwrap())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0, "different seeds, different schedule");
    }

    #[test]
    fn permanent_link_outage_wedges_with_diagnosis() {
        // Node 2 takes dirty ownership of a line homed on node 1; then
        // the 1->2 link goes down for good. Node 0's read reaches the
        // home, which marks the line PENDING and forwards to node 2 —
        // where the forward is held forever. The watchdog must diagnose
        // exactly that: a wedge with the held link, the PENDING line,
        // and node 0 waiting on its read MSHR.
        let a = node_addr(NodeId(1), 0x4000);
        let streams = vec![
            vec![WorkItem::Busy(20_000), WorkItem::Read(a), WorkItem::Busy(4)],
            vec![WorkItem::Busy(4)],
            vec![WorkItem::Write(a), WorkItem::Busy(4)],
        ];
        // Busy items are quarter-cycles: node 0 reads at ~cycle 5_000,
        // after the outage begins at 1_000 (node 2's write completed by
        // ~250, before it).
        let faults = crate::FaultPlan::zeroed(0).with_link_down(1, 2, 1_000, None);
        let cfg = MachineConfig::flash(3)
            .with_faults(faults)
            .with_watchdog(100_000);
        let mut m = machine_with(cfg, streams);
        let RunResult::Wedged { report } = m.run(10_000_000) else {
            panic!("expected a wedge");
        };
        assert_eq!(report.window, 100_000);
        assert!(report.at > report.last_progress_at);
        assert_eq!(report.total, 3);
        // The held link is named, and it is the scripted permanent one.
        assert_eq!(report.stalled_links.len(), 1);
        let l = &report.stalled_links[0];
        assert_eq!((l.src, l.dst), (1, 2));
        assert!(l.permanent);
        assert!(l.holds > 0);
        // The line is PENDING at its home.
        assert!(
            report
                .pending_lines
                .iter()
                .any(|p| p.home == 1 && p.line == a.line().raw()),
            "pending lines: {:?}",
            report.pending_lines
        );
        // Node 0 is blocked on its read of that line.
        let n0 = &report.nodes[0];
        assert_eq!(n0.state, "wait-reply");
        assert!(n0
            .mshrs
            .iter()
            .any(|s| s.line == a.line().raw() && s.kind == "Read"));
        // The rendered report names the essentials.
        let text = report.to_string();
        assert!(text.contains("WEDGE"));
        assert!(text.contains("1->2"));
        assert!(text.contains("PENDING directory lines"));
        // Recent traffic on the suspect line was captured.
        assert!(report.recent.iter().any(|e| e.line == a.line().raw()));
    }

    #[test]
    fn finite_link_outage_releases_and_completes() {
        let a = node_addr(NodeId(1), 0x4000);
        let streams = vec![
            vec![WorkItem::Busy(20_000), WorkItem::Read(a), WorkItem::Busy(4)],
            vec![WorkItem::Busy(4)],
            vec![WorkItem::Write(a), WorkItem::Busy(4)],
        ];
        let faults = crate::FaultPlan::zeroed(0).with_link_down(1, 2, 1_000, Some(60_000));
        let cfg = MachineConfig::flash(3)
            .with_faults(faults)
            .with_watchdog(100_000);
        let mut m = machine_with(cfg, streams);
        let exec = must_complete(&mut m, 10_000_000);
        assert!(exec >= 60_000, "the read had to wait out the outage");
        assert!(m.fault_stats().unwrap().link_holds > 0);
    }

    #[test]
    fn diagnose_is_available_without_faults() {
        let mut m = machine_with(MachineConfig::flash(2), idle(2));
        must_complete(&mut m, 10_000);
        let report = m.diagnose("post-run inspection");
        assert_eq!(report.done, 2);
        assert!(report.pending_lines.is_empty());
        assert!(report.stalled_links.is_empty());
        assert_eq!(report.fault_stats, None);
    }

    #[test]
    fn ideal_never_slower_than_flash() {
        let a = node_addr(NodeId(1), 0x9000);
        let mk = |n: u16| {
            let mut v = Vec::new();
            for i in 0..50u64 {
                v.push(WorkItem::Read(node_addr(NodeId(n), i * 128)));
                v.push(WorkItem::Write(
                    a.offset(((n as u64 * 50 + i) % 64) * 2 * 128),
                ));
                v.push(WorkItem::Busy(16));
            }
            v.push(WorkItem::Barrier);
            v
        };
        let time = |cfg: MachineConfig| {
            let mut m = machine_with(cfg, (0..4).map(mk).collect());
            match m.run(10_000_000) {
                RunResult::Completed { exec_cycles } => exec_cycles,
                r => panic!("{r:?}"),
            }
        };
        let flash = time(MachineConfig::flash(4));
        let ideal = time(MachineConfig::ideal(4));
        assert!(
            ideal <= flash,
            "ideal ({ideal}) must not be slower than FLASH ({flash})"
        );
    }

    // ---- sharded execution ----------------------------------------------

    #[test]
    fn shard_partition_is_consistent() {
        for &nodes in &[1u16, 2, 3, 4, 16, 64, 255, 1024] {
            for want in 1..=9usize {
                let shards = want.min(nodes as usize);
                let mut seen = 0u32;
                for s in 0..shards {
                    let (lo, hi) = shard_bounds(nodes, shards, s);
                    assert!(lo <= hi, "empty-or-negative shard");
                    for n in lo..hi {
                        assert_eq!(shard_of(nodes, shards, n), s);
                        let (s2, li) = locate(nodes, shards, n);
                        assert_eq!((s2, li), (s, (n - lo) as usize));
                        seen += 1;
                    }
                }
                assert_eq!(seen, u32::from(nodes), "partition must cover every node");
            }
        }
    }

    /// Everything externally visible about a finished run, as one string.
    fn fingerprint(m: &Machine) -> String {
        let procs: Vec<String> = m
            .procs()
            .iter()
            .map(|p| format!("{:?}", p.stats()))
            .collect();
        format!(
            "exec={} now={} msgs={} hops={:.6} interv={} procs={procs:?}",
            m.exec_cycles(),
            m.now().raw(),
            m.network().messages(),
            m.network().mean_hops(),
            m.interv_deferrals(),
        )
    }

    #[test]
    fn results_are_invariant_across_shard_counts() {
        let run = |s: usize| {
            let mut m = machine_with(MachineConfig::flash(4).with_shards(s), sharing_workload(4));
            assert!(matches!(m.run(1_000_000), RunResult::Completed { .. }));
            fingerprint(&m)
        };
        let base = run(1);
        for s in [2, 3, 4, 7] {
            assert_eq!(run(s), base, "shards={s} diverged from the serial run");
        }
    }

    #[test]
    fn locks_and_observation_are_shard_invariant() {
        let workload = |n: u16| -> Vec<Vec<WorkItem>> {
            let hot = node_addr(NodeId(0), 0xd000);
            (0..n)
                .map(|i| {
                    vec![
                        WorkItem::Busy(4 * u64::from(i)),
                        WorkItem::Lock(3),
                        WorkItem::Read(hot),
                        WorkItem::Write(hot),
                        WorkItem::Unlock(3),
                        WorkItem::Barrier,
                        WorkItem::Read(node_addr(NodeId(i), 0x80)),
                    ]
                })
                .collect()
        };
        let run = |s: usize| {
            let cfg = MachineConfig::flash(4)
                .with_check(true)
                .with_observe(true)
                .with_shards(s);
            let mut m = machine_with(cfg, workload(4));
            assert!(matches!(m.run(2_000_000), RunResult::Completed { .. }));
            assert_eq!(m.check_violations(), vec![], "shards={s}");
            let trace = m.trace_json().expect("observing");
            (fingerprint(&m), trace)
        };
        let base = run(1);
        for s in [2, 3, 4] {
            assert_eq!(run(s), base, "shards={s} diverged from the serial run");
        }
    }

    #[test]
    fn fault_stress_is_shard_invariant() {
        let run = |s: usize| {
            let cfg = MachineConfig::flash(4)
                .with_faults(crate::FaultPlan::stress(11))
                .with_shards(s);
            let mut m = machine_with(cfg, sharing_workload(4));
            assert!(matches!(m.run(4_000_000), RunResult::Completed { .. }));
            let stats = format!("{:?}", m.fault_stats().expect("armed"));
            (fingerprint(&m), stats)
        };
        let base = run(1);
        for s in [2, 4] {
            assert_eq!(run(s), base, "shards={s} diverged from the serial run");
        }
    }

    #[test]
    fn dma_writes_are_shard_invariant() {
        let run = |s: usize| {
            let mk = |i: u16| {
                let a = node_addr(NodeId(2), 0x400);
                vec![
                    WorkItem::Read(a),
                    WorkItem::Busy(40 + u64::from(i)),
                    WorkItem::Read(a),
                ]
            };
            let mut m = machine_with(
                MachineConfig::flash(4).with_shards(s),
                (0..4).map(mk).collect(),
            );
            m.add_dma_write(Cycle::new(60), NodeId(2), node_addr(NodeId(2), 0x400));
            assert!(matches!(m.run(1_000_000), RunResult::Completed { .. }));
            fingerprint(&m)
        };
        let base = run(1);
        for s in [2, 3, 4] {
            assert_eq!(run(s), base, "shards={s} diverged from the serial run");
        }
    }
}
