//! The machine: nodes, network, and the event loop (the FlashLite role).
//!
//! # One event loop
//!
//! Like FlashLite, the machine is a sequential event-driven simulator: it
//! pops one event queue in canonical key order and runs each event to
//! completion. Every event carries a `(cycle, sub)` key, where `sub`
//! encodes the *originating node* and a per-origin sequence number. Keys
//! are globally unique, so the queue's order is total and every run is
//! deterministic. Locks, barriers and retirement resolve inside the event
//! that reaches them, at the processor's own pipeline time.

use crate::config::MachineConfig;
use crate::hostprof::{HostProfAcc, HostProfile, HostSeg};
use crate::observe::{LatencyReport, ObserveReport, Observer, TrafficStats};
use flash_check::{CheckView, Checker, Violation};
use flash_cpu::{
    BusReply, CpuOut, LineState, Mailbox, MailboxHandle, MailboxStream, Processor, RefStream,
    RunOutcome, WorkItem,
};
use flash_engine::FastMap;
use flash_engine::{Addr, Cycle, EventQueue, NodeId};
use flash_fault::{
    FaultInjector, FaultStats, LinkVerdict, MsgRing, MshrSnap, NiDir, NodeWedge, PendingLine,
    TraceEntry, WedgeReport,
};
use flash_magic::{ControllerKind, Dispatch, Emission, MagicChip, MagicScratch};
use flash_net::{Mesh, NetModel};
use flash_protocol::fields::aux;
use flash_protocol::{dir_addr, InMsg, JumpTable, Msg, MsgType, ProcMsg, ProtoMem};
use flash_traffic::ArrivalSource;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Resume a processor's reference stream.
    ProcRun(u16),
    /// A message is ready at the inbox of node `msg.dst` (inbound
    /// latency paid). `net` marks messages that crossed the mesh (they
    /// are subject to the receiver's inbound-NI fault hooks; bus-side and
    /// DMA messages are not).
    MagicIn { msg: Msg, net: bool },
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

impl Ev {
    /// A message from `node`'s processor (or I/O) side to its own MAGIC,
    /// over the bus.
    fn bus_in(node: u16, mtype: MsgType, addr: Addr, aux: u64, with_data: bool) -> Ev {
        let n = NodeId(node);
        Ev::MagicIn {
            msg: Msg {
                mtype,
                src: n,
                dst: n,
                addr,
                aux,
                with_data,
            },
            net: false,
        }
    }

    /// The line a message event carries.
    fn line(&self) -> Option<u64> {
        match self {
            Ev::ProcRun(_) | Ev::Arrival { .. } => None,
            Ev::MagicIn { msg, .. } | Ev::NetSend { msg } => Some(msg.addr.line().raw()),
            Ev::ProcDeliver { pm, .. } => Some(pm.addr.line().raw()),
        }
    }
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

/// One node's open-loop feed: the arrival source, the admission mailbox
/// its processor drains, and the backlog of references that have arrived
/// but not yet been admitted.
///
/// The mailbox mutex is uncontended: arrivals are admitted and drained by
/// the same event loop. It exists because the mailbox is shared between
/// the feed and the processor's stream.
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
    /// Lifetime traffic totals.
    net: NetModel,
    queue: EventQueue<Ev>,
    /// Fault-injection runtime (`None` when `cfg.faults` is disarmed).
    injector: Option<FaultInjector>,
    /// Per-origin event sequence counters (canonical sub-key allocation).
    origin_seq: Vec<u64>,
    /// Latest event time processed.
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
    /// Checked-mode driver (`None` unless `cfg.check`).
    check: Option<Checker>,
    /// Ring of recent message observations, always on: the message
    /// history [`Machine::diagnose`] renders for a wedge's suspect lines.
    ring: MsgRing,
    /// Last cycle a retirement, message delivery, or handler invocation
    /// advanced (the forward-progress watchdog's reference point).
    last_progress: Cycle,
    /// Cycle-attribution observer (`None` when `cfg.observe` is off).
    observe: Option<Box<Observer>>,
    /// Host-time profile (`None` unless `cfg.host_profile` arms it). A
    /// pure observer of the host clock — it never feeds back into
    /// simulated state.
    hostprof: Option<Box<HostProfile>>,
    // The cycle budget and the event cursor.
    budget: u64,
    cur_t: Cycle,
    cur_sub: u64,
    // Steady-state scratch: reused across events so the hot loop makes
    // no heap allocations (tests/alloc_budget.rs pins this).
    cpu_outs: Vec<(Cycle, CpuOut)>,
    emit_buf: Vec<Emission>,
    /// One MAGIC scratch for every chip: a handler invocation's buffers
    /// and, when observed, its attribution records.
    scratch: MagicScratch,
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

/// Capacity of the wedge-diagnostics message ring. Deep enough to cover
/// the full protocol exchange on the handful of lines a wedge involves;
/// each entry is a few words, so the ring is cheap to keep always-on.
const RING_CAPACITY: usize = 64;

/// How many ring entries a wedge report keeps when no suspect line
/// stands out.
const RECENT_TAIL: usize = 8;

/// The checker's view of the machine's nodes.
struct Nodes<'a>(&'a Machine);

impl CheckView for Nodes<'_> {
    fn nodes(&self) -> u16 {
        self.0.cfg.nodes
    }
    fn cached(&self, node: u16, line: Addr) -> Option<LineState> {
        self.0.procs[node as usize].cache().state_of(line)
    }
    fn mshrs_in_use(&self, node: u16) -> usize {
        self.0.procs[node as usize].outstanding_misses()
    }
    fn home_of(&self, line: Addr) -> u16 {
        self.0.cfg.placement.home_of(line, self.0.cfg.nodes).0
    }
    fn proto_mem(&self, node: u16) -> &ProtoMem {
        self.0.chips[node as usize].proto_mem()
    }
}

/// The event loop: events in canonical key order.
impl Machine {
    /// Allocates the next canonical sub-key for an event originated by
    /// `origin`.
    fn next_sub(&mut self, origin: u16) -> u64 {
        let seq = self.origin_seq[origin as usize];
        self.origin_seq[origin as usize] += 1;
        sub_key(origin, seq)
    }

    /// Schedules `ev` at `at` under `origin`'s next canonical sub-key.
    fn push_origin(&mut self, origin: u16, at: Cycle, ev: Ev) {
        let sub = self.next_sub(origin);
        self.queue.push_sub(at, sub, ev);
    }

    fn mark_progress(&mut self) {
        if self.cur_t > self.last_progress {
            self.last_progress = self.cur_t;
        }
    }

    /// The armed host profiler's accumulator.
    fn prof(&mut self) -> Option<&mut HostProfAcc> {
        self.hostprof.as_deref_mut().map(|h| &mut h.acc)
    }

    /// Runs `f`, charging its host time to `seg` when the profiler is
    /// armed (an inner bracket: the enclosing event's segment excludes it).
    fn timed<R>(&mut self, seg: HostSeg, f: impl FnOnce(&mut Self) -> R) -> R {
        let t = self.hostprof.is_some().then(Instant::now);
        let r = f(self);
        if let Some(t) = t {
            self.prof().expect("armed").add_inner(seg, t);
        }
        r
    }

    /// Moves the event cursor to the event at `(at, sub)`, popped or
    /// inlined.
    ///
    /// Time never decreases, inline continuations included: events push
    /// only at or after their own time. Sub-keys within one cycle can
    /// fall: a lock or barrier wake at the current cycle may carry a
    /// smaller sub-key than the event that caused it, and still runs
    /// after it.
    fn set_cursor(&mut self, at: Cycle, sub: u64) {
        debug_assert!(
            at >= self.cur_t,
            "event time {at:?} precedes {:?}",
            self.cur_t
        );
        self.cur_t = at;
        self.cur_sub = sub;
        if at > self.now {
            self.now = at;
        }
    }

    /// Pops and runs events in canonical `(cycle, sub)` order until the
    /// queue drains, the cycle budget runs out or the watchdog fires.
    /// Processor run events whose reschedule would be the very next pop
    /// are executed inline (continuation loop) instead of round-tripping
    /// through the queue; [`Machine::schedule_or_inline`] proves the
    /// order is unchanged.
    fn drive(&mut self, budget: u64) -> DriveEnd {
        self.budget = budget;
        // Profiled path: one chained stamp closes the queue lap and opens
        // the event's outer bracket, and the next closes the bracket and
        // opens the following queue lap — no unattributed gaps between
        // events, and two `Instant::now` calls per event.
        let mut stamp = self.prof().map(|p| {
            p.reset_inner();
            Instant::now()
        });
        let end = loop {
            let Some((t, sub, ev)) = self.queue.pop_keyed() else {
                break if self.done == self.procs.len() {
                    DriveEnd::Completed
                } else {
                    DriveEnd::Deadlocked
                };
            };
            if t.raw() > budget {
                // The first over-budget event is consumed (dropped) and
                // the clock stops at its time.
                self.now = self.now.max(t);
                break DriveEnd::Budget;
            }
            if let Some(s) = stamp {
                let p = self.prof().expect("armed");
                stamp = Some(p.lap(HostSeg::Queue, s));
                p.events += 1;
                p.reset_inner();
            }
            // The clock advances: audit the lines the earlier cycles
            // touched before the first event of this one.
            if t > self.now {
                self.audit();
            }
            self.set_cursor(t, sub);
            let seg = match ev {
                Ev::ProcRun(n) => {
                    let cont = self.ev_proc_run(n);
                    self.run_inline(n, cont);
                    HostSeg::Proc
                }
                Ev::MagicIn { msg, net } => {
                    self.ev_magic_in(msg, net);
                    HostSeg::Magic
                }
                Ev::ProcDeliver { node, pm, tries } => {
                    let cont = self.ev_proc_deliver(node, pm, tries);
                    self.run_inline(node, cont);
                    HostSeg::Proc
                }
                Ev::NetSend { msg } => {
                    self.post_net(t, msg);
                    HostSeg::Net
                }
                Ev::Arrival { node } => {
                    let cont = self.ev_arrival(node);
                    self.run_inline(node, cont);
                    HostSeg::Proc
                }
            };
            if let Some(s) = stamp {
                stamp = Some(self.prof().expect("armed").lap_outer(seg, s));
            }
            if let (Some(c), Some(line)) = (self.check.as_mut(), ev.line()) {
                c.touch(line);
            }
            let wd = self.cfg.watchdog_window;
            if wd > 0 && self.now.raw().saturating_sub(self.last_progress.raw()) > wd {
                break DriveEnd::Wedged;
            }
        };
        self.audit();
        end
    }

    /// Checked mode: audits the lines touched since the clock last
    /// advanced.
    fn audit(&mut self) {
        if let Some(mut c) = self.check.take() {
            self.timed(HostSeg::ObsCheck, |m| c.advance(&Nodes(m), m.now));
            self.check = Some(c);
        }
    }

    /// Executes node `n`'s elided run events while each one returns a
    /// further continuation key.
    fn run_inline(&mut self, n: u16, mut cont: Option<(Cycle, u64)>) {
        while let Some((at, sub)) = cont {
            if let Some(p) = self.prof() {
                p.events += 1;
            }
            self.set_cursor(at, sub);
            cont = self.ev_proc_run(n);
        }
    }

    /// Runs processor `n`'s reference stream. Returns the continuation
    /// key when the processor's next run event was elided from the queue
    /// (the caller executes it inline — see [`Machine::drive`]).
    fn ev_proc_run(&mut self, n: u16) -> Option<(Cycle, u64)> {
        let i = n as usize;
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
                self.barrier_waiters.push((n, pt));
                self.maybe_release_barrier();
                None
            }
            RunOutcome::Lock(id) => {
                let pt = self.procs[i].now().max(now);
                let lock = self.locks.entry(id).or_default();
                if lock.held {
                    lock.waiters.push_back((n, pt));
                    self.parked[i] = Park::WaitSync;
                    None
                } else {
                    lock.held = true;
                    self.schedule_or_inline(n, pt + self.cfg.lat.lock_grant)
                }
            }
            RunOutcome::Unlock(id) => {
                let pt = self.procs[i].now().max(now);
                // The waiter's wake is queued before the releaser's own
                // continuation is decided, so an inlined continuation
                // cannot jump it.
                let lock = self.locks.entry(id).or_default();
                match lock.waiters.pop_front() {
                    Some((w, wt)) => self.wake(w, pt.max(wt) + self.cfg.lat.lock_grant),
                    None => lock.held = false,
                }
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
                    self.done += 1;
                    self.maybe_release_barrier();
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
    /// Returns an inline continuation exactly like [`Machine::ev_proc_run`].
    fn ev_arrival(&mut self, node: u16) -> Option<(Cycle, u64)> {
        let now = self.cur_t;
        let i = node as usize;
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
            self.push_origin(node, at2, Ev::Arrival { node });
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
    /// (traces, reports) is byte-identical to the always-queue path.
    /// Elision requires `(at, sub)` to order before the current queue
    /// head and to fall inside the cycle budget: in the queued execution
    /// the loop would pop exactly this event next, so executing it inline
    /// preserves the canonical order and leaves the queue in exactly the
    /// state the queued execution would.
    fn schedule_or_inline(&mut self, n: u16, at: Cycle) -> Option<(Cycle, u64)> {
        let sub = self.next_sub(n);
        self.parked[n as usize] = Park::Scheduled;
        if self.cfg.inline_runs
            && at.raw() <= self.budget
            && self.queue.peek_key().is_none_or(|k| (at, sub) < k)
        {
            Some((at, sub))
        } else {
            self.queue.push_sub(at, sub, Ev::ProcRun(n));
            None
        }
    }

    /// Wakes `node` (sets it runnable and pushes its `ProcRun`).
    fn wake(&mut self, node: u16, at: Cycle) {
        self.parked[node as usize] = Park::Scheduled;
        self.push_origin(node, at, Ev::ProcRun(node));
    }

    /// Releases the barrier once every unfinished processor waits at it,
    /// at the latest arrival.
    fn maybe_release_barrier(&mut self) {
        let active = self.procs.len() - self.done;
        if active > 0 && self.barrier_waiters.len() == active {
            let waiters = std::mem::take(&mut self.barrier_waiters);
            let release = waiters.iter().map(|&(_, t)| t).fold(self.cur_t, Cycle::max);
            for (w, _) in waiters {
                self.wake(w, release);
            }
        }
    }

    fn wake_if_waiting(&mut self, n: u16, at: Cycle) -> Option<(Cycle, u64)> {
        if self.parked[n as usize] == Park::WaitReply {
            self.schedule_or_inline(n, at)
        } else {
            None
        }
    }

    /// Converts processor requests into PI messages at the MAGIC inbox.
    fn post_cpu_outs(&mut self, n: u16, outs: &[(Cycle, CpuOut)]) {
        let lat = self.cfg.lat;
        for &(t, o) in outs {
            let (mtype, addr) = pi_msg(o);
            if let Some(obs) = self.observe.as_deref_mut() {
                obs.issued(n, mtype, addr.line().raw(), t);
            }
            let miss = matches!(o, CpuOut::Get(_) | CpuOut::GetX(_) | CpuOut::Upgrade(_));
            let extra = if miss { lat.miss_to_bus } else { 0 };
            self.push_origin(
                n,
                t + extra + lat.bus + lat.pi_in,
                Ev::bus_in(n, mtype, addr, 0, mtype.carries_data()),
            );
        }
    }

    fn ev_magic_in(&mut self, wire: Msg, net: bool) {
        let now = self.cur_t;
        let node = wire.dst.0;
        let i = node as usize;
        // Receiver-side inbound-NI freeze: a frozen input queue re-offers
        // the message — identity (canonical key) preserved — at the thaw
        // time. Keyed to the *receiving* node's draw stream.
        if net {
            if let Some(inj) = self.injector.as_mut() {
                if let Some(resume) = inj.ni_freeze(now, node, NiDir::In) {
                    self.queue
                        .push_sub(resume, self.cur_sub, Ev::MagicIn { msg: wire, net });
                    return;
                }
            }
        }
        let home = self.cfg.placement.home_of(wire.addr, self.cfg.nodes);
        self.mark_progress();
        self.ring.push(TraceEntry {
            at: now.raw(),
            node,
            kind: wire.mtype.name(),
            src: wire.src.0,
            line: wire.addr.line().raw(),
            aux: wire.aux,
        });
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
        if let Some(inj) = self.injector.as_mut() {
            let burst = inj.pp_burst(now, node);
            if burst > 0 {
                self.chips[i].stall_pp(now + burst);
            }
            if let Some(until) = inj.dram_block(now) {
                self.chips[i].block_memory(until);
            }
        }
        let tracked = self
            .observe
            .as_deref_mut()
            .and_then(|o| o.arrived(&wire, now));
        // Read-miss classification at the home (paper Tables 4.1/4.2).
        let class = match wire.mtype {
            MsgType::PiGet if home == NodeId(node) => {
                self.chips[i].classify_read(&msg, NodeId(node))
            }
            MsgType::NGet => self.chips[i].classify_read(&msg, aux::requester(wire.aux)),
            _ => None,
        };
        let mut emissions = std::mem::take(&mut self.emit_buf);
        self.timed(HostSeg::Protocol, |m| {
            m.chips[i].process_into(msg, now, &mut m.scratch, &mut emissions)
        });
        if self.observe.is_some() {
            self.timed(HostSeg::ObsCheck, |m| {
                let obs = m.observe.as_deref_mut().expect("observing");
                obs.handled(node, tracked, class, &m.scratch, &emissions);
            });
        }
        for em in emissions.drain(..) {
            match em {
                Emission::Net { at, msg } => self.post_net(at, msg),
                Emission::Proc { at, msg: pm } => {
                    if let Some(c) = self.check.as_mut() {
                        c.queued(node, pm.mtype, pm.addr.line().raw());
                    }
                    self.push_origin(node, at, Ev::ProcDeliver { node, pm, tries: 0 });
                }
            }
        }
        self.emit_buf = emissions;
    }

    /// Routes an outbound network message (fault hooks, mesh transit),
    /// charged to the net segment even when reached from a MAGIC event.
    fn post_net(&mut self, at: Cycle, msg: Msg) {
        self.timed(HostSeg::Net, |m| {
            // Fault hooks on the outbound path: an output-queue freeze at
            // the source NI delays entry to the mesh; then the link
            // verdict may delay further (transient stall, hop spike) or
            // hold the message entirely (scripted outage — re-offered
            // later, not progress).
            let mut at = at;
            if let Some(inj) = m.injector.as_mut() {
                if let Some(resume) = inj.ni_freeze(at, msg.src.0, NiDir::Out) {
                    at = resume;
                }
                match inj.link_verdict(at, msg.src.0, msg.dst.0) {
                    LinkVerdict::Clear => {}
                    LinkVerdict::Delay(d) => at += d,
                    LinkVerdict::Hold { resume } => {
                        m.push_origin(msg.src.0, resume, Ev::NetSend { msg });
                        return;
                    }
                }
            }
            let arrival = m.net.send(at, msg.src, msg.dst);
            if let Some(obs) = m.observe.as_deref_mut() {
                obs.sent(&msg, at, arrival);
            }
            m.push_origin(
                msg.src.0,
                arrival + m.cfg.lat.ni_in,
                Ev::MagicIn { msg, net: true },
            );
        })
    }

    /// Delivers a MAGIC→processor message: the processor applies it
    /// ([`Processor::deliver`]), and the machine times what goes back,
    /// keeps the observer and checker current, and wakes a processor a
    /// reply unblocks. Returns the continuation key when that wake's run
    /// event was elided (see [`Machine::schedule_or_inline`]).
    fn ev_proc_deliver(&mut self, node: u16, pm: ProcMsg, tries: u32) -> Option<(Cycle, u64)> {
        let now = self.cur_t;
        let lat = self.cfg.lat;
        let is_reply = matches!(pm.mtype, MsgType::PPut | MsgType::PPutX | MsgType::PUpgAck);
        if let Some(obs) = self.observe.as_deref_mut() {
            obs.delivering(node, &pm, now);
        }
        let mut outs = std::mem::take(&mut self.cpu_outs);
        outs.clear();
        let reply = self.procs[node as usize].deliver(pm, tries, now, &mut outs);
        self.post_cpu_outs(node, &outs);
        self.cpu_outs = outs;
        if reply == BusReply::Defer {
            // Data for this line is in flight; the bus transaction retries
            // until it lands. Not forward progress: a deferral loop is a
            // livelock.
            self.interv_deferrals += 1;
            let tries = tries + 1;
            self.push_origin(node, now + 16, Ev::ProcDeliver { node, pm, tries });
            return None;
        }
        self.mark_progress();
        if is_reply {
            return self.wake_if_waiting(node, now);
        }
        if let Some(obs) = self.observe.as_deref_mut() {
            obs.delivered(node, &pm, now);
        }
        if let Some(c) = self.check.as_mut() {
            c.delivered(node, pm.mtype, pm.addr.line().raw());
        }
        match pm.mtype {
            MsgType::PIntervGet | MsgType::PIntervGetX => {
                let found = reply == BusReply::IntervReply;
                let (mtype, delay) = if found {
                    (MsgType::PiIntervReply, lat.cache_data)
                } else {
                    (MsgType::PiIntervMiss, lat.cache_state)
                };
                self.push_origin(
                    node,
                    now + delay + lat.bus + lat.pi_in,
                    Ev::bus_in(node, mtype, pm.addr, pm.aux, found),
                );
            }
            MsgType::PNackRetry => {
                // Bus retry: the miss was already detected, so only the
                // retry delay plus bus/PI path applies.
                if let BusReply::Retry(o) = reply {
                    let (mtype, addr) = pi_msg(o);
                    self.push_origin(
                        node,
                        now + lat.retry + lat.bus + lat.pi_in,
                        Ev::bus_in(node, mtype, addr, 0, false),
                    );
                }
            }
            _ => {}
        }
        None
    }
}

/// The PI message a processor request becomes on its bus.
fn pi_msg(o: CpuOut) -> (MsgType, Addr) {
    match o {
        CpuOut::Get(a) => (MsgType::PiGet, a),
        CpuOut::GetX(a) => (MsgType::PiGetX, a),
        CpuOut::Upgrade(a) => (MsgType::PiUpgrade, a),
        CpuOut::Writeback(a) => (MsgType::PiWriteback, a),
        CpuOut::Hint(a) => (MsgType::PiRplHint, a),
    }
}

/// How the event loop ended (the caller builds the [`RunResult`]).
enum DriveEnd {
    Completed,
    Deadlocked,
    Budget,
    Wedged,
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
        // process and shared across nodes and machines.
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
        let dispatch = Arc::new(Dispatch::new(jump, program));
        let mut chips: Vec<MagicChip> = (0..cfg.nodes)
            .map(|i| {
                MagicChip::new(
                    cfg.controller,
                    NodeId(i),
                    dispatch.clone(),
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
        let procs: Vec<Processor> = streams
            .into_iter()
            .map(|s| Processor::new(cfg.cache_bytes, cfg.mshrs, s))
            .collect();
        let n = cfg.nodes as usize;
        let net = NetModel::new(Mesh::for_nodes(cfg.nodes), cfg.net);
        // Size the timing wheel to the longest routine scheduling
        // distance: worst-case mesh transit plus NI ingress, with 4x slack
        // for the per-home protocol-processor queuing backlog that pushes
        // emission times past raw transit under load. Tuned for 128 slots
        // on small meshes and 512 at 1024 nodes; without it, a large share
        // of big-mesh pushes degrade to the overflow heap.
        let horizon = (net.max_remote_transit() + cfg.lat.ni_in) * 4;
        let observe = cfg
            .observe
            .then(|| Box::new(Observer::new(dispatch.jump().handler_names())));
        let mut m = Machine {
            procs,
            chips,
            net,
            queue: EventQueue::with_horizon(horizon),
            injector: FaultInjector::new(&cfg.faults),
            origin_seq: vec![0; n],
            now: Cycle::ZERO,
            parked: vec![Park::Scheduled; n],
            feeds: (0..n).map(|_| None).collect(),
            barrier_waiters: Vec::new(),
            locks: FastMap::default(),
            done: 0,
            finish: vec![Cycle::ZERO; n],
            interv_deferrals: 0,
            check: cfg.check.then(|| Checker::new(cfg.mshrs)),
            ring: MsgRing::new(RING_CAPACITY),
            last_progress: Cycle::ZERO,
            observe,
            hostprof: cfg.host_profile.then(|| Box::new(HostProfile::default())),
            budget: 0,
            cur_t: Cycle::ZERO,
            cur_sub: 0,
            cpu_outs: Vec::new(),
            emit_buf: Vec::new(),
            // Observed mode: the scratch records per-emission attributions
            // (timing-invisible side buffers).
            scratch: MagicScratch::new(cfg.observe),
            cfg,
        };
        for i in 0..m.cfg.nodes {
            m.push_origin(i, Cycle::ZERO, Ev::ProcRun(i));
        }
        m
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
            Ev::bus_in(node.0, MsgType::IoDmaWrite, addr.line(), 0, true),
        );
    }

    /// Runs until every processor finishes or `budget_cycles` elapse.
    pub fn run(&mut self, budget_cycles: u64) -> RunResult {
        let wall0 = self.hostprof.is_some().then(Instant::now);
        let end = self.drive(budget_cycles);
        if let Some(t0) = wall0 {
            let hp = self.hostprof.as_mut().expect("armed");
            hp.wall_ns += t0.elapsed().as_nanos() as u64;
            hp.runs += 1;
        }
        match end {
            DriveEnd::Budget => RunResult::BudgetExhausted,
            DriveEnd::Wedged => RunResult::Wedged {
                report: Box::new(self.diagnose("no forward progress within the watchdog window")),
            },
            DriveEnd::Deadlocked => RunResult::Deadlocked {
                stuck: self.procs.len() - self.done,
            },
            DriveEnd::Completed => {
                if let Some(mut c) = self.check.take() {
                    c.quiesce(&Nodes(self), self.now);
                    // The MAGIC cache tag stores must be consistent too.
                    for chip in &self.chips {
                        if let Some(Err(detail)) = chip.mdc().map(|mdc| mdc.audit()) {
                            c.record(Violation {
                                kind: "mdc-integrity",
                                node: chip.node().0,
                                line: 0,
                                detail,
                            });
                        }
                    }
                    self.check = Some(c);
                }
                RunResult::Completed {
                    exec_cycles: self.exec_cycles(),
                }
            }
        }
    }

    // ---- observed mode ---------------------------------------------------

    /// The structured cycle-attribution report (`None` unless the machine
    /// was built with [`MachineConfig::with_observe`]). Per-handler rows
    /// aggregate invocation counts and occupancy over all chips.
    ///
    /// [`MachineConfig::with_observe`]: crate::MachineConfig::with_observe
    pub fn observe_report(&self) -> Option<ObserveReport> {
        let handlers = self.chips.iter().flat_map(|c| &c.stats().handlers);
        Some(self.observe.as_ref()?.report(handlers))
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
    pub fn check_violations(&self) -> Vec<Violation> {
        let mut out = self
            .check
            .as_ref()
            .map_or_else(Vec::new, |c| c.violations().to_vec());
        for chip in &self.chips {
            out.extend(chip.oracle_violations().iter().cloned());
        }
        out
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

    /// The network model (stats inspection).
    pub fn network(&self) -> &NetModel {
        &self.net
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Wheel-vs-heap push routing of the event queue (event scheduler
    /// health at scale).
    pub fn queue_push_routing(&self) -> (u64, u64) {
        self.queue.push_routing()
    }

    /// Interventions that had to be deferred waiting for in-flight data.
    pub fn interv_deferrals(&self) -> u64 {
        self.interv_deferrals
    }

    /// Cumulative fault-injection statistics, when a plan is armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.injector.as_ref().map(|inj| *inj.stats())
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
        for (_, ev) in self.queue.iter() {
            match ev {
                Ev::ProcRun(_) | Ev::Arrival { .. } => {}
                Ev::MagicIn { msg, .. } => inbox_queued[msg.dst.index()] += 1,
                Ev::ProcDeliver { node, .. } => proc_queued[*node as usize] += 1,
                Ev::NetSend { msg } => net_held[msg.src.index()] += 1,
            }
            suspects.extend(ev.line());
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
            stalled_links: self
                .injector
                .as_ref()
                .map_or_else(Vec::new, |inj| inj.held_links()),
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
        for cfg in [MachineConfig::flash(4), MachineConfig::ideal(4)] {
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
        for cfg in [MachineConfig::flash(2), MachineConfig::ideal(2)] {
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
        // Processor `n` reaches the barrier at 100·(n+1) cycles.
        let arrive = |n: u16| 100 * (n as u64 + 1);
        let mk = |n: u16| {
            vec![
                WorkItem::Busy(4 * arrive(n)), // staggered arrival
                WorkItem::Barrier,
                WorkItem::Read(a(n)),
                WorkItem::Busy(4),
            ]
        };
        let mut m = machine_with(MachineConfig::flash(4), (0..4).map(mk).collect());
        let exec_cycles = must_complete(&mut m, 1_000_000);
        // The barrier releases at the slowest arrival: each processor
        // stalls from its own arrival to it, and all of them then run
        // the same local read and finish together.
        let release = (0..4).map(arrive).max().unwrap();
        for (n, p) in (0..4).zip(m.procs()) {
            assert_eq!(p.stats().sync_stall_q, 4 * (release - arrive(n)), "P{n}");
            assert_eq!(p.finish_time().raw(), exec_cycles, "P{n}");
        }
        assert!(exec_cycles > release);
    }

    #[test]
    fn locks_serialize_critical_sections() {
        // Processor `n` requests lock 7 at `requests[n]` cycles, holds it
        // for 100 cycles and then runs 1 more. Every request is made at
        // the first event (processors run ahead of the event clock), so
        // the waiters queue in node order.
        let requests = [0u64, 150, 0, 600];
        let mk = |n: usize| {
            vec![
                WorkItem::Busy(4 * requests[n]),
                WorkItem::Lock(7),
                WorkItem::Busy(400),
                WorkItem::Unlock(7),
                WorkItem::Busy(4),
            ]
        };
        let cfg = MachineConfig::flash(4);
        let grant = cfg.lat.lock_grant;
        let mut m = machine_with(cfg, (0..4).map(mk).collect());
        let exec_cycles = must_complete(&mut m, 1_000_000);
        // A free lock is granted at request + grant, a held one is handed
        // over at max(release, request) + grant; the critical sections
        // serialize.
        let mut release = 0;
        for (n, p) in m.procs().iter().enumerate() {
            let granted = release.max(requests[n]) + grant;
            assert_eq!(p.stats().sync_stall_q, 4 * (granted - requests[n]), "P{n}");
            release = granted + 100;
        }
        assert_eq!(exec_cycles, release + 1);
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
}
