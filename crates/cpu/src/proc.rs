//! The compute-processor state machine.
//!
//! The processor interprets its reference stream against its cache at 400
//! MIPS (4 issue slots per 10 ns system cycle — time is tracked internally
//! in *quarter-cycles*). It blocks on read misses and synchronization;
//! writes are non-blocking and merge per the paper's rules; MAGIC reaches
//! the cache through interventions and invalidations, whose bus occupancy
//! shows up as the "Cont" bucket of paper Figure 4.1.

use crate::cache::{CpuAccess, L2Cache, LineState, Victim};
use crate::mshr::{MissKind, MshrFile};
use crate::stream::{LineRun, RefStream, Run, WorkItem};
use flash_engine::{Addr, Cycle};
use flash_protocol::{MsgType, ProcMsg};

/// Outbound coherence requests from the processor to MAGIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuOut {
    /// Read miss (`PiGet`).
    Get(Addr),
    /// Write miss (`PiGetX`).
    GetX(Addr),
    /// Write hit on a Shared line (`PiUpgrade`).
    Upgrade(Addr),
    /// Dirty eviction with data (`PiWriteback`).
    Writeback(Addr),
    /// Shared eviction (`PiRplHint`).
    Hint(Addr),
}

/// Why [`Processor::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Stalled on a read miss (or waiting for an MSHR needed by a read).
    BlockedRead,
    /// Stalled on a write (MSHR file full or index conflict).
    BlockedWrite,
    /// Reached a global barrier.
    Barrier,
    /// Wants lock `id`.
    Lock(u32),
    /// Released lock `id` (the machine should resume the processor).
    Unlock(u32),
    /// Exhausted the run quantum; resume at the processor's current time.
    Quantum,
    /// The open-loop stream has no work *yet* ([`RefStream::try_next`]
    /// returned `None`): the processor is idle, waiting for the machine to
    /// admit the next arrival. Closed-loop streams never starve.
    Starved,
    /// The reference stream ended.
    Finished,
}

/// What the node sends back over the bus once [`Processor::deliver`] has
/// taken a MAGIC→processor message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusReply {
    /// Nothing: a reply, an invalidation, I/O data, or a NACK for a line
    /// with no miss outstanding.
    Nothing,
    /// The intervention's line has a miss in flight, and nothing changed:
    /// the bus transaction is retried later, one try further on.
    Defer,
    /// The intervention found the line (`PiIntervReply`, with data).
    IntervReply,
    /// The intervention found no copy, or gave up deferring
    /// (`PiIntervMiss`).
    IntervMiss,
    /// The NACKed request, to reissue.
    Retry(CpuOut),
}

/// Execution-time accounting in quarter-cycles, the raw material for the
/// paper's Figure 4.1 breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Useful computation (and hit references).
    pub busy_q: u64,
    /// Blocking-read stall time.
    pub read_stall_q: u64,
    /// Write stall time (MSHR exhaustion / index conflicts).
    pub write_stall_q: u64,
    /// Synchronization wait time.
    pub sync_stall_q: u64,
    /// Open-loop idle time: the stream was open but no reference had
    /// arrived yet. Always zero for closed-loop streams, so adding it to
    /// [`ProcStats::total_q`] changes no existing number.
    pub idle_q: u64,
    /// Cache contention: processor waiting for its own cache while MAGIC
    /// held the bus (interventions, invalidations).
    pub cont_q: u64,
    /// Loads issued.
    pub reads: u64,
    /// Stores issued.
    pub writes: u64,
    /// Read misses sent to MAGIC.
    pub read_misses: u64,
    /// Write misses sent to MAGIC.
    pub write_misses: u64,
    /// Upgrades sent to MAGIC.
    pub upgrades: u64,
    /// Writes merged into outstanding misses.
    pub merges: u64,
    /// Dirty evictions.
    pub writebacks: u64,
    /// Shared evictions (replacement hints).
    pub hints: u64,
    /// Invalidations received.
    pub invals_received: u64,
    /// Interventions received.
    pub interventions: u64,
    /// Completions or unblocks observed with a clock earlier than the
    /// interval they close (`now < issued_at` / `now < block start`).
    /// Impossible in a correct time-ordered schedule — asserted in debug
    /// builds and counted here (instead of silently clamping to zero)
    /// so release-mode event-ordering bugs surface in the stats.
    pub clock_skew: u64,
    /// Wakeups delivered at a machine time before the local pipeline
    /// clock reached the block point (the pipeline ran ahead inside its
    /// quantum). Legitimate, zero-stall events — see
    /// `Processor::charge_unblock`.
    pub early_wakeups: u64,
}

impl ProcStats {
    /// Total accounted quarter-cycles.
    pub fn total_q(&self) -> u64 {
        self.busy_q
            + self.read_stall_q
            + self.write_stall_q
            + self.sync_stall_q
            + self.cont_q
            + self.idle_q
    }

    /// All references issued.
    pub fn references(&self) -> u64 {
        self.reads + self.writes
    }

    /// Miss rate over all references (misses + upgrades).
    pub fn miss_rate(&self) -> f64 {
        let m = self.read_misses + self.write_misses + self.upgrades;
        if self.references() == 0 {
            0.0
        } else {
            m as f64 / self.references() as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Read,
    Write,
    Sync,
    /// Open-loop starvation: parked until the machine admits an arrival.
    Idle,
}

/// Cycles the cache stays busy servicing a data intervention (paper Table
/// 3.2: 20 cycles to the first double word).
const INTERV_BUSY_CYCLES: u64 = 20;
/// Cycles the cache stays busy servicing a state-only transaction
/// (invalidation; paper Table 3.2: 15 cycles).
const INVAL_BUSY_CYCLES: u64 = 15;
/// Deferrals allowed for one intervention while the line's in-flight
/// grant lands. Beyond this the transaction is assumed to be a
/// request/forward cycle: the intervention reports a miss (the home
/// abandons the pending transaction) and the outstanding miss is poisoned
/// so its eventual grant caches no stale copy.
const MAX_INTERV_DEFERRALS: u32 = 64;
/// Items interpreted per [`Processor::run`] call before yielding.
const RUN_QUANTUM: u64 = 50_000;
/// Maximum quarter-cycles a run may advance past its entry time before
/// yielding, bounding run-ahead skew relative to the event loop (so
/// invalidations and DMA interleave at sane points).
const TIME_QUANTUM_Q: u64 = 8_000;

/// One compute processor.
pub struct Processor {
    cache: L2Cache,
    mshrs: MshrFile,
    stream: Box<dyn RefStream>,
    /// Absolute time in quarter-cycles.
    qtime: u64,
    cache_busy_q: u64,
    /// The run to resume, and whether its first reference was already
    /// counted (it blocked and replays).
    pending: Option<(Run, bool)>,
    block_start_q: Option<u64>,
    block_kind: Option<BlockKind>,
    stats: ProcStats,
    finished: bool,
    finish_q: u64,
}

impl std::fmt::Debug for Processor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Processor")
            .field("qtime", &self.qtime)
            .field("finished", &self.finished)
            .field("mshrs_in_use", &self.mshrs.in_use())
            .finish()
    }
}

impl Processor {
    /// Creates a processor with a cache of `cache_bytes` running `stream`.
    pub fn new(cache_bytes: u64, mshrs: usize, stream: Box<dyn RefStream>) -> Self {
        Processor {
            cache: L2Cache::new(cache_bytes),
            mshrs: MshrFile::new(mshrs),
            stream,
            qtime: 0,
            cache_busy_q: 0,
            pending: None,
            block_start_q: None,
            block_kind: None,
            stats: ProcStats::default(),
            finished: false,
            finish_q: 0,
        }
    }

    /// Current processor time in system cycles (rounded up).
    pub fn now(&self) -> Cycle {
        Cycle::new(self.qtime.div_ceil(4))
    }

    /// Whether the stream has ended.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Time the stream ended (valid once [`Processor::finished`]).
    pub fn finish_time(&self) -> Cycle {
        Cycle::new(self.finish_q.div_ceil(4))
    }

    /// Execution-time statistics.
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// The processor cache (for inspection in tests and reports).
    pub fn cache(&self) -> &L2Cache {
        &self.cache
    }

    /// Number of MSHRs currently allocated (checked mode's occupancy and
    /// drain audits).
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.in_use()
    }

    /// The allocated MSHRs themselves (wedge diagnostics: who is waiting
    /// on what).
    pub fn mshr_entries(&self) -> impl Iterator<Item = &crate::mshr::Mshr> {
        self.mshrs.iter()
    }

    fn charge_unblock(&mut self, now_q: u64) {
        if let (Some(start), Some(kind)) = (self.block_start_q, self.block_kind) {
            // `start` is the *local* pipeline clock at the block point,
            // which legitimately runs ahead of the machine clock inside a
            // quantum: a reply to an earlier non-blocking request (a write
            // upgrade issued before the pipeline ran ahead) can wake the
            // processor at a machine time before it blocked. That is an
            // early wakeup with no stall to charge — counted, not an
            // error, unlike the global-clock underflows in
            // [`Processor::check_completion`].
            let stall = now_q.checked_sub(start).unwrap_or_else(|| {
                self.stats.early_wakeups += 1;
                0
            });
            match kind {
                BlockKind::Read => self.stats.read_stall_q += stall,
                BlockKind::Write => self.stats.write_stall_q += stall,
                BlockKind::Sync => self.stats.sync_stall_q += stall,
                BlockKind::Idle => self.stats.idle_q += stall,
            }
            self.qtime = self.qtime.max(now_q);
        }
        self.block_start_q = None;
        self.block_kind = None;
    }

    /// Checks a completed miss against its issue time. A completion
    /// earlier than its issue is a clock running backwards: asserted in
    /// debug builds, counted in release.
    fn check_completion(&mut self, now: Cycle, issued_at: Cycle) {
        if now.raw() < issued_at.raw() {
            debug_assert!(false, "miss completed at {now} before issue at {issued_at}");
            self.stats.clock_skew += 1;
        }
    }

    fn block(&mut self, kind: BlockKind) {
        self.block_start_q = Some(self.qtime);
        self.block_kind = Some(kind);
    }

    fn cycle(&self) -> Cycle {
        Cycle::new(self.qtime.div_ceil(4))
    }

    fn wait_for_cache(&mut self) {
        if self.qtime < self.cache_busy_q {
            self.stats.cont_q += self.cache_busy_q - self.qtime;
            self.qtime = self.cache_busy_q;
        }
    }

    fn victim_actions(
        &mut self,
        victim: Option<Victim>,
        at: Cycle,
        out: &mut Vec<(Cycle, CpuOut)>,
    ) {
        if let Some(v) = victim {
            if v.dirty {
                self.stats.writebacks += 1;
                out.push((at, CpuOut::Writeback(v.addr)));
            } else {
                self.stats.hints += 1;
                out.push((at, CpuOut::Hint(v.addr)));
            }
        }
    }

    /// Interprets the stream from time `now` until the processor blocks,
    /// finishes, or exhausts its quantum. Outbound requests are appended
    /// to `out` with their issue times.
    ///
    /// A [`LineRun`] is interpreted exactly as its expanded items would
    /// be: its first reference resolves like a lone one, and the rest
    /// retire in O(1), cut where the item-by-item loop would cut.
    pub fn run(&mut self, now: Cycle, out: &mut Vec<(Cycle, CpuOut)>) -> RunOutcome {
        if self.finished {
            return RunOutcome::Finished;
        }
        self.charge_unblock(now.raw() * 4);
        let entry_q = self.qtime;
        let mut budget = RUN_QUANTUM;
        loop {
            if budget == 0 || self.qtime - entry_q > TIME_QUANTUM_Q {
                return RunOutcome::Quantum;
            }
            budget -= 1;
            let (run, retrying) = match self.pending.take() {
                Some(pending) => pending,
                None => match self.stream.next_run() {
                    Some(run) => (run, false),
                    None => {
                        self.block(BlockKind::Idle);
                        return RunOutcome::Starved;
                    }
                },
            };
            let line = match run {
                Run::Line(line) => line,
                Run::Item(item @ (WorkItem::Read(addr) | WorkItem::Write(addr))) => LineRun {
                    addr,
                    write: matches!(item, WorkItem::Write(_)),
                    refs: 1,
                    busy_per_ref: 0,
                    busy_first: false,
                },
                Run::Item(WorkItem::Busy(n)) => {
                    self.qtime += n;
                    self.stats.busy_q += n;
                    continue;
                }
                Run::Item(WorkItem::Barrier) => return self.fence(run, RunOutcome::Barrier),
                Run::Item(WorkItem::Lock(id)) => return self.fence(run, RunOutcome::Lock(id)),
                Run::Item(WorkItem::Unlock(id)) => return self.fence(run, RunOutcome::Unlock(id)),
                Run::Item(WorkItem::Done) => {
                    self.finished = true;
                    self.finish_q = self.qtime;
                    return RunOutcome::Finished;
                }
            };
            debug_assert!(line.refs > 0, "a line run holds at least one reference");
            if line.busy_first {
                self.qtime += line.busy_per_ref;
                self.stats.busy_q += line.busy_per_ref;
                let rest = LineRun {
                    busy_first: false,
                    ..line
                };
                self.pending = Some((Run::Line(rest), false));
                continue;
            }
            match self.reference(line.addr, line.write, retrying, out) {
                Ok(merging) if line.refs > 1 => {
                    budget -= self.retire_tail(line, merging, budget, entry_q);
                }
                Ok(_) => {}
                Err(blocked) => {
                    // The whole run waits: its first reference replays.
                    self.pending = Some((Run::Line(line), true));
                    return blocked;
                }
            }
        }
    }

    /// Handles a synchronization item. Synchronization operations are
    /// fences: outstanding writes must drain first.
    fn fence(&mut self, run: Run, outcome: RunOutcome) -> RunOutcome {
        if self.mshrs.in_use() > 0 {
            self.pending = Some((run, false));
            self.block(BlockKind::Write);
            return RunOutcome::BlockedWrite;
        }
        self.block(BlockKind::Sync);
        outcome
    }

    /// Resolves one reference to `a`. `retrying` marks a reference
    /// replayed after a block, which the counters already hold.
    ///
    /// On retiring, returns whether later writes to the line merge into
    /// its outstanding miss or upgrade (`true`) or hit (`false`). On
    /// blocking, returns the outcome; the caller keeps the reference
    /// pending.
    fn reference(
        &mut self,
        a: Addr,
        write: bool,
        retrying: bool,
        out: &mut Vec<(Cycle, CpuOut)>,
    ) -> Result<bool, RunOutcome> {
        // Count the reference when it first leaves the stream, not when it
        // resolves: a read whose first encounter blocks (MSHR conflict,
        // data in flight) would otherwise never be counted, making the
        // totals timing-sensitive.
        if !retrying {
            if write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
        }
        self.wait_for_cache();
        let merging = match self.cache.probe(a, write) {
            CpuAccess::Hit => false,
            CpuAccess::Miss if !write => {
                // A read blocks whether its data is already in flight or it
                // sends the miss; it stays pending either way, so a wakeup
                // for some other line's completion re-blocks on this one.
                if self.mshrs.find(a).is_none()
                    && !self.mshrs.is_full()
                    && !self.mshrs.index_conflict(a, &self.cache)
                {
                    self.stats.read_misses += 1;
                    let at = self.cycle();
                    self.mshrs.allocate(a, MissKind::Read, at);
                    out.push((at, CpuOut::Get(a.line())));
                }
                self.block(BlockKind::Read);
                return Err(RunOutcome::BlockedRead);
            }
            // Only writes need upgrades.
            CpuAccess::NeedsUpgrade => {
                if self.mshrs.find(a).is_some() {
                    // Upgrade (or miss) already outstanding: merge.
                    self.stats.merges += 1;
                } else if self.mshrs.is_full() || self.mshrs.index_conflict(a, &self.cache) {
                    self.block(BlockKind::Write);
                    return Err(RunOutcome::BlockedWrite);
                } else {
                    self.stats.upgrades += 1;
                    let at = self.cycle();
                    self.mshrs.allocate(a, MissKind::Upgrade, at);
                    self.cache.set_locked(a, true);
                    out.push((at, CpuOut::Upgrade(a.line())));
                }
                true
            }
            CpuAccess::Miss => {
                if let Some(m) = self.mshrs.find_mut(a) {
                    if m.kind == MissKind::Read {
                        m.write_merged = true;
                    }
                    self.stats.merges += 1;
                } else if self.mshrs.is_full() || self.mshrs.index_conflict(a, &self.cache) {
                    self.block(BlockKind::Write);
                    return Err(RunOutcome::BlockedWrite);
                } else {
                    self.stats.write_misses += 1;
                    let at = self.cycle();
                    self.mshrs.allocate(a, MissKind::Write, at);
                    out.push((at, CpuOut::GetX(a.line())));
                }
                true
            }
        };
        self.stats.busy_q += 1;
        self.qtime += 1;
        Ok(merging)
    }

    /// Retires the tail of `line` (every reference after the first, each
    /// with its `Busy` item) in O(1) and returns the number of items
    /// retired.
    ///
    /// The first reference just resolved, and nothing else can touch the
    /// cache or the MSHRs inside one [`Processor::run`] call: completions,
    /// [`Processor::inval`] and [`Processor::intervention`] all run
    /// between calls. So every tail reference resolves as a hit, or, when
    /// `merging`, as a write merged into the line's outstanding miss or
    /// upgrade. For the same reason `wait_for_cache` cannot charge inside
    /// a tail: `cache_busy_q` only moves in `inval` and `intervention`.
    ///
    /// The tail stops at exactly the item where the item-by-item loop
    /// would cut: when the item `budget` runs out, or at the first item
    /// that starts more than [`TIME_QUANTUM_Q`] after `entry_q`. The rest
    /// of the line stays pending. (Stopping short would still be correct,
    /// since the loop-top check makes the cut, but would cost a turn.)
    fn retire_tail(&mut self, line: LineRun, merging: bool, budget: u64, entry_q: u64) -> u64 {
        let b = line.busy_per_ref;
        let tail_refs = line.refs - 1;
        // The tail's items cost b, 1, b, 1, ... quarter-cycles (Busy,
        // reference, ...), or 1 each when b is 0. An item starts while the
        // items before it fit in `room`.
        let items_per_ref = if b > 0 { 2 } else { 1 };
        let by_time = match (entry_q + TIME_QUANTUM_Q).checked_sub(self.qtime) {
            None => 0,
            Some(room) if b == 0 => room + 1,
            // `room / (b + 1)` whole pairs fit; then one more Busy starts,
            // and its reference too if the remainder covers the Busy.
            Some(room) => 2 * (room / (b + 1)) + 1 + u64::from(room % (b + 1) == b),
        };
        let items = (tail_refs * items_per_ref).min(budget).min(by_time);
        let refs = items / items_per_ref;
        let spent = refs + (items - refs) * b;
        self.qtime += spent;
        self.stats.busy_q += spent;
        if line.write {
            self.stats.writes += refs;
        } else {
            self.stats.reads += refs;
        }
        if merging {
            self.stats.merges += refs;
        }
        self.cache.reprobe(line.addr, refs);
        if refs < tail_refs {
            // Cut mid-line: the rest starts on a Busy unless the last item
            // retired was one.
            let rest = LineRun {
                refs: tail_refs - refs,
                busy_first: b > 0 && items % 2 == 0,
                ..line
            };
            self.pending = Some((Run::Line(rest), false));
        }
        items
    }

    /// Takes one MAGIC→processor bus message and returns what the node
    /// sends back. A reply completes its miss, and the eviction traffic or
    /// reissued request that follows goes to `out`. An invalidation or an
    /// intervention reaches the cache, and a NACK reissues its request.
    /// `tries` counts this delivery's earlier deferrals.
    ///
    /// An intervention to a line with a miss in flight defers, changing
    /// nothing, while `tries` is below `MAX_INTERV_DEFERRALS`. At the
    /// limit it poisons the miss and reports a miss without occupying the
    /// cache.
    pub fn deliver(
        &mut self,
        pm: ProcMsg,
        tries: u32,
        now: Cycle,
        out: &mut Vec<(Cycle, CpuOut)>,
    ) -> BusReply {
        let addr = pm.addr;
        match pm.mtype {
            MsgType::PPut | MsgType::PPutX | MsgType::PUpgAck => {
                match self.mshrs.find(addr).map(|m| m.kind) {
                    Some(MissKind::Read) => {
                        self.complete_read(addr, pm.mtype != MsgType::PPut, now, out)
                    }
                    Some(MissKind::Write | MissKind::Upgrade) => {
                        self.complete_write(addr, now, out)
                    }
                    None => {} // stale reply (e.g. after an intervening invalidation)
                }
                BusReply::Nothing
            }
            MsgType::PInval => {
                self.stats.invals_received += 1;
                self.bus_busy(now, INVAL_BUSY_CYCLES);
                // An invalidation that races past an in-flight shared-data
                // grant must not leave a stale copy: mark the pending read
                // so its reply is consumed without caching.
                if let Some(m) = self.mshrs.find_mut(addr) {
                    if m.kind == MissKind::Read {
                        m.invalidated = true;
                    }
                }
                // An outstanding upgrade to this line is invalidated too:
                // the eventual reply will re-install exclusively, which is
                // correct.
                self.cache.set_locked(addr, false);
                self.cache.invalidate(addr.line());
                BusReply::Nothing
            }
            MsgType::PIntervGet | MsgType::PIntervGetX => {
                if let Some(m) = self.mshrs.find_mut(addr) {
                    if tries < MAX_INTERV_DEFERRALS {
                        return BusReply::Defer;
                    }
                    m.invalidated = true;
                    return BusReply::IntervMiss;
                }
                // Retrieve the line (and for `PIntervGetX`, invalidate it).
                self.stats.interventions += 1;
                self.bus_busy(now, INTERV_BUSY_CYCLES);
                let found = if pm.mtype == MsgType::PIntervGetX {
                    self.cache.invalidate(addr.line())
                } else {
                    self.cache.downgrade(addr.line())
                };
                if found.is_some() {
                    BusReply::IntervReply
                } else {
                    BusReply::IntervMiss
                }
            }
            MsgType::PNackRetry => match self.mshrs.find(addr) {
                // The MSHR stays allocated.
                Some(m) => BusReply::Retry(match m.kind {
                    MissKind::Read => CpuOut::Get(m.line),
                    MissKind::Write => CpuOut::GetX(m.line),
                    MissKind::Upgrade => CpuOut::Upgrade(m.line),
                }),
                None => BusReply::Nothing,
            },
            MsgType::PIoData => BusReply::Nothing,
            other => unreachable!("{other:?} is not a processor-bound message"),
        }
    }

    /// Delivers read-miss data (`PPut`/`PPutX`). Installs the line, frees
    /// the MSHR, and emits any eviction traffic. If a write was merged
    /// into the miss and the data arrived shared, an upgrade is issued
    /// immediately.
    fn complete_read(
        &mut self,
        addr: Addr,
        exclusive: bool,
        now: Cycle,
        out: &mut Vec<(Cycle, CpuOut)>,
    ) {
        let Some(m) = self.mshrs.release(addr) else {
            return;
        };
        self.check_completion(now, m.issued_at);
        // Planted bug (`planted-bugs`, test-only): pretend the grant was
        // never invalidated, so a stale exclusive reply resurrects a dead
        // owner — the historical merged-write reissue bug, re-introduced
        // for the minimizer's shrink suite. Checker-visible as an SWMR /
        // stale-value violation.
        let invalidated = m.invalidated && !cfg!(feature = "planted-bugs");
        if invalidated {
            // The grant was invalidated or poisoned in flight: use the
            // data once without caching it (an exclusive reply would
            // otherwise resurrect a stale owner). A subsequent reference
            // re-fetches.
            if m.write_merged {
                // A store was merged into this read miss; dropping the
                // grant must not drop the store. Reissue it as a write
                // miss (the MSHR we just released is free again).
                self.stats.write_misses += 1;
                self.mshrs.allocate(addr, MissKind::Write, now);
                out.push((now, CpuOut::GetX(addr.line())));
            }
            return;
        }
        let state = if exclusive || m.kind != MissKind::Read {
            LineState::Exclusive
        } else {
            LineState::Shared
        };
        let victim = self.cache.install(addr.line(), state);
        self.victim_actions(victim, now, out);
        if m.write_merged && state == LineState::Shared {
            self.stats.upgrades += 1;
            self.mshrs.allocate(addr, MissKind::Upgrade, now);
            self.cache.set_locked(addr, true);
            out.push((now, CpuOut::Upgrade(addr.line())));
        }
    }

    /// Delivers write-miss data or an upgrade acknowledgement.
    fn complete_write(&mut self, addr: Addr, now: Cycle, out: &mut Vec<(Cycle, CpuOut)>) {
        let Some(m) = self.mshrs.release(addr) else {
            return;
        };
        self.check_completion(now, m.issued_at);
        if m.invalidated {
            // Poisoned grant: complete the write architecturally without
            // caching the line.
            self.cache.set_locked(addr, false);
            self.cache.invalidate(addr.line());
            return;
        }
        match m.kind {
            MissKind::Upgrade => {
                self.cache.set_locked(addr, false);
                self.cache.install(addr.line(), LineState::Exclusive);
            }
            _ => {
                let victim = self.cache.install(addr.line(), LineState::Exclusive);
                self.victim_actions(victim, now, out);
            }
        }
    }

    fn bus_busy(&mut self, now: Cycle, cycles: u64) {
        let start = (now.raw() * 4).max(self.cache_busy_q);
        self.cache_busy_q = start + cycles * 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Mailbox, MailboxHandle, MailboxStream, SliceStream};

    fn proc(items: Vec<WorkItem>) -> Processor {
        Processor::new(4 << 10, 4, Box::new(SliceStream::new(items)))
    }

    fn msg(mtype: MsgType, addr: Addr) -> ProcMsg {
        ProcMsg {
            mtype,
            addr,
            aux: 0,
            with_data: false,
        }
    }

    /// Everything a bus message may change, down to the LRU stamps and
    /// the cache's bus occupancy.
    fn state(p: &Processor) -> String {
        let mshrs: Vec<_> = p.mshr_entries().collect();
        format!(
            "{:?} {:?} {mshrs:?} {} {}",
            p.stats, p.cache, p.cache_busy_q, p.qtime
        )
    }

    #[test]
    fn busy_only_stream_finishes() {
        let mut p = proc(vec![WorkItem::Busy(400)]);
        let mut out = Vec::new();
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::Finished);
        assert!(out.is_empty());
        assert_eq!(p.stats().busy_q, 400);
        assert_eq!(p.finish_time(), Cycle::new(100));
    }

    #[test]
    fn read_miss_blocks_and_completes() {
        let a = Addr::new(0x1000);
        let mut p = proc(vec![
            WorkItem::Read(a),
            WorkItem::Read(a),
            WorkItem::Busy(4),
        ]);
        let mut out = Vec::new();
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::BlockedRead);
        assert_eq!(out, vec![(Cycle::ZERO, CpuOut::Get(a))]);
        out.clear();
        p.complete_read(a, false, Cycle::new(24), &mut out);
        assert_eq!(p.run(Cycle::new(24), &mut out), RunOutcome::Finished);
        // 24-cycle read stall charged; second read hits.
        assert_eq!(p.stats().read_stall_q, 96);
        assert_eq!(p.stats().read_misses, 1);
        assert_eq!(p.stats().reads, 2);
    }

    #[test]
    fn write_miss_does_not_block() {
        let a = Addr::new(0x1000);
        let mut p = proc(vec![WorkItem::Write(a), WorkItem::Busy(40)]);
        let mut out = Vec::new();
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::Finished);
        assert_eq!(out, vec![(Cycle::ZERO, CpuOut::GetX(a))]);
        assert_eq!(p.stats().write_misses, 1);
        assert_eq!(p.stats().write_stall_q, 0);
    }

    #[test]
    fn write_merge_into_outstanding_miss() {
        let a = Addr::new(0x1000);
        let mut p = proc(vec![
            WorkItem::Write(a),
            WorkItem::Write(Addr::new(0x1008)),
            WorkItem::Busy(1),
        ]);
        let mut out = Vec::new();
        p.run(Cycle::ZERO, &mut out);
        assert_eq!(out.len(), 1, "second write merged");
        assert_eq!(p.stats().merges, 1);
    }

    #[test]
    fn invalidated_grant_reissues_merged_write() {
        // Regression: `complete_read` on a poisoned/invalidated grant used
        // to drop a merged store on the floor along with the grant — the
        // line stayed uncached *and* the write was never performed.
        let a = Addr::new(0x2000);
        let mut p = proc(vec![WorkItem::Busy(1)]);
        // A read miss with a store merged in, whose grant is poisoned
        // while in flight (an intervention that gave up deferring breaks
        // a request/forward cycle this way).
        p.mshrs.allocate(a, MissKind::Read, Cycle::ZERO);
        p.mshrs.find_mut(a).expect("allocated").write_merged = true;
        let mut out = Vec::new();
        let interv = msg(MsgType::PIntervGetX, a);
        let reply = p.deliver(interv, MAX_INTERV_DEFERRALS, Cycle::new(40), &mut out);
        assert_eq!(reply, BusReply::IntervMiss);
        p.complete_read(a, true, Cycle::new(50), &mut out);
        // The poisoned grant must not be cached...
        assert_eq!(p.cache.state_of(a), None);
        // ...but the merged store is reissued as a write miss.
        assert_eq!(out, vec![(Cycle::new(50), CpuOut::GetX(a.line()))]);
        let m = p.mshrs.find(a).expect("write miss outstanding");
        assert_eq!(m.kind, MissKind::Write);
        assert!(!m.invalidated);
        assert_eq!(p.stats().write_misses, 1);
        // Completing the reissued miss installs the line exclusively.
        out.clear();
        p.complete_write(a, Cycle::new(80), &mut out);
        assert_eq!(p.cache.state_of(a), Some(LineState::Exclusive));
        assert_eq!(p.outstanding_misses(), 0);
    }

    #[test]
    fn mshr_exhaustion_stalls_writes() {
        // 5 write misses to distinct sets with 4 MSHRs.
        let items: Vec<WorkItem> = (0..5)
            .map(|i| WorkItem::Write(Addr::new(i * 128)))
            .collect();
        let mut p = proc(items);
        let mut out = Vec::new();
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::BlockedWrite);
        assert_eq!(out.len(), 4);
        // Completing one frees an MSHR; the fifth write proceeds.
        out.clear();
        p.complete_write(Addr::new(0), Cycle::new(30), &mut out);
        assert_eq!(p.run(Cycle::new(30), &mut out), RunOutcome::Finished);
        assert_eq!(p.stats().write_misses, 5);
        // Blocked at q=4 (after four 1-slot writes), resumed at cycle 30.
        assert_eq!(p.stats().write_stall_q, 120 - 4);
    }

    #[test]
    fn index_conflict_stalls() {
        // 4 KB cache, 16 sets: lines 0 and 16*128 share set 0.
        let a = Addr::new(0);
        let b = Addr::new(16 * 128);
        let mut p = proc(vec![WorkItem::Write(a), WorkItem::Write(b)]);
        let mut out = Vec::new();
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::BlockedWrite);
        assert_eq!(out.len(), 1);
        out.clear();
        p.complete_write(a, Cycle::new(40), &mut out);
        assert_eq!(p.run(Cycle::new(40), &mut out), RunOutcome::Finished);
        assert_eq!(p.stats().write_misses, 2);
    }

    #[test]
    fn upgrade_path_and_ack() {
        let a = Addr::new(0x2000);
        let mut p = proc(vec![
            WorkItem::Read(a),
            WorkItem::Write(a),
            WorkItem::Write(a),
            WorkItem::Busy(1),
        ]);
        let mut out = Vec::new();
        p.run(Cycle::ZERO, &mut out); // blocks on read
        out.clear();
        p.complete_read(a, false, Cycle::new(24), &mut out); // shared data
        assert_eq!(p.run(Cycle::new(24), &mut out), RunOutcome::Finished);
        // First write needed an upgrade; second merged into it.
        assert!(out
            .iter()
            .any(|(_, o)| matches!(o, CpuOut::Upgrade(x) if x.same_line(a))));
        assert_eq!(p.stats().upgrades, 1);
        assert_eq!(p.stats().merges, 1);
        let mut out2 = Vec::new();
        p.complete_write(a, Cycle::new(60), &mut out2);
        assert_eq!(p.cache().state_of(a), Some(LineState::Exclusive));
    }

    #[test]
    fn eviction_emits_writeback_or_hint() {
        let stride = 16 * 128; // set-0 stride in the 4 KB cache
        let a = Addr::new(0);
        let b = Addr::new(stride);
        let c = Addr::new(2 * stride);
        let mut p = proc(vec![
            WorkItem::Read(a),
            WorkItem::Read(b),
            WorkItem::Read(c),
        ]);
        let mut out = Vec::new();
        p.run(Cycle::ZERO, &mut out);
        p.complete_read(a, true, Cycle::new(24), &mut out); // exclusive (dirty-equivalent)
        p.run(Cycle::new(24), &mut out);
        p.complete_read(b, false, Cycle::new(48), &mut out);
        p.run(Cycle::new(48), &mut out);
        out.clear();
        p.complete_read(c, false, Cycle::new(72), &mut out); // evicts a (dirty)
        assert!(out
            .iter()
            .any(|(_, o)| matches!(o, CpuOut::Writeback(x) if x.same_line(a))));
        assert_eq!(p.stats().writebacks, 1);
    }

    #[test]
    fn barrier_and_sync_accounting() {
        let mut p = proc(vec![
            WorkItem::Busy(4),
            WorkItem::Barrier,
            WorkItem::Busy(4),
        ]);
        let mut out = Vec::new();
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::Barrier);
        // Released 10 cycles later.
        assert_eq!(p.run(Cycle::new(11), &mut out), RunOutcome::Finished);
        assert_eq!(p.stats().sync_stall_q, 11 * 4 - 4);
        assert_eq!(p.stats().busy_q, 8);
    }

    #[test]
    fn intervention_downgrades_and_occupies_cache() {
        let a = Addr::new(0x3000);
        let mut p = proc(vec![
            WorkItem::Read(a),
            WorkItem::Read(a), // hit, but cache busy from intervention
            WorkItem::Busy(1),
        ]);
        let mut out = Vec::new();
        p.run(Cycle::ZERO, &mut out);
        p.complete_read(a, true, Cycle::new(24), &mut out);
        // Intervention arrives before the processor resumes.
        let interv = msg(MsgType::PIntervGet, a);
        let reply = p.deliver(interv, 0, Cycle::new(24), &mut out);
        assert_eq!(reply, BusReply::IntervReply);
        assert_eq!(p.cache().state_of(a), Some(LineState::Shared));
        assert_eq!(p.run(Cycle::new(24), &mut out), RunOutcome::Finished);
        assert!(
            p.stats().cont_q > 0,
            "contention while the bus held the cache"
        );
    }

    #[test]
    fn inval_drops_line_and_stale_reply_ignored() {
        let a = Addr::new(0x3000);
        let mut p = proc(vec![WorkItem::Read(a), WorkItem::Busy(1)]);
        let mut out = Vec::new();
        p.run(Cycle::ZERO, &mut out);
        p.complete_read(a, false, Cycle::new(24), &mut out);
        p.run(Cycle::new(24), &mut out);
        let inval = msg(MsgType::PInval, a);
        assert_eq!(
            p.deliver(inval, 0, Cycle::new(30), &mut out),
            BusReply::Nothing
        );
        assert_eq!(p.cache().state_of(a), None);
        assert_eq!(p.stats().invals_received, 1);
        // A stale completion for a line with no MSHR is ignored.
        let before = state(&p);
        p.complete_read(a, false, Cycle::new(40), &mut out);
        assert_eq!(state(&p), before);
    }

    #[test]
    fn nack_retry_reissues_request() {
        let a = Addr::new(0x5000);
        let mut p = proc(vec![WorkItem::Read(a)]);
        let mut out = Vec::new();
        p.run(Cycle::ZERO, &mut out);
        out.clear();
        let nack = msg(MsgType::PNackRetry, a);
        let reply = p.deliver(nack, 0, Cycle::new(30), &mut out);
        assert_eq!(reply, BusReply::Retry(CpuOut::Get(a.line())));
        assert!(out.is_empty());
        assert_eq!(p.outstanding_misses(), 1, "the MSHR stays allocated");
    }

    #[test]
    fn nack_without_a_miss_sends_nothing() {
        let mut p = proc(vec![WorkItem::Busy(1)]);
        let before = state(&p);
        let mut out = Vec::new();
        let nack = msg(MsgType::PNackRetry, Addr::new(0x9000));
        assert_eq!(
            p.deliver(nack, 0, Cycle::new(5), &mut out),
            BusReply::Nothing
        );
        assert!(out.is_empty());
        assert_eq!(state(&p), before);
    }

    #[test]
    fn reply_without_a_miss_is_ignored() {
        let a = Addr::new(0x6000);
        let mut p = proc(vec![WorkItem::Busy(1)]);
        let before = state(&p);
        let mut out = Vec::new();
        for mtype in [MsgType::PPut, MsgType::PPutX, MsgType::PUpgAck] {
            assert_eq!(
                p.deliver(msg(mtype, a), 0, Cycle::new(5), &mut out),
                BusReply::Nothing
            );
        }
        assert!(out.is_empty());
        assert_eq!(state(&p), before);
        assert_eq!(p.cache().state_of(a), None);
    }

    #[test]
    fn intervention_defers_unchanged_below_the_limit() {
        let a = Addr::new(0x7000);
        let mut p = proc(vec![WorkItem::Read(a)]);
        let mut out = Vec::new();
        p.run(Cycle::ZERO, &mut out);
        out.clear();
        let before = state(&p);
        for mtype in [MsgType::PIntervGet, MsgType::PIntervGetX] {
            let reply = p.deliver(
                msg(mtype, a),
                MAX_INTERV_DEFERRALS - 1,
                Cycle::new(9),
                &mut out,
            );
            assert_eq!(reply, BusReply::Defer);
        }
        assert!(out.is_empty());
        assert_eq!(state(&p), before);
        assert!(
            !p.mshr_entries()
                .next()
                .expect("miss outstanding")
                .invalidated
        );
    }

    #[test]
    fn intervention_at_the_limit_poisons_and_misses_without_bus_occupancy() {
        let a = Addr::new(0x7000);
        let mut p = proc(vec![WorkItem::Read(a), WorkItem::Busy(1)]);
        let mut out = Vec::new();
        p.run(Cycle::ZERO, &mut out);
        out.clear();
        let (busy, interventions) = (p.cache_busy_q, p.stats().interventions);
        let interv = msg(MsgType::PIntervGetX, a);
        let reply = p.deliver(interv, MAX_INTERV_DEFERRALS, Cycle::new(9), &mut out);
        assert_eq!(reply, BusReply::IntervMiss);
        assert!(out.is_empty());
        assert_eq!(p.cache_busy_q, busy, "the give-up never reaches the cache");
        assert_eq!(p.stats().interventions, interventions);
        assert!(
            p.mshr_entries()
                .next()
                .expect("miss outstanding")
                .invalidated
        );
        // The poisoned grant completes the read without caching the line.
        let put = msg(MsgType::PPutX, a);
        assert_eq!(
            p.deliver(put, 0, Cycle::new(30), &mut out),
            BusReply::Nothing
        );
        assert_eq!(p.outstanding_misses(), 0);
        assert_eq!(p.cache().state_of(a), None);
    }

    #[test]
    fn mailbox_stream_starves_resumes_and_finishes() {
        let handle = Mailbox::handle();
        let mut p = Processor::new(4 << 10, 4, Box::new(MailboxStream::new(handle.clone())));
        let mut out = Vec::new();
        // Open but empty: the processor parks, charging idle time.
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::Starved);
        assert!(!p.finished());
        // The machine admits work at cycle 25 and wakes the processor.
        handle.lock().unwrap().push(WorkItem::Busy(8));
        assert_eq!(p.run(Cycle::new(25), &mut out), RunOutcome::Starved);
        assert_eq!(p.stats().idle_q, 100, "25 cycles parked");
        assert_eq!(p.stats().busy_q, 8);
        // Closing the mailbox ends the stream.
        handle.lock().unwrap().close();
        assert_eq!(p.run(Cycle::new(27), &mut out), RunOutcome::Finished);
        assert!(p.finished());
        // Idle time is in the total; no closed-loop bucket moved.
        assert_eq!(p.stats().read_stall_q, 0);
        assert_eq!(p.stats().sync_stall_q, 0);
        assert!(p.stats().total_q() >= p.stats().idle_q + p.stats().busy_q);
    }

    #[test]
    fn starved_mid_stream_preserves_reference_counts() {
        let a = Addr::new(0x1000);
        let handle = Mailbox::handle();
        handle.lock().unwrap().push(WorkItem::Read(a));
        let mut p = Processor::new(4 << 10, 4, Box::new(MailboxStream::new(handle.clone())));
        let mut out = Vec::new();
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::BlockedRead);
        p.complete_read(a, false, Cycle::new(24), &mut out);
        // The mailbox is dry when the read completes: idle, not done.
        assert_eq!(p.run(Cycle::new(24), &mut out), RunOutcome::Starved);
        handle.lock().unwrap().push(WorkItem::Read(a));
        handle.lock().unwrap().close();
        assert_eq!(p.run(Cycle::new(30), &mut out), RunOutcome::Finished);
        assert_eq!(p.stats().reads, 2, "each read counted exactly once");
        assert_eq!(p.stats().read_misses, 1, "second read hits");
        assert_eq!(p.stats().read_stall_q, 96);
        // Parked at local q=97 (the hit consumed one slot after resuming
        // at q=96), woken at machine q=120.
        assert_eq!(p.stats().idle_q, 120 - 97);
    }

    /// A closed mailbox holding `items`: `len()` then shows how many
    /// items each `run` call consumed.
    fn mailbox_proc(items: impl IntoIterator<Item = WorkItem>) -> (Processor, MailboxHandle) {
        let handle = Mailbox::handle();
        {
            let mut mb = handle.lock().unwrap();
            items.into_iter().for_each(|it| mb.push(it));
            mb.close();
        }
        let p = Processor::new(4 << 10, 4, Box::new(MailboxStream::new(handle.clone())));
        (p, handle)
    }

    #[test]
    fn time_quantum_cuts_after_exact_item_count() {
        // `Busy(1)` items: item j starts j-1 quarter-cycles after entry,
        // so items 1..=8001 start within TIME_QUANTUM_Q and 8002 does not.
        let (mut p, handle) = mailbox_proc((0..20_000).map(|_| WorkItem::Busy(1)));
        let mut out = Vec::new();
        for left in [11_999, 3_998] {
            assert_eq!(p.run(p.now(), &mut out), RunOutcome::Quantum);
            assert_eq!(handle.lock().unwrap().len(), left);
            assert_eq!(p.stats().busy_q, 20_000 - left as u64);
        }
        assert_eq!(p.run(p.now(), &mut out), RunOutcome::Finished);
        assert_eq!(p.stats().busy_q, 20_000);
    }

    #[test]
    fn item_quantum_cuts_after_exactly_run_quantum_items() {
        // Free items never reach the time cut: only RUN_QUANTUM stops them.
        let (mut p, handle) = mailbox_proc((0..120_000).map(|_| WorkItem::Busy(0)));
        let mut out = Vec::new();
        for left in [70_000, 20_000] {
            assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::Quantum);
            assert_eq!(handle.lock().unwrap().len(), left);
        }
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::Finished);
        assert_eq!(handle.lock().unwrap().len(), 0);
    }

    /// Yields fixed runs, as a phase stream would.
    struct RunStream(std::collections::VecDeque<Run>);

    impl RefStream for RunStream {
        fn next_item(&mut self) -> WorkItem {
            unreachable!("the processor pulls runs")
        }

        fn next_run(&mut self) -> Option<Run> {
            Some(self.0.pop_front().unwrap_or(Run::Item(WorkItem::Done)))
        }
    }

    /// The items `runs` stand for.
    fn expand(runs: &[Run]) -> Vec<WorkItem> {
        let mut items = Vec::new();
        for run in runs {
            match *run {
                Run::Item(it) => items.push(it),
                Run::Line(l) => {
                    for r in 0..l.refs {
                        if l.busy_per_ref > 0 && (r > 0 || l.busy_first) {
                            items.push(WorkItem::Busy(l.busy_per_ref));
                        }
                        items.push(if l.write {
                            WorkItem::Write(l.addr)
                        } else {
                            WorkItem::Read(l.addr)
                        });
                    }
                }
            }
        }
        items
    }

    /// Runs `runs` and their expansion side by side to the end, completing
    /// the oldest miss whenever they block, and asserts that every `run`
    /// call returns, emits and accounts identically.
    fn assert_runs_match_items(runs: Vec<Run>) {
        let items = expand(&runs);
        let mut a = Processor::new(4 << 10, 4, Box::new(RunStream(runs.into())));
        let mut b = proc(items);
        let mut now = Cycle::ZERO;
        for _ in 0..10_000 {
            let (mut oa, mut ob) = (Vec::new(), Vec::new());
            let outcome = a.run(now, &mut oa);
            assert_eq!(outcome, b.run(now, &mut ob));
            assert_eq!(oa, ob);
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.now(), b.now());
            now = now.max(a.now());
            match outcome {
                RunOutcome::Finished => return,
                RunOutcome::BlockedRead | RunOutcome::BlockedWrite => {
                    let line = a.mshr_entries().next().expect("blocked on a miss").line;
                    now = Cycle::new(now.raw() + 30);
                    let put = msg(MsgType::PPut, line);
                    a.deliver(put, 0, now, &mut oa);
                    b.deliver(put, 0, now, &mut ob);
                    assert_eq!(oa, ob);
                }
                _ => {}
            }
        }
        panic!("runs did not finish");
    }

    fn line(addr: u64, write: bool, refs: u64, busy_per_ref: u64) -> Run {
        Run::Line(LineRun {
            addr: Addr::new(addr),
            write,
            refs,
            busy_per_ref,
            busy_first: busy_per_ref > 0,
        })
    }

    #[test]
    fn item_quantum_cuts_a_line_run_mid_line() {
        // Free items, then a line whose tail crosses RUN_QUANTUM: the cut
        // lands between two references, between a reference and the next
        // Busy, and between a Busy and its reference.
        for (free, busy) in [(49_990, 0), (49_990, 5), (49_989, 5)] {
            let mut runs = vec![Run::Item(WorkItem::Busy(0)); free];
            runs.push(line(0x1000, true, 100, busy));
            runs.push(line(0x1000, false, 100, busy));
            assert_runs_match_items(runs);
        }
    }

    #[test]
    fn line_runs_resolve_like_their_items() {
        // Hits, merges into a write miss and into an upgrade, a blocked
        // read, and tails long enough for the time cut.
        assert_runs_match_items(vec![
            line(0x1000, true, 5_000, 3),
            line(0x1000, false, 9_000, 0),
            line(0x2000, false, 40, 2),
            line(0x2000, true, 3_000, 2),
            Run::Item(WorkItem::Barrier),
            line(0x2000, true, 10, 1),
        ]);
    }
}
