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
use crate::stream::{RefStream, WorkItem};
use flash_engine::{Addr, Cycle};

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

/// Execution-time accounting in quarter-cycles, the raw material for the
/// paper's Figure 4.1 breakdown.
#[derive(Debug, Clone, Copy, Default)]
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
    pending: Option<WorkItem>,
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
            // `retrying` marks an item replayed after a block: reference
            // counters must not double-count it.
            let (item, retrying) = match self.pending.take() {
                Some(it) => (it, true),
                None => match self.stream.try_next() {
                    Some(it) => (it, false),
                    None => {
                        self.block(BlockKind::Idle);
                        return RunOutcome::Starved;
                    }
                },
            };
            match item {
                WorkItem::Busy(n) => {
                    self.qtime += n;
                    self.stats.busy_q += n;
                }
                WorkItem::Read(a) => {
                    // Count the reference when it first leaves the stream,
                    // not when it resolves: a read whose first encounter
                    // blocks (MSHR conflict, data in flight) would otherwise
                    // never be counted, making the totals timing-sensitive.
                    if !retrying {
                        self.stats.reads += 1;
                    }
                    self.wait_for_cache();
                    match self.cache.probe(a, false) {
                        CpuAccess::Hit => {
                            self.stats.busy_q += 1;
                            self.qtime += 1;
                        }
                        CpuAccess::NeedsUpgrade => unreachable!("reads never need upgrades"),
                        CpuAccess::Miss => {
                            if self.mshrs.find(a).is_some() {
                                // Data already in flight: wait for it.
                                self.pending = Some(item);
                                self.block(BlockKind::Read);
                                return RunOutcome::BlockedRead;
                            }
                            if self.mshrs.is_full() || self.mshrs.index_conflict(a, &self.cache) {
                                self.pending = Some(item);
                                self.block(BlockKind::Read);
                                return RunOutcome::BlockedRead;
                            }
                            self.stats.read_misses += 1;
                            let at = self.cycle();
                            self.mshrs.allocate(a, MissKind::Read, at);
                            out.push((at, CpuOut::Get(a.line())));
                            // Keep the read pending: a wakeup for some
                            // other line's completion must re-block on
                            // this one, not skip past it.
                            self.pending = Some(item);
                            self.block(BlockKind::Read);
                            return RunOutcome::BlockedRead;
                        }
                    }
                }
                WorkItem::Write(a) => {
                    // Counted at first stream take, as for reads above.
                    if !retrying {
                        self.stats.writes += 1;
                    }
                    self.wait_for_cache();
                    match self.cache.probe(a, true) {
                        CpuAccess::Hit => {
                            self.stats.busy_q += 1;
                            self.qtime += 1;
                        }
                        CpuAccess::NeedsUpgrade => {
                            if self.mshrs.find(a).is_some() {
                                // Upgrade (or miss) already outstanding: merge.
                                self.stats.merges += 1;
                                self.stats.busy_q += 1;
                                self.qtime += 1;
                            } else if self.mshrs.is_full()
                                || self.mshrs.index_conflict(a, &self.cache)
                            {
                                self.pending = Some(item);
                                self.block(BlockKind::Write);
                                return RunOutcome::BlockedWrite;
                            } else {
                                self.stats.upgrades += 1;
                                let at = self.cycle();
                                self.mshrs.allocate(a, MissKind::Upgrade, at);
                                self.cache.set_locked(a, true);
                                out.push((at, CpuOut::Upgrade(a.line())));
                                self.stats.busy_q += 1;
                                self.qtime += 1;
                            }
                        }
                        CpuAccess::Miss => {
                            if let Some(m) = self.mshrs.find_mut(a) {
                                if m.kind == MissKind::Read {
                                    m.write_merged = true;
                                }
                                self.stats.merges += 1;
                                self.stats.busy_q += 1;
                                self.qtime += 1;
                            } else if self.mshrs.is_full()
                                || self.mshrs.index_conflict(a, &self.cache)
                            {
                                self.pending = Some(item);
                                self.block(BlockKind::Write);
                                return RunOutcome::BlockedWrite;
                            } else {
                                self.stats.write_misses += 1;
                                let at = self.cycle();
                                self.mshrs.allocate(a, MissKind::Write, at);
                                out.push((at, CpuOut::GetX(a.line())));
                                self.stats.busy_q += 1;
                                self.qtime += 1;
                            }
                        }
                    }
                }
                WorkItem::Barrier => {
                    // Synchronization operations are fences: outstanding
                    // writes must drain first.
                    if self.mshrs.in_use() > 0 {
                        self.pending = Some(item);
                        self.block(BlockKind::Write);
                        return RunOutcome::BlockedWrite;
                    }
                    self.block(BlockKind::Sync);
                    return RunOutcome::Barrier;
                }
                WorkItem::Lock(id) => {
                    if self.mshrs.in_use() > 0 {
                        self.pending = Some(item);
                        self.block(BlockKind::Write);
                        return RunOutcome::BlockedWrite;
                    }
                    self.block(BlockKind::Sync);
                    return RunOutcome::Lock(id);
                }
                WorkItem::Unlock(id) => {
                    if self.mshrs.in_use() > 0 {
                        self.pending = Some(item);
                        self.block(BlockKind::Write);
                        return RunOutcome::BlockedWrite;
                    }
                    self.block(BlockKind::Sync);
                    return RunOutcome::Unlock(id);
                }
                WorkItem::Done => {
                    self.finished = true;
                    self.finish_q = self.qtime;
                    return RunOutcome::Finished;
                }
            }
        }
    }

    /// Delivers read-miss data (`PPut`/`PPutX`). Installs the line, frees
    /// the MSHR, and emits any eviction traffic. If a write was merged
    /// into the miss and the data arrived shared, an upgrade is issued
    /// immediately.
    pub fn complete_read(
        &mut self,
        addr: Addr,
        exclusive: bool,
        now: Cycle,
        out: &mut Vec<(Cycle, CpuOut)>,
    ) {
        let Some(m) = self.mshrs.release(addr) else {
            return; // stale reply (e.g. after an intervening invalidation)
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
    pub fn complete_write(&mut self, addr: Addr, now: Cycle, out: &mut Vec<(Cycle, CpuOut)>) {
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

    /// Delivers any coherence reply (`PPut`, `PPutX`, `PUpgAck`), routing
    /// it to the outstanding miss's completion path by MSHR kind.
    pub fn deliver_reply(
        &mut self,
        addr: Addr,
        exclusive: bool,
        now: Cycle,
        out: &mut Vec<(Cycle, CpuOut)>,
    ) {
        match self.mshrs.find(addr).map(|m| m.kind) {
            Some(MissKind::Read) => self.complete_read(addr, exclusive, now, out),
            Some(MissKind::Write) | Some(MissKind::Upgrade) => self.complete_write(addr, now, out),
            None => {}
        }
    }

    /// Handles a NACKed request: returns the retry to issue (the MSHR
    /// stays allocated).
    pub fn nack_retry(&mut self, addr: Addr) -> Option<CpuOut> {
        let m = self.mshrs.find(addr)?;
        Some(match m.kind {
            MissKind::Read => CpuOut::Get(m.line),
            MissKind::Write => CpuOut::GetX(m.line),
            MissKind::Upgrade => CpuOut::Upgrade(m.line),
        })
    }

    /// Whether a miss is outstanding for `addr`'s line. The machine defers
    /// interventions to such lines until the data arrives (the reply is
    /// already in flight).
    pub fn has_mshr(&self, addr: Addr) -> bool {
        self.mshrs.find(addr).is_some()
    }

    /// Poisons an outstanding miss: its reply will complete the processor
    /// but the line will not be cached. The machine uses this when it
    /// abandons an intervention that waited too long for the in-flight
    /// grant (breaking request/forward cycles).
    pub fn poison_pending(&mut self, addr: Addr) {
        if let Some(m) = self.mshrs.find_mut(addr) {
            m.invalidated = true;
        }
    }

    /// MAGIC invalidates a line (`PInval`). Returns whether a copy was
    /// dropped. The bus transaction occupies the cache.
    pub fn inval(&mut self, addr: Addr, now: Cycle) -> bool {
        self.stats.invals_received += 1;
        self.bus_busy(now, INVAL_BUSY_CYCLES);
        // An invalidation that races past an in-flight shared-data grant
        // must not leave a stale copy: mark the pending read so its reply
        // is consumed without caching.
        if let Some(m) = self.mshrs.find_mut(addr) {
            if m.kind == MissKind::Read {
                m.invalidated = true;
            }
        }
        // An outstanding upgrade to this line is invalidated too: the
        // eventual reply will re-install exclusively, which is correct.
        self.cache.set_locked(addr, false);
        self.cache.invalidate(addr.line()).is_some()
    }

    /// MAGIC intervention: retrieve (and for `exclusive`, invalidate) the
    /// line from the cache. Returns whether the line was found.
    pub fn intervention(&mut self, addr: Addr, exclusive: bool, now: Cycle) -> bool {
        self.stats.interventions += 1;
        self.bus_busy(now, INTERV_BUSY_CYCLES);
        if exclusive {
            self.cache.invalidate(addr.line()).is_some()
        } else {
            self.cache.downgrade(addr.line()).is_some()
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
    use crate::stream::SliceStream;

    fn proc(items: Vec<WorkItem>) -> Processor {
        Processor::new(4 << 10, 4, Box::new(SliceStream::new(items)))
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
        // A read miss with a store merged in, whose grant is invalidated
        // while in flight (the request/forward race `poison_pending`
        // breaks).
        p.mshrs.allocate(a, MissKind::Read, Cycle::ZERO);
        p.mshrs.find_mut(a).expect("allocated").write_merged = true;
        p.poison_pending(a);
        let mut out = Vec::new();
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
        assert!(p.intervention(a, false, Cycle::new(24)));
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
        assert!(p.inval(a, Cycle::new(30)));
        assert_eq!(p.cache().state_of(a), None);
        assert!(!p.inval(a, Cycle::new(31)), "second inval finds nothing");
        // A stale completion for a line with no MSHR is ignored.
        p.complete_read(a, false, Cycle::new(40), &mut out);
    }

    #[test]
    fn nack_retry_reissues_request() {
        let a = Addr::new(0x5000);
        let mut p = proc(vec![WorkItem::Read(a)]);
        let mut out = Vec::new();
        p.run(Cycle::ZERO, &mut out);
        assert_eq!(p.nack_retry(a), Some(CpuOut::Get(a.line())));
        assert_eq!(p.nack_retry(Addr::new(0x9000)), None);
    }

    #[test]
    fn mailbox_stream_starves_resumes_and_finishes() {
        use crate::stream::{Mailbox, MailboxStream};
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
        use crate::stream::{Mailbox, MailboxStream};
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

    #[test]
    fn quantum_yields_without_blocking() {
        // A very long busy stream split into many items.
        let items: Vec<WorkItem> = (0..60_000).map(|_| WorkItem::Busy(1)).collect();
        let mut p = proc(items);
        let mut out = Vec::new();
        assert_eq!(p.run(Cycle::ZERO, &mut out), RunOutcome::Quantum);
        let mut rounds = 1;
        loop {
            match p.run(p.now(), &mut out) {
                RunOutcome::Quantum => rounds += 1,
                RunOutcome::Finished => break,
                other => panic!("unexpected {other:?}"),
            }
            assert!(rounds < 100, "too many quanta");
        }
        assert!(rounds >= 2, "both item and time quanta should trigger");
        assert_eq!(p.stats().busy_q, 60_000);
    }
}
