//! The checked-mode driver: which lines to audit when, and which
//! transient cache/directory disagreements are legal. A [`Checker`]
//! follows a run through five hooks and reads state only through a
//! [`CheckView`], so a hand-built or explored state checks like a machine.

use crate::coherence::is_provisional;
use crate::{
    audit_directory, check_line_coherence, check_pointer_store, walk_sharers, CachedCopy, Violation,
};
use flash_cpu::LineState;
use flash_engine::{Addr, Cycle, FastMap};
use flash_protocol::dir::DEFAULT_PS_CAPACITY;
use flash_protocol::{dir_addr, DirHeader, MsgType, ProtoMem};
use std::collections::BTreeSet;

/// What a [`Checker`] reads of the machine it checks.
pub trait CheckView {
    /// Number of nodes. Each has one processor, and homes some lines.
    fn nodes(&self) -> u16;
    /// The state of `line` in `node`'s processor cache (`None`: no copy).
    fn cached(&self, node: u16, line: Addr) -> Option<LineState>;
    /// MSHRs in use at `node`'s processor.
    fn mshrs_in_use(&self, node: u16) -> usize;
    /// The home node of `line`.
    fn home_of(&self, line: Addr) -> u16;
    /// Node `node`'s protocol memory: its directory and pointer store.
    fn proto_mem(&self, node: u16) -> &ProtoMem;
}

/// A queued bus delivery that leaves the receiving copy in flux.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum BusOp {
    /// `PInval`: the copy is logically dead. The sharer's MAGIC acked the
    /// `NInval` already, so the copy may outlive the directory's
    /// `PENDING` window (the paper's relaxed consistency, §2).
    Inval,
    /// `PIntervGet`/`PIntervGetX`: the copy is mid-handoff. The home may
    /// have granted ownership before this (possibly deferred) bus
    /// transaction invalidates or downgrades the old owner's copy.
    Interv,
}

impl BusOp {
    fn of(mtype: MsgType) -> Option<BusOp> {
        match mtype {
            MsgType::PInval => Some(BusOp::Inval),
            MsgType::PIntervGet | MsgType::PIntervGetX => Some(BusOp::Interv),
            _ => None,
        }
    }
}

/// Checked-mode bookkeeping and rules: per-line coherence and directory
/// audits as the clock advances, and conservation audits at quiescence.
#[derive(Debug, Default)]
pub struct Checker {
    /// MSHRs per processor (`mshr-over` above it).
    mshrs: usize,
    /// Every line that ever saw protocol activity.
    touched: BTreeSet<u64>,
    /// Lines touched since the last audit, audited and cleared when the
    /// clock next advances.
    fresh: BTreeSet<u64>,
    violations: Vec<Violation>,
    /// Provisional observations ([`is_provisional`]) by (copy node,
    /// line), with the cycle first observed. The stale-transfer
    /// self-repair race (DESIGN.md, race rule 2) grants a rogue copy via a
    /// stale `NPut` and repairs it with fire-and-forget `NInval`s; until
    /// the repair `PInval` is queued nothing exempts the copy. A `PInval`
    /// delivered to it discharges the observation; a survivor to
    /// quiescence is a violation.
    provisional: FastMap<(u16, u64), (Cycle, Violation)>,
    /// Queued bus deliveries by (op, node, line): the copy is exempt from
    /// the coherence checks; still queued at quiescence, a leak.
    inflight: FastMap<(BusOp, u16, u64), u32>,
}

impl Checker {
    /// A checker for processors with `mshrs` miss registers each.
    pub fn new(mshrs: usize) -> Self {
        Checker {
            mshrs,
            ..Checker::default()
        }
    }

    /// Every violation found so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Records a violation found outside the checker's own rules.
    pub fn record(&mut self, v: Violation) {
        self.violations.push(v);
    }

    /// Hook: `mtype` for `line` was queued on `node`'s bus. A queued
    /// `PInval` or intervention exempts the copy until it is delivered.
    pub fn queued(&mut self, node: u16, mtype: MsgType, line: u64) {
        if let Some(op) = BusOp::of(mtype) {
            *self.inflight.entry((op, node, line)).or_insert(0) += 1;
        }
    }

    /// Hook: a message queued with [`Checker::queued`] was delivered. A
    /// `PInval` also discharges any provisional observation of that copy:
    /// the self-repair completed.
    pub fn delivered(&mut self, node: u16, mtype: MsgType, line: u64) {
        let Some(op) = BusOp::of(mtype) else {
            return;
        };
        let key = (op, node, line);
        if let Some(n) = self.inflight.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                self.inflight.remove(&key);
            }
        }
        if op == BusOp::Inval {
            self.provisional.remove(&(node, line));
        }
    }

    /// Hook: an event touched `line`. It is audited when the clock next
    /// advances.
    pub fn touch(&mut self, line: u64) {
        self.fresh.insert(line);
    }

    /// Hook: the clock is about to advance past `now`. Audits every line
    /// touched since the last audit.
    pub fn advance(&mut self, view: &impl CheckView, now: Cycle) {
        for raw in std::mem::take(&mut self.fresh) {
            self.touched.insert(raw);
            self.check_line(view, Addr::new(raw), now);
        }
    }

    /// Hook: the machine is quiescent (every processor done, no event
    /// queued). Every touched line must have retired its transactions,
    /// every MSHR, queued delivery and provisional observation drained,
    /// and each pointer store conserved its entries.
    pub fn quiesce(&mut self, view: &impl CheckView, now: Cycle) {
        let touched: Vec<u64> = self.touched.iter().copied().collect();
        for &raw in &touched {
            let line = Addr::new(raw);
            let home = view.home_of(line);
            let mem = view.proto_mem(home);
            self.violations
                .extend(audit_directory(mem, dir_addr(line), home, true));
            self.check_line(view, line, now);
        }
        for node in 0..view.nodes() {
            let n = view.mshrs_in_use(node);
            if n != 0 {
                self.violations.push(Violation {
                    kind: "mshr-leak",
                    node,
                    line: 0,
                    detail: format!("{n} MSHRs still allocated at quiescence"),
                });
            }
        }
        let mut leaked: Vec<_> = self.inflight.iter().map(|(&k, &n)| (k, n)).collect();
        leaked.sort_unstable();
        for ((op, node, line), n) in leaked {
            let (kind, what) = match op {
                BusOp::Inval => ("inval-leak", "PInval(s)"),
                BusOp::Interv => ("interv-leak", "bus intervention(s)"),
            };
            self.violations.push(Violation {
                kind,
                node,
                line,
                detail: format!("{n} {what} still queued at quiescence"),
            });
        }
        let mut stale: Vec<(Cycle, Violation)> = self.provisional.drain().map(|(_, v)| v).collect();
        stale.sort_by_key(|(at, v)| (*at, v.node, v.line));
        for (at, mut v) in stale {
            v.detail = format!("{} (observed at cycle {at}, never invalidated)", v.detail);
            self.violations.push(v);
        }
        for node in 0..view.nodes() {
            let diraddrs: Vec<u64> = touched
                .iter()
                .filter(|&&l| view.home_of(Addr::new(l)) == node)
                .map(|&l| dir_addr(Addr::new(l)))
                .collect();
            self.violations.extend(check_pointer_store(
                view.proto_mem(node),
                diraddrs.iter(),
                DEFAULT_PS_CAPACITY,
                node,
            ));
        }
    }

    /// Checks what is visible for one line now: MSHR limits, the
    /// directory's structure, and SWMR and cache/directory agreement.
    /// Provisional disagreements are held; the rest report at once.
    fn check_line(&mut self, view: &impl CheckView, line: Addr, now: Cycle) {
        let mut copies = Vec::new();
        for node in 0..view.nodes() {
            if let Some(state) = view.cached(node, line) {
                let queued = |op| self.inflight.contains_key(&(op, node, line.raw()));
                if !queued(BusOp::Inval) && !queued(BusOp::Interv) {
                    copies.push(CachedCopy {
                        node,
                        exclusive: state == LineState::Exclusive,
                    });
                }
            }
            let in_use = view.mshrs_in_use(node);
            if in_use > self.mshrs {
                self.violations.push(Violation {
                    kind: "mshr-over",
                    node,
                    line: line.raw(),
                    detail: format!("{in_use} MSHRs in use, limit {}", self.mshrs),
                });
            }
        }
        let home = view.home_of(line);
        let da = dir_addr(line);
        let mem = view.proto_mem(home);
        self.violations
            .extend(audit_directory(mem, da, home, false));
        if let Ok(sharers) = walk_sharers(mem, da) {
            let h = DirHeader(mem.load64(da));
            for v in check_line_coherence(h, &sharers, home, &copies, line.raw()) {
                if is_provisional(v.kind) {
                    self.provisional.entry((v.node, v.line)).or_insert((now, v));
                } else {
                    self.violations.push(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_protocol::dir::Directory;

    /// Two nodes; node 0 homes every line, and each node's cache holds
    /// whatever the test puts in `copies`.
    struct TwoNodes {
        mem: [ProtoMem; 2],
        copies: [Option<LineState>; 2],
    }

    impl TwoNodes {
        fn new() -> Self {
            let mem = std::array::from_fn(|_| {
                let mut m = ProtoMem::new();
                Directory::init_free_list(&mut m, DEFAULT_PS_CAPACITY);
                m
            });
            TwoNodes {
                mem,
                copies: [None; 2],
            }
        }
    }

    impl CheckView for TwoNodes {
        fn nodes(&self) -> u16 {
            2
        }
        fn cached(&self, node: u16, _line: Addr) -> Option<LineState> {
            self.copies[node as usize]
        }
        fn mshrs_in_use(&self, _node: u16) -> usize {
            0
        }
        fn home_of(&self, _line: Addr) -> u16 {
            0
        }
        fn proto_mem(&self, node: u16) -> &ProtoMem {
            &self.mem[node as usize]
        }
    }

    const LINE: u64 = 0x80;

    /// Node 1 holds the line exclusively while the home's header is clean:
    /// `excl-not-dirty`, a provisional kind.
    fn rogue() -> TwoNodes {
        let mut v = TwoNodes::new();
        v.copies[1] = Some(LineState::Exclusive);
        v
    }

    fn audit_at(c: &mut Checker, v: &TwoNodes, cycle: u64) {
        c.touch(LINE);
        c.advance(v, Cycle::new(cycle));
    }

    fn kinds(c: &Checker) -> Vec<&'static str> {
        c.violations().iter().map(|v| v.kind).collect()
    }

    #[test]
    fn a_copy_with_a_queued_inval_is_exempt_until_delivered() {
        let v = rogue();
        let mut c = Checker::new(8);
        c.queued(1, MsgType::PInval, LINE);
        audit_at(&mut c, &v, 10);
        c.delivered(1, MsgType::PInval, LINE);
        audit_at(&mut c, &v, 30);
        c.quiesce(&v, Cycle::new(40));
        // First observed after the delivery, not while it was queued.
        let [only] = c.violations() else {
            panic!("{:?}", c.violations());
        };
        assert_eq!(
            (only.kind, only.node, only.line),
            ("excl-not-dirty", 1, LINE)
        );
        assert!(only.detail.contains("(observed at cycle 30c,"), "{only}");
    }

    #[test]
    fn an_inval_delivery_discharges_a_provisional_observation() {
        let mut v = rogue();
        let mut c = Checker::new(8);
        audit_at(&mut c, &v, 10);
        assert!(c.violations().is_empty(), "held, not reported");
        c.queued(1, MsgType::PInval, LINE);
        c.delivered(1, MsgType::PInval, LINE);
        v.copies[1] = None;
        c.quiesce(&v, Cycle::new(20));
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }

    #[test]
    fn a_provisional_observation_surviving_to_quiescence_is_reported() {
        let v = rogue();
        let mut c = Checker::new(8);
        audit_at(&mut c, &v, 10);
        // Delivered to another copy: no discharge.
        c.queued(0, MsgType::PInval, LINE);
        c.delivered(0, MsgType::PInval, LINE);
        c.quiesce(&v, Cycle::new(20));
        assert_eq!(kinds(&c), ["excl-not-dirty"]);
        assert!(
            c.violations()[0]
                .detail
                .ends_with("(observed at cycle 10c, never invalidated)"),
            "{}",
            c.violations()[0]
        );
    }

    #[test]
    fn an_undelivered_inval_at_quiescence_leaks() {
        let v = TwoNodes::new();
        let mut c = Checker::new(8);
        c.queued(1, MsgType::PInval, LINE);
        c.queued(1, MsgType::PInval, LINE);
        c.queued(0, MsgType::PIntervGetX, LINE);
        audit_at(&mut c, &v, 10);
        c.quiesce(&v, Cycle::new(20));
        assert_eq!(kinds(&c), ["inval-leak", "interv-leak"]);
        let leak = &c.violations()[0];
        assert_eq!((leak.node, leak.line), (1, LINE));
        assert_eq!(leak.detail, "2 PInval(s) still queued at quiescence");
    }
}
