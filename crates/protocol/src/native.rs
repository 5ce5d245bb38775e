//! The native (oracle) protocol implementation.
//!
//! This is the dynamic-pointer-allocation coherence protocol expressed
//! directly in Rust over the same byte-level directory structures the PP
//! handlers use. It serves two roles:
//!
//! 1. the "instantaneous oracle" directory of the **ideal machine**
//!    (paper §3.1) — protocol operations in zero time;
//! 2. the reference against which the **emulated PP handlers** are
//!    differentially tested (same inputs ⇒ same directory mutations and
//!    same outgoing messages).
//!
//! Each invocation also reports the Table 3.4 occupancy estimate from
//! [`crate::cost::CostTable`].
//!
//! Invalidation acknowledgements are collected at the home node, which
//! keeps the line `PENDING` (NACKing conflicting requests) until the count
//! drains; see DESIGN.md for the list of protocol simplifications.

use crate::cost::CostTable;
use crate::dir::{DirHeader, Directory, PtrEntry};
use crate::fields::aux;
use crate::mem::ProtoMem;
use crate::msg::{InMsg, Msg, MsgType, ProcMsg};
use flash_engine::{Addr, NodeId};

/// An externally visible action of a protocol handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outgoing {
    /// A message to another node (or a loopback to this node).
    Net(Msg),
    /// A message to the local processor or I/O subsystem.
    Proc(ProcMsg),
    /// Read a 128-byte line from local memory into a data buffer.
    MemRead(Addr),
    /// Write the transaction's data buffer to local memory.
    MemWrite(Addr),
}

/// What [`handle`] did: the handler that ran and its Table 3.4 cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NativeResult {
    /// Name of the PP handler the jump table would have dispatched
    /// (matching the assembly entry symbol).
    pub handler: &'static str,
    /// Estimated FLASH PP occupancy in cycles (from [`CostTable`]).
    pub cost: u64,
    /// Number of invalidations this handler sent.
    pub invals: u32,
}

/// Executes the protocol handler for `msg` against the node's protocol
/// memory, appending actions to `out`.
///
/// The function is deterministic and synchronous: timing is entirely the
/// caller's concern.
pub fn handle(
    msg: &InMsg,
    mem: &mut ProtoMem,
    costs: &CostTable,
    out: &mut Vec<Outgoing>,
) -> NativeResult {
    let mut ctx = Ctx {
        dir: Directory::new(mem),
        costs,
        out,
        msg,
    };
    ctx.dispatch()
}

struct Ctx<'a> {
    dir: Directory<'a>,
    costs: &'a CostTable,
    out: &'a mut Vec<Outgoing>,
    msg: &'a InMsg,
}

impl Ctx<'_> {
    fn dispatch(&mut self) -> NativeResult {
        let local = self.msg.home == self.msg.self_node;
        match (self.msg.mtype, local) {
            (MsgType::PiGet, true) => self.pi_get_local(),
            (MsgType::PiGet, false) => self.forward_request(MsgType::NGet, "pi_get_remote"),
            (MsgType::PiGetX, true) => self.pi_getx_local(),
            (MsgType::PiGetX, false) => self.forward_request(MsgType::NGetX, "pi_getx_remote"),
            (MsgType::PiUpgrade, true) => self.pi_upgrade_local(),
            (MsgType::PiUpgrade, false) => {
                self.forward_request(MsgType::NUpgrade, "pi_upgrade_remote")
            }
            (MsgType::PiWriteback, true) => self.pi_wb_local(),
            (MsgType::PiWriteback, false) => self.forward_data(MsgType::NWriteback, "pi_wb_remote"),
            (MsgType::PiRplHint, true) => self.pi_hint_local(),
            (MsgType::PiRplHint, false) => self.forward_nodata(MsgType::NRplHint, "pi_hint_remote"),
            (MsgType::PiIntervReply, _) => self.pi_interv_reply(),
            (MsgType::PiIntervMiss, _) => self.pi_interv_miss(),
            (MsgType::IoDmaWrite, _) => self.io_dma_write(),
            (MsgType::IoDmaRead, _) => self.io_dma_read(),
            (MsgType::NGet, _) => self.ni_get(),
            (MsgType::NGetX, _) => self.ni_getx(),
            (MsgType::NUpgrade, _) => self.ni_upgrade(),
            (MsgType::NFwdGet, _) => self.ni_fwd(MsgType::PIntervGet, "ni_fwd_get"),
            (MsgType::NFwdGetX, _) => self.ni_fwd(MsgType::PIntervGetX, "ni_fwd_getx"),
            (MsgType::NInval, _) => self.ni_inval(),
            (MsgType::NInvalAck, _) => self.ni_inval_ack(),
            (MsgType::NPut, _) => self.ni_reply(MsgType::PPut, true, "ni_put"),
            (MsgType::NPutX, _) => self.ni_reply(MsgType::PPutX, true, "ni_putx"),
            (MsgType::NUpgAck, _) => self.ni_reply(MsgType::PUpgAck, false, "ni_upgack"),
            (MsgType::NNack, _) => self.ni_nack(),
            (MsgType::NSwb, _) => self.ni_swb(),
            (MsgType::NOwnx, _) => self.ni_ownx(),
            (MsgType::NWriteback, _) => self.ni_wb(),
            (MsgType::NRplHint, _) => self.ni_hint(),
            (MsgType::NIntervMiss, _) => self.ni_interv_miss(),
            (t, _) => unreachable!("outgoing-only message type {t:?} dispatched"),
        }
    }

    // ---- small helpers -------------------------------------------------

    fn me(&self) -> NodeId {
        self.msg.self_node
    }

    fn diraddr(&self) -> u64 {
        self.msg.diraddr
    }

    fn send(&mut self, mtype: MsgType, dst: NodeId, aux: u64, with_data: bool) {
        self.out.push(Outgoing::Net(Msg {
            mtype,
            src: self.me(),
            dst,
            addr: self.msg.addr,
            aux,
            with_data,
        }));
    }

    fn send_proc(&mut self, mtype: MsgType, aux: u64, with_data: bool) {
        self.out.push(Outgoing::Proc(ProcMsg {
            mtype,
            addr: self.msg.addr,
            aux,
            with_data,
        }));
    }

    /// Issues the memory read for a data reply unless the inbox already
    /// issued it speculatively.
    fn read_memory_unless_spec(&mut self) {
        if !self.msg.spec {
            self.out.push(Outgoing::MemRead(self.msg.addr));
        }
    }

    fn result(&self, handler: &'static str, cost: u64, invals: u32) -> NativeResult {
        NativeResult {
            handler,
            cost: cost + self.costs.per_inval * invals as u64,
            invals,
        }
    }

    /// Requester-side forwarding of a processor request to the home node.
    fn forward_request(&mut self, nt: MsgType, handler: &'static str) -> NativeResult {
        let a = aux::pack(self.me(), nt, self.msg.home);
        self.send(nt, self.msg.home, a, false);
        self.result(handler, self.costs.forward_to_home, 0)
    }

    fn forward_data(&mut self, nt: MsgType, handler: &'static str) -> NativeResult {
        let a = aux::pack(self.me(), nt, self.msg.home);
        self.send(nt, self.msg.home, a, true);
        self.result(handler, self.costs.forward_to_home, 0)
    }

    fn forward_nodata(&mut self, nt: MsgType, handler: &'static str) -> NativeResult {
        let a = aux::pack(self.me(), nt, self.msg.home);
        self.send(nt, self.msg.home, a, false);
        self.result(handler, self.costs.forward_to_home, 0)
    }

    /// Invalidates every listed sharer except `skip`, freeing the list.
    /// Returns the number of network invalidations sent.
    fn inval_sharers(&mut self, h: DirHeader, skip: Option<NodeId>, ack_home: NodeId) -> u32 {
        let mut count = 0u32;
        let mut idx = h.head();
        let a = aux::pack(ack_home, MsgType::NInval, ack_home);
        while idx != 0 {
            let e = self.dir.entry(idx);
            let next = e.next();
            if Some(e.node()) != skip {
                self.out.push(Outgoing::Net(Msg {
                    mtype: MsgType::NInval,
                    src: self.me(),
                    dst: e.node(),
                    addr: self.msg.addr,
                    aux: a,
                    with_data: false,
                }));
                count += 1;
            }
            self.dir.free_entry(idx);
            idx = next;
        }
        count
    }

    /// Adds `node` to the sharer list. On pointer-store exhaustion the
    /// caller falls back to an exclusive grant (`false` return).
    fn add_sharer(&mut self, h: &mut DirHeader, node: NodeId) -> bool {
        match self.dir.alloc_entry() {
            Some(idx) => {
                self.dir.set_entry(idx, PtrEntry::new(node, h.head()));
                *h = h.with_head(idx);
                true
            }
            None => false,
        }
    }

    /// Removes `node` from the sharer list if present. Returns
    /// `(found, nodes_walked)`.
    fn remove_sharer(&mut self, h: &mut DirHeader, node: NodeId) -> (bool, u32) {
        let mut walked = 0;
        let mut prev: Option<u16> = None;
        let mut idx = h.head();
        while idx != 0 {
            let e = self.dir.entry(idx);
            walked += 1;
            if e.node() == node {
                match prev {
                    None => *h = h.with_head(e.next()),
                    Some(p) => {
                        let pe = self.dir.entry(p);
                        self.dir.set_entry(p, pe.with_next(e.next()));
                    }
                }
                self.dir.free_entry(idx);
                return (true, walked);
            }
            prev = Some(idx);
            idx = e.next();
        }
        (false, walked)
    }

    // ---- PI handlers (home == self unless noted) ------------------------

    fn pi_get_local(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        if h.pending() {
            self.send_proc(MsgType::PNackRetry, 0, false);
            return self.result("pi_get_local", self.costs.nack_retry, 0);
        }
        let mut h = h;
        if h.dirty() {
            if h.owner() == self.me() {
                // The local processor is re-requesting a line recorded as
                // dirty here: its copy is gone; self-repair.
                h = h.with_dirty(false);
            } else {
                self.dir.set_header(da, h.with_pending(true));
                let a = aux::pack(self.me(), MsgType::NGet, self.me());
                self.send(MsgType::NFwdGet, h.owner(), a, false);
                return self.result("pi_get_local", self.costs.forward_to_dirty, 0);
            }
        }
        // Clean: serve from memory.
        self.dir.set_header(da, h.with_local(true));
        self.read_memory_unless_spec();
        self.send_proc(MsgType::PPut, 0, true);
        self.result("pi_get_local", self.costs.read_from_memory, 0)
    }

    fn pi_getx_local(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        if h.pending() {
            self.send_proc(MsgType::PNackRetry, 0, false);
            return self.result("pi_getx_local", self.costs.nack_retry, 0);
        }
        let mut h = h;
        if h.dirty() {
            if h.owner() == self.me() {
                h = h.with_dirty(false); // self-repair, as in pi_get_local
            } else {
                self.dir.set_header(da, h.with_pending(true));
                let a = aux::pack(self.me(), MsgType::NGetX, self.me());
                self.send(MsgType::NFwdGetX, h.owner(), a, false);
                return self.result("pi_getx_local", self.costs.forward_to_dirty, 0);
            }
        }
        let invals = self.inval_sharers(h, Some(self.me()), self.me());
        h = h
            .with_head(0)
            .with_dirty(true)
            .with_owner(self.me())
            .with_local(true)
            .with_acks(invals as u16)
            .with_pending(invals > 0);
        self.dir.set_header(da, h);
        self.read_memory_unless_spec();
        self.send_proc(MsgType::PPutX, 0, true);
        self.result("pi_getx_local", self.costs.write_from_memory, invals)
    }

    fn pi_upgrade_local(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        if h.pending() {
            self.send_proc(MsgType::PNackRetry, 0, false);
            return self.result("pi_upgrade_local", self.costs.nack_retry, 0);
        }
        let mut h = h;
        if h.dirty() {
            if h.owner() == self.me() {
                // Self-repair, as in pi_get_local: the local processor is
                // upgrading a line recorded dirty here, so its exclusive
                // copy is gone; fall through to the data-grant path.
                h = h.with_dirty(false);
                self.dir.set_header(da, h);
            } else {
                // Our shared copy was stolen and the line went dirty
                // elsewhere: the upgrade now needs data; treat as a write
                // miss.
                self.dir.set_header(da, h.with_pending(true));
                let a = aux::pack(self.me(), MsgType::NGetX, self.me());
                self.send(MsgType::NFwdGetX, h.owner(), a, false);
                return self.result("pi_upgrade_local", self.costs.forward_to_dirty, 0);
            }
        }
        if !h.local() {
            // Copy invalidated while the upgrade was in flight: needs data.
            let invals = self.inval_sharers(h, Some(self.me()), self.me());
            h = h
                .with_head(0)
                .with_dirty(true)
                .with_owner(self.me())
                .with_local(true)
                .with_acks(invals as u16)
                .with_pending(invals > 0);
            self.dir.set_header(da, h);
            self.out.push(Outgoing::MemRead(self.msg.addr));
            self.send_proc(MsgType::PPutX, 0, true);
            return self.result("pi_upgrade_local", self.costs.write_from_memory, invals);
        }
        let invals = self.inval_sharers(h, Some(self.me()), self.me());
        h = h
            .with_head(0)
            .with_dirty(true)
            .with_owner(self.me())
            .with_local(true)
            .with_acks(invals as u16)
            .with_pending(invals > 0);
        self.dir.set_header(da, h);
        self.send_proc(MsgType::PUpgAck, 0, false);
        self.result("pi_upgrade_local", self.costs.write_from_memory, invals)
    }

    fn pi_wb_local(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        self.out.push(Outgoing::MemWrite(self.msg.addr));
        // A pending forward racing with this writeback resolves via the
        // intervention-miss NACK; clearing pending here lets the retry win.
        self.dir.set_header(
            da,
            h.with_dirty(false).with_local(false).with_pending(false),
        );
        self.result("pi_wb_local", self.costs.local_writeback, 0)
    }

    fn pi_hint_local(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        self.dir.set_header(da, h.with_local(false));
        self.result("pi_hint_local", self.costs.local_hint, 0)
    }

    fn pi_interv_reply(&mut self) -> NativeResult {
        let a = self.msg.aux;
        let req = aux::requester(a);
        let orig = aux::orig_type(a);
        let home = aux::home(a);
        if orig == MsgType::NGet {
            if home == self.me() {
                // Dirty in the home's own cache: share it.
                let da = self.diraddr();
                let h0 = self.dir.header(da);
                // Planted bug (`planted-bugs`, test-only): drop the
                // stale-local-reply NACK guard, re-introducing the
                // historical race where a stale intervention reply
                // rewrites an already-resolved header. The translated PP
                // backend keeps the guard, so the oracle flags the
                // divergence.
                if !h0.pending() && !cfg!(feature = "planted-bugs") {
                    // Stale local intervention reply: a local writeback
                    // raced the deferred intervention and already
                    // resolved this transaction (clearing PENDING and
                    // writing memory), so the copy the intervention
                    // consumed was a clean re-fetch. Granting now would
                    // rewrite a header that may already record a newer
                    // owner. NACK the requester so it retries against
                    // the current directory state. PENDING is the only
                    // sound discriminator: while it is set no new request
                    // is admitted and proc->MAGIC delivery is FIFO, so a
                    // still-pending header can only belong to this very
                    // intervention. DIRTY/LOCAL may legitimately be stale
                    // (a racing replacement hint clears LOCAL without
                    // resolving the transaction); gating on them livelocks
                    // the requester against a forever-pending line.
                    self.send(MsgType::NNack, req, a, false);
                    return self.result("pi_interv_reply", self.costs.nack_retry, 0);
                }
                let mut h = h0.with_dirty(false).with_pending(false).with_local(true);
                self.out.push(Outgoing::MemWrite(self.msg.addr));
                if self.add_sharer(&mut h, req) {
                    self.dir.set_header(da, h);
                    self.send(MsgType::NPut, req, a, true);
                } else {
                    // Pointer store exhausted: grant exclusive instead.
                    let h = h.with_dirty(true).with_owner(req).with_local(false);
                    self.dir.set_header(da, h);
                    self.send_proc(MsgType::PInval, 0, false);
                    self.send(MsgType::NPutX, req, a, true);
                }
            } else {
                self.send(MsgType::NPut, req, a, true);
                self.send(MsgType::NSwb, home, a, true);
            }
        } else {
            // NGetX: ownership moves to the requester.
            if home == self.me() {
                let da = self.diraddr();
                let h0 = self.dir.header(da);
                if !h0.pending() && !cfg!(feature = "planted-bugs") {
                    // Same stale-local-reply race as the NGet branch
                    // (and the same planted-bug gate as above).
                    self.send(MsgType::NNack, req, a, false);
                    return self.result("pi_interv_reply", self.costs.nack_retry, 0);
                }
                let h = h0.with_owner(req).with_local(false).with_pending(false);
                self.dir.set_header(da, h);
                self.send(MsgType::NPutX, req, a, true);
            } else {
                self.send(MsgType::NPutX, req, a, true);
                self.send(MsgType::NOwnx, home, a, false);
            }
        }
        self.result("pi_interv_reply", self.costs.retrieve_from_cache, 0)
    }

    fn pi_interv_miss(&mut self) -> NativeResult {
        // The owner no longer holds the line (its writeback is in flight,
        // or a stale intervention consumed the copy). NACK the requester
        // and tell the home to abandon the pending transaction.
        let a = self.msg.aux;
        self.send(MsgType::NNack, aux::requester(a), a, false);
        self.send(MsgType::NIntervMiss, aux::home(a), a, false);
        self.result("pi_interv_miss", self.costs.nack_retry, 0)
    }

    fn ni_interv_miss(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        if h.pending() && h.dirty() && h.owner() == self.msg.src {
            // Abandon: the recorded owner has no copy; serve future
            // retries from memory.
            self.dir
                .set_header(da, h.with_pending(false).with_dirty(false));
        }
        self.result("ni_interv_miss", self.costs.nack_retry, 0)
    }

    fn io_dma_write(&mut self) -> NativeResult {
        let da = self.diraddr();
        let mut h = self.dir.header(da);
        let mut invals = self.inval_sharers(h, None, self.me());
        h = h.with_head(0);
        if h.dirty() && h.owner() != self.me() {
            // Drop the stale exclusive copy; DMA data supersedes it.
            let a = aux::pack(self.me(), MsgType::NInval, self.me());
            self.send(MsgType::NInval, h.owner(), a, false);
            invals += 1;
        }
        if h.local() {
            self.send_proc(MsgType::PInval, 0, false);
        }
        h = h
            .with_dirty(false)
            .with_local(false)
            .with_acks(invals as u16)
            .with_pending(invals > 0);
        self.dir.set_header(da, h);
        self.out.push(Outgoing::MemWrite(self.msg.addr));
        self.result("io_dma_write", self.costs.write_from_memory, invals)
    }

    fn io_dma_read(&mut self) -> NativeResult {
        self.out.push(Outgoing::MemRead(self.msg.addr));
        self.send_proc(MsgType::PIoData, 0, true);
        self.result("io_dma_read", self.costs.read_from_memory, 0)
    }

    // ---- NI handlers -----------------------------------------------------

    fn ni_get(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        let a = self.msg.aux;
        let req = aux::requester(a);
        if h.pending() {
            self.send(MsgType::NNack, req, a, false);
            return self.result("ni_get", self.costs.nack_retry, 0);
        }
        let mut h = h;
        if h.dirty() {
            if h.owner() == req {
                // The requester is the recorded owner yet is requesting the
                // line: it no longer holds a copy (its writeback is in
                // flight, or a raced intervention consumed it). Self-repair
                // by serving from memory; a late writeback is dropped by
                // the owner check in ni_wb.
                h = h.with_dirty(false);
                self.dir.set_header(da, h);
            } else {
                self.dir.set_header(da, h.with_pending(true));
                if h.owner() == self.me() {
                    self.send_proc(
                        MsgType::PIntervGet,
                        aux::pack(req, MsgType::NGet, self.me()),
                        false,
                    );
                } else {
                    self.send(
                        MsgType::NFwdGet,
                        h.owner(),
                        aux::pack(req, MsgType::NGet, self.me()),
                        false,
                    );
                }
                return self.result("ni_get", self.costs.forward_to_dirty, 0);
            }
        }
        if req == self.me() {
            // Loopback retry of a local miss.
            h = h.with_local(true);
            self.dir.set_header(da, h);
            self.read_memory_unless_spec();
            self.send(MsgType::NPut, req, a, true);
            return self.result("ni_get", self.costs.read_from_memory, 0);
        }
        if self.add_sharer(&mut h, req) {
            self.dir.set_header(da, h);
            self.read_memory_unless_spec();
            self.send(MsgType::NPut, req, a, true);
            self.result("ni_get", self.costs.read_from_memory, 0)
        } else {
            // Pointer store exhausted: reclaim this line's own list by
            // invalidating its sharers and granting the requester an
            // exclusive copy.
            let invals = self.inval_sharers(h, Some(req), self.me());
            let mut h = h
                .with_head(0)
                .with_dirty(true)
                .with_owner(req)
                .with_acks(invals as u16);
            if h.local() {
                self.send_proc(MsgType::PInval, 0, false);
                h = h.with_local(false);
            }
            h = h.with_pending(invals > 0);
            self.dir.set_header(da, h);
            self.read_memory_unless_spec();
            self.send(MsgType::NPutX, req, a, true);
            self.result("ni_get", self.costs.read_from_memory, invals)
        }
    }

    fn ni_getx(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        let a = self.msg.aux;
        let req = aux::requester(a);
        if h.pending() {
            self.send(MsgType::NNack, req, a, false);
            return self.result("ni_getx", self.costs.nack_retry, 0);
        }
        let mut h = h;
        if h.dirty() {
            if h.owner() == req {
                // Self-repair: the recorded owner is re-requesting.
                h = h.with_dirty(false);
                self.dir.set_header(da, h);
            } else {
                self.dir.set_header(da, h.with_pending(true));
                if h.owner() == self.me() {
                    self.send_proc(
                        MsgType::PIntervGetX,
                        aux::pack(req, MsgType::NGetX, self.me()),
                        false,
                    );
                } else {
                    self.send(
                        MsgType::NFwdGetX,
                        h.owner(),
                        aux::pack(req, MsgType::NGetX, self.me()),
                        false,
                    );
                }
                return self.result("ni_getx", self.costs.forward_to_dirty, 0);
            }
        }
        let invals = self.inval_sharers(h, Some(req), self.me());
        if h.local() && req != self.me() {
            self.send_proc(MsgType::PInval, 0, false);
        }
        h = h
            .with_head(0)
            .with_dirty(true)
            .with_owner(req)
            .with_local(req == self.me())
            .with_acks(invals as u16)
            .with_pending(invals > 0);
        self.dir.set_header(da, h);
        self.read_memory_unless_spec();
        self.send(MsgType::NPutX, req, a, true);
        self.result("ni_getx", self.costs.write_from_memory, invals)
    }

    fn ni_upgrade(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        let a = self.msg.aux;
        let req = aux::requester(a);
        if h.pending() {
            self.send(MsgType::NNack, req, a, false);
            return self.result("ni_upgrade", self.costs.nack_retry, 0);
        }
        let mut h = h;
        if h.dirty() {
            if h.owner() == req {
                // Self-repair: the recorded owner is re-requesting.
                h = h.with_dirty(false);
                self.dir.set_header(da, h);
            } else {
                self.dir.set_header(da, h.with_pending(true));
                if h.owner() == self.me() {
                    self.send_proc(
                        MsgType::PIntervGetX,
                        aux::pack(req, MsgType::NGetX, self.me()),
                        false,
                    );
                } else {
                    self.send(
                        MsgType::NFwdGetX,
                        h.owner(),
                        aux::pack(req, MsgType::NGetX, self.me()),
                        false,
                    );
                }
                return self.result("ni_upgrade", self.costs.forward_to_dirty, 0);
            }
        }
        // One walk, as the PP handler does it: free every entry, count
        // invalidations for everyone but the requester (whose possible
        // duplicate entries must not be invalidated under its own feet).
        let found = self.dir.sharers(da).contains(&req);
        let invals = self.inval_sharers(h, Some(req), self.me());
        if h.local() {
            self.send_proc(MsgType::PInval, 0, false);
        }
        h = h
            .with_head(0)
            .with_dirty(true)
            .with_owner(req)
            .with_local(false)
            .with_acks(invals as u16)
            .with_pending(invals > 0);
        self.dir.set_header(da, h);
        if found {
            self.send(MsgType::NUpgAck, req, a, false);
        } else {
            // The requester's copy was already invalidated: send data.
            self.out.push(Outgoing::MemRead(self.msg.addr));
            self.send(MsgType::NPutX, req, a, true);
        }
        self.result("ni_upgrade", self.costs.write_from_memory, invals)
    }

    fn ni_fwd(&mut self, interv: MsgType, handler: &'static str) -> NativeResult {
        self.send_proc(interv, self.msg.aux, false);
        self.result(handler, self.costs.reply_to_processor, 0)
    }

    fn ni_inval(&mut self) -> NativeResult {
        let a = self.msg.aux;
        self.send_proc(MsgType::PInval, 0, false);
        self.send(MsgType::NInvalAck, aux::home(a), a, false);
        self.result("ni_inval", self.costs.inval_receive, 0)
    }

    fn ni_inval_ack(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        if h.acks() > 0 {
            let n = h.acks() - 1;
            let h = h.with_acks(n).with_pending(n > 0);
            self.dir.set_header(da, h);
        }
        self.result("ni_inval_ack", self.costs.inval_ack, 0)
    }

    fn ni_reply(&mut self, ptype: MsgType, with_data: bool, handler: &'static str) -> NativeResult {
        self.send_proc(ptype, self.msg.aux, with_data);
        self.result(handler, self.costs.reply_to_processor, 0)
    }

    fn ni_nack(&mut self) -> NativeResult {
        // Retry the original request against the home node.
        let a = self.msg.aux;
        let orig = aux::orig_type(a);
        let home = aux::home(a);
        self.send(orig, home, a, false);
        self.result("ni_nack", self.costs.nack_retry, 0)
    }

    fn ni_swb(&mut self) -> NativeResult {
        let da = self.diraddr();
        let a = self.msg.aux;
        let req = aux::requester(a);
        let old_owner = self.msg.src;
        let h0 = self.dir.header(da);
        if !(h0.pending() && h0.dirty() && h0.owner() == old_owner) {
            // Stale sharing writeback (the transaction was abandoned or
            // superseded): drop the data and invalidate the rogue copies.
            let ia = aux::pack(self.me(), MsgType::NInval, self.me());
            for n in [req, old_owner] {
                if n == self.me() {
                    self.send_proc(MsgType::PInval, 0, false);
                } else {
                    self.send(MsgType::NInval, n, ia, false);
                }
            }
            return self.result("ni_swb", self.costs.swb_receive, 0);
        }
        let mut h = h0.with_dirty(false).with_pending(false);
        self.out.push(Outgoing::MemWrite(self.msg.addr));
        for n in [req, old_owner] {
            if n == self.me() {
                h = h.with_local(true);
            } else if !self.add_sharer(&mut h, n) {
                // Exhausted: drop this copy with a fire-and-forget inval.
                let ia = aux::pack(self.me(), MsgType::NInval, self.me());
                self.send(MsgType::NInval, n, ia, false);
            }
        }
        self.dir.set_header(da, h);
        self.result("ni_swb", self.costs.swb_receive, 0)
    }

    fn ni_ownx(&mut self) -> NativeResult {
        let da = self.diraddr();
        let a = self.msg.aux;
        let req = aux::requester(a);
        let h0 = self.dir.header(da);
        if !(h0.pending() && h0.dirty() && h0.owner() == self.msg.src) {
            // Stale ownership transfer: invalidate the rogue exclusive
            // copy the old owner handed out.
            if req == self.me() {
                self.send_proc(MsgType::PInval, 0, false);
            } else {
                let ia = aux::pack(self.me(), MsgType::NInval, self.me());
                self.send(MsgType::NInval, req, ia, false);
            }
            return self.result("ni_ownx", self.costs.swb_receive, 0);
        }
        let h = h0
            .with_dirty(true)
            .with_owner(req)
            .with_local(req == self.me())
            .with_pending(false);
        self.dir.set_header(da, h);
        self.result("ni_ownx", self.costs.swb_receive, 0)
    }

    fn ni_wb(&mut self) -> NativeResult {
        let da = self.diraddr();
        let h = self.dir.header(da);
        if h.dirty() && h.owner() == self.msg.src {
            self.out.push(Outgoing::MemWrite(self.msg.addr));
            self.dir
                .set_header(da, h.with_dirty(false).with_pending(false));
        }
        // Otherwise ownership already moved on: the data is stale; drop it.
        self.result("ni_wb", self.costs.remote_writeback, 0)
    }

    fn ni_hint(&mut self) -> NativeResult {
        let da = self.diraddr();
        let mut h = self.dir.header(da);
        let (found, walked) = self.remove_sharer(&mut h, self.msg.src);
        if found {
            self.dir.set_header(da, h);
        }
        let cost = if walked <= 1 {
            self.costs.remote_hint_only
        } else {
            self.costs.remote_hint_base + self.costs.remote_hint_per_node * walked as u64
        };
        self.result("ni_hint", cost, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::{dir_addr, DEFAULT_PS_CAPACITY};

    fn mk_mem() -> ProtoMem {
        let mut mem = ProtoMem::new();
        Directory::init_free_list(&mut mem, DEFAULT_PS_CAPACITY);
        mem
    }

    fn msg(mtype: MsgType, me: u16, home: u16, addr: u64) -> InMsg {
        InMsg {
            mtype,
            src: NodeId(me),
            addr: Addr::new(addr),
            aux: 0,
            spec: false,
            self_node: NodeId(me),
            home: NodeId(home),
            diraddr: dir_addr(Addr::new(addr)),
            with_data: mtype.carries_data(),
        }
    }

    fn run(m: &InMsg, mem: &mut ProtoMem) -> (Vec<Outgoing>, NativeResult) {
        let mut out = Vec::new();
        let costs = CostTable::paper();
        let r = handle(m, mem, &costs, &mut out);
        (out, r)
    }

    #[test]
    fn local_read_miss_clean() {
        let mut mem = mk_mem();
        let m = msg(MsgType::PiGet, 0, 0, 0x1000);
        let (out, r) = run(&m, &mut mem);
        assert_eq!(r.handler, "pi_get_local");
        assert_eq!(r.cost, 11);
        assert!(matches!(out[0], Outgoing::MemRead(a) if a == Addr::new(0x1000)));
        assert!(matches!(
            out[1],
            Outgoing::Proc(p) if p.mtype == MsgType::PPut && p.with_data
        ));
        let mut mem2 = mem.clone();
        let d = Directory::new(&mut mem2);
        assert!(d.header(dir_addr(Addr::new(0x1000))).local());
    }

    #[test]
    fn local_read_miss_spec_skips_memread() {
        let mut mem = mk_mem();
        let mut m = msg(MsgType::PiGet, 0, 0, 0x1000);
        m.spec = true;
        let (out, _) = run(&m, &mut mem);
        assert!(out.iter().all(|o| !matches!(o, Outgoing::MemRead(_))));
    }

    #[test]
    fn remote_read_forwards_to_home() {
        let mut mem = mk_mem();
        let m = msg(MsgType::PiGet, 1, 3, 0x2000);
        let (out, r) = run(&m, &mut mem);
        assert_eq!(r.cost, 3);
        match out[0] {
            Outgoing::Net(n) => {
                assert_eq!(n.mtype, MsgType::NGet);
                assert_eq!(n.dst, NodeId(3));
                assert_eq!(aux::requester(n.aux), NodeId(1));
                assert_eq!(aux::home(n.aux), NodeId(3));
            }
            ref o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn home_get_clean_adds_sharer_and_replies() {
        let mut mem = mk_mem();
        let mut m = msg(MsgType::NGet, 3, 3, 0x2000);
        m.src = NodeId(1);
        m.aux = aux::pack(NodeId(1), MsgType::NGet, NodeId(3));
        let (out, r) = run(&m, &mut mem);
        assert_eq!(r.handler, "ni_get");
        assert!(out
            .iter()
            .any(|o| matches!(o, Outgoing::Net(n) if n.mtype == MsgType::NPut && n.dst == NodeId(1) && n.with_data)));
        let d = Directory::new(&mut mem);
        assert_eq!(d.sharers(dir_addr(Addr::new(0x2000))), vec![NodeId(1)]);
    }

    #[test]
    fn home_get_dirty_remote_forwards() {
        let mut mem = mk_mem();
        {
            let mut d = Directory::new(&mut mem);
            let da = dir_addr(Addr::new(0x2000));
            d.set_header(
                da,
                DirHeader::default().with_dirty(true).with_owner(NodeId(7)),
            );
        }
        let mut m = msg(MsgType::NGet, 3, 3, 0x2000);
        m.aux = aux::pack(NodeId(1), MsgType::NGet, NodeId(3));
        let (out, r) = run(&m, &mut mem);
        assert_eq!(r.cost, 18);
        match out[0] {
            Outgoing::Net(n) => {
                assert_eq!(n.mtype, MsgType::NFwdGet);
                assert_eq!(n.dst, NodeId(7));
                assert_eq!(aux::requester(n.aux), NodeId(1));
            }
            ref o => panic!("unexpected {o:?}"),
        }
        let d = Directory::new(&mut mem);
        assert!(d.header(dir_addr(Addr::new(0x2000))).pending());
    }

    #[test]
    fn pending_line_nacks() {
        let mut mem = mk_mem();
        {
            let mut d = Directory::new(&mut mem);
            d.set_header(
                dir_addr(Addr::new(0x2000)),
                DirHeader::default().with_pending(true),
            );
        }
        let mut m = msg(MsgType::NGet, 3, 3, 0x2000);
        m.aux = aux::pack(NodeId(1), MsgType::NGet, NodeId(3));
        let (out, _) = run(&m, &mut mem);
        assert!(matches!(
            out[0],
            Outgoing::Net(n) if n.mtype == MsgType::NNack && n.dst == NodeId(1)
        ));
    }

    #[test]
    fn getx_invalidates_sharers_and_collects_acks() {
        let mut mem = mk_mem();
        let da = dir_addr(Addr::new(0x4000));
        // Sharers 1, 2, 4; requester 2 must be skipped.
        {
            let mut d = Directory::new(&mut mem);
            let mut h = DirHeader::default();
            for n in [1u16, 2, 4] {
                let idx = d.alloc_entry().unwrap();
                d.set_entry(idx, PtrEntry::new(NodeId(n), h.head()));
                h = h.with_head(idx);
            }
            d.set_header(da, h);
        }
        let mut m = msg(MsgType::NGetX, 3, 3, 0x4000);
        m.aux = aux::pack(NodeId(2), MsgType::NGetX, NodeId(3));
        let (out, r) = run(&m, &mut mem);
        assert_eq!(r.invals, 2);
        let invals: Vec<NodeId> = out
            .iter()
            .filter_map(|o| match o {
                Outgoing::Net(n) if n.mtype == MsgType::NInval => Some(n.dst),
                _ => None,
            })
            .collect();
        assert_eq!(invals.len(), 2);
        assert!(invals.contains(&NodeId(1)) && invals.contains(&NodeId(4)));
        let d = Directory::new(&mut mem);
        let h = d.header(da);
        assert!(h.dirty() && h.pending());
        assert_eq!(h.owner(), NodeId(2));
        assert_eq!(h.acks(), 2);
        assert_eq!(h.head(), 0);
        // Entries were returned to the free list.
        assert_eq!(d.free_entries(), DEFAULT_PS_CAPACITY as usize);
    }

    #[test]
    fn inval_acks_drain_pending() {
        let mut mem = mk_mem();
        let da = dir_addr(Addr::new(0x4000));
        {
            let mut d = Directory::new(&mut mem);
            d.set_header(da, DirHeader::default().with_pending(true).with_acks(2));
        }
        let m = msg(MsgType::NInvalAck, 3, 3, 0x4000);
        run(&m, &mut mem);
        {
            let d = Directory::new(&mut mem);
            let h = d.header(da);
            assert!(h.pending());
            assert_eq!(h.acks(), 1);
        }
        run(&m, &mut mem);
        let d = Directory::new(&mut mem);
        let h = d.header(da);
        assert!(!h.pending());
        assert_eq!(h.acks(), 0);
    }

    #[test]
    fn writeback_clears_dirty_only_for_current_owner() {
        let mut mem = mk_mem();
        let da = dir_addr(Addr::new(0x5000));
        {
            let mut d = Directory::new(&mut mem);
            d.set_header(
                da,
                DirHeader::default().with_dirty(true).with_owner(NodeId(5)),
            );
        }
        // Stale writeback from node 4: ignored.
        let mut m = msg(MsgType::NWriteback, 3, 3, 0x5000);
        m.src = NodeId(4);
        let (out, _) = run(&m, &mut mem);
        assert!(out.is_empty());
        // Real writeback from node 5.
        m.src = NodeId(5);
        let (out, _) = run(&m, &mut mem);
        assert!(matches!(out[0], Outgoing::MemWrite(_)));
        let d = Directory::new(&mut mem);
        assert!(!d.header(da).dirty());
    }

    #[test]
    fn sharing_writeback_records_both_sharers() {
        let mut mem = mk_mem();
        let da = dir_addr(Addr::new(0x6000));
        {
            let mut d = Directory::new(&mut mem);
            d.set_header(
                da,
                DirHeader::default()
                    .with_dirty(true)
                    .with_owner(NodeId(7))
                    .with_pending(true),
            );
        }
        let mut m = msg(MsgType::NSwb, 3, 3, 0x6000);
        m.src = NodeId(7);
        m.aux = aux::pack(NodeId(1), MsgType::NGet, NodeId(3));
        let (out, _) = run(&m, &mut mem);
        assert!(matches!(out[0], Outgoing::MemWrite(_)));
        let d = Directory::new(&mut mem);
        let h = d.header(da);
        assert!(!h.dirty() && !h.pending());
        let sharers = d.sharers(da);
        assert!(sharers.contains(&NodeId(1)) && sharers.contains(&NodeId(7)));
    }

    #[test]
    fn hint_removes_nth_sharer_with_walk_cost() {
        let mut mem = mk_mem();
        let da = dir_addr(Addr::new(0x7000));
        {
            let mut d = Directory::new(&mut mem);
            let mut h = DirHeader::default();
            for n in [1u16, 2, 4, 5] {
                let idx = d.alloc_entry().unwrap();
                d.set_entry(idx, PtrEntry::new(NodeId(n), h.head()));
                h = h.with_head(idx);
            }
            d.set_header(da, h);
        }
        // List head is 5 (LIFO); removing node 1 walks the full list.
        let mut m = msg(MsgType::NRplHint, 3, 3, 0x7000);
        m.src = NodeId(1);
        let (_, r) = run(&m, &mut mem);
        assert_eq!(r.cost, 23 + 14 * 4);
        let d = Directory::new(&mut mem);
        assert_eq!(d.sharers(da), vec![NodeId(5), NodeId(4), NodeId(2)]);
    }

    #[test]
    fn upgrade_with_valid_copy_gets_ack_without_data() {
        let mut mem = mk_mem();
        let da = dir_addr(Addr::new(0x8000));
        {
            let mut d = Directory::new(&mut mem);
            let mut h = DirHeader::default();
            let idx = d.alloc_entry().unwrap();
            d.set_entry(idx, PtrEntry::new(NodeId(2), 0));
            h = h.with_head(idx);
            d.set_header(da, h);
        }
        let mut m = msg(MsgType::NUpgrade, 3, 3, 0x8000);
        m.aux = aux::pack(NodeId(2), MsgType::NUpgrade, NodeId(3));
        let (out, _) = run(&m, &mut mem);
        assert!(out
            .iter()
            .any(|o| matches!(o, Outgoing::Net(n) if n.mtype == MsgType::NUpgAck && !n.with_data)));
        let d = Directory::new(&mut mem);
        let h = d.header(da);
        assert!(h.dirty());
        assert_eq!(h.owner(), NodeId(2));
    }

    #[test]
    fn upgrade_with_lost_copy_gets_data() {
        let mut mem = mk_mem();
        let mut m = msg(MsgType::NUpgrade, 3, 3, 0x8000);
        m.aux = aux::pack(NodeId(2), MsgType::NUpgrade, NodeId(3));
        let (out, _) = run(&m, &mut mem);
        assert!(out
            .iter()
            .any(|o| matches!(o, Outgoing::Net(n) if n.mtype == MsgType::NPutX && n.with_data)));
    }

    #[test]
    fn interv_reply_at_third_node_sends_put_and_swb() {
        let mut mem = mk_mem();
        let mut m = msg(MsgType::PiIntervReply, 7, 3, 0x6000);
        m.aux = aux::pack(NodeId(1), MsgType::NGet, NodeId(3));
        let (out, r) = run(&m, &mut mem);
        assert_eq!(r.cost, 38);
        assert!(
            matches!(out[0], Outgoing::Net(n) if n.mtype == MsgType::NPut && n.dst == NodeId(1))
        );
        assert!(
            matches!(out[1], Outgoing::Net(n) if n.mtype == MsgType::NSwb && n.dst == NodeId(3))
        );
    }

    #[test]
    fn interv_miss_nacks_requester() {
        let mut mem = mk_mem();
        let mut m = msg(MsgType::PiIntervMiss, 7, 3, 0x6000);
        m.aux = aux::pack(NodeId(1), MsgType::NGet, NodeId(3));
        let (out, _) = run(&m, &mut mem);
        assert!(
            matches!(out[0], Outgoing::Net(n) if n.mtype == MsgType::NNack && n.dst == NodeId(1))
        );
    }

    #[test]
    fn nack_retries_original_request() {
        let mut mem = mk_mem();
        let mut m = msg(MsgType::NNack, 1, 3, 0x6000);
        m.aux = aux::pack(NodeId(1), MsgType::NGetX, NodeId(3));
        let (out, _) = run(&m, &mut mem);
        assert!(matches!(
            out[0],
            Outgoing::Net(n) if n.mtype == MsgType::NGetX && n.dst == NodeId(3)
        ));
    }

    #[test]
    fn dma_write_invalidates_and_writes() {
        let mut mem = mk_mem();
        let da = dir_addr(Addr::new(0x9000));
        {
            let mut d = Directory::new(&mut mem);
            let idx = d.alloc_entry().unwrap();
            d.set_entry(idx, PtrEntry::new(NodeId(2), 0));
            d.set_header(da, DirHeader::default().with_head(idx).with_local(true));
        }
        let m = msg(MsgType::IoDmaWrite, 3, 3, 0x9000);
        let (out, r) = run(&m, &mut mem);
        assert_eq!(r.invals, 1);
        assert!(out
            .iter()
            .any(|o| matches!(o, Outgoing::Proc(p) if p.mtype == MsgType::PInval)));
        assert!(out.iter().any(|o| matches!(o, Outgoing::MemWrite(_))));
        let d = Directory::new(&mut mem);
        let h = d.header(da);
        assert!(!h.local() && h.pending());
        assert_eq!(h.acks(), 1);
    }

    #[test]
    fn replies_forward_to_processor() {
        let mut mem = mk_mem();
        for (nt, pt, data) in [
            (MsgType::NPut, MsgType::PPut, true),
            (MsgType::NPutX, MsgType::PPutX, true),
            (MsgType::NUpgAck, MsgType::PUpgAck, false),
        ] {
            let mut m = msg(nt, 1, 3, 0xa000);
            m.with_data = data;
            let (out, r) = run(&m, &mut mem);
            assert_eq!(r.cost, 2);
            assert!(matches!(out[0], Outgoing::Proc(p) if p.mtype == pt && p.with_data == data));
        }
    }

    #[test]
    fn local_writeback_and_hint() {
        let mut mem = mk_mem();
        let da = dir_addr(Addr::new(0xb000));
        {
            let mut d = Directory::new(&mut mem);
            d.set_header(
                da,
                DirHeader::default()
                    .with_dirty(true)
                    .with_owner(NodeId(0))
                    .with_local(true),
            );
        }
        let m = msg(MsgType::PiWriteback, 0, 0, 0xb000);
        let (out, r) = run(&m, &mut mem);
        assert_eq!(r.cost, 10);
        assert!(matches!(out[0], Outgoing::MemWrite(_)));
        {
            let d = Directory::new(&mut mem);
            assert!(!d.header(da).dirty());
        }
        // Hint on a shared line.
        {
            let mut d = Directory::new(&mut mem);
            d.set_header(da, DirHeader::default().with_local(true));
        }
        let m = msg(MsgType::PiRplHint, 0, 0, 0xb000);
        let (_, r) = run(&m, &mut mem);
        assert_eq!(r.cost, 7);
        let d = Directory::new(&mut mem);
        assert!(!d.header(da).local());
    }

    #[test]
    fn pointer_exhaustion_grants_exclusive() {
        let mut mem = ProtoMem::new();
        Directory::init_free_list(&mut mem, 1);
        let da = dir_addr(Addr::new(0xc000));
        // First sharer consumes the only entry.
        let mut m = msg(MsgType::NGet, 3, 3, 0xc000);
        m.aux = aux::pack(NodeId(1), MsgType::NGet, NodeId(3));
        run(&m, &mut mem);
        {
            let d = Directory::new(&mut mem);
            assert_eq!(d.sharers(da), vec![NodeId(1)]);
        }
        // Second sharer finds the store exhausted: line goes exclusive,
        // the old sharer is invalidated.
        let mut m2 = msg(MsgType::NGet, 3, 3, 0xc000);
        m2.aux = aux::pack(NodeId(2), MsgType::NGet, NodeId(3));
        let (out, _) = run(&m2, &mut mem);
        assert!(out.iter().any(
            |o| matches!(o, Outgoing::Net(n) if n.mtype == MsgType::NInval && n.dst == NodeId(1))
        ));
        assert!(out.iter().any(
            |o| matches!(o, Outgoing::Net(n) if n.mtype == MsgType::NPutX && n.dst == NodeId(2))
        ));
        let d = Directory::new(&mut mem);
        let h = d.header(da);
        assert!(h.dirty());
        assert_eq!(h.owner(), NodeId(2));
    }
}
