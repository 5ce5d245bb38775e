//! The dynamic pointer allocation directory.
//!
//! "Each main memory line has an associated *directory header* which
//! contains some status bits and a link to a linked list of sharing nodes"
//! (paper §3.3, citing Simoni92). Headers are 8 bytes — so one 128-byte
//! MDC line holds the headers for 16 contiguous memory lines (2 KB of
//! data), exactly the geometry analysed in paper §5.2 — and live in
//! protocol memory at `DIR_BASE + line_index * 8`. Sharers beyond the
//! `LOCAL` bit are kept in a linked *pointer store* with a free list.
//!
//! The bit layout here is the single source of truth: PP assembly handlers
//! receive the same constants through [`crate::fields::asm_prologue`].

use crate::mem::ProtoMem;
use flash_engine::{Addr, NodeId};

/// Protocol-memory address of the pointer-store free-list head (stores the
/// index of the first free entry; 0 = exhausted).
pub const FREE_HEAD_ADDR: u64 = 0x100;

/// Base of the pointer store in protocol memory.
pub const PS_BASE: u64 = 0x0200_0000;

/// Base of the directory headers in protocol memory.
pub const DIR_BASE: u64 = 0x1_0000_0000;

/// Default pointer-store capacity per node (entry index 0 is reserved as
/// the null link, so usable indices are `1..=capacity`).
pub const DEFAULT_PS_CAPACITY: u16 = 0xfffe;

/// Bit positions inside a directory header / pointer-store entry.
pub mod bits {
    /// Header bit: the line is held exclusively (dirty) by `OWNER`.
    pub const DIRTY: u8 = 0;
    /// Header bit: a transaction is in progress; requests are NACKed.
    pub const PENDING: u8 = 1;
    /// Header bit: the local processor holds a (shared or dirty) copy.
    pub const LOCAL: u8 = 2;
    /// Header field: owning node when `DIRTY` (16 bits).
    pub const OWNER_POS: u8 = 16;
    /// Header field: head index of the sharer list, 0 = empty (16 bits).
    pub const HEAD_POS: u8 = 32;
    /// Header field: outstanding invalidation acks (16 bits).
    pub const ACKS_POS: u8 = 48;
    /// Entry field: sharer node id (16 bits).
    pub const ENODE_POS: u8 = 16;
    /// Entry field: next entry index, 0 = end of list (16 bits).
    pub const ENEXT_POS: u8 = 32;
    /// Width of all multi-bit fields.
    pub const FIELD_W: u8 = 16;
}

/// Protocol-memory address of the directory header for a global line.
#[inline]
pub fn dir_addr(addr: Addr) -> u64 {
    DIR_BASE + addr.line_index() * 8
}

/// Protocol-memory address of pointer-store entry `idx`.
#[inline]
pub fn entry_addr(idx: u16) -> u64 {
    PS_BASE + idx as u64 * 8
}

/// A decoded directory header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirHeader(pub u64);

impl DirHeader {
    /// Whether the line is dirty in some cache.
    pub fn dirty(self) -> bool {
        self.0 >> bits::DIRTY & 1 == 1
    }

    /// Whether a transaction is pending on the line.
    pub fn pending(self) -> bool {
        self.0 >> bits::PENDING & 1 == 1
    }

    /// Whether the local processor holds a copy.
    pub fn local(self) -> bool {
        self.0 >> bits::LOCAL & 1 == 1
    }

    /// Owning node (meaningful when [`DirHeader::dirty`]).
    pub fn owner(self) -> NodeId {
        NodeId((self.0 >> bits::OWNER_POS) as u16)
    }

    /// Head index of the sharer list (0 = empty).
    pub fn head(self) -> u16 {
        (self.0 >> bits::HEAD_POS) as u16
    }

    /// Outstanding invalidation acknowledgements.
    pub fn acks(self) -> u16 {
        (self.0 >> bits::ACKS_POS) as u16
    }

    /// Sets or clears the dirty bit.
    pub fn with_dirty(self, v: bool) -> Self {
        DirHeader(self.0 & !(1 << bits::DIRTY) | (v as u64) << bits::DIRTY)
    }

    /// Sets or clears the pending bit.
    pub fn with_pending(self, v: bool) -> Self {
        DirHeader(self.0 & !(1 << bits::PENDING) | (v as u64) << bits::PENDING)
    }

    /// Sets or clears the local bit.
    pub fn with_local(self, v: bool) -> Self {
        DirHeader(self.0 & !(1 << bits::LOCAL) | (v as u64) << bits::LOCAL)
    }

    /// Replaces the owner field.
    pub fn with_owner(self, n: NodeId) -> Self {
        DirHeader(self.0 & !(0xffffu64 << bits::OWNER_POS) | (n.0 as u64) << bits::OWNER_POS)
    }

    /// Replaces the list-head field.
    pub fn with_head(self, idx: u16) -> Self {
        DirHeader(self.0 & !(0xffffu64 << bits::HEAD_POS) | (idx as u64) << bits::HEAD_POS)
    }

    /// Replaces the ack-count field.
    pub fn with_acks(self, n: u16) -> Self {
        DirHeader(self.0 & !(0xffffu64 << bits::ACKS_POS) | (n as u64) << bits::ACKS_POS)
    }
}

/// A decoded pointer-store entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PtrEntry(pub u64);

impl PtrEntry {
    /// Creates an entry for `node` linking to `next`.
    pub fn new(node: NodeId, next: u16) -> Self {
        PtrEntry(((node.0 as u64) << bits::ENODE_POS) | ((next as u64) << bits::ENEXT_POS))
    }

    /// The sharer this entry records.
    pub fn node(self) -> NodeId {
        NodeId((self.0 >> bits::ENODE_POS) as u16)
    }

    /// Next entry index (0 = end).
    pub fn next(self) -> u16 {
        (self.0 >> bits::ENEXT_POS) as u16
    }

    /// Replaces the next link.
    pub fn with_next(self, next: u16) -> Self {
        PtrEntry(self.0 & !(0xffffu64 << bits::ENEXT_POS) | (next as u64) << bits::ENEXT_POS)
    }
}

/// Directory accessor over a node's protocol memory. All state lives in the
/// byte-level [`ProtoMem`], so the native (oracle) protocol and the
/// PP-emulated protocol observe and mutate identical structures.
#[derive(Debug)]
pub struct Directory<'m> {
    mem: &'m mut ProtoMem,
}

impl<'m> Directory<'m> {
    /// Wraps a node's protocol memory.
    pub fn new(mem: &'m mut ProtoMem) -> Self {
        Directory { mem }
    }

    /// Initializes the pointer-store free list with `capacity` entries
    /// (indices `1..=capacity`): `FREE_HEAD` reads 1 (0 when `capacity`
    /// is 0), entry `i` links to `i + 1`, and entry `capacity` ends the
    /// list. Call once per node at machine build time, before anything
    /// else is stored to the pointer store.
    ///
    /// Only the head is written here. The entries are a `ProtoMem`
    /// preset, so every load returns what writing the whole list would
    /// have, while a page of the store materializes only when first
    /// stored to: building a node costs O(1), not 128 pages.
    ///
    /// # Panics
    ///
    /// Panics if `mem` already holds a free list or a stored-to
    /// pointer-store page.
    pub fn init_free_list(mem: &mut ProtoMem, capacity: u16) {
        mem.store64(FREE_HEAD_ADDR, u64::from(capacity >= 1));
        mem.preset(entry_addr(1)..entry_addr(capacity) + 8, move |addr| {
            let idx = ((addr - PS_BASE) / 8) as u16;
            let next = if idx < capacity { idx + 1 } else { 0 };
            PtrEntry::new(NodeId(0), next).0
        });
    }

    /// Loads the header at protocol-memory address `diraddr`.
    pub fn header(&self, diraddr: u64) -> DirHeader {
        DirHeader(self.mem.load64(diraddr))
    }

    /// Stores the header at protocol-memory address `diraddr`.
    pub fn set_header(&mut self, diraddr: u64, h: DirHeader) {
        self.mem.store64(diraddr, h.0);
    }

    /// Loads pointer-store entry `idx`.
    pub fn entry(&self, idx: u16) -> PtrEntry {
        PtrEntry(self.mem.load64(entry_addr(idx)))
    }

    /// Stores pointer-store entry `idx`.
    pub fn set_entry(&mut self, idx: u16, e: PtrEntry) {
        self.mem.store64(entry_addr(idx), e.0);
    }

    /// Pops a free entry, or `None` if the store is exhausted.
    pub fn alloc_entry(&mut self) -> Option<u16> {
        let head = self.mem.load64(FREE_HEAD_ADDR) as u16;
        if head == 0 {
            return None;
        }
        let e = self.entry(head);
        self.mem.store64(FREE_HEAD_ADDR, e.next() as u64);
        Some(head)
    }

    /// Returns an entry to the free list.
    pub fn free_entry(&mut self, idx: u16) {
        let head = self.mem.load64(FREE_HEAD_ADDR) as u16;
        self.set_entry(idx, PtrEntry::new(NodeId(0), head));
        self.mem.store64(FREE_HEAD_ADDR, idx as u64);
    }

    /// Collects the sharer list of a header (for tests and the oracle).
    pub fn sharers(&self, diraddr: u64) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut idx = self.header(diraddr).head();
        let mut guard = 0u32;
        while idx != 0 {
            let e = self.entry(idx);
            out.push(e.node());
            idx = e.next();
            guard += 1;
            assert!(guard <= 0x1_0000, "sharer list cycle at {diraddr:#x}");
        }
        out
    }

    /// Number of free pointer-store entries (walks the free list; tests).
    pub fn free_entries(&self) -> usize {
        let mut n = 0;
        let mut idx = self.mem.load64(FREE_HEAD_ADDR) as u16;
        while idx != 0 {
            n += 1;
            idx = self.entry(idx).next();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_fields_round_trip() {
        let h = DirHeader::default()
            .with_dirty(true)
            .with_pending(true)
            .with_local(true)
            .with_owner(NodeId(513))
            .with_head(77)
            .with_acks(9);
        assert!(h.dirty() && h.pending() && h.local());
        assert_eq!(h.owner(), NodeId(513));
        assert_eq!(h.head(), 77);
        assert_eq!(h.acks(), 9);
        let h = h.with_dirty(false).with_acks(0);
        assert!(!h.dirty());
        assert_eq!(h.acks(), 0);
        assert_eq!(
            h.owner(),
            NodeId(513),
            "clearing bits must not clobber fields"
        );
    }

    #[test]
    fn entry_fields_round_trip() {
        let e = PtrEntry::new(NodeId(42), 999);
        assert_eq!(e.node(), NodeId(42));
        assert_eq!(e.next(), 999);
        assert_eq!(e.with_next(0).next(), 0);
        assert_eq!(e.with_next(0).node(), NodeId(42));
    }

    #[test]
    fn free_list_alloc_and_free() {
        let mut mem = ProtoMem::new();
        Directory::init_free_list(&mut mem, 4);
        let mut d = Directory::new(&mut mem);
        assert_eq!(d.free_entries(), 4);
        let a = d.alloc_entry().unwrap();
        let b = d.alloc_entry().unwrap();
        assert_ne!(a, b);
        assert_eq!(d.free_entries(), 2);
        d.free_entry(a);
        assert_eq!(d.free_entries(), 3);
        let c = d.alloc_entry().unwrap();
        assert_eq!(c, a, "free list is LIFO");
        // Exhaust.
        assert!(d.alloc_entry().is_some());
        assert!(d.alloc_entry().is_some());
        assert!(d.alloc_entry().is_none());
    }

    #[test]
    fn sharer_list_walk() {
        let mut mem = ProtoMem::new();
        Directory::init_free_list(&mut mem, 8);
        let mut d = Directory::new(&mut mem);
        let da = dir_addr(Addr::new(0x8000));
        let e1 = d.alloc_entry().unwrap();
        let e2 = d.alloc_entry().unwrap();
        d.set_entry(e2, PtrEntry::new(NodeId(5), 0));
        d.set_entry(e1, PtrEntry::new(NodeId(3), e2));
        d.set_header(da, DirHeader::default().with_head(e1));
        assert_eq!(d.sharers(da), vec![NodeId(3), NodeId(5)]);
    }

    #[test]
    fn dir_addr_distinct_per_line() {
        let a = dir_addr(Addr::new(0));
        let b = dir_addr(Addr::new(128));
        assert_eq!(b - a, 8);
        assert!(a >= DIR_BASE);
    }

    #[test]
    fn mdc_geometry_headers_per_line() {
        // One 128-byte MDC line of headers covers 16 headers = 2 KB of data
        // (paper §5.2).
        let first = dir_addr(Addr::new(0));
        let last_same_mdc_line = dir_addr(Addr::new(15 * 128));
        assert_eq!(first / 128, last_same_mdc_line / 128);
        let next = dir_addr(Addr::new(16 * 128));
        assert_ne!(first / 128, next / 128);
    }
}
