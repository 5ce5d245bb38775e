//! The lazily materialized free list against an eagerly written one.
//!
//! `Directory::init_free_list` writes only `FREE_HEAD` and presets the
//! pointer store, so a page of entries materializes on its first store.
//! These properties pin that every load, `first_difference` and `clone`
//! observe exactly what writing the whole list up front would have left
//! in protocol memory.

use flash_engine::NodeId;
use flash_protocol::dir::{entry_addr, Directory, PtrEntry, DEFAULT_PS_CAPACITY, DIR_BASE};
use flash_protocol::dir::{FREE_HEAD_ADDR, PS_BASE};
use flash_protocol::ProtoMem;
use proptest::prelude::*;

/// Entries per 4 KB page: indices 511/512 straddle the first boundary.
const ENTRIES_PER_PAGE: u16 = 512;

/// The free list as the eager initializer wrote it: every entry stored.
fn eager(capacity: u16) -> ProtoMem {
    let mut mem = ProtoMem::new();
    for idx in 1..capacity {
        mem.store64(entry_addr(idx), PtrEntry::new(NodeId(0), idx + 1).0);
    }
    if capacity >= 1 {
        mem.store64(entry_addr(capacity), PtrEntry::new(NodeId(0), 0).0);
        mem.store64(FREE_HEAD_ADDR, 1);
    } else {
        mem.store64(FREE_HEAD_ADDR, 0);
    }
    mem
}

fn lazy(capacity: u16) -> ProtoMem {
    let mut mem = ProtoMem::new();
    Directory::init_free_list(&mut mem, capacity);
    mem
}

/// An 8-byte-aligned address in `FREE_HEAD`, the pointer store (biased
/// to both ends of the list and to page boundaries) or the headers.
fn word_addr(capacity: u16, region: u8, pick: u64) -> u64 {
    match region {
        0 => FREE_HEAD_ADDR,
        1 => {
            let cap = capacity as u64;
            let special = [
                0,
                1,
                2,
                cap.saturating_sub(1),
                cap,
                cap + 1,
                ENTRIES_PER_PAGE as u64 - 1,
                ENTRIES_PER_PAGE as u64,
                2 * ENTRIES_PER_PAGE as u64,
            ];
            let idx = match pick % 3 {
                0 => special[(pick / 3) as usize % special.len()],
                _ => (pick / 3) % (cap + 2),
            };
            PS_BASE + idx.min(0xffff) * 8
        }
        _ => DIR_BASE + (pick % 4096) * 8,
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Load64,
    Load32,
    Store64,
    Store32,
    Clone,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Load64),
        3 => Just(Op::Load32),
        2 => Just(Op::Store64),
        2 => Just(Op::Store32),
        1 => Just(Op::Clone),
    ]
}

fn capacity() -> impl Strategy<Value = u16> {
    prop_oneof![
        Just(0u16),
        Just(1u16),
        Just(ENTRIES_PER_PAGE - 1),
        Just(ENTRIES_PER_PAGE),
        Just(ENTRIES_PER_PAGE + 1),
        Just(DEFAULT_PS_CAPACITY),
        Just(u16::MAX),
        2u16..2000,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazy_free_list_reads_like_the_eager_one(
        cap in capacity(),
        ops in proptest::collection::vec((op(), 0u8..3, any::<u64>(), any::<u64>(), any::<bool>()), 0..64),
    ) {
        let mut l = lazy(cap);
        let mut e = eager(cap);
        for (op, region, pick, val, high_half) in ops {
            let addr = word_addr(cap, region, pick);
            let addr32 = addr + if high_half { 4 } else { 0 };
            match op {
                Op::Load64 => prop_assert_eq!(l.load64(addr), e.load64(addr), "load64 {:#x}", addr),
                Op::Load32 => prop_assert_eq!(l.load32(addr32), e.load32(addr32), "load32 {:#x}", addr32),
                Op::Store64 => {
                    l.store64(addr, val);
                    e.store64(addr, val);
                }
                Op::Store32 => {
                    l.store32(addr32, val as u32);
                    e.store32(addr32, val as u32);
                }
                Op::Clone => {
                    let c = l.clone();
                    prop_assert_eq!(c.first_difference(&l), None);
                    l = c;
                }
            }
            // The touched word and both of its halves agree after every step.
            prop_assert_eq!(l.load64(addr), e.load64(addr));
            prop_assert_eq!(l.load32(addr), e.load32(addr));
            prop_assert_eq!(l.load32(addr + 4), e.load32(addr + 4));
        }
        prop_assert_eq!(l.first_difference(&e), None);
        prop_assert_eq!(e.first_difference(&l), None);
        prop_assert_eq!(l.clone().first_difference(&e), None);
    }
}

#[test]
fn whole_default_list_matches_word_for_word() {
    let l = lazy(DEFAULT_PS_CAPACITY);
    let e = eager(DEFAULT_PS_CAPACITY);
    for idx in 0..=u16::MAX {
        let a = entry_addr(idx);
        assert_eq!(l.load64(a), e.load64(a), "entry {idx}");
        assert_eq!(l.load32(a + 4), e.load32(a + 4), "entry {idx} high half");
    }
    assert_eq!(l.load64(FREE_HEAD_ADDR), 1);
    assert_eq!(l.resident_pages(), 1, "only FREE_HEAD's page is written");
    assert_eq!(e.resident_pages(), 129);
}

#[test]
fn first_difference_sees_into_pages_neither_side_stored() {
    // Separately initialized memories hold distinct presets, so pages
    // that neither has stored to must still be compared by value.
    assert_eq!(lazy(600).first_difference(&lazy(600)), None);
    assert_eq!(
        lazy(600).first_difference(&lazy(700)),
        Some(entry_addr(600)),
        "entry 600 ends one list and links to 601 in the other"
    );
    let mut e = eager(600);
    e.store64(entry_addr(550), 0);
    assert_eq!(lazy(600).first_difference(&e), Some(entry_addr(550)));
    assert_eq!(e.first_difference(&lazy(600)), Some(entry_addr(550)));
    assert_eq!(
        lazy(600).first_difference(&ProtoMem::new()),
        Some(FREE_HEAD_ADDR)
    );
}

#[test]
fn first_store_to_an_entry_page_keeps_its_neighbours() {
    let mut l = lazy(DEFAULT_PS_CAPACITY);
    l.store32(entry_addr(700) + 4, 0);
    assert_eq!(l.resident_pages(), 2);
    assert_eq!(l.load64(entry_addr(700)), 0);
    assert_eq!(PtrEntry(l.load64(entry_addr(699))).next(), 700);
    assert_eq!(PtrEntry(l.load64(entry_addr(701))).next(), 702);
    assert_eq!(
        l.first_difference(&eager(DEFAULT_PS_CAPACITY)),
        Some(entry_addr(700))
    );
}
