//! Per-node protocol memory.
//!
//! "In FLASH all protocol code and data are maintained in main memory"
//! (paper §2). Each node's directory headers and pointer store live in a
//! sparse byte-addressed memory that the PP reaches through the MAGIC data
//! cache. The sparse paging keeps multi-gigabyte directory spans cheap to
//! host, and a preset range (the pointer-store free list) costs nothing
//! until a page of it is first stored to.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::Arc;

const PAGE_BYTES: u64 = 4096;

type Page = [u8; PAGE_BYTES as usize];

const ZERO_PAGE: Page = [0; PAGE_BYTES as usize];

/// A minimal multiply-fold hasher for page numbers. Page lookups sit on
/// the PP handler hot path (every directory header and pointer-store
/// access goes through one), and SipHash's per-lookup setup cost is
/// measurable there. Page numbers are small, dense, and attacker-free,
/// so a single odd-constant multiply with a high-bit fold is enough.
/// Iteration order is never observable: the only key-order-sensitive
/// consumer is [`ProtoMem::first_difference`], which sorts.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Multiply by a random odd 64-bit constant and fold the high
        // bits down so the HashMap's low-bit masking sees mixed bits.
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// Initial contents of the words in `addrs` (see [`ProtoMem::preset`]).
#[derive(Clone)]
struct Preset {
    addrs: Range<u64>,
    word: Arc<dyn Fn(u64) -> u64 + Send + Sync>,
}

impl Preset {
    /// Page numbers holding at least one preset word.
    fn pages(&self) -> Range<u64> {
        self.addrs.start / PAGE_BYTES..self.addrs.end.div_ceil(PAGE_BYTES)
    }

    /// Writes page `p`'s initial contents.
    fn fill(&self, p: u64, page: &mut Page) {
        let base = p * PAGE_BYTES;
        for (i, w) in page.chunks_exact_mut(8).enumerate() {
            let addr = base + i as u64 * 8;
            if self.addrs.contains(&addr) {
                w.copy_from_slice(&(self.word)(addr).to_le_bytes());
            }
        }
    }
}

impl fmt::Debug for Preset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Preset({:#x}..{:#x})", self.addrs.start, self.addrs.end)
    }
}

/// A sparse, byte-addressable protocol memory.
///
/// A word reads as zero until it is stored to, except inside the one
/// optional preset range (the pointer-store free list that
/// [`Directory::init_free_list`](crate::dir::Directory::init_free_list)
/// registers), whose words read as the preset gives them. Only stored-to
/// pages are materialized, so a fresh memory costs no pages however large
/// its preset.
///
/// # Examples
///
/// ```
/// use flash_protocol::mem::ProtoMem;
///
/// let mut m = ProtoMem::new();
/// assert_eq!(m.load64(0x1_0000), 0);
/// m.store64(0x1_0000, 0xdead_beef);
/// assert_eq!(m.load64(0x1_0000), 0xdead_beef);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProtoMem {
    pages: HashMap<u64, Box<Page>, BuildHasherDefault<PageHasher>>,
    preset: Option<Preset>,
}

impl ProtoMem {
    /// Creates an empty (all-zero) protocol memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gives the 8-byte-aligned words in `addrs` initial values: until
    /// its page is first stored to, the word at `addr` reads as
    /// `word(addr)`. The first store to such a page fills the whole page
    /// from `word` before writing, so every load returns what storing
    /// all of `addrs` up front would have left there, at no cost for
    /// pages nothing stores to.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is not 8-byte aligned at both ends, if the
    /// memory already has a preset, or if a page holding part of `addrs`
    /// has already been stored to.
    pub(crate) fn preset(
        &mut self,
        addrs: Range<u64>,
        word: impl Fn(u64) -> u64 + Send + Sync + 'static,
    ) {
        assert!(
            addrs.start.is_multiple_of(8) && addrs.end.is_multiple_of(8),
            "unaligned preset {addrs:#x?}"
        );
        assert!(self.preset.is_none(), "protocol memory already preset");
        let preset = Preset {
            addrs,
            word: Arc::new(word),
        };
        assert!(
            !preset.pages().any(|p| self.pages.contains_key(&p)),
            "preset over a page already stored to"
        );
        self.preset = Some(preset);
    }

    /// The value the aligned word at `addr` holds on a page that was
    /// never stored to.
    fn initial64(&self, addr: u64) -> u64 {
        match &self.preset {
            Some(p) if p.addrs.contains(&addr) => (p.word)(addr),
            _ => 0,
        }
    }

    /// Page `p`, materialized (with its initial contents) if absent.
    fn page_mut(&mut self, p: u64) -> &mut Page {
        let preset = &self.preset;
        self.pages.entry(p).or_insert_with(|| {
            let mut page = Box::new(ZERO_PAGE);
            if let Some(preset) = preset {
                preset.fill(p, &mut page);
            }
            page
        })
    }

    /// Page `p`'s contents: as stored, or its initial contents.
    fn page(&self, p: u64) -> Cow<'_, Page> {
        match (self.pages.get(&p), &self.preset) {
            (Some(page), _) => Cow::Borrowed(page),
            (None, Some(preset)) if preset.pages().contains(&p) => {
                let mut page = ZERO_PAGE;
                preset.fill(p, &mut page);
                Cow::Owned(page)
            }
            (None, _) => Cow::Borrowed(&ZERO_PAGE),
        }
    }

    /// Loads a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn load64(&self, addr: u64) -> u64 {
        assert_eq!(addr % 8, 0, "unaligned load64 at {addr:#x}");
        match self.pages.get(&(addr / PAGE_BYTES)) {
            Some(p) => {
                let o = (addr % PAGE_BYTES) as usize;
                u64::from_le_bytes(p[o..o + 8].try_into().expect("in page"))
            }
            None => self.initial64(addr),
        }
    }

    /// Stores a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn store64(&mut self, addr: u64, val: u64) {
        assert_eq!(addr % 8, 0, "unaligned store64 at {addr:#x}");
        let page = self.page_mut(addr / PAGE_BYTES);
        let o = (addr % PAGE_BYTES) as usize;
        page[o..o + 8].copy_from_slice(&val.to_le_bytes());
    }

    /// Loads a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn load32(&self, addr: u64) -> u32 {
        assert_eq!(addr % 4, 0, "unaligned load32 at {addr:#x}");
        match self.pages.get(&(addr / PAGE_BYTES)) {
            Some(p) => {
                let o = (addr % PAGE_BYTES) as usize;
                u32::from_le_bytes(p[o..o + 4].try_into().expect("in page"))
            }
            None => (self.initial64(addr & !7) >> ((addr % 8) * 8)) as u32,
        }
    }

    /// Stores a little-endian `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn store32(&mut self, addr: u64, val: u32) {
        assert_eq!(addr % 4, 0, "unaligned store32 at {addr:#x}");
        let page = self.page_mut(addr / PAGE_BYTES);
        let o = (addr % PAGE_BYTES) as usize;
        page[o..o + 4].copy_from_slice(&val.to_le_bytes());
    }

    /// Number of 4 KB pages materialized (for footprint diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Address of the first 8-byte word whose contents differ between
    /// `self` and `other`, comparing what loads would return. `None`
    /// means the two memories are observationally identical. Used by the
    /// differential oracle to pin native-vs-PP directory divergences.
    pub fn first_difference(&self, other: &ProtoMem) -> Option<u64> {
        let mut pages: Vec<u64> = self
            .pages
            .keys()
            .chain(other.pages.keys())
            .copied()
            .collect();
        // Pages neither side stored to can only differ if their presets do.
        let same_preset = match (&self.preset, &other.preset) {
            (None, None) => true,
            (Some(a), Some(b)) => a.addrs == b.addrs && Arc::ptr_eq(&a.word, &b.word),
            _ => false,
        };
        if !same_preset {
            for p in self.preset.iter().chain(&other.preset) {
                pages.extend(p.pages());
            }
        }
        pages.sort_unstable();
        pages.dedup();
        for p in pages {
            let (a, b) = (self.page(p), other.page(p));
            if a == b {
                continue;
            }
            for w in 0..(PAGE_BYTES as usize / 8) {
                if a[w * 8..w * 8 + 8] != b[w * 8..w * 8 + 8] {
                    return Some(p * PAGE_BYTES + (w as u64) * 8);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = ProtoMem::new();
        assert_eq!(m.load64(0), 0);
        assert_eq!(m.load32(0xfff0), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn store_load_round_trip() {
        let mut m = ProtoMem::new();
        m.store64(8, u64::MAX);
        m.store32(16, 0x1234_5678);
        assert_eq!(m.load64(8), u64::MAX);
        assert_eq!(m.load32(16), 0x1234_5678);
        assert_eq!(m.load32(8), 0xffff_ffff);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn page_boundaries() {
        let mut m = ProtoMem::new();
        m.store64(4096 - 8, 7);
        m.store64(4096, 9);
        assert_eq!(m.load64(4096 - 8), 7);
        assert_eq!(m.load64(4096), 9);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_panics() {
        ProtoMem::new().load64(4);
    }

    #[test]
    fn first_difference_pins_the_word() {
        let mut a = ProtoMem::new();
        let mut b = ProtoMem::new();
        assert_eq!(a.first_difference(&b), None);
        a.store64(0x2000, 5);
        b.store64(0x2000, 5);
        assert_eq!(a.first_difference(&b), None);
        b.store64(0x9008, 1);
        assert_eq!(a.first_difference(&b), Some(0x9008));
        assert_eq!(b.first_difference(&a), Some(0x9008));
        // A page materialized with zeros compares equal to an absent page.
        a.store64(0x20_0000, 0);
        assert_eq!(a.first_difference(&b), Some(0x9008));
    }

    #[test]
    fn preset_words_read_until_their_page_is_stored() {
        let mut m = ProtoMem::new();
        m.preset(0x1ff8..0x2010, |addr| addr + 1);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.load64(0x1ff0), 0, "outside the range");
        assert_eq!(m.load64(0x1ff8), 0x1ff9);
        assert_eq!(m.load32(0x2008), 0x2009);
        assert_eq!(m.load32(0x200c), 0);
        m.store32(0x2004, 7);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.load64(0x2000), 7 << 32 | 0x2001);
        assert_eq!(m.load64(0x2008), 0x2009, "the first store fills the page");
        assert_eq!(m.load64(0x2010), 0);
        assert_eq!(m.first_difference(&m.clone()), None);
    }

    #[test]
    #[should_panic(expected = "already stored to")]
    fn preset_over_a_stored_page_panics() {
        let mut m = ProtoMem::new();
        m.store64(0x2ff8, 1);
        m.preset(0x1000..0x3000, |_| 0);
    }

    #[test]
    fn distant_addresses_stay_sparse() {
        let mut m = ProtoMem::new();
        m.store64(0x0100_0000, 1);
        m.store64(0x4000_0000, 2);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.load64(0x0100_0000), 1);
        assert_eq!(m.load64(0x4000_0000), 2);
    }
}
