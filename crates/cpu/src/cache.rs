//! The processor's two-way set-associative cache.

use flash_engine::{Addr, LINE_BYTES};

/// Coherence state of a cached line. `Exclusive` implies ownership and is
/// treated as dirty (DASH-style: exclusive lines are written back on
/// eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Readable, possibly shared with other caches.
    Shared,
    /// Exclusively owned; writable; written back on eviction.
    Exclusive,
}

/// What a processor reference found in the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuAccess {
    /// Present and sufficient for the access.
    Hit,
    /// Present `Shared` but the access is a write: exclusivity needed.
    NeedsUpgrade,
    /// Absent.
    Miss,
}

/// An evicted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line address of the evicted line.
    pub addr: Addr,
    /// Whether it was `Exclusive` (requires a writeback; `Shared` victims
    /// produce replacement hints).
    pub dirty: bool,
}

/// One tag-store way, packed as `[tag << FLAG_BITS | flags, lru stamp]`.
/// An empty way is all-zero bytes, so a new tag store is one zeroed
/// allocation.
type Way = [u64; 2];

/// Flag bits in a way's first word.
const VALID: u64 = 1;
const EXCL: u64 = 1 << 1;
const LOCKED: u64 = 1 << 2;
const FLAG_BITS: u32 = 3;

/// The secondary cache: two-way set associative, 128-byte lines
/// (paper §3.2), with way locking for lines that have an outstanding
/// miss/upgrade so they cannot be chosen as victims.
///
/// # Examples
///
/// ```
/// use flash_cpu::{CpuAccess, L2Cache, LineState};
/// use flash_engine::Addr;
///
/// let mut c = L2Cache::new(1 << 20);
/// let a = Addr::new(0x1000);
/// assert_eq!(c.probe(a, false), CpuAccess::Miss);
/// c.install(a, LineState::Shared);
/// assert_eq!(c.probe(a, false), CpuAccess::Hit);
/// assert_eq!(c.probe(a, true), CpuAccess::NeedsUpgrade);
/// ```
#[derive(Debug, Clone)]
pub struct L2Cache {
    /// log2 of the set count: a line's set is the low `set_bits` bits of
    /// its index and its tag the rest.
    set_bits: u32,
    /// The tag store (up to 128 KiB), empty until the first
    /// [`L2Cache::install`]: a machine that is built but never run, or a
    /// processor that never fills a line, costs none.
    ways: Vec<Way>,
    tick: u64,
}

const ASSOC: usize = 2;

impl L2Cache {
    /// Creates an empty cache of `size_bytes` capacity (2-way, 128-byte
    /// lines).
    ///
    /// # Panics
    ///
    /// Panics unless [`L2Cache::sets_for`] accepts `size_bytes`.
    pub fn new(size_bytes: u64) -> Self {
        let sets =
            Self::sets_for(size_bytes).unwrap_or_else(|| panic!("bad cache size {size_bytes}"));
        L2Cache {
            set_bits: sets.trailing_zeros(),
            ways: Vec::new(),
            tick: 0,
        }
    }

    /// The set count of a `size_bytes` cache, or `None` when it is not a
    /// power of two (the sizes [`L2Cache::new`] rejects).
    pub fn sets_for(size_bytes: u64) -> Option<u64> {
        Some(size_bytes / (LINE_BYTES * ASSOC as u64)).filter(|s| s.is_power_of_two())
    }

    /// Cache index (set number) of an address — used for the paper's
    /// same-index write-conflict rule.
    pub fn index_of(&self, addr: Addr) -> u64 {
        addr.line_index() & ((1 << self.set_bits) - 1)
    }

    /// The set and tag of `addr`'s line.
    #[inline]
    fn locate(&self, addr: Addr) -> (usize, u64) {
        (
            self.index_of(addr) as usize,
            addr.line_index() >> self.set_bits,
        )
    }

    fn find(&self, addr: Addr) -> Option<usize> {
        if self.ways.is_empty() {
            return None;
        }
        let (set, tag) = self.locate(addr);
        let key = tag << FLAG_BITS | VALID;
        (0..ASSOC)
            .map(|i| set * ASSOC + i)
            .find(|&w| self.ways[w][0] & !(EXCL | LOCKED) == key)
    }

    /// Looks up an access without modifying tag state (miss handling is
    /// the processor's job); a present line becomes most recently used.
    pub fn probe(&mut self, addr: Addr, write: bool) -> CpuAccess {
        self.tick += 1;
        match self.find(addr) {
            Some(w) => {
                self.ways[w][1] = self.tick;
                if write && self.ways[w][0] & EXCL == 0 {
                    CpuAccess::NeedsUpgrade
                } else {
                    CpuAccess::Hit
                }
            }
            None => CpuAccess::Miss,
        }
    }

    /// The LRU effect of `n` more probes of `addr` with no tag change in
    /// between, in O(1): the clock advances by `n` and a present line is
    /// stamped with the last tick, as `n` calls to [`L2Cache::probe`]
    /// would leave it.
    pub(crate) fn reprobe(&mut self, addr: Addr, n: u64) {
        self.tick += n;
        if let Some(w) = self.find(addr) {
            self.ways[w][1] = self.tick;
        }
    }

    /// Installs a line (on miss completion), evicting if necessary.
    /// Locked ways are never victimized.
    ///
    /// # Panics
    ///
    /// Panics if every way in the set is locked (the processor's
    /// index-conflict stall rule prevents this).
    pub fn install(&mut self, addr: Addr, state: LineState) -> Option<Victim> {
        if self.ways.is_empty() {
            self.ways = vec![[0; 2]; ASSOC << self.set_bits];
        }
        let (set, tag) = self.locate(addr);
        self.tick += 1;
        // Already present (e.g. upgrade completion): update state.
        let excl = if state == LineState::Exclusive {
            EXCL
        } else {
            0
        };
        if let Some(w) = self.find(addr) {
            self.ways[w] = [self.ways[w][0] & !EXCL | excl, self.tick];
            return None;
        }
        let victim_i = (0..ASSOC)
            .map(|i| set * ASSOC + i)
            .filter(|&w| self.ways[w][0] & LOCKED == 0)
            .min_by_key(|&w| {
                if self.ways[w][0] & VALID != 0 {
                    self.ways[w][1]
                } else {
                    0
                }
            })
            .expect("install with every way locked");
        let [old, _] = self.ways[victim_i];
        self.ways[victim_i] = [tag << FLAG_BITS | VALID | excl, self.tick];
        if old & VALID != 0 {
            Some(Victim {
                addr: Addr::from_line_index((old >> FLAG_BITS) << self.set_bits | set as u64),
                dirty: old & EXCL != 0,
            })
        } else {
            None
        }
    }

    /// Locks/unlocks a present line against eviction (used while an
    /// upgrade is outstanding for it).
    pub fn set_locked(&mut self, addr: Addr, locked: bool) {
        if let Some(w) = self.find(addr) {
            self.ways[w][0] = self.ways[w][0] & !LOCKED | if locked { LOCKED } else { 0 };
        }
    }

    /// Invalidates a line. Returns its state if it was present.
    pub fn invalidate(&mut self, addr: Addr) -> Option<LineState> {
        self.find(addr).map(|w| {
            let s = self.state_at(w);
            self.ways[w] = [0; 2];
            s
        })
    }

    /// Downgrades an `Exclusive` line to `Shared` (cache-to-cache read
    /// intervention). Returns the prior state if present.
    pub fn downgrade(&mut self, addr: Addr) -> Option<LineState> {
        self.find(addr).map(|w| {
            let s = self.state_at(w);
            self.ways[w][0] &= !EXCL;
            s
        })
    }

    /// Current state of a line, if present.
    pub fn state_of(&self, addr: Addr) -> Option<LineState> {
        self.find(addr).map(|w| self.state_at(w))
    }

    fn state_at(&self, w: usize) -> LineState {
        if self.ways[w][0] & EXCL != 0 {
            LineState::Exclusive
        } else {
            LineState::Shared
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_cache_geometry() {
        // 4 KB, 2-way, 128 B lines = 16 sets.
        let c = L2Cache::new(4 << 10);
        assert_eq!(c.index_of(Addr::new(0)), 0);
        assert_eq!(c.index_of(Addr::new(16 * 128)), 0, "wraps at 16 sets");
        assert_eq!(c.index_of(Addr::new(128)), 1);
    }

    #[test]
    fn probe_install_cycle() {
        let mut c = L2Cache::new(4 << 10);
        let a = Addr::new(0x80);
        assert_eq!(c.probe(a, true), CpuAccess::Miss);
        assert_eq!(c.install(a, LineState::Exclusive), None);
        assert_eq!(c.probe(a, true), CpuAccess::Hit);
        assert_eq!(c.probe(a, false), CpuAccess::Hit);
    }

    #[test]
    fn upgrade_path() {
        let mut c = L2Cache::new(4 << 10);
        let a = Addr::new(0x80);
        c.install(a, LineState::Shared);
        assert_eq!(c.probe(a, true), CpuAccess::NeedsUpgrade);
        c.install(a, LineState::Exclusive); // upgrade completes in place
        assert_eq!(c.probe(a, true), CpuAccess::Hit);
    }

    #[test]
    fn eviction_reports_victim_dirtiness() {
        let c_size = 4 << 10;
        let sets = c_size / (128 * 2);
        let stride = sets * 128;
        let mut c = L2Cache::new(c_size);
        c.install(Addr::new(0), LineState::Exclusive);
        c.install(Addr::new(stride), LineState::Shared);
        // Third line in the same set evicts the LRU (line 0, dirty).
        let v = c.install(Addr::new(2 * stride), LineState::Shared).unwrap();
        assert_eq!(v.addr, Addr::new(0));
        assert!(v.dirty);
        let v2 = c.install(Addr::new(3 * stride), LineState::Shared).unwrap();
        assert_eq!(v2.addr, Addr::new(stride));
        assert!(!v2.dirty);
    }

    #[test]
    fn locked_lines_survive_eviction() {
        let c_size = 4 << 10;
        let stride = (c_size / (128 * 2)) * 128;
        let mut c = L2Cache::new(c_size);
        c.install(Addr::new(0), LineState::Shared);
        c.set_locked(Addr::new(0), true);
        c.install(Addr::new(stride), LineState::Shared);
        let v = c.install(Addr::new(2 * stride), LineState::Shared).unwrap();
        assert_eq!(v.addr, Addr::new(stride), "locked way must not be chosen");
        assert_eq!(c.state_of(Addr::new(0)), Some(LineState::Shared));
        c.set_locked(Addr::new(0), false);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = L2Cache::new(4 << 10);
        let a = Addr::new(0x100);
        c.install(a, LineState::Exclusive);
        assert_eq!(c.downgrade(a), Some(LineState::Exclusive));
        assert_eq!(c.state_of(a), Some(LineState::Shared));
        assert_eq!(c.invalidate(a), Some(LineState::Shared));
        assert_eq!(c.state_of(a), None);
        assert_eq!(c.invalidate(a), None);
    }

    #[test]
    fn shift_mask_indexing_equals_div_mod() {
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut addrs = vec![0, 127, 128, u64::MAX, u64::MAX - 127, u64::MAX - 128];
        for _ in 0..500 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            addrs.push(rng);
            addrs.push(u64::MAX - (rng >> 40));
        }
        // Every size the paper's tables build (4 KB .. 1 MB).
        for size in (12..=20).map(|b| 1u64 << b) {
            let sets = size / (LINE_BYTES * ASSOC as u64);
            let stride = sets * LINE_BYTES;
            let mut c = L2Cache::new(size);
            for &raw in &addrs {
                let a = Addr::new(raw);
                let l = raw / LINE_BYTES;
                assert_eq!(c.index_of(a), l % sets, "{size} {raw:#x}");
                assert_eq!(c.locate(a), ((l % sets) as usize, l / sets));
                // Fill the line's set, then evict it: the victim is the
                // line itself.
                let step = |k: u64| {
                    Addr::new(if raw > u64::MAX / 2 {
                        raw - k * stride
                    } else {
                        raw + k * stride
                    })
                };
                c.install(a, LineState::Exclusive);
                c.install(step(1), LineState::Shared);
                let v = c.install(step(2), LineState::Shared);
                assert_eq!(
                    v,
                    Some(Victim {
                        addr: Addr::new(l * LINE_BYTES),
                        dirty: true
                    }),
                    "{size} {raw:#x}"
                );
            }
        }
    }

    #[test]
    fn fresh_cache_allocates_at_first_install() {
        let mut c = L2Cache::new(1 << 20);
        let a = Addr::new(0x1000);
        assert_eq!(c.probe(a, false), CpuAccess::Miss);
        c.reprobe(a, 3);
        assert_eq!(c.state_of(a), None);
        assert_eq!(c.invalidate(a), None);
        assert_eq!(c.downgrade(a), None);
        c.set_locked(a, true);
        assert!(
            c.ways.is_empty(),
            "lookups and no-op updates allocate nothing"
        );
        assert_eq!(c.tick, 4, "probes still advance the LRU clock");
        assert_eq!(c.install(a, LineState::Shared), None);
        assert_eq!(c.ways.len(), 2 * 4096);
        let store = c.ways.as_ptr();
        c.install(Addr::new(0x2000), LineState::Exclusive);
        assert_eq!(c.ways.as_ptr(), store, "allocated once");
        assert_eq!(c.probe(a, false), CpuAccess::Hit);
    }

    #[test]
    fn reprobe_is_repeated_probes() {
        for write in [false, true] {
            for state in [None, Some(LineState::Shared), Some(LineState::Exclusive)] {
                let a = Addr::new(0x80);
                let mut probed = L2Cache::new(4 << 10);
                probed.install(Addr::new(16 * 128), LineState::Shared);
                if let Some(st) = state {
                    probed.install(a, st);
                }
                let mut reprobed = probed.clone();
                for _ in 0..5 {
                    probed.probe(a, write);
                }
                reprobed.reprobe(a, 5);
                assert_eq!(format!("{probed:?}"), format!("{reprobed:?}"));
            }
        }
    }
}
