//! The processor's two-way set-associative cache.

use flash_engine::{Addr, Counter, LINE_BYTES};

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
/// An empty way is all-zero bytes, so `vec!` can take the tag store from
/// the allocator's zeroed pages and sets that are never used cost no
/// resident memory.
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
    sets: u64,
    ways: Vec<Way>,
    tick: u64,
    hits: Counter,
    misses: Counter,
    upgrades: Counter,
}

const ASSOC: usize = 2;

impl L2Cache {
    /// Creates an empty cache of `size_bytes` capacity (2-way, 128-byte
    /// lines).
    ///
    /// # Panics
    ///
    /// Panics unless the resulting set count is a power of two.
    pub fn new(size_bytes: u64) -> Self {
        let sets = size_bytes / (LINE_BYTES * ASSOC as u64);
        assert!(
            sets.is_power_of_two() && sets > 0,
            "bad cache size {size_bytes}"
        );
        L2Cache {
            sets,
            ways: vec![[0; 2]; sets as usize * ASSOC],
            tick: 0,
            hits: Counter::default(),
            misses: Counter::default(),
            upgrades: Counter::default(),
        }
    }

    /// Cache index (set number) of an address — used for the paper's
    /// same-index write-conflict rule.
    pub fn index_of(&self, addr: Addr) -> u64 {
        addr.line_index() % self.sets
    }

    fn find(&self, addr: Addr) -> Option<usize> {
        let set = (addr.line_index() % self.sets) as usize;
        let key = (addr.line_index() / self.sets) << FLAG_BITS | VALID;
        (0..ASSOC)
            .map(|i| set * ASSOC + i)
            .find(|&w| self.ways[w][0] & !(EXCL | LOCKED) == key)
    }

    /// Looks up an access without modifying tag state (miss handling is
    /// the processor's job). Counts hit/miss/upgrade statistics.
    pub fn probe(&mut self, addr: Addr, write: bool) -> CpuAccess {
        self.tick += 1;
        match self.find(addr) {
            Some(w) => {
                self.ways[w][1] = self.tick;
                if write && self.ways[w][0] & EXCL == 0 {
                    self.upgrades.incr();
                    CpuAccess::NeedsUpgrade
                } else {
                    self.hits.incr();
                    CpuAccess::Hit
                }
            }
            None => {
                self.misses.incr();
                CpuAccess::Miss
            }
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
        let set = (addr.line_index() % self.sets) as usize;
        let tag = addr.line_index() / self.sets;
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
                addr: Addr::from_line_index((old >> FLAG_BITS) * self.sets + set as u64),
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

    /// Hits recorded by [`L2Cache::probe`].
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Misses recorded by [`L2Cache::probe`].
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Write-upgrade probes recorded.
    pub fn upgrades(&self) -> u64 {
        self.upgrades.get()
    }

    /// Overall miss rate counting upgrades as misses (they occupy the
    /// coherence machinery like misses do).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get() + self.upgrades.get();
        if total == 0 {
            0.0
        } else {
            (self.misses.get() + self.upgrades.get()) as f64 / total as f64
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
        assert_eq!(c.upgrades(), 1);
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
    fn miss_rate_counts_upgrades() {
        let mut c = L2Cache::new(4 << 10);
        let a = Addr::new(0);
        c.probe(a, false); // miss
        c.install(a, LineState::Shared);
        c.probe(a, false); // hit
        c.probe(a, true); // upgrade
        assert!((c.miss_rate() - 2.0 / 3.0).abs() < 1e-9);
    }
}
