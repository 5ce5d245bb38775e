//! Tag-only set-associative cache model for the MAGIC data cache (MDC).
//!
//! "To avoid consuming excessive memory bandwidth, the PP accesses this
//! information through the *MAGIC instruction cache* and *MAGIC data
//! cache*" (paper §2). The MDC is 64 KB, 2-way set associative with
//! 128-byte lines (§5.2). Since directory *contents* live in the node's
//! `ProtoMem`, this model tracks tags and LRU state only — hit/miss
//! timing and victim writebacks. The instruction cache needs no tag
//! store: the handlers fit its 32 KB (§5.3), so a line misses exactly on
//! its first fetch, and `flash_magic` keeps a set of fetched lines.

use flash_engine::Counter;

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheGeometry {
    /// The MAGIC data cache: 64 KB, 2-way, 128-byte lines (paper §5.2).
    pub const fn mdc() -> Self {
        CacheGeometry {
            size_bytes: 64 * 1024,
            ways: 2,
            line_bytes: 128,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways as u64)
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent and has been installed.
    Miss {
        /// Line address of a dirty victim that must be written back.
        victim_writeback: Option<u64>,
    },
}

/// One tag-store way, packed as `[tag << FLAG_BITS | flags, lru stamp]`.
/// An empty way is all-zero bytes, so a new tag store is one zeroed
/// allocation.
type Way = [u64; 2];

/// Flag bits in a way's first word.
const VALID: u64 = 1;
const DIRTY: u64 = 1 << 1;
const FLAG_BITS: u32 = 2;

/// A write-back, write-allocate, LRU, set-associative tag store.
///
/// # Examples
///
/// ```
/// use flash_mem::{Access, CacheGeometry, MagicCache};
///
/// let mut mdc = MagicCache::new(CacheGeometry::mdc());
/// assert!(matches!(mdc.access(0x1000, false), Access::Miss { .. }));
/// assert_eq!(mdc.access(0x1000, false), Access::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct MagicCache {
    geom: CacheGeometry,
    /// log2 of the line size: an address's line is `addr >> line_shift`.
    line_shift: u32,
    /// log2 of the set count: a line's set is its low `set_bits` bits and
    /// its tag the rest.
    set_bits: u32,
    ways: Vec<Way>,
    tick: u64,
    read_hits: Counter,
    read_misses: Counter,
    write_hits: Counter,
    write_misses: Counter,
    writebacks: Counter,
}

impl MagicCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics unless the line size and the set count are powers of two.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        assert!(
            geom.line_bytes.is_power_of_two(),
            "line size {} must be a power of two",
            geom.line_bytes
        );
        MagicCache {
            geom,
            line_shift: geom.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            ways: vec![[0; 2]; (sets * geom.ways as u64) as usize],
            tick: 0,
            read_hits: Counter::default(),
            read_misses: Counter::default(),
            write_hits: Counter::default(),
            write_misses: Counter::default(),
            writebacks: Counter::default(),
        }
    }

    /// Accesses the line containing `addr`, installing it on a miss.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.tick += 1;
        let (set, tag) = self.locate(addr);
        let ways = self.geom.ways as usize;
        let base = set * ways;

        let dirty = if write { DIRTY } else { 0 };
        let key = tag << FLAG_BITS | VALID;
        for w in &mut self.ways[base..base + ways] {
            if w[0] & !DIRTY == key {
                *w = [w[0] | dirty, self.tick];
                if write {
                    self.write_hits.incr();
                } else {
                    self.read_hits.incr();
                }
                return Access::Hit;
            }
        }

        // Miss: choose LRU victim.
        let victim_i = (0..ways)
            .min_by_key(|&i| {
                let [flags, lru] = self.ways[base + i];
                if flags & VALID != 0 {
                    lru
                } else {
                    0
                }
            })
            .expect("at least one way");
        let [victim, _] = self.ways[base + victim_i];
        let victim_writeback = if victim & (VALID | DIRTY) == VALID | DIRTY {
            self.writebacks.incr();
            Some(((victim >> FLAG_BITS) << self.set_bits | set as u64) << self.line_shift)
        } else {
            None
        };
        self.ways[base + victim_i] = [key | dirty, self.tick];
        if write {
            self.write_misses.incr();
        } else {
            self.read_misses.incr();
        }
        Access::Miss { victim_writeback }
    }

    /// The set and tag of the line holding `addr`.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = line & ((1 << self.set_bits) - 1);
        (set as usize, line >> self.set_bits)
    }

    /// Read hits observed.
    pub fn read_hits(&self) -> u64 {
        self.read_hits.get()
    }

    /// Read misses observed.
    pub fn read_misses(&self) -> u64 {
        self.read_misses.get()
    }

    /// Write hits observed.
    pub fn write_hits(&self) -> u64 {
        self.write_hits.get()
    }

    /// Write misses observed.
    pub fn write_misses(&self) -> u64 {
        self.write_misses.get()
    }

    /// Dirty victim writebacks produced.
    pub fn writebacks(&self) -> u64 {
        self.writebacks.get()
    }

    /// Overall miss rate (all accesses).
    pub fn miss_rate(&self) -> f64 {
        let misses = self.read_misses.get() + self.write_misses.get();
        let total = misses + self.read_hits.get() + self.write_hits.get();
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// Read miss rate (read accesses only).
    pub fn read_miss_rate(&self) -> f64 {
        let total = self.read_misses.get() + self.read_hits.get();
        if total == 0 {
            0.0
        } else {
            self.read_misses.get() as f64 / total as f64
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Tag-store integrity audit (checked mode): no set may hold the same
    /// tag in two valid ways (a duplicate would make hit/victim selection
    /// ambiguous), and no way's LRU stamp may exceed the access tick.
    pub fn audit(&self) -> Result<(), String> {
        let ways = self.geom.ways as usize;
        for set in 0..self.geom.sets() as usize {
            let base = set * ways;
            for i in 0..ways {
                let [a, lru] = self.ways[base + i];
                if a & VALID == 0 {
                    continue;
                }
                if lru > self.tick {
                    return Err(format!(
                        "set {set} way {i}: LRU stamp {lru} exceeds tick {}",
                        self.tick
                    ));
                }
                for j in i + 1..ways {
                    let b = self.ways[base + j][0];
                    if b & VALID != 0 && b >> FLAG_BITS == a >> FLAG_BITS {
                        return Err(format!(
                            "set {set}: tag {:#x} present in ways {i} and {j}",
                            a >> FLAG_BITS
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mdc_geometry() {
        let g = CacheGeometry::mdc();
        assert_eq!(g.sets(), 256);
        // 512 lines total, each covering 16 directory headers: the whole
        // MDC maps directory state for 1 MB of data (paper §5.2).
        let lines = g.sets() * g.ways as u64;
        assert_eq!(lines, 512);
        assert_eq!(lines * 16 * 128, 1 << 20);
    }

    #[test]
    fn hit_after_install() {
        let mut c = MagicCache::new(CacheGeometry::mdc());
        assert!(matches!(
            c.access(0x1234, false),
            Access::Miss {
                victim_writeback: None
            }
        ));
        assert_eq!(c.access(0x1200, false), Access::Hit, "same 128-byte line");
        assert_eq!(c.read_hits(), 1);
        assert_eq!(c.read_misses(), 1);
    }

    #[test]
    fn two_way_conflict_evicts_lru() {
        let g = CacheGeometry::mdc();
        let set_stride = g.sets() * g.line_bytes; // same set, different tag
        let mut c = MagicCache::new(g);
        c.access(0, false);
        c.access(set_stride, false);
        // Touch line 0 so `set_stride` becomes LRU.
        c.access(0, false);
        c.access(2 * set_stride, false);
        assert_eq!(c.access(0, false), Access::Hit);
        assert!(matches!(c.access(set_stride, false), Access::Miss { .. }));
    }

    #[test]
    fn dirty_victim_writes_back() {
        let g = CacheGeometry::mdc();
        let set_stride = g.sets() * g.line_bytes;
        let mut c = MagicCache::new(g);
        c.access(0, true); // dirty
        c.access(set_stride, false);
        let r = c.access(2 * set_stride, false); // evicts line 0
        assert_eq!(
            r,
            Access::Miss {
                victim_writeback: Some(0)
            }
        );
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let g = CacheGeometry::mdc();
        let set_stride = g.sets() * g.line_bytes;
        let mut c = MagicCache::new(g);
        c.access(0, false);
        c.access(0, true); // read-modify-write pattern of directory ops
        c.access(set_stride, false);
        let r = c.access(2 * set_stride, false);
        assert!(matches!(
            r,
            Access::Miss {
                victim_writeback: Some(0)
            }
        ));
    }

    #[test]
    fn miss_rates() {
        let mut c = MagicCache::new(CacheGeometry::mdc());
        c.access(0, false); // miss
        c.access(0, false); // hit
        c.access(0, true); // hit
        assert!((c.miss_rate() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(c.read_miss_rate(), 0.5);
    }

    #[test]
    fn audit_accepts_all_reachable_states() {
        let mut c = MagicCache::new(CacheGeometry::mdc());
        assert_eq!(c.audit(), Ok(()));
        let g = c.geometry();
        let set_stride = g.sets() * g.line_bytes;
        for i in 0..1000u64 {
            c.access((i % 7) * set_stride + (i % 64) * g.line_bytes, i % 3 == 0);
            if i % 97 == 0 {
                assert_eq!(c.audit(), Ok(()));
            }
        }
        assert_eq!(c.audit(), Ok(()));
    }

    #[test]
    fn shift_mask_indexing_equals_div_mod() {
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut addrs = vec![0, 127, 128, u64::MAX, u64::MAX - 127, u64::MAX - 128];
        for _ in 0..2000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            addrs.push(rng);
            addrs.push(u64::MAX - (rng >> 40));
        }
        let small = CacheGeometry {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
        };
        for g in [CacheGeometry::mdc(), small] {
            let (sets, line) = (g.sets(), g.line_bytes);
            let stride = sets * line;
            for &a in &addrs {
                let mut c = MagicCache::new(g);
                let l = a / line;
                assert_eq!(c.locate(a), ((l % sets) as usize, l / sets), "{a:#x}");
                // Fill the line's set, then evict it: the victim address
                // is the line's own.
                c.access(a, true);
                let step = |k: u64| {
                    if a > u64::MAX / 2 {
                        a - k * stride
                    } else {
                        a + k * stride
                    }
                };
                for k in 1..u64::from(g.ways) {
                    c.access(step(k), false);
                }
                assert_eq!(
                    c.access(step(u64::from(g.ways)), false),
                    Access::Miss {
                        victim_writeback: Some(l * line)
                    },
                    "{a:#x}"
                );
            }
        }
    }

    #[test]
    fn streaming_2kb_stride_pattern() {
        // A unit-stride walk misses once per 2 KB of data (one MDC line
        // maps 16 headers = 2 KB), the §5.2 argument.
        let mut c = MagicCache::new(CacheGeometry::mdc());
        let mut misses = 0;
        for i in 0..512u64 {
            // Directory header addresses for consecutive 128-byte lines.
            if matches!(c.access(i * 8, false), Access::Miss { .. }) {
                misses += 1;
            }
        }
        assert_eq!(misses, 512 / 16);
    }
}
