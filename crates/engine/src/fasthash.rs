//! Deterministic fast hashing for per-event map lookups.
//!
//! `std::collections::HashMap`'s default SipHash-1-3 is DoS-resistant but
//! costs tens of nanoseconds per lookup — real money on maps consulted
//! once per simulated event (chip handler entry points, checker exemption
//! sets, fault-injector draw streams). [`FastHasher`] is the multiply-fold
//! mixer already proven in the protocol crate's paged memory
//! (`PageHasher`), generalized to a byte-stream [`std::hash::Hasher`] so
//! it can back any key type.
//!
//! Determinism contract: the hash of a key is a pure function of its
//! bytes — no per-process random seed — so map *placement* is identical
//! across runs, processes, and hosts. Iteration order of a [`FastMap`] is
//! still unspecified (it depends on insertion history); callers that
//! surface map contents must sort first, exactly as they must with the
//! std default. Run determinism relies on this: every `FastMap` on a
//! hot path is consulted by key or drained through a sort, never iterated
//! into an observable artifact directly.

use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci multiplier (2^64 / golden ratio), the same constant the
/// protocol memory's page index uses.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// A deterministic, seedless, multiply-fold streaming hasher.
///
/// Quality is ample for the small integer and `&'static str` keys used on
/// simulator hot paths; it makes no DoS-resistance claims (keys here are
/// simulator-internal, never attacker-controlled).
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche: high bits already well mixed by the last fold.
        let x = self.state;
        let x = (x ^ (x >> 32)).wrapping_mul(FIB);
        x ^ (x >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // 8-byte chunks, then a length-tagged tail so "ab" | "c" and
        // "a" | "bc" differ.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.state = (self.state ^ v).wrapping_mul(FIB);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut v = 0u64;
            for (i, &b) in rem.iter().enumerate() {
                v |= (b as u64) << (8 * i);
            }
            v |= (rem.len() as u64) << 56;
            self.state = (self.state ^ v).wrapping_mul(FIB);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state ^ v).wrapping_mul(FIB);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] (zero-sized, seedless).
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` with deterministic fast hashing — the drop-in replacement
/// for SipHash maps on per-event paths. See the module docs for the
/// iteration-order caveat.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastBuild::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        // No per-instance seed: two independently built maps place keys
        // identically (unlike RandomState).
        assert_eq!(hash_of(&(3u16, 77u64)), hash_of(&(3u16, 77u64)));
        assert_eq!(hash_of(&"ni_get"), hash_of(&"ni_get"));
    }

    #[test]
    fn stream_boundaries_matter() {
        let mut a = FastHasher::default();
        a.write(b"ab");
        a.write(b"c");
        let mut b = FastHasher::default();
        b.write(b"a");
        b.write(b"bc");
        // Same concatenation hashed in different chunkings is allowed to
        // collide or not; what must differ is distinct *content*.
        let mut c = FastHasher::default();
        c.write(b"abd");
        assert_ne!(a.finish(), c.finish());
        assert_ne!(b.finish(), c.finish());
    }

    #[test]
    fn nearby_integer_keys_spread() {
        // The checker/injector keys are dense small integers; the hash
        // must not map them to consecutive buckets of a tiny table.
        let h: Vec<u64> = (0u64..16).map(|i| hash_of(&i) % 16).collect();
        let distinct: std::collections::BTreeSet<_> = h.iter().collect();
        assert!(distinct.len() > 8, "low-bit clustering: {h:?}");
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FastMap<(u16, u64), u32> = FastMap::default();
        for i in 0..100u64 {
            *m.entry((i as u16 % 7, i)).or_insert(0) += 1;
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&(3, 3)), Some(&1));
        m.remove(&(3, 3));
        assert!(!m.contains_key(&(3, 3)));
    }
}
