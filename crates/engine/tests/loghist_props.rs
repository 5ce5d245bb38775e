//! Property tests for [`LogHist`]'s merge algebra — the contract behind
//! the latency percentile report's shard invariance.
//!
//! The observer's per-class latency histograms are built per shard and
//! combined by [`LogHist::merge`]; the report promises the combined
//! percentiles are *exactly* those of a single-shard run. That holds iff
//! merge is plain bucket addition: commutative, associative, with the
//! empty histogram as identity, and "record everything in one histogram"
//! indistinguishable from "record anywhere, merge later" for any
//! partition of the samples.

use flash_engine::LogHist;
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> LogHist {
    let mut h = LogHist::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// Samples spanning the interesting octaves: exact unit buckets (0..8),
/// mid-range latencies, and the far tail.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..512,
        3 => 512u64..1_000_000,
        1 => any::<u64>(),
    ]
}

proptest! {
    #[test]
    fn merge_is_commutative(a in proptest::collection::vec(sample(), 0..200),
                            b in proptest::collection::vec(sample(), 0..200)) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(a in proptest::collection::vec(sample(), 0..150),
                            b in proptest::collection::vec(sample(), 0..150),
                            c in proptest::collection::vec(sample(), 0..150)) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone(); // (a + b) + c
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone(); // a + (b + c)
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn empty_is_the_merge_identity(a in proptest::collection::vec(sample(), 0..200)) {
        let h = hist_of(&a);
        let mut merged = h.clone();
        merged.merge(&LogHist::new());
        prop_assert_eq!(&merged, &h);
        let mut from_empty = LogHist::new();
        from_empty.merge(&h);
        prop_assert_eq!(&from_empty, &h);
    }

    /// The shard-invariance contract itself: split one sample stream
    /// across `k` "shards" by an arbitrary assignment, merge the shard
    /// histograms, and every observable — the whole histogram, and
    /// explicitly each exported percentile (p50/p99/p999), count, sum,
    /// min, max — equals the single-shard run's.
    #[test]
    fn sharded_merge_equals_single_shard(samples in proptest::collection::vec(sample(), 1..400),
                                         assign in proptest::collection::vec(0usize..4, 1..400),
                                         k in 1usize..=4) {
        let single = hist_of(&samples);
        let mut shards = vec![LogHist::new(); k];
        for (i, &s) in samples.iter().enumerate() {
            shards[assign[i % assign.len()] % k].record(s);
        }
        let mut merged = LogHist::new();
        for sh in &shards {
            merged.merge(sh);
        }
        prop_assert_eq!(&merged, &single);
        for permille in [500u64, 990, 999] {
            prop_assert_eq!(merged.percentile(permille), single.percentile(permille));
        }
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.sum(), single.sum());
        prop_assert_eq!(merged.min(), single.min());
        prop_assert_eq!(merged.max(), single.max());
    }

    /// Percentile is monotone in the requested rank and brackets to
    /// [min-bucket-floor, max]: what makes p50 <= p99 <= p999 <= max a
    /// structural guarantee of the latency report, not a property of
    /// the data.
    #[test]
    fn percentiles_are_monotone(samples in proptest::collection::vec(sample(), 1..300)) {
        let h = hist_of(&samples);
        let mut last = 0;
        for permille in [0u64, 100, 250, 500, 900, 990, 999, 1000] {
            let p = h.percentile(permille);
            prop_assert!(p >= last, "percentile must be monotone in rank");
            last = p;
        }
        prop_assert!(last <= h.max(), "no percentile exceeds the true max");
    }
}
