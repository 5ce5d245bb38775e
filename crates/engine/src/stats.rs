//! Statistics primitives: counters, occupancy trackers, histograms.

use crate::time::Cycle;

/// A named event counter.
///
/// # Examples
///
/// ```
/// use flash_engine::Counter;
///
/// let mut misses = Counter::default();
/// misses.add(3);
/// misses.incr();
/// assert_eq!(misses.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// This count as a fraction of `total` (0.0 if `total` is zero).
    pub fn fraction_of(self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.0 as f64 / total as f64
        }
    }
}

/// Tracks the busy time of a serially reusable resource.
///
/// The paper reports "Avg. PP Occupancy" and "Avg. Mem Occupancy" (Tables
/// 4.1/4.2) as the fraction of total execution time the resource spent
/// busy. A resource is used by calling [`OccupancyTracker::acquire`], which
/// returns when the resource is next free and books the busy interval.
///
/// # Examples
///
/// ```
/// use flash_engine::{Cycle, OccupancyTracker};
///
/// let mut pp = OccupancyTracker::new();
/// // A handler arriving at cycle 10 that needs 11 cycles:
/// let start = pp.acquire(Cycle::new(10), 11);
/// assert_eq!(start, Cycle::new(10));
/// // A second handler arriving at cycle 15 queues behind it:
/// let start = pp.acquire(Cycle::new(15), 5);
/// assert_eq!(start, Cycle::new(21));
/// assert_eq!(pp.busy_cycles(), 16);
/// assert_eq!(pp.occupancy(Cycle::new(32)), 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OccupancyTracker {
    free_at: Cycle,
    busy: u64,
    uses: u64,
    queue_delay: u64,
}

impl OccupancyTracker {
    /// Creates a tracker with the resource free at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the resource at time `at` for `duration` cycles.
    ///
    /// Returns the time service actually starts (≥ `at`; later if the
    /// resource is still busy with earlier work).
    pub fn acquire(&mut self, at: Cycle, duration: u64) -> Cycle {
        let start = at.max(self.free_at);
        self.queue_delay += start - at;
        self.free_at = start + duration;
        self.busy += duration;
        self.uses += 1;
        start
    }

    /// Books a busy interval without queueing semantics (used when the
    /// caller has already serialized access, e.g. the emulated PP).
    pub fn record_busy(&mut self, duration: u64) {
        self.busy += duration;
        self.uses += 1;
    }

    /// Next time the resource is free.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Total busy cycles accumulated.
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }

    /// Number of acquisitions.
    pub fn uses(&self) -> u64 {
        self.uses
    }

    /// Total cycles requests spent waiting for the resource.
    pub fn queue_delay_cycles(&self) -> u64 {
        self.queue_delay
    }

    /// Busy fraction over a run that ended at `end` (0.0 for an empty run).
    pub fn occupancy(&self, end: Cycle) -> f64 {
        if end.raw() == 0 {
            0.0
        } else {
            self.busy as f64 / end.raw() as f64
        }
    }
}

/// Sub-bucket resolution of a [`LogHist`]: each power-of-two octave is
/// split into `2^LOG_HIST_SUB_BITS` linear sub-buckets, bounding the
/// relative quantization error of any reported quantile to `1/8 = 12.5%`.
pub const LOG_HIST_SUB_BITS: u32 = 3;
/// Sub-buckets per octave (`8`).
pub const LOG_HIST_SUB: u64 = 1 << LOG_HIST_SUB_BITS;
/// Total bucket count of a [`LogHist`]: values below 8 get exact unit
/// buckets, and every octave `[2^e, 2^(e+1))` for `e in 3..64` contributes
/// 8 sub-buckets: `8 + 61 * 8 = 496` (the last index is `(63-2)*8 + 7`).
pub const LOG_HIST_BUCKETS: usize = (62 * LOG_HIST_SUB) as usize;

/// A fixed log-linear-bucket histogram with deterministic percentile
/// estimation — the latency-distribution primitive behind the observer's
/// per-class latency percentiles (`LatencyReport` in the `flash` crate).
///
/// The bucket layout is fixed at compile time (HDR-histogram style):
/// values `0..8` land in exact unit buckets; a value in octave
/// `[2^e, 2^(e+1))` lands in one of 8 linear sub-buckets of width
/// `2^(e-3)`. Every operation is integer-only, and
/// [`LogHist::percentile`] reports the *floor* of the bucket holding the
/// requested rank — a pure function of the bucket counts. Merging is
/// therefore exact: bucket counts add, so percentiles computed from a
/// merged histogram equal those of a histogram fed every sample directly.
/// That is the shard-invariance contract: per-shard histograms merged in
/// canonical order are indistinguishable from a single-shard run.
///
/// # Examples
///
/// ```
/// use flash_engine::LogHist;
///
/// let mut a = LogHist::new();
/// let mut b = LogHist::new();
/// let mut whole = LogHist::new();
/// for v in 0..1000u64 {
///     if v % 2 == 0 { a.record(v) } else { b.record(v) }
///     whole.record(v);
/// }
/// let mut merged = a.clone();
/// merged.merge(&b);
/// assert_eq!(merged, whole);                      // exact, not approximate
/// assert_eq!(merged.percentile(500), whole.percentile(500));
/// assert_eq!(merged.max(), 999);
/// assert!(merged.percentile(990) >= merged.percentile(500));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHist {
    buckets: [u64; LOG_HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: [0; LOG_HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a sample (total order, contiguous from 0).
    #[inline]
    fn index(sample: u64) -> usize {
        if sample < LOG_HIST_SUB {
            sample as usize
        } else {
            let e = 63 - sample.leading_zeros() as u64;
            let sub = (sample >> (e - LOG_HIST_SUB_BITS as u64)) & (LOG_HIST_SUB - 1);
            ((e - 2) * LOG_HIST_SUB + sub) as usize
        }
    }

    /// Smallest sample a bucket can hold (the value
    /// [`LogHist::percentile`] reports).
    #[inline]
    pub fn bucket_floor(index: usize) -> u64 {
        let i = index as u64;
        if i < LOG_HIST_SUB {
            i
        } else {
            let e = i / LOG_HIST_SUB + 2;
            let sub = i % LOG_HIST_SUB;
            (LOG_HIST_SUB + sub) << (e - LOG_HIST_SUB_BITS as u64)
        }
    }

    /// Records one sample. The running sum saturates instead of
    /// overflowing (saturating unsigned addition stays associative and
    /// commutative, so [`LogHist::merge`]'s exactness contract survives
    /// even at the numeric ceiling).
    pub fn record(&mut self, sample: u64) {
        self.buckets[Self::index(sample)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample — exact, not bucket-quantized (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Merges another histogram into this one. Bucket counts add, so the
    /// result is exactly the histogram that would have seen every sample:
    /// merge is associative and commutative, and percentiles of the merge
    /// equal percentiles of the combined stream.
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The `permille/1000` quantile as a bucket floor (integer-exact and
    /// merge-invariant): the floor of the bucket holding the sample of
    /// rank `ceil(count * permille / 1000)` (clamped to at least 1).
    /// `percentile(500)` is the median estimate, `percentile(990)` p99,
    /// `percentile(999)` p999. Returns 0 on an empty histogram.
    pub fn percentile(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let need = ((self.count * permille).div_ceil(1000)).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= need {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(LOG_HIST_BUCKETS - 1)
    }

    /// Iterates over the non-empty buckets as `(floor, count)` pairs in
    /// ascending floor order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
    }
}

/// One attributable component of an end-to-end miss latency.
///
/// Every completed request in an observed run (see the `flash` crate's
/// `MachineConfig::with_observe`) decomposes its latency into exactly
/// these six buckets, in pipeline order. The decomposition is exhaustive:
/// the per-request segment values always sum to the request's total
/// issue-to-completion latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Segment {
    /// Processor-interface cycles: bus, PI in/out, arbitration, and the
    /// cache-miss detection path on both the outbound and reply legs.
    Pi = 0,
    /// Cycles the request's message sat in a MAGIC inbox waiting for the
    /// protocol processor (plus the fixed inbox arbitration + jump-table
    /// dispatch stages).
    InboxWait = 1,
    /// Protocol-processor occupancy: cycles the handler itself executed
    /// (zero on the ideal machine).
    Handler = 2,
    /// Memory-system cycles: DRAM access, MAGIC data/instruction cache
    /// penalties, and waiting for data that the handler's reply depends on.
    Mem = 3,
    /// Outbox and network-interface cycles on the sending side.
    NiWait = 4,
    /// 2-D mesh transit cycles plus the receiving NI input stage.
    Mesh = 5,
}

/// Number of [`Segment`] variants; the length of a per-request split.
pub const SEGMENT_COUNT: usize = 6;

impl Segment {
    /// All segments in pipeline order.
    pub const ALL: [Segment; SEGMENT_COUNT] = [
        Segment::Pi,
        Segment::InboxWait,
        Segment::Handler,
        Segment::Mem,
        Segment::NiWait,
        Segment::Mesh,
    ];

    /// Stable machine-readable name used in exports (`METRICS.md` schema).
    pub fn name(self) -> &'static str {
        match self {
            Segment::Pi => "pi",
            Segment::InboxWait => "inbox_wait",
            Segment::Handler => "handler",
            Segment::Mem => "mem",
            Segment::NiWait => "ni_wait",
            Segment::Mesh => "mesh",
        }
    }

    /// Index of this segment in a `[u64; SEGMENT_COUNT]` split.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Accumulates per-segment latency attributions for a class of requests.
///
/// Each call to [`LatencySplit::record`] adds one completed request's
/// six-way decomposition (see [`Segment`]). Totals, means, and fractions
/// are all zero-guarded: an empty split reports 0.0 everywhere rather
/// than NaN.
///
/// # Examples
///
/// ```
/// use flash_engine::{LatencySplit, Segment};
///
/// let mut s = LatencySplit::new();
/// s.record([5, 3, 11, 14, 5, 12]);
/// assert_eq!(s.count(), 1);
/// assert_eq!(s.total(), 50);
/// assert_eq!(s.mean(), 50.0);
/// assert_eq!(s.fraction(Segment::Handler), 0.22);
/// assert_eq!(LatencySplit::new().mean(), 0.0); // zero-guarded
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySplit {
    count: u64,
    segs: [u64; SEGMENT_COUNT],
}

impl LatencySplit {
    /// Creates an empty split.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one request's segment decomposition.
    pub fn record(&mut self, segs: [u64; SEGMENT_COUNT]) {
        self.count += 1;
        for (a, b) in self.segs.iter_mut().zip(segs.iter()) {
            *a += b;
        }
    }

    /// Number of requests recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Accumulated cycles in one segment.
    pub fn seg(&self, s: Segment) -> u64 {
        self.segs[s.index()]
    }

    /// Accumulated cycles per segment, in [`Segment::ALL`] order.
    pub fn segs(&self) -> [u64; SEGMENT_COUNT] {
        self.segs
    }

    /// Total cycles across all segments and requests.
    pub fn total(&self) -> u64 {
        self.segs.iter().sum()
    }

    /// Mean end-to-end latency per request (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total() as f64 / self.count as f64
        }
    }

    /// Mean cycles per request spent in one segment (0.0 when empty).
    pub fn mean_seg(&self, s: Segment) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.seg(s) as f64 / self.count as f64
        }
    }

    /// Fraction of total latency attributed to one segment (0.0 when the
    /// total is zero).
    pub fn fraction(&self, s: Segment) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.seg(s) as f64 / total as f64
        }
    }

    /// Merges another split into this one.
    pub fn merge(&mut self, other: &LatencySplit) {
        self.count += other.count;
        for (a, b) in self.segs.iter_mut().zip(other.segs.iter()) {
            *a += b;
        }
    }

    /// Per-segment difference `self − other` (saturating at zero), with
    /// the count also differenced. Used to isolate the contribution of a
    /// single measured request between two accumulated snapshots.
    pub fn minus(&self, other: &LatencySplit) -> LatencySplit {
        let mut segs = [0u64; SEGMENT_COUNT];
        for (i, s) in segs.iter_mut().enumerate() {
            *s = self.segs[i].saturating_sub(other.segs[i]);
        }
        LatencySplit {
            count: self.count.saturating_sub(other.count),
            segs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_fraction() {
        let mut c = Counter::default();
        c.add(25);
        assert_eq!(c.fraction_of(100), 0.25);
        assert_eq!(c.fraction_of(0), 0.0);
    }

    #[test]
    fn occupancy_serializes_back_to_back() {
        let mut t = OccupancyTracker::new();
        assert_eq!(t.acquire(Cycle::new(0), 10), Cycle::new(0));
        // Arrives while busy: queues.
        assert_eq!(t.acquire(Cycle::new(4), 10), Cycle::new(10));
        assert_eq!(t.queue_delay_cycles(), 6);
        // Arrives after idle gap: no queueing.
        assert_eq!(t.acquire(Cycle::new(100), 1), Cycle::new(100));
        assert_eq!(t.busy_cycles(), 21);
        assert_eq!(t.uses(), 3);
    }

    #[test]
    fn occupancy_fraction() {
        let mut t = OccupancyTracker::new();
        t.acquire(Cycle::new(0), 25);
        assert_eq!(t.occupancy(Cycle::new(100)), 0.25);
        assert_eq!(OccupancyTracker::new().occupancy(Cycle::ZERO), 0.0);
    }

    /// NaN-guard pins for the zero-length-run paths (Issue 5 satellite):
    /// `Counter::fraction_of(0)` and `OccupancyTracker::occupancy(ZERO)`
    /// must return exactly 0.0 (not NaN) even after activity.
    #[test]
    fn zero_length_run_reports_zero_not_nan() {
        let mut c = Counter::default();
        c.add(17);
        let f = c.fraction_of(0);
        assert_eq!(f, 0.0);
        assert!(!f.is_nan());

        let mut t = OccupancyTracker::new();
        t.record_busy(123); // busy > 0 but run length 0
        let occ = t.occupancy(Cycle::ZERO);
        assert_eq!(occ, 0.0);
        assert!(!occ.is_nan());
    }

    #[test]
    fn latency_split_accumulates_and_guards_zero() {
        let mut s = LatencySplit::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.fraction(Segment::Pi), 0.0);
        assert_eq!(s.mean_seg(Segment::Mesh), 0.0);
        s.record([5, 3, 11, 14, 5, 12]);
        s.record([5, 1, 11, 14, 5, 12]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.total(), 98);
        assert_eq!(s.mean(), 49.0);
        assert_eq!(s.seg(Segment::InboxWait), 4);
        assert_eq!(s.mean_seg(Segment::Handler), 11.0);
        assert!((s.fraction(Segment::Mem) - 28.0 / 98.0).abs() < 1e-12);

        let mut other = LatencySplit::new();
        other.record([1, 1, 1, 1, 1, 1]);
        let mut merged = s;
        merged.merge(&other);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.total(), 104);

        let diff = merged.minus(&s);
        assert_eq!(diff.count(), 1);
        assert_eq!(diff.segs(), [1, 1, 1, 1, 1, 1]);
        // Saturating: subtracting the larger from the smaller pins at 0.
        let sat = other.minus(&s);
        assert_eq!(sat.count(), 0);
        assert_eq!(sat.total(), 0);
    }

    #[test]
    fn log_hist_buckets_are_contiguous_and_monotone() {
        // Every sample maps to exactly one bucket, indices are monotone in
        // the sample, and the floor of a sample's bucket never exceeds the
        // sample (the floor is what percentile() reports).
        let mut last = 0usize;
        for v in 0..4096u64 {
            let i = LogHist::index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(i < LOG_HIST_BUCKETS);
            assert!(LogHist::bucket_floor(i) <= v, "floor above sample at {v}");
            // The sample sits strictly below the next bucket's floor.
            if i + 1 < LOG_HIST_BUCKETS {
                assert!(
                    v < LogHist::bucket_floor(i + 1),
                    "sample past bucket at {v}"
                );
            }
            last = i;
        }
        // Extremes hit the first and last buckets without panicking.
        assert_eq!(LogHist::index(0), 0);
        assert_eq!(LogHist::index(u64::MAX), LOG_HIST_BUCKETS - 1);
        for i in 0..LOG_HIST_BUCKETS {
            assert_eq!(LogHist::index(LogHist::bucket_floor(i)), i);
        }
    }

    #[test]
    fn log_hist_percentiles_are_deterministic_bucket_floors() {
        let mut h = LogHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 1);
        // The rank-500 sample is 500; its bucket is [480, 512) → floor 480.
        assert_eq!(h.percentile(500), 480);
        // p99 → rank 990 → bucket [960, 1024) → floor 960.
        assert_eq!(h.percentile(990), 960);
        assert_eq!(h.percentile(999), 960);
        assert_eq!(h.percentile(1000), 960);
        assert_eq!(LogHist::new().percentile(500), 0);
        // Quantization error is bounded: floor ≥ sample * 8/9 for v ≥ 8.
        assert!(h.percentile(500) as f64 >= 500.0 * 8.0 / 9.0);
    }

    #[test]
    fn log_hist_merge_is_exact() {
        let mut parts: Vec<LogHist> = (0..4).map(|_| LogHist::new()).collect();
        let mut whole = LogHist::new();
        let mut r = crate::DetRng::for_stream(7, 7);
        for i in 0..10_000u64 {
            let v = r.next_u64() >> (r.below(40) + 10);
            parts[(i % 4) as usize].record(v);
            whole.record(v);
        }
        let mut merged = LogHist::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, whole);
        let total: u64 = merged.buckets().map(|(_, c)| c).sum();
        assert_eq!(total, merged.count());
        let floors: Vec<u64> = merged.buckets().map(|(f, _)| f).collect();
        assert!(floors.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn segment_names_and_order_are_stable() {
        let names: Vec<_> = Segment::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["pi", "inbox_wait", "handler", "mem", "ni_wait", "mesh"]
        );
        for (i, s) in Segment::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Segment::ALL.len(), SEGMENT_COUNT);
    }
}
