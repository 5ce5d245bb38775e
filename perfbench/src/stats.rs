//! Medians, the host-speed probe, and the benchmark's own spans.

use std::hint::black_box;
use std::time::Instant;

/// Median of `v` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Probe time, in seconds, that defines host speed 1.0.
const PROBE_REF_S: f64 = 0.04;

/// `n` random read-modify-writes over a table of `len` words
/// (`len` a power of two), timed; the table is filled before the clock
/// starts so page faults stay out of the timing.
fn random_updates_s(len: usize, n: u32) -> f64 {
    let mut table = vec![1u64; len];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (len - 1);
        table[i] = table[i].wrapping_add(x);
    }
    black_box(&table);
    start.elapsed().as_secs_f64()
}

/// Host seconds for a fixed probe, about 40 ms: one pass over a 4 MiB
/// table that stays in cache and one over a 32 MiB table that does not,
/// since the simulator's speed depends on both (`mp3d` tracks the first,
/// the 750 MB `open1024` machine the second). With several `threads` the
/// probe runs on each at once and the mean time counts.
fn probe_s(threads: usize) -> f64 {
    let once = || random_updates_s(1 << 19, 6_000_000) + random_updates_s(1 << 22, 2_000_000);
    if threads <= 1 {
        return once();
    }
    let total: f64 = std::thread::scope(|s| {
        let probes: Vec<_> = (0..threads).map(|_| s.spawn(once)).collect();
        probes
            .into_iter()
            .map(|p| p.join().expect("the probe does not panic"))
            .sum()
    });
    total / threads as f64
}

/// Host speed measured around a timed interval.
///
/// The host's speed drifts by ±20% over seconds (other tenants; not
/// steal time, since thread CPU time tracks wall time), so a raw timing
/// says as much about the host as about the simulator. A fixed probe
/// runs right before and right after the interval; [`HostSpeed::scale`]
/// converts the interval's host seconds into seconds at the reference
/// speed, the probe's mean time standing for the host's speed during the
/// interval.
#[derive(Debug)]
pub struct HostSpeed {
    threads: usize,
    before_s: f64,
}

impl HostSpeed {
    /// Probes before an interval whose work runs on `threads` threads.
    pub fn probe(threads: usize) -> Self {
        HostSpeed {
            threads,
            before_s: probe_s(threads),
        }
    }

    /// Probes after the interval; returns the factor that converts its
    /// host seconds into reference seconds.
    pub fn scale(self) -> f64 {
        2.0 * PROBE_REF_S / (self.before_s + probe_s(self.threads))
    }
}

/// One timed call into a crate's public API, recorded by the benchmark
/// (never inside the program).
#[derive(Debug, Clone)]
struct Span {
    /// Metric name of the layer boundary (`core.build_s`, ...).
    name: &'static str,
    /// Start, seconds since the collector was created.
    start_s: f64,
    /// End, seconds since the collector was created.
    end_s: f64,
}

/// In-memory span collector; summarized when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Times `f` as span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            end_s: end.duration_since(self.origin).as_secs_f64(),
        });
        out
    }

    /// Records a span of `secs` that ends now (timed by the caller, or
    /// by the `repro` child process).
    pub fn record(&mut self, name: &'static str, secs: f64) {
        let end_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s: end_s - secs,
            end_s,
        });
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
