//! Simulation time.
//!
//! All latencies in the paper are expressed in 10 ns system clock cycles
//! (MAGIC runs at 100 MHz). [`Cycle`] is an absolute point on that clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute simulation time in 10 ns system clock cycles.
///
/// `Cycle` is a newtype over `u64` so that absolute times cannot be
/// accidentally confused with durations (plain `u64`s).
///
/// # Examples
///
/// ```
/// use flash_engine::Cycle;
///
/// let t = Cycle::new(10) + 4;
/// assert_eq!(t, Cycle::new(14));
/// assert_eq!(t - Cycle::new(10), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero, the start of simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle from a raw count.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// The raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Nanoseconds represented by this time (10 ns per cycle).
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0 * 10
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, d: u64) -> Cycle {
        Cycle(self.0 + d)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, d: u64) {
        self.0 += d;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// Duration between two absolute times.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative duration: {self:?} - {rhs:?}");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_ordering() {
        let a = Cycle::new(5);
        let b = a + 7;
        assert_eq!(b.raw(), 12);
        assert_eq!(b - a, 7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn nanos_per_cycle() {
        assert_eq!(Cycle::new(22).as_nanos(), 220);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cycle::new(14).to_string(), "14c");
    }
}
