//! Deterministic discrete-event simulation substrate for the FLASH
//! reproduction.
//!
//! This crate provides the building blocks shared by every other crate in
//! the workspace:
//!
//! * [`Cycle`] — simulation time measured in 10 ns system clock cycles,
//!   the unit used throughout the paper.
//! * [`EventQueue`] — a deterministic time-ordered event queue (FIFO among
//!   events scheduled for the same cycle).
//! * [`OccupancyTracker`] — accumulates busy time for a serially reusable
//!   resource (the PP, the memory controller) so that occupancy percentages
//!   like those of paper Tables 4.1/4.2 can be reported.
//! * [`DetRng`] — seeded, stream-split random numbers so simulations are
//!   reproducible bit-for-bit.
//! * [`Addr`] / [`NodeId`] — newtypes for physical addresses and node
//!   identifiers.
//! * [`knobs`] — the table of every `FLASH_*` environment variable and
//!   the one function that parses them.
//!
//! # Examples
//!
//! ```
//! use flash_engine::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle::new(5), "later");
//! q.push(Cycle::new(2), "sooner");
//! assert_eq!(q.pop(), Some((Cycle::new(2), "sooner")));
//! assert_eq!(q.pop(), Some((Cycle::new(5), "later")));
//! ```

#![deny(missing_docs)]

pub mod addr;
pub mod event;
pub mod fasthash;
pub mod json;
pub mod knobs;
pub mod rng;
pub mod stats;
pub mod time;

pub use addr::{Addr, LINE_BYTES, LINE_SHIFT};
pub use event::EventQueue;
pub use fasthash::{FastBuild, FastHasher, FastMap};
pub use rng::DetRng;
pub use stats::{
    Counter, LatencySplit, LogHist, OccupancyTracker, Segment, LOG_HIST_BUCKETS, LOG_HIST_SUB,
    LOG_HIST_SUB_BITS, SEGMENT_COUNT,
};
pub use time::Cycle;

/// Identifier of a FLASH node (one MAGIC chip, one processor, one memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}
