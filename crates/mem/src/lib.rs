//! The FLASH node memory system.
//!
//! * [`controller::MemController`] — the DRAM controller: 14 cycles to the
//!   first 8 bytes, a 64-bit data path (16 cycles to stream a 128-byte
//!   line), and the single-entry request queue of paper Table 3.1 whose
//!   exhaustion stalls the PP or inbox. The ideal machine uses the same
//!   timing with an infinite queue.
//! * [`magic_cache::MagicCache`] — the tag-only set-associative model of
//!   the MAGIC data cache (64 KB, 2-way, 128-byte lines; paper §5.2).

pub mod controller;
pub mod magic_cache;

pub use controller::{MemController, MemResult, MemTiming};
pub use magic_cache::{Access, CacheGeometry, MagicCache};
