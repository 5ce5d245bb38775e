//! The MAGIC node controller.
//!
//! "Every FLASH node contains an off-the-shelf microprocessor, its
//! secondary cache, a portion of the machine's distributed memory, and a
//! flexible node controller called MAGIC" (paper §2). This crate models
//! the chip: the inbox (arbitration, jump-table lookup, speculative memory
//! initiation), the protocol processor (either emulated handler code or
//! the paper's zero-time *ideal* controller),
//! the MAGIC data and instruction caches, the outbox, and the PI/NI
//! outbound paths.

pub mod chip;
pub mod env;

pub use chip::{
    ControllerKind, Dispatch, Emission, HandlerStats, MagicChip, MagicScratch, MagicStats,
    MagicTimings, ObsInvocation, ObsParts, PpBackend, ReadClass, ReadClassCounts,
};
pub use env::MdcEnv;
