//! Open-loop traffic generation for the FLASH machine.
//!
//! Every workload in `flash-workloads` is *closed-loop*: a processor asks
//! its stream for the next reference the instant the previous one
//! retires, so the machine is never observed under a load it did not set
//! itself. This crate supplies the other regime, the one where the
//! paper's flexibility-cost question bites hardest: references *arrive*
//! on a wall-clock schedule whether or not the machine has kept up, and
//! the interesting observables are queueing — admission backlog, p99/p999
//! latency, the knee where offered load crosses capacity.
//!
//! The pieces:
//!
//! * [`ArrivalSource`] — the one-method contract: a monotone stream of
//!   `(cycle, WorkItem)` arrivals. The machine schedules an event per
//!   arrival and feeds an admission mailbox (`flash_cpu::Mailbox`).
//! * [`TrafficSpec`] — Poisson arrivals over uniformly drawn objects,
//!   one [`OpenLoopSource`] per node, deterministically from a seed.
//! * [`materialize`] — flattens a bounded prefix of a source into a
//!   closed-loop item vector (`Busy` gaps standing in for inter-arrival
//!   time), the bridge `flash-minimize` uses to shrink open-loop
//!   failures with the existing stream machinery.
//!
//! Everything is driven by [`flash_engine::DetRng`]: the same spec and
//! seed produce bit-identical arrival sequences on every platform, which
//! is what lets `traffic_suite` demand identical latency reports across
//! shard counts and PP backends.
//!
//! # Examples
//!
//! ```
//! use flash_traffic::{ArrivalSource, TrafficSpec};
//!
//! let spec = TrafficSpec::poisson(4, 64, 100, 50, 1);
//! let mut src = spec.source_for(0);
//! let mut last = 0;
//! let mut n = 0;
//! while let Some((at, _item)) = src.next_arrival() {
//!     assert!(at.raw() >= last, "arrivals are monotone");
//!     last = at.raw();
//!     n += 1;
//! }
//! assert_eq!(n, 100, "finite source delivers exactly its budget");
//! ```

#![deny(missing_docs)]

pub mod spec;

pub use spec::{materialize, OpenLoopSource, TrafficSpec};

use flash_cpu::WorkItem;
use flash_engine::Cycle;

/// A stream of timed reference arrivals for one processor.
///
/// The contract:
///
/// * Cycles are **nondecreasing** — each arrival happens at or after the
///   previous one. Ties are legal (several references can land on the
///   same cycle; they queue).
/// * `None` is **final** — the source is exhausted and the machine closes
///   the processor's mailbox.
/// * Items are plain references (`Read`/`Write`/`Busy`); sources must not
///   emit `WorkItem::Done` (end-of-stream is `None`) and synchronization
///   items (`Barrier`/`Lock`/`Unlock`) are rejected by the machine, since
///   an open-loop node has no partner to rendezvous with.
///
/// `Send` is a supertrait so a source can live on the shard worker that
/// owns its node.
pub trait ArrivalSource: Send {
    /// The next `(arrival cycle, reference)`, or `None` when exhausted.
    fn next_arrival(&mut self) -> Option<(Cycle, WorkItem)>;
}
