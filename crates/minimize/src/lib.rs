//! # flash-minimize — delta-debugging failure shrinker
//!
//! The randomized correctness nets (checked stress, fault soak, the
//! native-vs-PP oracle) surface failures as a seed plus a
//! multi-million-cycle run — real, but undebuggable. This crate shrinks
//! such a failure to a minimal case, in the spirit of minirust's `tooling/minimize`: an executable reference kept honest by
//! reduced counterexamples.
//!
//! The pipeline:
//!
//! 1. A [`Spec`] (workload + machine config + fault plan + [`Predicate`])
//!    is materialized into a [`flash::repro::Repro`] — explicit,
//!    bounded per-processor reference lists via
//!    [`flash_workloads::ExplicitWorkload`], the fault plan as an
//!    editable [`flash_fault::FaultAtom`] list.
//! 2. [`search::minimize`] runs [`ddmin`](ddmin::ddmin) over references
//!    and fault atoms plus halving ladders over budget, watchdog, cache
//!    size, and mesh size, to a fixpoint, with every candidate evaluated
//!    under [`flash_bench::isolate`]'s panic/timeout isolation and
//!    matched against the *pinned* failure fingerprint ("same wedge, not
//!    just any wedge").
//! 3. The minimal case is emitted as a self-contained, versioned
//!    `flash-repro-v1` JSON artifact that replays bit-identically, and
//!    optionally as a ready-to-paste `#[test]` stub ([`emit::test_stub`]).
//!
//! The `minimize` bin drives the pipeline from the command line; the
//! randomized test suites print its exact invocation on every failure.

#![deny(missing_docs)]

pub mod ddmin;
pub mod emit;
pub mod predicate;
pub mod search;
pub mod spec;

pub use predicate::{EvalOptions, Predicate};
pub use search::{minimize, SearchOptions, Shrink};
pub use spec::{FaultsSpec, Source, Spec};
