//! The FLASH interconnection network.
//!
//! "Any time a message enters the network, it is charged a fixed network
//! transit latency. This latency is based on the average transit time for
//! a two-dimensional mesh network having a per-hop fall-through time of
//! 40 ns. For our 16-processor simulations, the average message requires
//! latency equivalent to one hop to both enter and exit the network, 2.6
//! hops of network transit, and 3 cycles of network header information,
//! yielding an average transit time of 220 ns, or 22 cycles" (paper §3.2).
//!
//! [`Mesh`] computes topology-derived latencies for arbitrary node counts
//! (so the §4.5 64-processor runs scale correctly) and [`NetModel`]
//! charges them, optionally modelling per-hop distances instead of the
//! fixed average (an ablation the paper's fixed-latency model doesn't
//! attempt — useful for sensitivity studies).

pub mod mesh;
pub mod model;

pub use mesh::Mesh;
pub use model::{NetConfig, NetModel};
