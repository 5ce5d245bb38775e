//! End-to-end and per-layer benchmark of the FLASH simulator.
//!
//! One command runs one workload for a fixed time, checks the simulated
//! output, and prints every metric by name with its unit; the last line
//! of stdout is the JSON result. See `README.md` in this directory for
//! the workloads, the metrics, and which layer metric should move which
//! end-to-end metric.

pub mod alloc;
pub mod bench;
pub mod check;
pub mod layers;
pub mod repro;
pub mod stats;
pub mod workload;
