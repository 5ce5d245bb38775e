//! # flash — the Stanford FLASH flexibility study, reproduced
//!
//! This crate assembles the full system of *"The Performance Impact of
//! Flexibility in the Stanford FLASH Multiprocessor"* (ASPLOS 1994): a
//! FLASH machine whose MAGIC node controllers execute real protocol
//! handler code on an emulated protocol processor, and the paper's
//! *idealized* hardwired machine whose controller processes every protocol
//! operation in zero time. Comparing application execution time between
//! the two measures the cost of flexibility.
//!
//! ```
//! use flash::{Machine, MachineConfig, RunResult};
//! use flash::config::node_addr;
//! use flash_cpu::{RefStream, SliceStream, WorkItem};
//! use flash_engine::NodeId;
//!
//! // One processor reading a remote line on a 2-node FLASH machine.
//! let items = vec![WorkItem::Read(node_addr(NodeId(1), 0)), WorkItem::Busy(4)];
//! let streams: Vec<Box<dyn RefStream>> = vec![
//!     Box::new(SliceStream::new(items)),
//!     Box::new(SliceStream::new(vec![WorkItem::Busy(4)])),
//! ];
//! let mut machine = Machine::new(MachineConfig::flash(2), streams);
//! let RunResult::Completed { exec_cycles } = machine.run(1_000_000) else {
//!     panic!("budget exhausted");
//! };
//! assert!(exec_cycles > 100, "a remote miss costs ~111 cycles");
//! ```

pub mod config;
pub mod hostprof;
pub mod machine;
pub mod observe;
pub mod report;
pub mod repro;

pub use config::{MachineConfig, PathLatencies, Placement, DEFAULT_WATCHDOG_WINDOW};
pub use flash_fault::{FaultPlan, FaultStats, LinkDown, WedgeReport};
pub use flash_magic::{ControllerKind, PpBackend};
pub use hostprof::{HostProfile, HOST_SEG_COUNT};
pub use machine::{Machine, RunResult};
pub use observe::{ClassRow, HandlerRow, LatencyReport, LatencyRow, ObserveReport, TrafficStats};
pub use report::{compare, format_table, Comparison, LatencyTable, MachineReport};
pub use repro::{ReplayOutcome, Repro, REPRO_SCHEMA};

/// Protocol-memory address of the directory header for an address
/// (re-exported for machine-state inspection in tests and tools).
pub use flash_protocol::dir_addr as dir_addr_of;
