//! The FLASH compute processor.
//!
//! Paper §3.2: "an aggressive, 400 MIPS compute processor", i.e. up to
//! four instruction/reference slots per 10 ns system cycle; "blocking
//! reads but non-blocking writes" with index-conflict stalls and same-line
//! write merging; a two-way set-associative cache with 128-byte lines,
//! up to 4 outstanding misses, and critical-word-first fills; the
//! processor implements its own cache control, so MAGIC issues bus
//! transactions (interventions, invalidations) to reach it.
//!
//! Like Tango Lite in the original methodology, applications are reduced
//! to per-processor *reference streams* ([`stream::RefStream`]): busy
//! gaps, reads, writes and synchronization markers. [`proc::Processor`]
//! interprets a stream against its cache, producing coherence requests for
//! MAGIC and stall-time accounting (busy / read / write / sync /
//! cache-contention, the execution-time buckets of paper Figure 4.1).

pub mod cache;
pub mod mshr;
pub mod proc;
pub mod stream;

pub use cache::{CpuAccess, L2Cache, LineState, Victim};
pub use mshr::{MissKind, Mshr, MshrFile};
pub use proc::{BusReply, CpuOut, ProcStats, Processor, RunOutcome};
pub use stream::{
    LineRun, Mailbox, MailboxHandle, MailboxStream, RefStream, Run, SliceStream, WorkItem,
};
