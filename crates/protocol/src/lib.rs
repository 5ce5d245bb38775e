//! The FLASH dynamic-pointer-allocation cache-coherence protocol.
//!
//! This crate contains everything MAGIC needs to run coherence: the message
//! type space ([`msg`]), the byte-level directory structures ([`dir`],
//! [`mem`]), the inbox [`jump`] table, and *two interchangeable
//! implementations of the same protocol*:
//!
//! * [`native`] — the Rust oracle used by the ideal machine (zero-time
//!   controller), which also reports Table 3.4 occupancy estimates
//!   ([`cost`]);
//! * [`handlers`] — the protocol written in PP assembly, executed on the
//!   `flash-pp` emulator by the detailed FLASH model, exactly as the real
//!   machine runs handler code on MAGIC.
//!
//! The two implementations operate on identical directory memory and are
//! differentially tested against each other (same message, same state ⇒
//! same directory mutation and same outgoing messages).
pub mod cost;
pub mod dir;
pub mod fields;
pub mod handlers;
pub mod jump;
pub mod mem;
pub mod msg;
pub mod native;

pub use cost::CostTable;
pub use dir::{dir_addr, DirHeader, Directory, PtrEntry};
pub use jump::{JumpEntry, JumpSlot, JumpTable};
pub use mem::ProtoMem;
pub use msg::{InMsg, Msg, MsgType, ProcMsg};
pub use native::{handle, NativeResult, Outgoing};
