//! Per-processor reference streams (the Tango Lite role).

use flash_engine::Addr;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One element of a processor's reference stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkItem {
    /// `n` instructions of pure computation (1 instruction = 1 issue slot
    /// = a quarter of a 10 ns system cycle at 400 MIPS).
    Busy(u64),
    /// A load from `addr`.
    Read(Addr),
    /// A store to `addr`.
    Write(Addr),
    /// Global barrier: wait until every processor arrives.
    Barrier,
    /// Acquire lock `id` (simulation-level; contention counts as sync
    /// stall).
    Lock(u32),
    /// Release lock `id`.
    Unlock(u32),
    /// End of the stream.
    Done,
}

/// The rest of one sweep line: `refs` references to the line of `addr`,
/// all reads or all writes, each preceded by `Busy(busy_per_ref)` when
/// `busy_per_ref > 0`.
///
/// Expanded item by item it is `[Busy(busy_per_ref), Read/Write(addr)]`
/// repeated `refs` times (just the references when `busy_per_ref` is 0),
/// minus the first `Busy` when `busy_first` is false. Only the line of
/// `addr` matters to the processor: the word within it never reaches the
/// cache, the MSHRs or MAGIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRun {
    /// An address in the line.
    pub addr: Addr,
    /// Whether the references are writes.
    pub write: bool,
    /// References left in the run; at least 1.
    pub refs: u64,
    /// Instructions before each reference.
    pub busy_per_ref: u64,
    /// Whether the run starts on the first reference's `Busy` item rather
    /// than on the reference itself; false when `busy_per_ref` is 0.
    pub busy_first: bool,
}

/// What [`RefStream::next_run`] yields: one item, or the rest of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// A single work item.
    Item(WorkItem),
    /// The rest of one sweep line.
    Line(LineRun),
}

/// A lazily generated stream of work items for one processor.
///
/// Implementations must keep returning [`WorkItem::Done`] once finished.
/// `Send` is a supertrait so a processor (and the shard executing it) can
/// move to a worker thread under sharded simulation.
pub trait RefStream: Send {
    /// Produces the next item.
    fn next_item(&mut self) -> WorkItem;

    /// Polls for the next item without committing to one.
    ///
    /// `None` means *no work yet* — distinct from [`WorkItem::Done`]: the
    /// stream is still open but the next reference has not arrived. Only
    /// open-loop streams ([`MailboxStream`]) ever return `None`; the
    /// default implementation makes every closed-loop stream trivially
    /// always-ready. A processor that polls `None` reports
    /// `RunOutcome::Starved` and parks until the machine feeds the
    /// mailbox and wakes it.
    fn try_next(&mut self) -> Option<WorkItem> {
        Some(self.next_item())
    }

    /// Polls for the next run: the item [`RefStream::try_next`] would
    /// yield, or several of them at once as a [`LineRun`]. The processor
    /// pulls runs; expanding every run yields exactly the items
    /// `try_next` would have. The default is a run of one item.
    fn next_run(&mut self) -> Option<Run> {
        self.try_next().map(Run::Item)
    }
}

/// A stream over a fixed slice of items — test workloads and traces.
///
/// # Examples
///
/// ```
/// use flash_cpu::{RefStream, SliceStream, WorkItem};
/// use flash_engine::Addr;
///
/// let mut s = SliceStream::new(vec![WorkItem::Busy(8), WorkItem::Read(Addr::new(0))]);
/// assert_eq!(s.next_item(), WorkItem::Busy(8));
/// assert_eq!(s.next_item(), WorkItem::Read(Addr::new(0)));
/// assert_eq!(s.next_item(), WorkItem::Done);
/// assert_eq!(s.next_item(), WorkItem::Done);
/// ```
#[derive(Debug, Clone)]
pub struct SliceStream {
    items: Vec<WorkItem>,
    pos: usize,
}

impl SliceStream {
    /// Wraps a vector of items.
    pub fn new(items: Vec<WorkItem>) -> Self {
        SliceStream { items, pos: 0 }
    }
}

impl RefStream for SliceStream {
    fn next_item(&mut self) -> WorkItem {
        match self.items.get(self.pos) {
            Some(&it) => {
                self.pos += 1;
                it
            }
            None => WorkItem::Done,
        }
    }
}

/// The admission queue between an open-loop arrival feed and a
/// processor: references the machine has *admitted* (handed to the
/// processor) but the pipeline has not yet consumed.
///
/// The machine keeps one handle and the processor's [`MailboxStream`]
/// keeps the other. All pushes happen at machine-event granularity on the
/// shard that owns the node, and the processor drains from the same
/// shard's event handlers, so the mutex is uncontended by construction —
/// it exists to satisfy `Send`, not to synchronize concurrent access.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: VecDeque<WorkItem>,
    closed: bool,
}

/// Shared handle to a [`Mailbox`].
pub type MailboxHandle = Arc<Mutex<Mailbox>>;

impl Mailbox {
    /// A fresh, open, empty mailbox behind a shared handle.
    pub fn handle() -> MailboxHandle {
        Arc::new(Mutex::new(Mailbox::default()))
    }

    /// Admits one work item.
    pub fn push(&mut self, item: WorkItem) {
        self.queue.push_back(item);
    }

    /// Items admitted but not yet consumed by the processor.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no admitted work is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Closes the mailbox: once drained, the stream ends ([`WorkItem::Done`]).
    pub fn close(&mut self) {
        self.closed = true;
    }
}

/// A processor stream fed by a [`Mailbox`] — the open-loop counterpart of
/// [`SliceStream`].
///
/// # Examples
///
/// ```
/// use flash_cpu::{Mailbox, MailboxStream, RefStream, WorkItem};
///
/// let handle = Mailbox::handle();
/// let mut s = MailboxStream::new(handle.clone());
/// assert_eq!(s.try_next(), None); // open but empty: no work *yet*
/// handle.lock().unwrap().push(WorkItem::Busy(4));
/// assert_eq!(s.try_next(), Some(WorkItem::Busy(4)));
/// handle.lock().unwrap().close();
/// assert_eq!(s.try_next(), Some(WorkItem::Done));
/// ```
#[derive(Debug)]
pub struct MailboxStream(MailboxHandle);

impl MailboxStream {
    /// Wraps a mailbox handle.
    pub fn new(handle: MailboxHandle) -> Self {
        MailboxStream(handle)
    }
}

impl RefStream for MailboxStream {
    /// Committed form: not-ready collapses to `Done`. Callers that can
    /// observe arrival gaps (the processor) must use
    /// [`RefStream::try_next`]; `next_item` exists for bounded
    /// materialization, which treats a dry mailbox as end-of-stream.
    fn next_item(&mut self) -> WorkItem {
        self.try_next().unwrap_or(WorkItem::Done)
    }

    fn try_next(&mut self) -> Option<WorkItem> {
        let mut mb = self.0.lock().expect("mailbox lock");
        match mb.queue.pop_front() {
            Some(it) => Some(it),
            None if mb.closed => Some(WorkItem::Done),
            None => None,
        }
    }
}
