//! Allocation budget: the steady-state event loop must not touch the
//! heap.
//!
//! PR 8's host-performance work made the hot path allocation-free —
//! processor outputs and chip emissions drain through reusable scratch
//! buffers, event-queue wheel slots and arenas are warmed once, and the
//! hit fast path never round-trips the queue at all. This test pins that
//! property with a counting global allocator and a differential
//! measurement: a small and a large run of the same workload shape pay
//! the same one-time setup cost (machine construction, wheel sizing,
//! scratch capacities), so the allocation *difference* between them
//! isolates the steady state. Tens of thousands of extra events must
//! cost at most a small constant number of extra allocations.
//!
//! (A warm-up-then-resume design inside one machine would be simpler,
//! but budget exhaustion intentionally *drops* the first over-budget
//! event — serial-loop semantics — so a resumed run is lossy and not a
//! valid steady-state sample.)
//!
//! The whole file is one `#[test]` because the `#[global_allocator]` is
//! binary-wide; a second test running concurrently would pollute the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flash::{Machine, MachineConfig, RunResult};
use flash_cpu::{RefStream, SliceStream};

/// System allocator with an allocation-event counter (`alloc`,
/// `alloc_zeroed`, and `realloc` count; frees do not).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs the standard mixed-sharing stress workload (serial, unobserved,
/// unchecked, unfaulted — the pure hot loop) with `items` references per
/// processor; returns (allocations, chip messages) for the whole run
/// including machine construction.
fn run_and_count(items: usize) -> (u64, u64) {
    let streams: Vec<Box<dyn RefStream>> = flash_check::stress_streams(16, 8, items, 5)
        .into_iter()
        .map(|v| Box::new(SliceStream::new(v)) as Box<dyn RefStream>)
        .collect();
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut m = Machine::new(MachineConfig::flash(16), streams);
    let RunResult::Completed { .. } = m.run(2_000_000_000) else {
        panic!("{items}-item run did not complete");
    };
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let events: u64 = m.chips().iter().map(|c| c.stats().messages).sum();
    (allocs, events)
}

#[test]
fn steady_state_is_allocation_free() {
    let (small_allocs, small_events) = run_and_count(64);
    let (big_allocs, big_events) = run_and_count(512);
    let extra_events = big_events - small_events;
    assert!(
        extra_events > 30_000,
        "differential too small to be meaningful: {extra_events} extra chip messages"
    );
    // Both runs pay the same setup cost, so the difference is the steady
    // state. Not literally zero: the longer run can grow a wheel slot or
    // a stats bucket the short one never reached. What is NOT allowed is
    // per-event heap traffic — the bound stays constant while the extra
    // event count scales.
    let extra_allocs = big_allocs.saturating_sub(small_allocs);
    assert!(
        extra_allocs < 2_000,
        "steady state must be allocation-free: {extra_allocs} extra allocations over \
         {extra_events} extra events ({:.4} allocs/event; small run {small_allocs} allocs / \
         {small_events} events, big run {big_allocs} allocs / {big_events} events)",
        extra_allocs as f64 / extra_events as f64
    );
}
