//! Construction budget: building a machine must not request memory it
//! has not used yet.
//!
//! A 16-node FLASH machine used to request about 2.3 MiB before its first
//! event, most of it sixteen zeroed 128 KiB L2 tag stores. Tag stores are
//! now allocated at a processor's first install, and a MAGIC chip keeps
//! only simulated state (no instruction-cache tag store, no scratch), so
//! construction requests only what every run touches: 228 KiB for 16
//! nodes and 13,922 KiB for the 1,024-node open-loop machine. The count
//! is of bytes requested from the allocator (allocations, zeroed
//! allocations and reallocation targets), not of resident memory.
//!
//! The whole file is one `#[test]` because the `#[global_allocator]` is
//! binary-wide; a second test running concurrently would pollute the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flash::{Machine, MachineConfig};
use flash_cpu::{RefStream, SliceStream};
use flash_traffic::TrafficSpec;

/// System allocator with a requested-bytes counter.
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The bytes `build` requests for its machine, excluding its drop.
fn construction_bytes(build: impl FnOnce() -> Machine) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    let m = build();
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    drop(m);
    bytes
}

/// A 16-node FLASH machine running a small stress workload.
fn flash_16() -> u64 {
    let streams: Vec<Box<dyn RefStream>> = flash_check::stress_streams(16, 8, 64, 5)
        .into_iter()
        .map(|v| Box::new(SliceStream::new(v)) as Box<dyn RefStream>)
        .collect();
    construction_bytes(|| Machine::new(MachineConfig::flash(16), streams))
}

/// The 1,024-node open-loop machine perfbench's `open1024` workload
/// builds: Poisson arrivals, 200 references per node, observer on.
fn open_1024() -> u64 {
    let sources = TrafficSpec::poisson(1024, 1 << 18, 200, 550, 1).sources();
    let cfg = MachineConfig::flash(1024).with_observe(true);
    construction_bytes(|| Machine::new_open_loop(cfg, sources))
}

#[test]
fn machine_construction_stays_within_budget() {
    // The first build also compiles the handler program, which is shared
    // process-wide; measure a second build.
    flash_16();
    let bytes = flash_16();
    println!("16-node FLASH Machine::new requested {} KiB", bytes >> 10);
    assert!(
        bytes < 240 << 10,
        "16-node FLASH Machine::new requested {} KiB",
        bytes >> 10
    );
    let bytes = open_1024();
    println!(
        "1,024-node open-loop Machine::new_open_loop requested {} KiB",
        bytes >> 10
    );
    assert!(
        bytes < 14 << 20,
        "1,024-node open-loop Machine::new_open_loop requested {} KiB",
        bytes >> 10
    );
}
