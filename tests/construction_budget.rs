//! Construction budget: building a machine must not request memory it
//! has not used yet.
//!
//! A 16-node FLASH machine used to request about 2.3 MiB before its first
//! event, most of it sixteen zeroed 128 KiB L2 tag stores. Tag stores are
//! now allocated at a processor's first install, so construction requests
//! only what every run touches. The count is of bytes requested from the
//! allocator (allocations, zeroed allocations and reallocation targets),
//! not of resident memory.
//!
//! The whole file is one `#[test]` because the `#[global_allocator]` is
//! binary-wide; a second test running concurrently would pollute the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flash::{Machine, MachineConfig};
use flash_cpu::{RefStream, SliceStream};

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

/// The bytes `Machine::new` requests for a 16-node FLASH machine.
fn construction_bytes() -> u64 {
    let streams: Vec<Box<dyn RefStream>> = flash_check::stress_streams(16, 8, 64, 5)
        .into_iter()
        .map(|v| Box::new(SliceStream::new(v)) as Box<dyn RefStream>)
        .collect();
    let before = BYTES.load(Ordering::Relaxed);
    let m = Machine::new(MachineConfig::flash(16), streams);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    drop(m);
    bytes
}

#[test]
fn a_16_node_machine_requests_under_512_kib() {
    // The first build also compiles the handler program, which is shared
    // process-wide; measure a second build.
    construction_bytes();
    let bytes = construction_bytes();
    println!("16-node FLASH Machine::new requested {} KiB", bytes >> 10);
    assert!(
        bytes < 512 << 10,
        "16-node FLASH Machine::new requested {} KiB",
        bytes >> 10
    );
}
