//! Regression: `binval` counts are attacker-chosen once the codec
//! carries wire bodies, and a count must never size an allocation by
//! itself. Its own test binary, because it swaps the global allocator
//! for one that records the largest single request.

use ltam_store::binval;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest single allocation requested since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Recording;

unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Recording = Recording;

/// One frame's worth of body (`DEFAULT_MAX_FRAME_BYTES`): a compound
/// tag announcing as many elements as bytes follow, then bytes that are
/// no valid element — so the first element fails to decode.
fn hostile(tag: u8) -> Vec<u8> {
    const FRAME: usize = 16 * 1024 * 1024;
    let mut bytes = vec![tag];
    ltam_store::put_varint(&mut bytes, (FRAME - 16) as u64);
    bytes.resize(FRAME, 0xFF);
    bytes
}

// One test function: tests in a binary run on parallel threads and
// would see each other's allocations.
#[test]
fn implausible_counts_do_not_preallocate() {
    for tag in [0x07u8, 0x08] {
        let bytes = hostile(tag);
        LARGEST.store(0, Ordering::Relaxed);
        let result = binval::decode::<Vec<u64>>(&bytes);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(result.is_err(), "tag {tag:#04x}: garbage elements decode");
        assert!(
            largest < 1024 * 1024,
            "tag {tag:#04x}: a 16 MiB body made the decoder request {largest} bytes at once"
        );
    }
}
