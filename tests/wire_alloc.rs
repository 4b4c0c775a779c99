//! The wire decoder's allocations are bounded by the bytes it is given:
//! a frame that declares `MAX_LIST` list entries but carries none must
//! fail typed without reserving room for the declared count. A counting
//! global allocator records the largest single request made while
//! decoding on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use impatience_core::hash::fnv1a32;
use impatience_net::wire::{MAGIC, MAX_LIST};
use impatience_net::{Msg, WireError};

struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while the measured decode runs on this thread.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only records request sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Kind tags of the frames with lists (wire byte 1).
const KIND_ADVERT: u8 = 1;
const KIND_REQUEST: u8 = 2;
const KIND_FULFILL: u8 = 3;

/// A checksummed frame whose last list declares `MAX_LIST` entries and
/// stops there (22 bytes for an advert, 18 for the others).
fn hollow_frame(kind: u8) -> Vec<u8> {
    let mut bytes = vec![MAGIC, kind];
    bytes.extend_from_slice(&1u64.to_le_bytes());
    if kind == KIND_ADVERT {
        bytes.extend_from_slice(&0u32.to_le_bytes());
    }
    bytes.extend_from_slice(&MAX_LIST.to_le_bytes());
    let sum = fnv1a32(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

#[test]
fn hollow_lists_fail_typed_without_reserving_the_declared_count() {
    for kind in [KIND_ADVERT, KIND_REQUEST, KIND_FULFILL] {
        let bytes = hollow_frame(kind);
        LARGEST.store(0, Ordering::Relaxed);
        ARMED.with(|a| a.set(true));
        let decoded = Msg::decode(&bytes);
        ARMED.with(|a| a.set(false));
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            matches!(decoded, Err(WireError::Truncated { .. })),
            "kind {kind}: {decoded:?}"
        );
        // The declared count would reserve 4 MiB (u32 lists) or 16 MiB
        // (mandate pairs); the frame's own size bounds what may be asked.
        assert!(
            largest <= 1024,
            "kind {kind}: decoding {} bytes reserved {largest} bytes",
            bytes.len()
        );
    }
}
