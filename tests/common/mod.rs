//! The system allocator, counting live heap bytes and their high-water
//! mark, shared by the tests that gate memory as live heap
//! (`sweep_memory`, `cell_memory`). A test binary that declares
//! `mod common;` allocates through it.
//!
//! The counters are process-wide: each such binary holds one test
//! function, so only its thread moves them while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
pub struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its caller's arguments to `System`
// unchanged and returns what `System` returned; the counters only read
// the sizes.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        q
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// Run `f`, returning its value and the live-heap high-water mark while
/// it ran (its value still live), above what was live when it started.
pub fn high_water<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let value = f();
    (value, PEAK.load(Ordering::Relaxed) - before)
}
