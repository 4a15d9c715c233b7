//! The counting global allocator and its attribution counters.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation (count and requested bytes); any binary installs it via
//! `#[global_allocator]`. Deallocations are deliberately not tracked:
//! the interesting number is how much the workload *asks for*; peak RSS
//! covers the high-water mark.
//!
//! Counts go into per-thread slots: a fixed static array of
//! cache-line-padded counter pairs, one claimed by each thread on its
//! first allocation and never handed back. A slot has a single writer,
//! so the hot path is a plain load and store per counter — no locked
//! read-modify-write, no line bouncing between workers.
//! [`thread_counts`] reads the caller's slot (what a sweep worker
//! brackets a cell with); [`global_counts`] sums every slot. Threads
//! past the slot count — and allocations made while a thread's locals
//! are being torn down — share one overflow slot that keeps
//! `fetch_add`.
//!
//! The slot index lives in a const-initialized thread-local `Cell` — no
//! lazy init, no destructor — so reading it from inside the allocator
//! can never recurse into the allocator itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One writer's counters, alone on their cache line.
#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn counts(&self) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Private slots: sweep workers plus the main thread on any host this
/// runs on, and the first 64 test threads of a `cargo test` binary.
const SLOTS: usize = 64;

static PRIVATE: [Slot; SLOTS] = [const { Slot::new() }; SLOTS];
/// Shared by every thread that found [`PRIVATE`] fully claimed.
static OVERFLOW: Slot = Slot::new();
/// Threads that have claimed (or tried to claim) a slot.
static CLAIMED: AtomicUsize = AtomicUsize::new(0);

/// This thread has not claimed a slot yet.
const UNCLAIMED: usize = usize::MAX;

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(UNCLAIMED) };
}

/// The calling thread's slot and whether it is the only writer. Claims
/// a slot on first use; `try_with` + const init make this safe during
/// thread teardown, where it answers the overflow slot.
#[inline]
fn my_slot() -> (&'static Slot, bool) {
    let index = MY_SLOT
        .try_with(|mine| {
            if mine.get() == UNCLAIMED {
                mine.set(CLAIMED.fetch_add(1, Ordering::Relaxed).min(SLOTS));
            }
            mine.get()
        })
        .unwrap_or(SLOTS);
    match PRIVATE.get(index) {
        Some(slot) => (slot, true),
        None => (&OVERFLOW, false),
    }
}

/// A snapshot of allocation counters (count and requested bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Number of allocator calls (`alloc` + `realloc`).
    pub allocs: u64,
    /// Total bytes requested across those calls.
    pub bytes: u64,
}

impl AllocCounts {
    /// The counters accumulated since an earlier snapshot.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            bytes: self.bytes.wrapping_sub(earlier.bytes),
        }
    }
}

/// Process-wide allocation counters: the sum over every thread's slot,
/// counted whenever [`CountingAlloc`] is installed.
pub fn global_counts() -> AllocCounts {
    PRIVATE
        .iter()
        .chain([&OVERFLOW])
        .map(Slot::counts)
        .fold(AllocCounts::default(), |sum, slot| AllocCounts {
            allocs: sum.allocs.wrapping_add(slot.allocs),
            bytes: sum.bytes.wrapping_add(slot.bytes),
        })
}

/// The calling thread's allocation counters, counted whenever
/// [`CountingAlloc`] is installed. Exact for a thread with a private
/// slot; a thread on the overflow slot reads the total of all such
/// threads.
pub fn thread_counts() -> AllocCounts {
    my_slot().0.counts()
}

#[inline]
fn count(bytes: usize) {
    let (slot, sole_writer) = my_slot();
    if sole_writer {
        // Nobody else stores to this slot, so load + store loses nothing.
        let allocs = slot.allocs.load(Ordering::Relaxed);
        slot.allocs.store(allocs.wrapping_add(1), Ordering::Relaxed);
        let total = slot.bytes.load(Ordering::Relaxed);
        slot.bytes
            .store(total.wrapping_add(bytes as u64), Ordering::Relaxed);
    } else {
        slot.allocs.fetch_add(1, Ordering::Relaxed);
        slot.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// A pass-through allocator that counts every allocation. Install it in
/// a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: spdyier_prof::CountingAlloc = spdyier_prof::CountingAlloc;
/// ```
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Install the counting allocator for this crate's test binary so the
    // attribution tests observe real traffic.
    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn global_counters_advance_on_allocation() {
        let before = global_counts();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let d = global_counts().since(before);
        assert!(d.allocs >= 1, "allocation not counted");
        assert!(d.bytes >= 4096, "requested bytes not counted: {}", d.bytes);
        drop(v);
    }

    #[test]
    fn thread_counters_count_without_the_profiler() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        let before = thread_counts();
        let v: Vec<u8> = Vec::with_capacity(1024);
        let d = thread_counts().since(before);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.bytes, 1024);
        drop(v);
    }
}
