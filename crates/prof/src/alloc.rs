//! The counting global allocator and its attribution counters.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation (count and requested bytes) into process-wide atomics;
//! any binary installs it via `#[global_allocator]`. Deallocations are
//! deliberately not tracked: the interesting number is how much the
//! workload *asks for*; peak RSS covers the high-water mark.
//!
//! While the profiler is enabled ([`crate::enabled`]), each allocation
//! is additionally charged to thread-local counters. The span profiler
//! samples those at scope entry/exit, which is what turns "59 M
//! allocations per sweep" into "which layer asked for them". The
//! thread-locals are const-initialized `Cell`s — no lazy init, no
//! destructor — so bumping them from inside the allocator can never
//! recurse into the allocator itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_BYTES: AtomicU64 = AtomicU64::new(0);

// One thread-local block (not two) so the per-allocation hot path pays
// a single TLS address computation.
struct TlCounts {
    allocs: Cell<u64>,
    bytes: Cell<u64>,
}

thread_local! {
    static TL_COUNTS: TlCounts = const {
        TlCounts {
            allocs: Cell::new(0),
            bytes: Cell::new(0),
        }
    };
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

/// Process-wide allocation counters (always counted while
/// [`CountingAlloc`] is installed, independent of the profiler switch).
pub fn global_counts() -> AllocCounts {
    AllocCounts {
        allocs: GLOBAL_ALLOCS.load(Ordering::Relaxed),
        bytes: GLOBAL_BYTES.load(Ordering::Relaxed),
    }
}

/// This thread's attribution counters (bumped only while the profiler
/// is enabled; reads 0 deltas otherwise).
pub fn thread_counts() -> AllocCounts {
    TL_COUNTS
        .try_with(|c| AllocCounts {
            allocs: c.allocs.get(),
            bytes: c.bytes.get(),
        })
        .unwrap_or_default()
}

#[inline]
fn count(bytes: usize) {
    GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    GLOBAL_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    if crate::enabled() {
        // `try_with` + const init: safe even during thread teardown, and
        // never allocates (which would recurse into `alloc`).
        let _ = TL_COUNTS.try_with(|c| {
            c.allocs.set(c.allocs.get().wrapping_add(1));
            c.bytes.set(c.bytes.get().wrapping_add(bytes as u64));
        });
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
    fn thread_counters_gate_on_the_profiler_switch() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        let before = thread_counts();
        let _v: Vec<u8> = Vec::with_capacity(1024);
        assert_eq!(thread_counts().since(before).allocs, 0);

        crate::set_enabled(true);
        let before = thread_counts();
        let v: Vec<u8> = Vec::with_capacity(1024);
        let d = thread_counts().since(before);
        crate::set_enabled(false);
        assert!(d.allocs >= 1);
        assert!(d.bytes >= 1024);
        drop(v);
    }
}
