//! The scoped span profiler.
//!
//! `let _p = prof::scope("driver.deliver");` opens a span; dropping the
//! guard records the span's host-nanosecond duration (into a
//! power-of-two histogram) and the allocations performed inside it
//! (from the [`crate::alloc`] per-thread counter slots). Spans nest: a
//! span's *self* time and *self* allocations exclude everything charged
//! to spans opened inside it, so summing self-columns across all spans
//! partitions the profiled wall-time exactly — no double counting in
//! subsystem rollups.
//!
//! The hot path is built for simulations that open a span per event
//! (hundreds of thousands per second):
//!
//! - All per-span state (name, entry counters, start time) lives in the
//!   [`Scope`] guard on the caller's stack — there is no thread-local
//!   frame stack to push and pop.
//! - Nesting is tracked by a single thread-local *child accumulator*:
//!   opening a span saves and zeroes it, closing a span reads it (those
//!   are the children's inclusive costs) and restores the saved value
//!   plus the span's own inclusive cost.
//! - Time is read with the CPU timestamp counter on `x86_64` (a
//!   fraction of a `clock_gettime` call) and converted to nanoseconds
//!   with a factor calibrated once per process in
//!   [`crate::set_enabled`]`(true)`.
//!
//! Storage is thread-local (profiled sweeps fan runs across worker
//! threads); [`take_thread_profile`] drains the calling thread's
//! accumulated spans into a mergeable [`ProfileReport`]. The parallel
//! sweep helper drains after every cell and folds into one shared
//! report.
//!
//! Disabled mode ([`crate::enabled`] false) costs one relaxed atomic
//! load per [`scope`] call: the guard is inert, nothing is timed, and
//! no thread-local is touched.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::alloc::{thread_counts, AllocCounts};
use crate::report::{ProfileReport, SpanStats};

/// Inclusive cost (ticks, allocations, bytes) that closed child spans
/// have charged to the innermost still-open span.
#[derive(Clone, Copy, Default)]
struct ChildAccum {
    ticks: u64,
    allocs: u64,
    bytes: u64,
}

struct TlChild {
    ticks: Cell<u64>,
    allocs: Cell<u64>,
    bytes: Cell<u64>,
}

thread_local! {
    static CHILD: TlChild = const {
        TlChild {
            ticks: Cell::new(0),
            allocs: Cell::new(0),
            bytes: Cell::new(0),
        }
    };
    static SPANS: RefCell<Vec<(&'static str, SpanStats)>> = const { RefCell::new(Vec::new()) };
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn now_ticks() -> u64 {
    // Safe on every x86_64 the toolchain targets; non-serializing, which
    // is fine at profiling granularity.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn now_ticks() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick as `f64` bits; 0 = not yet calibrated.
static NS_PER_TICK_BITS: AtomicU64 = AtomicU64::new(0);

/// Measure the tick rate against the monotonic clock. Called from
/// [`crate::set_enabled`]`(true)` so the ~5 ms spin happens before the
/// profiled region, not inside a span.
pub(crate) fn calibrate_ticks() {
    if NS_PER_TICK_BITS.load(Ordering::Relaxed) != 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let t0 = std::time::Instant::now();
        let c0 = now_ticks();
        while t0.elapsed() < std::time::Duration::from_millis(5) {
            std::hint::spin_loop();
        }
        let ns = t0.elapsed().as_nanos() as f64;
        let ticks = now_ticks().wrapping_sub(c0).max(1);
        NS_PER_TICK_BITS.store((ns / ticks as f64).to_bits(), Ordering::Relaxed);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        // `now_ticks` already returns nanoseconds.
        NS_PER_TICK_BITS.store(1.0f64.to_bits(), Ordering::Relaxed);
    }
}

#[inline]
fn ticks_to_ns(ticks: u64) -> u64 {
    let mut bits = NS_PER_TICK_BITS.load(Ordering::Relaxed);
    if bits == 0 {
        // Fallback for spans recorded without `set_enabled(true)` having
        // run (tests driving internals directly). The spin lands in the
        // enclosing span's self-time — once per process.
        calibrate_ticks();
        bits = NS_PER_TICK_BITS.load(Ordering::Relaxed);
    }
    (ticks as f64 * f64::from_bits(bits)) as u64
}

fn stats_mut<'a>(
    spans: &'a mut Vec<(&'static str, SpanStats)>,
    name: &'static str,
) -> &'a mut SpanStats {
    // Span names are `&'static str` literals, so the lookup first tries
    // pointer equality (all call sites of one scope share a literal)
    // before falling back to a content compare — a linear scan over the
    // handful of distinct spans.
    let pos = spans
        .iter()
        .position(|(n, _)| std::ptr::eq(*n, name) || *n == name);
    let idx = match pos {
        Some(i) => i,
        None => {
            spans.push((name, SpanStats::default()));
            spans.len() - 1
        }
    };
    &mut spans[idx].1
}

/// A span guard; the span closes (and records) when this drops.
///
/// Hold it in a `let _p = ...;` binding — `let _ = ...` drops
/// immediately and records an empty span.
#[must_use = "binding the guard to `_` closes the span immediately"]
pub struct Scope {
    active: bool,
    name: &'static str,
    start_ticks: u64,
    at_entry: AllocCounts,
    /// The parent's child-accumulator, saved while this span owns the
    /// thread-local one.
    saved_child: ChildAccum,
}

impl Scope {
    /// An inert guard (what [`scope`] returns while disabled).
    pub fn off() -> Scope {
        Scope {
            active: false,
            name: "",
            start_ticks: 0,
            at_entry: AllocCounts::default(),
            saved_child: ChildAccum::default(),
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let total_ticks = now_ticks().wrapping_sub(self.start_ticks);
        let d = thread_counts().since(self.at_entry);
        // Collect what nested spans charged while this one was open, and
        // charge this span's inclusive cost to its parent.
        let kids = CHILD.with(|c| {
            let k = ChildAccum {
                ticks: c.ticks.get(),
                allocs: c.allocs.get(),
                bytes: c.bytes.get(),
            };
            c.ticks
                .set(self.saved_child.ticks.wrapping_add(total_ticks));
            c.allocs.set(self.saved_child.allocs.wrapping_add(d.allocs));
            c.bytes.set(self.saved_child.bytes.wrapping_add(d.bytes));
            k
        });
        let total_ns = ticks_to_ns(total_ticks);
        let child_ns = ticks_to_ns(kids.ticks);
        SPANS.with(|s| {
            let mut spans = s.borrow_mut();
            let stats = stats_mut(&mut spans, self.name);
            stats.calls += 1;
            stats.total_ns += total_ns;
            stats.self_ns += total_ns.saturating_sub(child_ns);
            stats.allocs += d.allocs.saturating_sub(kids.allocs);
            stats.alloc_bytes += d.bytes.saturating_sub(kids.bytes);
            stats.ns.observe(total_ns);
        });
    }
}

/// Open a profiling span named `name` (`layer.event_kind` by
/// convention: `"driver.deliver"`, `"world.drain_tx"`, …).
///
/// While the profiler is disabled this is one relaxed atomic load and
/// returns an inert guard.
#[inline]
pub fn scope(name: &'static str) -> Scope {
    if !crate::enabled() {
        return Scope::off();
    }
    let saved_child = CHILD.with(|c| {
        let s = ChildAccum {
            ticks: c.ticks.get(),
            allocs: c.allocs.get(),
            bytes: c.bytes.get(),
        };
        c.ticks.set(0);
        c.allocs.set(0);
        c.bytes.set(0);
        s
    });
    Scope {
        active: true,
        name,
        at_entry: thread_counts(),
        saved_child,
        start_ticks: now_ticks(),
    }
}

/// Drain the calling thread's finished spans into a [`ProfileReport`],
/// leaving open scopes (if any) untouched. Used by sweep workers after
/// each cell so per-cell attribution lands in one mergeable report.
pub fn take_thread_profile() -> ProfileReport {
    SPANS.with(|s| {
        let mut spans = s.borrow_mut();
        let mut report = ProfileReport::default();
        for (name, stats) in spans.drain(..) {
            report.spans.insert(name.to_string(), stats);
        }
        report
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn spin_for_ns(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let _guard = crate::test_guard();
        crate::set_enabled(false);
        let _ = take_thread_profile();
        {
            let _p = scope("test.disabled");
            spin_for_ns(1_000);
        }
        assert!(take_thread_profile().spans.is_empty());
    }

    #[test]
    fn nested_scopes_split_self_and_total_time() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let _ = take_thread_profile();
        {
            let _outer = scope("test.outer");
            spin_for_ns(200_000);
            {
                let _inner = scope("test.inner");
                spin_for_ns(400_000);
            }
        }
        crate::set_enabled(false);
        let report = take_thread_profile();
        let outer = &report.spans["test.outer"];
        let inner = &report.spans["test.inner"];
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(inner.total_ns >= 300_000, "inner {}", inner.total_ns);
        assert!(
            outer.total_ns >= inner.total_ns,
            "outer span includes inner"
        );
        assert!(
            outer.self_ns < outer.total_ns,
            "outer self-time excludes the inner span \
             (self {} vs total {})",
            outer.self_ns,
            outer.total_ns
        );
        assert_eq!(inner.self_ns, inner.total_ns, "leaf span is all self");
        assert_eq!(inner.ns.count, 1, "per-call histogram populated");
    }

    #[test]
    fn scope_attributes_allocations_to_self() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let _ = take_thread_profile();
        {
            let _outer = scope("test.alloc_outer");
            {
                let _inner = scope("test.alloc_inner");
                let v: Vec<u64> = Vec::with_capacity(10_000);
                drop(v);
            }
        }
        crate::set_enabled(false);
        let report = take_thread_profile();
        let inner = &report.spans["test.alloc_inner"];
        let outer = &report.spans["test.alloc_outer"];
        assert!(inner.allocs >= 1, "inner scope saw its allocation");
        assert!(inner.alloc_bytes >= 80_000, "bytes: {}", inner.alloc_bytes);
        // The outer span may be charged a few bytes of profiler
        // bookkeeping (span-table growth), but never the inner payload.
        assert!(
            outer.alloc_bytes < 80_000,
            "inner allocation double-charged: {}",
            outer.alloc_bytes
        );
    }

    #[test]
    fn repeated_calls_accumulate() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let _ = take_thread_profile();
        for _ in 0..5 {
            let _p = scope("test.repeat");
        }
        crate::set_enabled(false);
        let report = take_thread_profile();
        assert_eq!(report.spans["test.repeat"].calls, 5);
        assert_eq!(report.spans["test.repeat"].ns.count, 5);
    }

    #[test]
    fn sibling_spans_charge_the_right_parent() {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let _ = take_thread_profile();
        {
            let _outer = scope("test.sib_outer");
            for _ in 0..3 {
                let _inner = scope("test.sib_inner");
                spin_for_ns(50_000);
            }
        }
        crate::set_enabled(false);
        let report = take_thread_profile();
        let outer = &report.spans["test.sib_outer"];
        let inner = &report.spans["test.sib_inner"];
        assert_eq!(inner.calls, 3);
        assert!(
            outer.self_ns <= outer.total_ns.saturating_sub(inner.total_ns) + 10_000,
            "outer self {} should exclude all three inner spans (outer total {}, inner total {})",
            outer.self_ns,
            outer.total_ns,
            inner.total_ns
        );
    }
}
