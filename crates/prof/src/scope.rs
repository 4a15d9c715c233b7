//! The scoped span profiler.
//!
//! `let _p = prof::scope("driver.deliver");` opens a span; dropping the
//! guard records one call and the span's *self* time: its host
//! nanoseconds minus everything charged to spans opened inside it. So
//! summing self time across all spans partitions the profiled wall-time
//! exactly — no double counting in subsystem rollups.
//!
//! The hot path is built for simulations that open a span per event
//! (hundreds of thousands per second):
//!
//! - All per-span state (name, start time) lives in the [`Scope`] guard
//!   on the caller's stack — there is no thread-local frame stack to
//!   push and pop.
//! - Nesting is tracked by a single thread-local *child accumulator* of
//!   ticks: opening a span saves and zeroes it, closing a span reads it
//!   (those are the children's ticks) and restores the saved value plus
//!   the span's own elapsed ticks.
//! - Time is read with the CPU timestamp counter on `x86_64` (a
//!   fraction of a `clock_gettime` call) and converted to nanoseconds
//!   with a factor calibrated once per process in
//!   [`crate::set_enabled`]`(true)`.
//!
//! Storage is thread-local; [`take_thread_profile`] drains the calling
//! thread's accumulated spans into a [`ProfileReport`].
//!
//! Disabled mode ([`crate::enabled`] false) costs one relaxed atomic
//! load per [`scope`] call: the guard is inert, nothing is timed, and
//! no thread-local is touched.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::report::{ProfileReport, SpanStats};

thread_local! {
    /// Ticks that closed child spans have charged to the innermost
    /// still-open span.
    static CHILD_TICKS: Cell<u64> = const { Cell::new(0) };
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
    /// The parent's child ticks, saved while this span owns the
    /// thread-local accumulator.
    saved_child_ticks: u64,
}

impl Scope {
    /// An inert guard (what [`scope`] returns while disabled).
    pub fn off() -> Scope {
        Scope {
            active: false,
            name: "",
            start_ticks: 0,
            saved_child_ticks: 0,
        }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let ticks = now_ticks().wrapping_sub(self.start_ticks);
        // Collect what nested spans charged while this one was open, and
        // charge this span's elapsed ticks to its parent.
        let child_ticks =
            CHILD_TICKS.with(|c| c.replace(self.saved_child_ticks.wrapping_add(ticks)));
        let self_ns = ticks_to_ns(ticks).saturating_sub(ticks_to_ns(child_ticks));
        SPANS.with(|s| {
            let mut spans = s.borrow_mut();
            let stats = stats_mut(&mut spans, self.name);
            stats.calls += 1;
            stats.self_ns += self_ns;
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
    Scope {
        active: true,
        name,
        saved_child_ticks: CHILD_TICKS.with(|c| c.replace(0)),
        start_ticks: now_ticks(),
    }
}

/// Drain the calling thread's finished spans into a [`ProfileReport`],
/// leaving open scopes (if any) untouched.
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

    /// Self time of every span closed inside `body`, against the host
    /// time `body` took.
    fn profiled(body: impl FnOnce()) -> (ProfileReport, u64) {
        let _guard = crate::test_guard();
        crate::set_enabled(true);
        let _ = take_thread_profile();
        let t0 = Instant::now();
        body();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        crate::set_enabled(false);
        (take_thread_profile(), wall_ns)
    }

    #[test]
    fn nested_scopes_exclude_children_from_self_time() {
        let (report, wall_ns) = profiled(|| {
            let _outer = scope("test.outer");
            spin_for_ns(200_000);
            {
                let _inner = scope("test.inner");
                spin_for_ns(400_000);
            }
        });
        let outer = report.spans["test.outer"];
        let inner = report.spans["test.inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 300_000, "inner {}", inner.self_ns);
        assert!(outer.self_ns >= 150_000, "outer {}", outer.self_ns);
        // Charging the inner span to the outer one too would overshoot
        // the wall time by the inner span's 400 µs.
        assert!(
            outer.self_ns + inner.self_ns <= wall_ns + 100_000,
            "self times {} + {} should partition {wall_ns} ns",
            outer.self_ns,
            inner.self_ns
        );
    }

    #[test]
    fn repeated_calls_accumulate() {
        let (report, _) = profiled(|| {
            for _ in 0..5 {
                let _p = scope("test.repeat");
            }
        });
        assert_eq!(report.spans["test.repeat"].calls, 5);
    }

    #[test]
    fn sibling_spans_charge_the_right_parent() {
        let (report, wall_ns) = profiled(|| {
            let _outer = scope("test.sib_outer");
            for _ in 0..3 {
                let _inner = scope("test.sib_inner");
                spin_for_ns(200_000);
            }
        });
        let outer = report.spans["test.sib_outer"];
        let inner = report.spans["test.sib_inner"];
        assert_eq!(inner.calls, 3);
        assert!(inner.self_ns >= 450_000, "inner {}", inner.self_ns);
        assert!(
            outer.self_ns + inner.self_ns <= wall_ns + 100_000,
            "outer self {} should exclude all three inner spans ({} ns of {wall_ns})",
            outer.self_ns,
            inner.self_ns
        );
    }
}
