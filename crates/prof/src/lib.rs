//! # spdyier-prof
//!
//! Host-side self-observability for the testbed. The flight recorder
//! watches the *simulated* world; this crate watches the *simulator*:
//! how many allocations it makes, how fast a sweep is actually
//! progressing, and — for the benchmark harness — where its own time
//! goes by subsystem.
//!
//! Three pieces:
//!
//! - [`CountingAlloc`] — a pass-through global allocator (every binary
//!   can install it) that counts every allocation into its thread's own
//!   counter slot: [`thread_counts`] is what a sweep worker brackets a
//!   cell with, [`global_counts`] the sum over all threads.
//! - [`SweepTelemetry`] — per-shard JSONL heartbeats for the parallel
//!   sweep executor (cells completed, events/s, allocs/visit, trace-drop
//!   counts, ETA, peak RSS).
//! - [`scope`] — a scoped span profiler: `let _p = prof::scope("driver.deliver")`
//!   counts calls and self host-nanoseconds per `layer.event_kind`
//!   name. Scopes nest; self time excludes enclosed scopes, so the
//!   subsystem rollup of [`take_thread_profile`] partitions exactly. Its
//!   one reader is the benchmark harness's `prof.*` rows; for host time
//!   by layer of any run, sample it with `tools/sigprof`.
//!
//! The span profiler is gated on one global switch: with
//! [`set_enabled`]`(false)` (the default), [`scope`] returns an inert
//! guard after a single relaxed atomic load. The allocation counters are
//! always on. The simulation's output is byte-identical either way,
//! because nothing here ever touches simulated state.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod alloc;
mod report;
mod scope;
mod telemetry;

use std::sync::atomic::{AtomicBool, Ordering};

pub use alloc::{global_counts, thread_counts, AllocCounts, CountingAlloc};
pub use report::{peak_rss_kb, PeakRss, ProfileReport, SpanStats, SubsystemStats};
pub use scope::{scope, take_thread_profile, Scope};
pub use telemetry::{CellReport, SweepTelemetry, TelemetryTotals, HEARTBEAT_SCHEMA_VERSION};

/// The global profiler switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serializes tests that toggle the process-wide profiler switch.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether the profiler is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the profiler on or off, process-wide.
///
/// Enabling mid-scope is safe: guards opened while disabled stay inert,
/// and guards opened while enabled record normally even if the switch
/// flips before they drop.
pub fn set_enabled(on: bool) {
    if on {
        // One-time ~5 ms tick-rate calibration, paid here rather than
        // inside the first recorded span.
        scope::calibrate_ticks();
    }
    ENABLED.store(on, Ordering::Relaxed);
}
