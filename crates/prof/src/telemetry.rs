//! Sweep telemetry: per-shard JSONL heartbeats for the parallel
//! executor.
//!
//! A long sweep is opaque from the outside — `SweepTelemetry` fixes
//! that by emitting one JSON line per completed cell (a `(protocol,
//! seed)` run): which shard (worker) finished it, cumulative cells /
//! events / visits / allocations, the observed events-per-second and
//! allocations-per-visit, how many trace records sinks have shed, and a
//! linear ETA. Lines go to any `Write` (a `heartbeat_*.jsonl` file, a
//! pipe, or an in-memory buffer in benchmarks); write errors are
//! swallowed — telemetry must never abort a sweep.
//!
//! The struct is `Sync` (one mutex around the writer and the running
//! totals) so every worker of the scoped-thread executor reports into
//! the same stream.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// Schema version stamped into every heartbeat line. v2 added
/// `peak_rss_kb` and the finite-or-zero guarantee on every rate/ETA
/// field.
pub const HEARTBEAT_SCHEMA_VERSION: u32 = 2;

/// What one finished cell reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellReport {
    /// Worker index that ran the cell.
    pub shard: usize,
    /// Cell (job) index in the sweep.
    pub cell: usize,
    /// Simulated visits the cell completed.
    pub visits: u64,
    /// Trace events the cell emitted.
    pub events: u64,
    /// Trace records the cell's sink shed.
    pub trace_dropped: u64,
    /// Allocations the cell performed (thread-attributed).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// One heartbeat line.
#[derive(Debug, Serialize)]
struct Heartbeat {
    schema_version: u32,
    shard: usize,
    cell: usize,
    cells_completed: usize,
    cells_total: usize,
    elapsed_ms: f64,
    events: u64,
    events_per_sec: f64,
    visits: u64,
    allocs: u64,
    allocs_per_visit: f64,
    trace_dropped: u64,
    eta_ms: f64,
    peak_rss_kb: u64,
}

/// Every computed rate/ETA field goes through this: a monitor parsing
/// heartbeats must never see `inf`/`NaN` (which the JSON writer would
/// render as `null`) from a zero-rate denominator or a first-cell
/// division, only a safe `0`.
fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Cumulative facts across the sweep so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryTotals {
    /// Cells completed.
    pub completed: usize,
    /// Trace events emitted.
    pub events: u64,
    /// Simulated visits completed.
    pub visits: u64,
    /// Allocations performed by cells.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Trace records shed by sinks.
    pub trace_dropped: u64,
    /// Heartbeat lines successfully written.
    pub lines: u64,
}

struct State {
    out: Option<Box<dyn Write + Send>>,
    totals: TelemetryTotals,
    /// One handle for the whole sweep: a heartbeat re-reads it.
    rss: crate::PeakRss,
}

/// The shared heartbeat reporter one sweep's workers write into.
pub struct SweepTelemetry {
    total: usize,
    started: Instant,
    state: Mutex<State>,
}

impl std::fmt::Debug for SweepTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepTelemetry")
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

impl SweepTelemetry {
    /// A reporter for a sweep of `total` cells. `out` is where
    /// heartbeat lines go; `None` keeps the totals without emitting.
    pub fn new(total: usize, out: Option<Box<dyn Write + Send>>) -> SweepTelemetry {
        SweepTelemetry {
            total,
            started: Instant::now(),
            state: Mutex::new(State {
                out,
                totals: TelemetryTotals::default(),
                rss: crate::PeakRss::open(),
            }),
        }
    }

    /// Record one finished cell and emit its heartbeat line.
    pub fn cell_done(&self, r: &CellReport) {
        let elapsed_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let peak_rss_kb = state.rss.kb();
        let t = &mut state.totals;
        t.completed += 1;
        t.events += r.events;
        t.visits += r.visits;
        t.allocs += r.allocs;
        t.alloc_bytes += r.alloc_bytes;
        t.trace_dropped += r.trace_dropped;
        let hb = Heartbeat {
            schema_version: HEARTBEAT_SCHEMA_VERSION,
            shard: r.shard,
            cell: r.cell,
            cells_completed: t.completed,
            cells_total: self.total,
            elapsed_ms,
            events: t.events,
            events_per_sec: finite_or_zero(if elapsed_ms > 0.0 {
                t.events as f64 / (elapsed_ms / 1e3)
            } else {
                0.0
            }),
            visits: t.visits,
            allocs: t.allocs,
            allocs_per_visit: finite_or_zero(if t.visits > 0 {
                t.allocs as f64 / t.visits as f64
            } else {
                0.0
            }),
            trace_dropped: t.trace_dropped,
            eta_ms: finite_or_zero(if t.completed > 0 && self.total > t.completed {
                elapsed_ms / t.completed as f64 * (self.total - t.completed) as f64
            } else {
                0.0
            }),
            peak_rss_kb,
        };
        let line = serde_json::to_string(&hb).expect("heartbeat serializes");
        let wrote = match state.out.as_mut() {
            Some(out) => writeln!(out, "{line}").is_ok(),
            None => false,
        };
        if wrote {
            state.totals.lines += 1;
        }
    }

    /// Elapsed host time since the reporter was created, milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Cumulative totals so far.
    pub fn totals(&self) -> TelemetryTotals {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .totals
    }

    /// Flush and drop the writer, returning the final totals.
    pub fn finish(self) -> TelemetryTotals {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(out) = state.out.as_mut() {
            let _ = out.flush();
        }
        state.out = None;
        state.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A Vec<u8> sink we can read back after the telemetry is done.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn heartbeats_accumulate_and_serialize() {
        let buf = SharedBuf::default();
        let tel = SweepTelemetry::new(2, Some(Box::new(buf.clone())));
        tel.cell_done(&CellReport {
            shard: 0,
            cell: 0,
            visits: 20,
            events: 1000,
            trace_dropped: 0,
            allocs: 4000,
            alloc_bytes: 64_000,
        });
        tel.cell_done(&CellReport {
            shard: 1,
            cell: 1,
            visits: 20,
            events: 1000,
            trace_dropped: 3,
            allocs: 4000,
            alloc_bytes: 64_000,
        });
        let totals = tel.finish();
        assert_eq!(totals.completed, 2);
        assert_eq!(totals.visits, 40);
        assert_eq!(totals.trace_dropped, 3);
        assert_eq!(totals.lines, 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        let last = text.lines().last().unwrap();
        for key in [
            "\"schema_version\"",
            "\"shard\"",
            "\"cell\"",
            "\"cells_completed\"",
            "\"cells_total\"",
            "\"elapsed_ms\"",
            "\"events\"",
            "\"events_per_sec\"",
            "\"visits\"",
            "\"allocs\"",
            "\"allocs_per_visit\"",
            "\"trace_dropped\"",
            "\"eta_ms\"",
            "\"peak_rss_kb\"",
        ] {
            assert!(last.contains(key), "heartbeat missing {key}: {last}");
        }
        assert!(last.contains("\"cells_completed\":2"));
        assert!(last.contains("\"allocs_per_visit\":200"));
        assert!(last.contains("\"trace_dropped\":3"));
        assert!(last.contains(&format!("\"schema_version\":{HEARTBEAT_SCHEMA_VERSION}")));
    }

    #[test]
    fn rates_and_eta_are_always_finite() {
        // The degenerate first-cell / zero-rate cases: no visits, no
        // events, zero (or epsilon) elapsed time. Every numeric field
        // must serialize as a plain number — the vendored JSON writer
        // renders a non-finite f64 as `null`, which would break any
        // monitor parsing the stream.
        let buf = SharedBuf::default();
        let tel = SweepTelemetry::new(1000, Some(Box::new(buf.clone())));
        tel.cell_done(&CellReport::default());
        tel.finish();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let line = text.lines().next().unwrap();
        assert!(
            !line.contains("null") && !line.contains("inf") && !line.contains("NaN"),
            "degenerate heartbeat leaked a non-finite value: {line}"
        );
        assert!(line.contains("\"events_per_sec\":"), "{line}");
        assert!(line.contains("\"eta_ms\":"), "{line}");
    }

    #[test]
    fn peak_rss_is_read_for_every_heartbeat_and_never_falls() {
        let buf = SharedBuf::default();
        let tel = SweepTelemetry::new(3, Some(Box::new(buf.clone())));
        let mut held = Vec::new();
        for cell in 0..3 {
            // Touch 8 MiB more before each heartbeat: the high-water
            // mark must be re-read, not remembered from the first line.
            held.push(vec![1u8; 8 << 20]);
            tel.cell_done(&CellReport {
                cell,
                ..CellReport::default()
            });
        }
        tel.finish();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let peaks: Vec<u64> = text
            .lines()
            .map(|line| {
                let (_, rest) = line.split_once("\"peak_rss_kb\":").expect("key present");
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits.parse().expect("a number")
            })
            .collect();
        assert_eq!(peaks.len(), 3);
        if cfg!(target_os = "linux") {
            assert!(peaks[0] > 0, "{peaks:?}");
            assert!(peaks.windows(2).all(|w| w[0] <= w[1]), "{peaks:?}");
            assert!(peaks[2] >= peaks[0] + (8 << 10), "{peaks:?}");
        }
        assert!(held.iter().all(|block| block[0] == 1));
    }

    #[test]
    fn finite_or_zero_clamps_only_non_finite() {
        assert_eq!(finite_or_zero(f64::INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NEG_INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
        assert_eq!(finite_or_zero(42.5), 42.5);
    }

    #[test]
    fn none_writer_keeps_totals_without_lines() {
        let tel = SweepTelemetry::new(1, None);
        tel.cell_done(&CellReport {
            visits: 5,
            ..CellReport::default()
        });
        let totals = tel.totals();
        assert_eq!(totals.completed, 1);
        assert_eq!(totals.visits, 5);
        assert_eq!(totals.lines, 0);
    }
}
