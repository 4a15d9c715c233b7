//! Profiled sweeps: run a manifest's cells under the self-profiler with
//! per-shard heartbeats and a merged end-of-run span table.
//!
//! [`profile_manifest_on`] is one more closure over
//! [`run_cell`](crate::scenario_run::run_cell): on the worker thread
//! that runs each cell it
//!
//! 1. samples the thread-local allocation counters around the run (so
//!    the cell's allocations are attributed to the cell, not the pool),
//! 2. drains that worker's span table into one shared merged
//!    [`ProfileReport`],
//! 3. emits a heartbeat line through [`SweepTelemetry`], and
//! 4. keeps only the cell's trace metrics registry and retained-record
//!    count — the run and its event model are dropped on the spot.
//!
//! The profiler never touches simulated state, so every artifact the
//! runner writes is byte-identical whether the profiler is enabled,
//! disabled, or absent — the determinism suite pins this.

use std::io::Write;
use std::sync::Mutex;

use spdyier_core::RunError;
use spdyier_prof::{CellReport, ProfileReport, SweepTelemetry, TelemetryTotals};
use spdyier_scenario::Manifest;
use spdyier_trace::MetricsRegistry;

use crate::exec::Executor;
use crate::scenario_run::run_cell;

/// Everything a profiled sweep produced.
#[derive(Debug)]
pub struct ProfiledSweep {
    /// The cells' trace metrics registries, merged in cell order.
    pub metrics: MetricsRegistry,
    /// Trace records held in memory when each cell finished: 0 unless
    /// the manifest asks for `outputs.trace_artifacts`, since a traced
    /// cell otherwise folds its records into its event model as they are
    /// emitted (`emitted` is the count that does not depend on the sink).
    pub retained: u64,
    /// The span tables of every worker thread, merged.
    pub profile: ProfileReport,
    /// Heartbeat totals (events, visits, allocs, trace drops).
    pub telemetry: TelemetryTotals,
    /// Host wall-time of the sweep, milliseconds.
    pub wall_ms: f64,
}

/// Run `manifest`'s cells on `exec` with per-cell attribution and
/// heartbeats.
///
/// `heartbeat` receives one JSONL line per completed cell (`None`
/// keeps the totals without emitting). Whether the *span profiler*
/// records anything is governed by the global
/// [`spdyier_prof::set_enabled`] switch, which this function
/// deliberately does not touch — callers own that decision so both
/// sides can be compared. The per-cell allocation deltas do not depend
/// on it: each worker reads its own always-on counter slot.
pub fn profile_manifest_on(
    exec: &Executor,
    manifest: &Manifest,
    heartbeat: Option<Box<dyn Write + Send>>,
) -> Result<ProfiledSweep, RunError> {
    let cells = manifest.cells();
    let telemetry = SweepTelemetry::new(cells.len(), heartbeat);
    let merged: Mutex<ProfileReport> = Mutex::new(ProfileReport::new());
    let folded = exec.run(cells.len(), |job, worker| {
        let before = spdyier_prof::thread_counts();
        let out = run_cell(manifest, &cells[job]);
        let d = spdyier_prof::thread_counts().since(before);
        // Drain this worker's span table while we're still on the
        // worker thread; merging under the mutex is cheap (span
        // count, not event count).
        let spans = spdyier_prof::take_thread_profile();
        if !spans.is_empty() {
            merged
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .merge(&spans);
        }
        let (run, traced) = out?;
        let log = traced.map(|t| t.log);
        telemetry.cell_done(&CellReport {
            shard: worker,
            cell: job,
            visits: run.visits.len() as u64,
            events: log.as_ref().map_or(0, |l| l.emitted),
            trace_dropped: log.as_ref().map_or(0, |l| l.dropped),
            allocs: d.allocs,
            alloc_bytes: d.bytes,
        });
        Ok(log.map(|l| (l.events.len() as u64, l.metrics)))
    });
    let wall_ms = telemetry.elapsed_ms();
    let mut metrics = MetricsRegistry::new();
    let mut retained = 0;
    for cell in folded {
        if let Some((records, registry)) = cell? {
            retained += records;
            metrics.merge(&registry);
        }
    }
    Ok(ProfiledSweep {
        metrics,
        retained,
        profile: merged
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
        telemetry: telemetry.finish(),
        wall_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_core::{NetworkKind, TraceLevel};

    #[test]
    fn profiled_sweep_matches_plain_cells() {
        // Two paired seeds on WiFi (the fastest network). What the sweep
        // keeps of each cell must be what `run_cell` gives directly,
        // regardless of the telemetry riding along.
        let mut manifest = Manifest::paper_baseline("profiled_wifi");
        manifest.network.kind = NetworkKind::Wifi;
        manifest.seeds.count = 2;
        manifest.trace = TraceLevel::Lifecycle;
        let sweep = profile_manifest_on(&Executor::new(2), &manifest, None).expect("within budget");
        assert_eq!(sweep.telemetry.completed, 4);

        // HTTP before SPDY per seed, like the paired figure helpers.
        let cells = manifest.cells();
        let order: Vec<(String, u64)> = cells
            .iter()
            .map(|c| (c.protocol.compact(), c.seed))
            .collect();
        let expected = [("http", 0), ("spdy", 0), ("http", 1), ("spdy", 1)];
        assert_eq!(order, expected.map(|(p, s)| (p.to_string(), s)));
        let (mut metrics, mut retained, mut visits) = (MetricsRegistry::new(), 0, 0);
        for cell in &cells {
            let (run, traced) = run_cell(&manifest, cell).expect("within budget");
            let log = traced.expect("lifecycle trace").log;
            metrics.merge(&log.metrics);
            retained += log.events.len() as u64;
            visits += run.visits.len() as u64;
        }
        assert_eq!(
            sweep.metrics, metrics,
            "telemetry must not perturb the runs"
        );
        assert_eq!((sweep.retained, retained), (0, 0), "no cell keeps its log");
        assert!(sweep.telemetry.events > 0);
        assert_eq!(sweep.telemetry.visits, visits);
    }
}
