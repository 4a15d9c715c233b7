//! The in-process passes behind the per-layer ledger.
//!
//! A pass walks one workload's manifest through the same public stage
//! calls the `experiments` CLI makes — decode, expand, build, run, fold,
//! codec, assert, and for `explain` the trace and causal stages — with a
//! harness span around each call. Run once instrumented (spans plus the
//! program's own span profiler) and once bare, the two walls give the
//! tracing overhead and the two metric sets must agree exactly.

use crate::spans::SpanLog;
use crate::workloads::{Subcommand, Workload};
use serde::Serialize as _;
use spdyier_causal::{critical_paths, explain_json, explain_text, parse_jsonl, EventModel};
use spdyier_core::{attribute_stalls, ProtocolMode, Testbed, TraceLevel, VerdictStatus};
use spdyier_prof::{global_counts, ProfileReport};
use spdyier_scenario::{evaluate, CellMetrics, Manifest};
use spdyier_trace::TraceEvent;
use std::hint::black_box;
use std::time::Instant;

/// Stage spans opened per cell, at most (for the span log's reservation).
const SPANS_PER_CELL: usize = 12;

#[derive(Debug)]
pub struct Pass {
    pub wall_ns: u64,
    pub spans: SpanLog,
    /// The program's own profile of the pass (empty when not instrumented).
    pub profile: ProfileReport,
    pub metrics: Vec<CellMetrics>,
    pub cells: u64,
    pub visits: u64,
    /// Allocator calls inside `Testbed::new` + `try_run_traced`.
    pub core_allocs: u64,
    /// Simulated seconds the cells covered.
    pub sim_s: f64,
    /// One line per cell that broke a correctness check.
    pub failures: Vec<String>,
}

/// Walk `manifest_json` (which expands to `expected_cells` cells) through
/// the stages of `workload`'s subcommand.
pub fn run_pass(
    workload: &Workload,
    manifest_json: &str,
    expected_cells: usize,
    instrumented: bool,
) -> Pass {
    let explain = workload.subcommand == Subcommand::Explain;
    let mut spans = SpanLog::new(instrumented, 8 + expected_cells * SPANS_PER_CELL);
    let mut pass = Pass {
        wall_ns: 0,
        spans: SpanLog::new(false, 0),
        profile: ProfileReport::default(),
        metrics: Vec::with_capacity(expected_cells),
        cells: 0,
        visits: 0,
        core_allocs: 0,
        sim_s: 0.0,
        failures: Vec::new(),
    };

    spdyier_prof::set_enabled(instrumented);
    drop(spdyier_prof::take_thread_profile());
    let started = Instant::now();
    spans.open("pass", None);

    let mut manifest = spans
        .time("scenario.decode", None, || {
            Manifest::from_json(manifest_json)
        })
        .expect("the harness generated this manifest");
    if explain {
        // What `experiments explain` does to the manifest it is given.
        manifest.trace = TraceLevel::Full;
    }
    let traced = manifest.effective_trace() != TraceLevel::Off;
    let cells = spans.time("scenario.expand", None, || manifest.cells());

    for (i, cell) in cells.iter().enumerate() {
        let at = Some(i);
        let label = cell.artifact_label(&manifest);
        spans.open("cell", at);
        let cfg = spans.time("scenario.expand", at, || cell.build_config(&manifest));
        pass.sim_s += (cfg.schedule.horizon() + cfg.visit_timeout).as_secs_f64();
        let run_stage = match cell.protocol.mode {
            ProtocolMode::Http => "core.run_http",
            ProtocolMode::Spdy { .. } => "core.run_spdy",
        };
        let allocs_before = global_counts();
        let testbed = spans.time("core.build", at, || Testbed::new(cfg));
        let outcome = spans.time(run_stage, at, || testbed.try_run_traced());
        pass.core_allocs += global_counts().since(allocs_before).allocs;
        pass.cells += 1;
        let (result, log) = match outcome {
            Ok(pair) => pair,
            Err(e) => {
                pass.failures.push(format!("cell {label}: {e}"));
                spans.close();
                continue;
            }
        };
        let metrics = spans.time("scenario.fold", at, || {
            CellMetrics::from_run(cell, &result, traced.then_some(&log))
        });
        let decoded = spans.time("scenario.codec", at, || {
            CellMetrics::from_value(&metrics.to_value())
        });
        if decoded.as_ref() != Ok(&metrics) {
            pass.failures.push(format!(
                "cell {label}: checkpoint codec does not round-trip"
            ));
        }
        if explain {
            black_box(spans.time("core.attribution", at, || attribute_stalls(&log)));
            let jsonl = spans.time("trace.jsonl", at, || log.to_jsonl());
            let records = spans
                .time("causal.parse", at, || parse_jsonl(&jsonl))
                .expect("the recorder's own JSONL parses");
            let model = spans.time("causal.model", at, || EventModel::from_records(&records));
            let paths = spans.time("causal.path", at, || critical_paths(&model));
            black_box(spans.time("causal.render", at, || {
                (explain_json(&label, &paths), explain_text(&label, &paths))
            }));
            if records != log.events {
                pass.failures
                    .push(format!("cell {label}: trace JSONL does not round-trip"));
            }
            for p in &paths {
                let edges: u64 = p.edges.iter().map(|e| e.duration_us()).sum();
                if edges != p.plt_us() {
                    pass.failures.push(format!(
                        "cell {label} visit {}: critical-path edges sum to {edges} us, PLT is {} us",
                        p.visit,
                        p.plt_us()
                    ));
                }
            }
        }
        pass.visits += metrics.visits;
        pass.metrics.push(metrics);
        // Freed inside the cell's span: the cost shows as unattributed
        // cell time, not as part of the next cell's first stage.
        drop((result, log));
        spans.close();
    }

    let verdicts = spans.time("scenario.assert", None, || {
        evaluate(&manifest, &pass.metrics)
    });
    for v in verdicts.iter().filter(|v| v.status == VerdictStatus::Fail) {
        pass.failures
            .push(format!("assertion failed: {} ({})", v.expr, v.detail));
    }
    spans.close();
    pass.wall_ns = started.elapsed().as_nanos() as u64;
    pass.profile = spdyier_prof::take_thread_profile();
    spdyier_prof::set_enabled(false);
    pass.spans = spans;
    pass
}

/// Exact work counts of a workload's cells, from their `RunResult`s and a
/// `full`-level flight log. Untimed: the recorder is on only to count.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkCounts {
    pub visits: u64,
    pub segments: u64,
    pub rto: u64,
    pub retransmits: u64,
    pub idle_restarts: u64,
    pub conns: u64,
    pub promotions: u64,
    pub drops: u64,
    pub spdy_frames: u64,
    pub http_requests: u64,
    pub objects: u64,
    pub page_bytes: u64,
    pub records: u64,
}

pub fn count_work(manifest_json: &str) -> Result<WorkCounts, String> {
    let mut manifest = Manifest::from_json(manifest_json).map_err(|e| e.to_string())?;
    manifest.trace = TraceLevel::Full;
    let mut c = WorkCounts::default();
    for cell in manifest.cells() {
        let (result, log) = Testbed::new(cell.build_config(&manifest))
            .try_run_traced()
            .map_err(|e| format!("cell {}: {e}", cell.artifact_label(&manifest)))?;
        if log.dropped > 0 {
            return Err(format!("recorder dropped {} records", log.dropped));
        }
        c.visits += result.visits.len() as u64;
        c.rto += result.total_timeouts;
        c.retransmits += result.total_retransmissions;
        c.idle_restarts += result.total_idle_restarts;
        c.promotions += result.promotions.len() as u64;
        c.objects += result
            .visits
            .iter()
            .map(|v| v.object_count as u64)
            .sum::<u64>();
        c.page_bytes += result.visits.iter().map(|v| v.total_bytes).sum::<u64>();
        c.records += log.events.len() as u64;
        for record in &log.events {
            match record.event {
                TraceEvent::SegmentSent { .. } => c.segments += 1,
                TraceEvent::ConnOpened { .. } => c.conns += 1,
                TraceEvent::LinkDrop { .. } => c.drops += 1,
                TraceEvent::SpdyFrameRecv { .. } => c.spdy_frames += 1,
                TraceEvent::HttpRequestSent { .. } => c.http_requests += 1,
                _ => {}
            }
        }
    }
    Ok(c)
}
