//! The span profiler must be invisible to the simulation, and the
//! per-cell metrics registry a traced run writes keeps its pinned
//! schema. The spans are switched on around a plain manifest run, as
//! the benchmark harness switches them on around a cell.
//!
//! The profiler switch is process-global, so every test that toggles it
//! (or depends on its state) serializes on one mutex.

mod common;

use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::Value;
use spdyier_core::{metrics_file, NetworkKind, TraceLevel, METRICS_SCHEMA_VERSION};
use spdyier_experiments::run_cell;
use spdyier_scenario::Manifest;

static PROF_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PROF_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The paired WiFi manifest (HTTP then SPDY per seed) at `Full`.
fn wifi_manifest(name: &str, seeds: u64) -> Manifest {
    let mut manifest = Manifest::paper_baseline(name);
    manifest.network.kind = NetworkKind::Wifi;
    manifest.seeds.count = seeds;
    manifest.trace = TraceLevel::Full;
    manifest
}

/// The acceptance bar: a manifest run with the span profiler switched on
/// writes every artifact — `result.json`, the paired dump (every
/// `RunResult`), the trace streams — byte for byte as the same run with
/// it off, serially and on four workers.
#[test]
fn profiler_on_and_off_runs_are_byte_identical() {
    let _g = lock();
    let mut manifest = wifi_manifest("profiler_identity", 2);
    manifest.outputs.paired_dump = true;
    manifest.outputs.trace_artifacts = true;

    // One worker runs the cells on this thread, so this thread's span
    // table is the run's.
    spdyier_prof::set_enabled(false);
    spdyier_prof::take_thread_profile();
    let off = common::artifacts(&manifest, 1);
    assert!(
        spdyier_prof::take_thread_profile().subsystems().is_empty(),
        "a run with the profiler off records no spans"
    );
    for name in [
        "paired_wifi.jsonl",
        "trace_http_s0.jsonl",
        "trace_spdy_s1.jsonl",
    ] {
        assert!(off.iter().any(|(n, _)| n == name), "missing {name}");
    }

    for jobs in [1, 4] {
        spdyier_prof::set_enabled(true);
        let on = common::artifacts(&manifest, jobs);
        spdyier_prof::set_enabled(false);
        common::assert_same_artifacts(&off, &on, &format!("profiler off vs on, {jobs} worker(s)"));
        if jobs == 1 {
            // And the profiler actually observed the serial run.
            let subsystems = spdyier_prof::take_thread_profile().subsystems();
            assert!(
                subsystems.contains_key("driver") && subsystems.contains_key("world"),
                "expected driver and world spans, got {:?}",
                subsystems.keys().collect::<Vec<_>>()
            );
        }
    }
}

/// `metrics_<label>.json` end to end, read back from the file a
/// `trace_artifacts` run writes: the schema-versioned wrapper, the
/// registry's two sections (each histogram a quantile sketch), and the
/// trace-loss counters, which match the recorder's own counts.
#[test]
fn metrics_file_schema_is_pinned() {
    let mut manifest = wifi_manifest("metrics_schema", 1);
    manifest.outputs.trace_artifacts = true;
    let files = common::artifacts(&manifest, 1);
    let (_, written) = files
        .iter()
        .find(|(n, _)| n == "metrics_http.json")
        .expect("the HTTP cell's metrics file is written");
    let text = std::str::from_utf8(written).expect("utf-8");
    assert_eq!(METRICS_SCHEMA_VERSION, 2);
    for key in [
        "\"schema_version\": 2",
        "\"metrics\"",
        "\"counters\"",
        "\"histograms\"",
        "\"visit.plt_ms\"",
        "\"sub_bits\"",
        "\"trace.emitted\"",
        "\"trace.sink_dropped\"",
    ] {
        assert!(text.contains(key), "metrics_http.json missing {key}");
    }

    // The file is the cell's own registry, and its published counters
    // match the recorder's own books.
    let (_, traced) = run_cell(&manifest, &manifest.cells()[0]).expect("within budget");
    let log = traced.expect("full trace").log;
    assert!(*written == metrics_file("http", &log.metrics).contents.into_bytes());
    let doc: Value = serde_json::from_str(text).expect("parses");
    let counter = |name: &str| doc["metrics"]["counters"][name].as_u64().expect("a count");
    assert!(counter("trace.emitted") > 0);
    assert_eq!(counter("trace.sink_dropped"), log.dropped);
}
