//! The self-profiler must be invisible to the simulation, and its
//! artifacts' schemas are pinned so downstream tooling can rely on
//! them.
//!
//! The profiler switch is process-global, so every test that toggles it
//! (or depends on its state) serializes on one mutex.

mod common;

use std::sync::{Mutex, MutexGuard, PoisonError};

use spdyier_core::{metrics_file, NetworkKind, TraceLevel, METRICS_SCHEMA_VERSION};
use spdyier_experiments::{profile_manifest_on, run_cell, Executor, ProfiledSweep};
use spdyier_prof::{SelfReport, SinkReport};
use spdyier_scenario::Manifest;

static PROF_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    PROF_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The paired WiFi manifest (HTTP then SPDY per seed) at `Lifecycle`.
fn wifi_manifest(name: &str, seeds: u64) -> Manifest {
    let mut manifest = Manifest::paper_baseline(name);
    manifest.network.kind = NetworkKind::Wifi;
    manifest.seeds.count = seeds;
    manifest.trace = TraceLevel::Lifecycle;
    manifest
}

fn wifi_sweep(seeds: u64, jobs: usize) -> ProfiledSweep {
    let manifest = wifi_manifest("profiled", seeds);
    profile_manifest_on(&Executor::new(jobs), &manifest, None).expect("within budget")
}

/// The acceptance bar: a sweep with the profiler enabled writes a
/// byte-identical paired dump (every `RunResult`) — and byte-identical
/// trace streams — to the same sweep with the profiler disabled, through
/// the one path every subcommand runs cells on.
#[test]
fn profiler_on_and_off_sweeps_are_byte_identical() {
    let _g = lock();
    let mut manifest = wifi_manifest("profiler_identity", 1);
    manifest.outputs.paired_dump = true;
    manifest.outputs.trace_artifacts = true;

    // One worker runs the cells on this thread, so this thread's span
    // table is the sweep's.
    spdyier_prof::take_thread_profile();
    spdyier_prof::set_enabled(false);
    let off = common::artifacts(&manifest, 1);
    let off_profile = spdyier_prof::take_thread_profile();
    spdyier_prof::set_enabled(true);
    let on = common::artifacts(&manifest, 1);
    let on_profile = spdyier_prof::take_thread_profile();
    spdyier_prof::set_enabled(false);

    common::assert_same_artifacts(&off, &on, "profiler off vs on");
    for name in ["paired_wifi.jsonl", "trace_http.jsonl", "trace_spdy.jsonl"] {
        assert!(off.iter().any(|(n, _)| n == name), "missing {name}");
    }
    // And the profiler actually observed the enabled sweep.
    assert!(
        off_profile.is_empty(),
        "disabled profiler must record no spans"
    );
    assert!(!on_profile.is_empty(), "enabled profiler must record spans");
    let spans: Vec<&str> = on_profile.spans.keys().map(String::as_str).collect();
    assert!(
        spans.contains(&"driver.deliver") && spans.contains(&"world.service"),
        "expected driver/world spans, got {spans:?}"
    );
}

/// `profile_*.json` end to end: assemble a self-report from a real
/// profiled sweep and pin its schema version and top-level key set.
#[test]
fn profile_report_schema_is_pinned() {
    let _g = lock();
    spdyier_prof::set_enabled(true);
    let sweep = wifi_sweep(1, 2);
    spdyier_prof::set_enabled(false);

    let report = SelfReport::assemble(
        "wifi seeds=1".into(),
        &sweep.profile,
        sweep.wall_ms,
        sweep.telemetry.visits,
        spdyier_prof::AllocCounts {
            allocs: sweep.telemetry.allocs,
            bytes: sweep.telemetry.alloc_bytes,
        },
        sweep.telemetry.events,
        SinkReport::default(),
    );
    assert_eq!(report.schema_version, spdyier_prof::PROFILE_SCHEMA_VERSION);
    assert!(report.visits > 0 && report.events > 0);
    assert!(!report.subsystems.is_empty());
    // Subsystem self-columns partition the span table exactly.
    let span_self: u64 = report.spans.values().map(|s| s.self_ns).sum();
    let subsys_self: u64 = report.subsystems.values().map(|s| s.self_ns).sum();
    assert_eq!(span_self, subsys_self);

    let json = report.to_json();
    for key in [
        "\"schema_version\": 1",
        "\"profiler_enabled\"",
        "\"workload\"",
        "\"wall_ms\"",
        "\"visits\"",
        "\"allocs\"",
        "\"alloc_bytes\"",
        "\"allocs_per_visit\"",
        "\"events\"",
        "\"events_per_sec\"",
        "\"sink\"",
        "\"peak_rss_kb\"",
        "\"subsystems\"",
        "\"spans\"",
        "\"driver\"",
    ] {
        assert!(json.contains(key), "profile_*.json missing {key}");
    }
}

/// `metrics_*.json` end to end: the schema-versioned wrapper, the
/// registry's two sections, and the new trace-loss counters.
#[test]
fn metrics_file_schema_is_pinned() {
    let manifest = wifi_manifest("metrics_schema", 1);
    let (_run, traced) = run_cell(&manifest, &manifest.cells()[0]).expect("within budget");
    let log = traced.expect("lifecycle trace").log;
    assert_eq!(METRICS_SCHEMA_VERSION, 1);
    let file = metrics_file("http", &log.metrics);
    assert_eq!(file.name, "metrics_http.json");
    for key in [
        "\"schema_version\": 1",
        "\"metrics\"",
        "\"counters\"",
        "\"histograms\"",
        "\"trace.emitted\"",
        "\"trace.sink_dropped\"",
    ] {
        assert!(file.contents.contains(key), "metrics_*.json missing {key}");
    }
    // The published counter matches the recorder's own count.
    assert!(log.metrics.counter("trace.emitted") == log.emitted && log.emitted > 0);
    assert_eq!(log.metrics.counter("trace.sink_dropped"), log.dropped);
}

/// Heartbeats ride the real executor: a 4-worker profiled sweep emits
/// one schema-versioned line per cell with coherent totals.
#[test]
fn heartbeats_cover_every_cell_of_a_parallel_sweep() {
    let _g = lock();
    use std::sync::Arc;
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    spdyier_prof::set_enabled(false);
    let buf = SharedBuf::default();
    let sweep = profile_manifest_on(
        &Executor::new(4),
        &wifi_manifest("heartbeats", 2),
        Some(Box::new(buf.clone())),
    )
    .expect("within budget");
    assert_eq!(sweep.telemetry.completed, 4);
    assert_eq!(sweep.telemetry.lines, 4);
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);
    for line in &lines {
        for key in [
            "\"schema_version\":2",
            "\"cells_total\":4",
            "\"events_per_sec\"",
            "\"allocs_per_visit\"",
            "\"trace_dropped\"",
            "\"eta_ms\"",
            "\"peak_rss_kb\"",
        ] {
            assert!(line.contains(key), "heartbeat missing {key}: {line}");
        }
    }
    // The last line carries the cumulative totals.
    assert!(lines[3].contains("\"cells_completed\":4"));
    assert!(lines[3].contains(&format!("\"visits\":{}", sweep.telemetry.visits)));
}
