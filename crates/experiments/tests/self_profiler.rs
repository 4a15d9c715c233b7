//! The self-profiler must be invisible to the simulation, and its
//! artifacts' schemas are pinned so downstream tooling can rely on
//! them. A profiled run is a manifest with `outputs.profile` through the
//! one run path.
//!
//! The profiler switch is process-global, so every test that toggles it
//! (or depends on its state) serializes on one mutex.

mod common;

use std::sync::{Mutex, MutexGuard, PoisonError};

use serde::Value;
use spdyier_core::{metrics_file, NetworkKind, TraceLevel, METRICS_SCHEMA_VERSION};
use spdyier_experiments::{run_cell, run_manifest_on, Executor};
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

/// The written file `name` of an artifact set, parsed.
fn parsed(files: &[(String, Vec<u8>)], name: &str) -> Value {
    let (_, bytes) = files
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing {name}"));
    serde_json::from_str(std::str::from_utf8(bytes).expect("utf-8")).expect("parses")
}

/// `result.json` with `names` dropped from its artifact list.
fn result_without(mut doc: Value, names: &[String]) -> Value {
    let Value::Object(entries) = &mut doc else {
        panic!("result.json is an object");
    };
    for (key, value) in entries {
        if let (true, Value::Array(listed)) = (key == "artifacts", value) {
            listed.retain(|a| !names.iter().any(|n| a.as_str() == Some(n)));
        }
    }
    doc
}

/// The acceptance bar: a manifest run with `outputs.profile` writes a
/// byte-identical paired dump (every `RunResult`), byte-identical trace
/// streams and the same `result.json` verdicts as the same manifest
/// without it — only the two profile artifacts are added.
#[test]
fn profiler_on_and_off_runs_are_byte_identical() {
    let _g = lock();
    let mut manifest = wifi_manifest("profiler_identity", 1);
    manifest.outputs.paired_dump = true;
    manifest.outputs.trace_artifacts = true;

    // One worker runs the cells on this thread, so this thread's span
    // table is the run's.
    spdyier_prof::set_enabled(false);
    spdyier_prof::take_thread_profile();
    let off = common::artifacts(&manifest, 1);
    assert!(
        spdyier_prof::take_thread_profile().is_empty(),
        "a run without outputs.profile must record no spans"
    );
    manifest.outputs.profile = true;
    let on = common::artifacts(&manifest, 1);
    assert!(
        !spdyier_prof::enabled(),
        "the run switches the profiler off"
    );

    let added = ["profile", "metrics"].map(|kind| format!("{kind}_profiler_identity.json"));
    let names = |set: &[(String, Vec<u8>)]| set.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    let mut expected = names(&off);
    expected.extend(added.clone());
    assert_eq!(names(&on), expected, "the profile adds its two files last");
    let simulated = |set: &[(String, Vec<u8>)]| {
        let kept = set
            .iter()
            .filter(|(n, _)| n != "result.json" && !added.contains(n));
        kept.cloned().collect::<Vec<_>>()
    };
    common::assert_same_artifacts(&simulated(&off), &simulated(&on), "profiler off vs on");
    assert_eq!(
        parsed(&off, "result.json"),
        result_without(parsed(&on, "result.json"), &added),
        "result.json differs beyond the two profile artifacts"
    );
    for name in ["paired_wifi.jsonl", "trace_http.jsonl", "trace_spdy.jsonl"] {
        assert!(off.iter().any(|(n, _)| n == name), "missing {name}");
    }
    // And the profiler actually observed the profiled run.
    let profile = parsed(&on, &added[0]);
    let Value::Object(spans) = &profile["spans"] else {
        panic!("spans is an object");
    };
    let spans: Vec<&str> = spans.iter().map(|(name, _)| name.as_str()).collect();
    assert!(
        spans.contains(&"driver.deliver") && spans.contains(&"world.service"),
        "expected driver/world spans, got {spans:?}"
    );
}

/// `profile_*.json` end to end, read back from the file a profiled run
/// writes: its schema version, its top-level key set, and subsystem
/// self-columns that partition the span table exactly.
#[test]
fn profile_report_schema_is_pinned() {
    let _g = lock();
    let mut manifest = wifi_manifest("profiled", 1);
    manifest.outputs.profile = true;
    let files = common::artifacts(&manifest, 2);
    let report = parsed(&files, "profile_profiled.json");

    let count = |v: &Value| v.as_u64().expect("an unsigned integer");
    assert_eq!(
        count(&report["schema_version"]),
        u64::from(spdyier_prof::PROFILE_SCHEMA_VERSION)
    );
    assert!(count(&report["visits"]) > 0 && count(&report["events"]) > 0);
    let self_ns = |table: &Value| -> u64 {
        match table {
            Value::Object(rows) => rows.iter().map(|(_, row)| count(&row["self_ns"])).sum(),
            _ => panic!("not a table: {table:?}"),
        }
    };
    let subsystems = &report["subsystems"];
    assert!(matches!(subsystems, Value::Object(rows) if !rows.is_empty()));
    assert_eq!(self_ns(&report["spans"]), self_ns(subsystems));
    let sink = &report["sink"];
    assert_eq!(count(&sink["emitted"]), count(&report["events"]));
    assert_eq!(count(&sink["retained"]), 0, "no cell keeps its log");

    // The merged registry is the cells' own, merged in cell order: the
    // telemetry riding along perturbs nothing.
    let mut merged = spdyier_trace::MetricsRegistry::new();
    for cell in &manifest.cells() {
        let (_, traced) = run_cell(&manifest, cell).expect("within budget");
        merged.merge(&traced.expect("lifecycle trace").log.metrics);
    }
    let (_, written) = files
        .iter()
        .find(|(n, _)| n == "metrics_profiled.json")
        .expect("written");
    assert!(*written == metrics_file("profiled", &merged).contents.into_bytes());

    let (_, json) = files
        .iter()
        .find(|(n, _)| n == "profile_profiled.json")
        .expect("written");
    let json = String::from_utf8_lossy(json);
    for key in [
        "\"schema_version\": 1",
        "\"profiler_enabled\": true",
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

/// Heartbeats ride the real executor: a profiled run on four workers
/// writes one schema-versioned line per cell with coherent totals.
#[test]
fn heartbeats_cover_every_cell_of_a_parallel_run() {
    let _g = lock();
    let mut manifest = wifi_manifest("heartbeats", 2);
    manifest.outputs.profile = true;
    let dir = std::env::temp_dir().join(format!("spdyier_heartbeats_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = run_manifest_on(&Executor::new(4), &manifest, &dir).expect("runner writes");
    assert_eq!(outcome.exit.code(), 0, "{}", outcome.summary);
    let text = std::fs::read_to_string(dir.join("heartbeat_heartbeats.jsonl")).expect("written");
    let profile = std::fs::read_to_string(dir.join("profile_heartbeats.json")).expect("written");
    let _ = std::fs::remove_dir_all(&dir);

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
    // The last line carries the cumulative totals the report sums too.
    let report: Value = serde_json::from_str(&profile).expect("parses");
    let visits = report["visits"].as_u64().expect("visits");
    assert!(lines[3].contains("\"cells_completed\":4"));
    assert!(lines[3].contains(&format!("\"visits\":{visits}")));
}
