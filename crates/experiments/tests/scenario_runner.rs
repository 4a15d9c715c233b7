//! End-to-end tests of the manifest runner: exit codes and the
//! result.json contract.

use spdyier_core::ScenarioExit;
use spdyier_experiments::{run_manifest_on, Executor};
use spdyier_scenario::Manifest;
use std::path::PathBuf;

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spdyier_scenario_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A sub-second wifi synthetic-page manifest the tests mutate.
fn quick_manifest(name: &str) -> Manifest {
    Manifest::from_json(&format!(
        r#"{{
            "schema_version": 1,
            "name": "{name}",
            "network": {{ "kind": "wifi" }},
            "workload": {{
                "kind": "synthetic",
                "objects": 10,
                "object_bytes": 2000,
                "same_domain": true,
                "visits": 1,
                "interval_s": 30
            }},
            "protocols": ["http", "spdy"]
        }}"#
    ))
    .expect("quick manifest decodes")
}

/// `run_cell` + `fold_cell` are the one path behind `run` and `sweep`. A traced cell keeps its flight log only when the manifest
/// asks for the JSONL dump, and then — with every consumer switched on
/// (both attribution folds, the stall table, the bound waterfall) —
/// scans it into an event model exactly once; otherwise the model was
/// the recorder's sink, there is no log, and nothing is scanned.
#[cfg(debug_assertions)]
#[test]
fn a_traced_cell_scans_its_flight_log_once_if_it_keeps_one_and_never_otherwise() {
    use spdyier_causal::model::SCANS;
    use spdyier_experiments::{fold_cell, run_cell};
    let mut m = quick_manifest("one_scan");
    m.trace = spdyier_core::TraceLevel::Full;
    for (artifacts, scans_expected, files) in [(true, 1, 5), (false, 0, 0)] {
        m.outputs.trace_artifacts = artifacts;
        let cell = &m.cells()[1];
        let scans = || SCANS.with(std::cell::Cell::get);
        let before = scans();
        let (result, traced) = run_cell(&m, cell).expect("within limits");
        let folded = fold_cell(&m, cell, &result, traced.as_ref());
        assert_eq!(scans() - before, scans_expected, "artifacts: {artifacts}");
        let log = traced.expect("traced").log;
        assert_eq!(log.events.is_empty(), !artifacts);
        assert!(log.metrics.counter("trace.emitted") > 0 && log.dropped == 0);
        assert_eq!(
            folded.files.len(),
            files,
            "trace, waterfall, stalls x2, metrics"
        );
        assert_eq!(folded.metrics.stall_visits, 1);
        assert_eq!(folded.metrics.critical_visits, 1);
    }
}

/// Attribution costs what the cell's trace holds, not that times its
/// windows: over both projections of one Table-1 3G cell (20 visit
/// windows, some hundreds of spine segments) the sweep's cursors read
/// about as many runs as the model has intervals plus the segments it
/// emits — 87,397 for 102,842 intervals and 21,668 segments when
/// committed. The endpoint sweep this one replaced passed over every
/// interval of the run once per window: 281,456,133 reads for this cell.
#[cfg(debug_assertions)]
#[test]
fn a_traced_cells_sweeps_read_its_intervals_once_not_once_per_window() {
    use spdyier_causal::model::SWEEP_WORK;
    use spdyier_experiments::{fold_cell, run_cell};
    let mut m = Manifest::paper_baseline("sweep_work");
    m.trace = spdyier_core::TraceLevel::Full;
    let cell = &m.cells()[0];
    let (result, traced) = run_cell(&m, cell).expect("within limits");
    let model = &traced.as_ref().expect("traced").model;
    let lists = [
        &model.rto,
        &model.promotions,
        &model.serialization,
        &model.queueing,
        &model.think,
        &model.setup,
    ];
    let intervals: u64 = lists.iter().map(|l| l.len() as u64).sum();
    let (read_before, emitted_before) = SWEEP_WORK.with(std::cell::Cell::get);
    let folded = fold_cell(&m, cell, &result, traced.as_ref());
    let (read, emitted) = SWEEP_WORK.with(std::cell::Cell::get);
    let (read, emitted) = (read - read_before, emitted - emitted_before);
    assert_eq!(folded.metrics.critical_visits, 20);
    assert!(intervals > 100_000, "a full trace: {intervals} intervals");
    assert!(
        read <= 2 * (intervals + emitted),
        "{read} runs read for {intervals} intervals and {emitted} segments"
    );
}

#[test]
fn failing_assertion_yields_exit_1_and_failed_verdict() {
    let mut m = quick_manifest("must_fail");
    m.assertions =
        vec![spdyier_scenario::Assertion::parse("plt_p50_ms < 1").expect("assertion parses")];
    let dir = out_dir("fail");
    let outcome = run_manifest_on(&Executor::new(2), &m, &dir).expect("runner writes");
    assert_eq!(outcome.exit, ScenarioExit::AssertionFailed);
    assert_eq!(outcome.exit.code(), 1);

    let result = std::fs::read_to_string(dir.join("result.json")).expect("result.json exists");
    let v = serde_json::from_str(&result).expect("result.json parses");
    assert_eq!(v["status"], serde_json::Value::Str("fail".into()));
    assert_eq!(v["exit_code"], serde_json::Value::U64(1));
    assert_eq!(
        v["assertions"][0]["status"],
        serde_json::Value::Str("fail".into())
    );
    let junit = std::fs::read_to_string(dir.join("junit.xml")).expect("junit.xml exists");
    assert!(junit.contains("failures=\"1\""), "{junit}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_json_top_level_keys_are_pinned() {
    let m = quick_manifest("keyset");
    let dir = out_dir("keys");
    run_manifest_on(&Executor::new(2), &m, &dir).expect("runner writes");
    let result = std::fs::read_to_string(dir.join("result.json")).expect("result.json exists");
    let serde_json::Value::Object(entries) = serde_json::from_str(&result).expect("parses") else {
        panic!("result.json is an object");
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema_version",
            "scenario",
            "description",
            "network",
            "seeds",
            "status",
            "exit_code",
            "cells",
            "assertions",
            "artifacts",
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_event_budget_yields_exit_2_and_limit_status() {
    let mut m = quick_manifest("limited");
    m.limits.event_budget = 50;
    let dir = out_dir("limit");
    let outcome = run_manifest_on(&Executor::new(2), &m, &dir).expect("runner writes");
    assert_eq!(outcome.exit, ScenarioExit::LimitExceeded);
    assert_eq!(outcome.exit.code(), 2);
    let result = std::fs::read_to_string(dir.join("result.json")).expect("result.json exists");
    let v = serde_json::from_str(&result).expect("parses");
    assert_eq!(v["status"], serde_json::Value::Str("limit".into()));
    assert!(
        matches!(&v["limit"], serde_json::Value::Str(s) if s.contains("event budget")),
        "{result}"
    );
    assert_eq!(v["assertions"], serde_json::Value::Array(Vec::new()));
    // JUnit carries the limit as one failing case, so CI does not read
    // a limit-exceeded run as green.
    let junit = std::fs::read_to_string(dir.join("junit.xml")).expect("junit.xml exists");
    assert!(
        junit.contains("tests=\"1\" failures=\"1\" skipped=\"0\""),
        "{junit}"
    );
    assert!(junit.contains("name=\"limits\""), "{junit}");
    let serde_json::Value::Str(limit) = &v["limit"] else {
        unreachable!()
    };
    assert!(
        junit.contains(&format!("<failure message=\"{limit}\"/>")),
        "{junit}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every manifest under `scenarios/`, decoded.
fn committed_pack() -> Vec<(PathBuf, Manifest)> {
    let pack = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut manifests = Vec::new();
    for entry in std::fs::read_dir(&pack).expect("scenarios/ exists") {
        let path = entry.expect("read entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let m = Manifest::from_file(&path)
            .unwrap_or_else(|e| panic!("{} fails to decode: {e}", path.display()));
        manifests.push((path, m));
    }
    manifests
}

#[test]
fn committed_scenario_pack_decodes() {
    let pack = committed_pack();
    for (path, m) in &pack {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 stem");
        assert_eq!(
            m.name,
            stem,
            "{}: manifest name must match file stem",
            path.display()
        );
        assert!(!m.cells().is_empty());
    }
    assert!(
        pack.len() >= 6,
        "expected the starter pack, found {} manifests",
        pack.len()
    );
}

/// Links deliver FIFO, so every segment delivery rides its link's lane
/// in the event queue and none takes the out-of-order route through the
/// heap: across the pack (every protocol and variant, first seed) the
/// fallback count is zero.
#[test]
fn no_delivery_leaves_its_lane_on_the_committed_pack() {
    for (path, m) in committed_pack() {
        for cell in m.cells().iter().filter(|c| c.seed == m.seeds.base) {
            let fallbacks = spdyier_core::Testbed::new(cell.build_config(&m))
                .run_counting_lane_fallbacks()
                .unwrap_or_else(|e| panic!("{} cell {}: {e}", path.display(), cell.index));
            assert_eq!(
                fallbacks,
                0,
                "{} cell {}: deliveries scheduled out of link order",
                path.display(),
                cell.index
            );
        }
    }
}

/// The model is the sink: across the pack at `full` trace (every
/// protocol and variant, first seed) the model a run folds record by
/// record equals the model scanned from the retained log of the same
/// run, the recorder's books (`dropped`, the registry with its
/// `trace.emitted` / `trace.sink_dropped` counters) do not depend on
/// which sink it wrote to, and neither does the run.
#[test]
fn the_online_model_equals_the_model_of_the_retained_log_on_the_committed_pack() {
    use spdyier_causal::{EventModel, ModelBuilder};
    use spdyier_core::Testbed;
    for (path, mut m) in committed_pack() {
        m.trace = spdyier_core::TraceLevel::Full;
        for cell in m.cells().iter().filter(|c| c.seed == m.seeds.base) {
            let what = format!("{} cell {}", path.display(), cell.index);
            let (run, log) = Testbed::new(cell.build_config(&m))
                .try_run_traced()
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let (folded_run, folded_log, builder) = Testbed::new(cell.build_config(&m))
                .try_run_into(ModelBuilder::default())
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let emitted = log.metrics.counter("trace.emitted");
            assert!(emitted > 0 && log.events.len() as u64 == emitted, "{what}");
            assert!(
                builder.finish() == EventModel::from_records(&log.events),
                "{what}: models differ"
            );
            assert!(folded_log.events.is_empty(), "{what}");
            assert_eq!(
                (folded_log.dropped, &folded_log.metrics),
                (log.dropped, &log.metrics),
                "{what}"
            );
            assert!(
                serde_json::to_string(&folded_run).unwrap() == serde_json::to_string(&run).unwrap(),
                "{what}: the sink changed the run"
            );
        }
    }
}

#[test]
fn skipped_network_clause_is_reported_not_failed() {
    let mut m = quick_manifest("skipper");
    m.assertions =
        vec![spdyier_scenario::Assertion::parse("plt_p50_ms < 60000 on lte").expect("parses")];
    let dir = out_dir("skip");
    let outcome = run_manifest_on(&Executor::new(2), &m, &dir).expect("runner writes");
    assert_eq!(outcome.exit, ScenarioExit::Pass);
    assert_eq!(outcome.verdicts.len(), 1);
    assert_eq!(
        outcome.verdicts[0].status,
        spdyier_core::VerdictStatus::Skipped
    );
    let junit = std::fs::read_to_string(dir.join("junit.xml")).expect("junit.xml exists");
    assert!(junit.contains("skipped"), "{junit}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_manifest_writes_the_legacy_artifact_set_plus_contract() {
    let mut m = quick_manifest("traced");
    m.protocols = vec![spdyier_scenario::ProtocolSpec::parse("spdy").expect("parses")];
    m.trace = spdyier_core::TraceLevel::Full;
    m.outputs.trace_artifacts = true;
    let dir = out_dir("trace");
    let outcome = run_manifest_on(&Executor::new(1), &m, &dir).expect("runner writes");
    assert_eq!(outcome.exit, ScenarioExit::Pass);
    for name in [
        "result.json",
        "junit.xml",
        "trace_spdy.jsonl",
        "waterfall_spdy.har.json",
        "stalls_spdy.dat",
        "stalls_spdy.manifest.json",
        "metrics_spdy.json",
    ] {
        assert!(dir.join(name).is_file(), "missing artifact {name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `outputs.plot_data` renders each cell's `.dat` set on the worker: the
/// six per-protocol files, plus one cwnd file per connection when the
/// manifest records TCP traces, listed in `result.json` after the
/// contract files.
#[test]
fn plot_data_manifest_writes_the_export_file_set() {
    let mut m = quick_manifest("plotted");
    m.tcp_traces = true;
    m.outputs.plot_data = true;
    let dir = out_dir("plot");
    let outcome = run_manifest_on(&Executor::new(2), &m, &dir).expect("runner writes");
    assert_eq!(outcome.exit, ScenarioExit::Pass);
    for proto in ["http", "spdy"] {
        for kind in ["plt", "downlink", "inflight", "rtx", "promotions", "proxy"] {
            let name = format!("{kind}_{proto}.dat");
            let text = std::fs::read_to_string(dir.join(&name)).expect(&name);
            assert!(text.starts_with('#'), "{name} has a header");
        }
        assert!(
            dir.join(format!("cwnd_{proto}-0.dat")).is_file(),
            "{proto} cwnd"
        );
    }
    let plt = std::fs::read_to_string(dir.join("plt_spdy.dat")).expect("plt");
    assert_eq!(plt.lines().count(), 2, "header + one visit");
    let result = std::fs::read_to_string(dir.join("result.json")).expect("result.json");
    assert!(result.contains("\"plt_http.dat\""), "{result}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `.dat` names carry only the protocol, so a manifest whose cells
/// would overwrite each other's files is refused at decode, naming the
/// field — like `paired_dump` off its paired shape.
#[test]
fn plot_data_is_refused_where_two_cells_would_share_a_file() {
    let base = r#""schema_version":1,"name":"plots","network":{"kind":"wifi"},"outputs":{"plot_data":true}"#;
    for shape in [
        r#""protocols":["http","spdy"],"seeds":{"base":0,"count":2}"#,
        r#""protocols":["spdy"],"matrix":{"rtt_reset_after_idle":[true,false]}"#,
        r#""protocols":["spdy","spdy:4"]"#,
        r#""protocols":["http","http"]"#,
    ] {
        let e = Manifest::from_json(&format!("{{{base},{shape}}}")).expect_err(shape);
        assert!(
            e.0.starts_with("scenario error at manifest.outputs.plot_data: "),
            "{shape}: {e}"
        );
    }
    let one_each = format!(r#"{{{base},"protocols":["http","spdy:4:late"]}}"#);
    Manifest::from_json(&one_each).expect("one http and one spdy cell");
}
