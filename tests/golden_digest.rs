//! "Byte-identical to the parent" as a test instead of a manual `cmp`.
//!
//! Three artifacts stand for everything the simulator computes: the
//! paired-3G dump at one seed (every `RunResult` field of an HTTP and a
//! SPDY Table-1 run, connection labels included), the `result.json`
//! of `scenarios/quick_wifi.json` (the pooled-metrics contract), and the
//! `result.json` of `scenarios/bulk_lte_small.json` (the data plane: 16
//! one-MiB objects per protocol, where per-segment delivery, timer
//! re-arm and reassembly order decide every tie). Two more stand for
//! everything read back out of a flight log, both from the fully-traced
//! `scenarios/trace_spdy_3g.json`: the `result.json` whose cell carries
//! the nine `critical_*_ms` keys, and the HAR waterfall with its
//! conn/stream bindings. Three more pin what the JSON printer writes and
//! no other digest covers: that scenario's trace JSONL and metrics
//! registry, and the paired dump's sidecar (its `run_result_keys`). Three more pin the two per-segment series, the
//! only outputs that read them: `scenarios/export_spdy_3g.json`'s
//! per-second downlink and bytes-in-flight plot files, and the paired
//! dump of `scenarios/paired_lte.json`. Their FNV-1a digests are pinned
//! here. A change that is meant to alter behaviour updates the constants
//! in the same commit and says why; a refactor or a performance change
//! may not touch them.
//!
//! Six more pin the metrics registry a fully-traced cell publishes
//! (`metrics_<protocol>.json`), one HTTP and one SPDY cell of the first
//! seed of `paired_3g.json` (3G), `bulk_lte_small.json` (LTE) and
//! `quick_wifi.json` (WiFi), so every counter and histogram of both
//! protocols on all three networks is guarded, not just the one SPDY 3G
//! registry `trace_spdy_3g.json` writes.
//!
//! CI's `scenario-matrix` job checks the same constants against the
//! files the released binary writes for the same manifests (`experiments
//! run scenarios/<name>.json`), so the two builds cannot drift apart
//! either.

use spdyier::core::{metrics_file, TraceLevel};
use spdyier::experiments::{run_cell, run_manifest_on, Executor};
use spdyier_scenario::Manifest;
use std::path::Path;

const PAIRED_3G_ONE_SEED_DUMP: u64 = 0xc8b5_51e2_0655_a1ca;
const QUICK_WIFI_RESULT_JSON: u64 = 0x0031_f90b_a9a0_46c4;
const BULK_LTE_SMALL_RESULT_JSON: u64 = 0x609e_cdde_8a79_48dc;
const TRACE_SPDY_3G_RESULT_JSON: u64 = 0x10f8_8456_eeba_336a;
const TRACE_SPDY_3G_WATERFALL_HAR: u64 = 0x1b78_cfdd_b1e7_eee3;
const TRACE_SPDY_3G_TRACE_JSONL: u64 = 0x6dbf_9e14_23ad_df40;
const TRACE_SPDY_3G_METRICS_JSON: u64 = 0x2a9d_8055_e094_4926;
const PAIRED_3G_DUMP_META: u64 = 0xa214_e554_e84f_7165;
const EXPORT_SPDY_3G_DOWNLINK_DAT: u64 = 0x9187_0206_2182_a22e;
const EXPORT_SPDY_3G_INFLIGHT_DAT: u64 = 0x4e2b_d6cf_eb56_ccb5;
const PAIRED_LTE_ONE_SEED_DUMP: u64 = 0x3252_b51c_506e_7b8a;
const PAIRED_3G_HTTP_METRICS_JSON: u64 = 0x8f5a_c82e_907f_fe45;
const PAIRED_3G_SPDY_METRICS_JSON: u64 = 0x2a9d_8055_e094_4926;
const BULK_LTE_SMALL_HTTP_METRICS_JSON: u64 = 0x1c86_fc7f_79f5_a97e;
const BULK_LTE_SMALL_SPDY_METRICS_JSON: u64 = 0xbf86_0883_6d46_8710;
const QUICK_WIFI_HTTP_METRICS_JSON: u64 = 0x2f86_175a_e36d_0581;
const QUICK_WIFI_SPDY_METRICS_JSON: u64 = 0x619d_2b9c_2816_ebec;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Run a committed scenario serially and digest some of its artifacts.
fn artifact_digests<const N: usize>(scenario: &str, artifacts: [&str; N]) -> [u64; N] {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(scenario);
    let manifest = Manifest::from_file(&path).expect("committed scenario decodes");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden_{}", manifest.name));
    run_manifest_on(&Executor::new(1), &manifest, &out).expect("artifacts written");
    artifacts.map(|a| fnv1a(&std::fs::read(out.join(a)).expect("artifact exists")))
}

/// Run the first seed's HTTP and SPDY cells of a committed scenario at
/// `full` trace and digest each one's metrics registry file.
fn metrics_digests(scenario: &str) -> [u64; 2] {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(scenario);
    let mut manifest = Manifest::from_file(&path).expect("committed scenario decodes");
    manifest.trace = TraceLevel::Full;
    let cells = manifest.cells();
    ["http", "spdy"].map(|protocol| {
        let cell = cells
            .iter()
            .find(|c| c.seed == manifest.seeds.base && c.protocol.compact() == protocol)
            .expect("the scenario runs both protocols");
        let (_, traced) = run_cell(&manifest, cell).expect("within the event budget");
        let log = traced.expect("a full-trace cell is traced").log;
        fnv1a(metrics_file(protocol, &log.metrics).contents.as_bytes())
    })
}

#[test]
fn golden_artifact_digests_are_pinned() {
    let [dump, meta] = artifact_digests(
        "paired_3g.json",
        ["paired_3g.jsonl", "paired_3g.jsonl.meta.json"],
    );
    let [result] = artifact_digests("quick_wifi.json", ["result.json"]);
    let [bulk] = artifact_digests("bulk_lte_small.json", ["result.json"]);
    assert_eq!(
        (dump, meta, result, bulk),
        (
            PAIRED_3G_ONE_SEED_DUMP,
            PAIRED_3G_DUMP_META,
            QUICK_WIFI_RESULT_JSON,
            BULK_LTE_SMALL_RESULT_JSON
        ),
        "simulator output changed: paired_3g.jsonl {dump:#018x}, \
         paired_3g.jsonl.meta.json {meta:#018x}, \
         quick_wifi result.json {result:#018x}, \
         bulk_lte_small result.json {bulk:#018x}"
    );
}

#[test]
fn golden_traced_artifact_digests_are_pinned() {
    let [result, waterfall, jsonl, metrics] = artifact_digests(
        "trace_spdy_3g.json",
        [
            "result.json",
            "waterfall_spdy.har.json",
            "trace_spdy.jsonl",
            "metrics_spdy.json",
        ],
    );
    assert_eq!(
        (result, waterfall, jsonl, metrics),
        (
            TRACE_SPDY_3G_RESULT_JSON,
            TRACE_SPDY_3G_WATERFALL_HAR,
            TRACE_SPDY_3G_TRACE_JSONL,
            TRACE_SPDY_3G_METRICS_JSON
        ),
        "trace reader output changed: trace_spdy_3g result.json {result:#018x}, \
         waterfall_spdy.har.json {waterfall:#018x}, \
         trace_spdy.jsonl {jsonl:#018x}, \
         metrics_spdy.json {metrics:#018x}"
    );
}

#[test]
fn golden_series_artifact_digests_are_pinned() {
    let [downlink, inflight] = artifact_digests(
        "export_spdy_3g.json",
        ["downlink_spdy.dat", "inflight_spdy.dat"],
    );
    let [dump] = artifact_digests("paired_lte.json", ["paired_lte.jsonl"]);
    assert_eq!(
        (downlink, inflight, dump),
        (
            EXPORT_SPDY_3G_DOWNLINK_DAT,
            EXPORT_SPDY_3G_INFLIGHT_DAT,
            PAIRED_LTE_ONE_SEED_DUMP
        ),
        "per-segment series changed: downlink_spdy.dat {downlink:#018x}, \
         inflight_spdy.dat {inflight:#018x}, paired_lte.jsonl {dump:#018x}"
    );
}

#[test]
fn golden_metrics_registries_are_pinned() {
    let [paired_http, paired_spdy] = metrics_digests("paired_3g.json");
    let [bulk_http, bulk_spdy] = metrics_digests("bulk_lte_small.json");
    let [wifi_http, wifi_spdy] = metrics_digests("quick_wifi.json");
    assert_eq!(
        (
            paired_http,
            paired_spdy,
            bulk_http,
            bulk_spdy,
            wifi_http,
            wifi_spdy
        ),
        (
            PAIRED_3G_HTTP_METRICS_JSON,
            PAIRED_3G_SPDY_METRICS_JSON,
            BULK_LTE_SMALL_HTTP_METRICS_JSON,
            BULK_LTE_SMALL_SPDY_METRICS_JSON,
            QUICK_WIFI_HTTP_METRICS_JSON,
            QUICK_WIFI_SPDY_METRICS_JSON
        ),
        "metrics registry changed: paired_3g http {paired_http:#018x} spdy {paired_spdy:#018x}, \
         bulk_lte_small http {bulk_http:#018x} spdy {bulk_spdy:#018x}, \
         quick_wifi http {wifi_http:#018x} spdy {wifi_spdy:#018x}"
    );
}
