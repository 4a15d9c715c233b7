//! The per-segment series and the proxy's per-fetch records are kept
//! only when something reads them, and skipping them changes nothing
//! else a run computes.
//!
//! Every cell of three committed manifests (the 3G control plane, the
//! LTE data plane and the WiFi pooled-metrics cell) runs twice, with
//! `ExperimentConfig::record_series` on and off. Off, both series and
//! the proxy records are empty. With the three cleared from the on-run,
//! the two `RunResult`s print to the same JSON: the recording sites have
//! no other effect.

use spdyier::core::{RunResult, Testbed};
use spdyier::sim::TimeSeries;
use spdyier_scenario::Manifest;
use std::path::Path;

fn run(manifest: &Manifest, cell: &spdyier_scenario::Cell, record_series: bool) -> RunResult {
    let mut cfg = cell.build_config(manifest);
    cfg.record_series = record_series;
    Testbed::new(cfg).run()
}

#[test]
fn skipping_the_series_changes_nothing_else() {
    for scenario in ["paired_3g.json", "bulk_lte_small.json", "quick_wifi.json"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("scenarios")
            .join(scenario);
        let manifest = Manifest::from_file(&path).expect("committed scenario decodes");
        for cell in manifest.cells() {
            let label = format!("{scenario} {}", cell.protocol.compact());
            let mut on = run(&manifest, &cell, true);
            let off = run(&manifest, &cell, false);
            assert!(
                !on.client_downlink_bytes.is_empty(),
                "{label}: on-run records"
            );
            assert!(!on.inflight_bytes.is_empty(), "{label}: on-run records");
            assert!(!on.proxy_records.is_empty(), "{label}: on-run records");
            assert!(
                off.client_downlink_bytes.is_empty(),
                "{label}: downlink off"
            );
            assert!(off.inflight_bytes.is_empty(), "{label}: in-flight off");
            assert!(off.proxy_records.is_empty(), "{label}: proxy records off");
            on.client_downlink_bytes = TimeSeries::default();
            on.inflight_bytes = TimeSeries::default();
            on.proxy_records.clear();
            assert_eq!(
                serde_json::to_string(&on).unwrap(),
                serde_json::to_string(&off).unwrap(),
                "{label}: the series and records were the only difference"
            );
        }
    }
}
