//! Parallel sweeps must be indistinguishable from serial ones: the
//! executor only reorders *when* runs execute, never what they compute
//! or where their outputs land.

mod common;

use spdyier_core::TraceLevel;
use spdyier_scenario::Manifest;

/// The manifest runner and the flight recorder carry that guarantee
/// end to end: a paired 3G manifest with every bulk artifact on — the
/// paired dump and the per-cell trace bundle (JSONL event stream,
/// waterfall, metrics registry) — writes byte-identical
/// files whether it ran on one worker (`SPDYIER_JOBS=1`) or four.
#[test]
fn parallel_traced_sweep_has_byte_identical_jsonl() {
    let mut manifest = Manifest::paper_baseline("determinism");
    manifest.trace = TraceLevel::Full;
    manifest.outputs.paired_dump = true;
    manifest.outputs.trace_artifacts = true;

    let serial = common::artifacts(&manifest, 1);
    let parallel = common::artifacts(&manifest, 4);
    common::assert_same_artifacts(&serial, &parallel, "serial vs 4 workers");

    // The sweep actually measured and traced something.
    let lines = |name: &str| {
        let (_, bytes) = serial
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing {name}"));
        bytes.iter().filter(|&&b| b == b'\n').count()
    };
    assert_eq!(lines("paired_3g.jsonl"), 2);
    assert!(lines("trace_http.jsonl") > 1000 && lines("trace_spdy.jsonl") > 1000);
}
