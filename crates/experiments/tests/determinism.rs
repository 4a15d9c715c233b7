//! Parallel sweeps must be indistinguishable from serial ones: the
//! executor only reorders *when* runs execute, never what they compute
//! or where their outputs land.

mod common;

use spdyier_core::{NetworkKind, TraceLevel};
use spdyier_experiments::{paired_runs_on, Executor, ExpOpts};
use spdyier_scenario::Manifest;

/// A paired 3G sweep run serially and on a 4-worker pool serializes to
/// byte-identical JSON, pair by pair.
#[test]
fn parallel_paired_3g_sweep_is_byte_identical_to_serial() {
    let opts = ExpOpts { seeds: 1 };
    let serial = paired_runs_on(&Executor::new(1), NetworkKind::Umts3G, opts, false);
    let parallel = paired_runs_on(&Executor::new(4), NetworkKind::Umts3G, opts, false);
    assert_eq!(serial.len(), parallel.len());
    for (i, ((sh, ss), (ph, ps))) in serial.iter().zip(parallel.iter()).enumerate() {
        let sh = serde_json::to_string(sh).expect("serialize serial HTTP run");
        let ph = serde_json::to_string(ph).expect("serialize parallel HTTP run");
        assert_eq!(sh, ph, "HTTP run for seed {i} diverged under parallelism");
        let ss = serde_json::to_string(ss).expect("serialize serial SPDY run");
        let ps = serde_json::to_string(ps).expect("serialize parallel SPDY run");
        assert_eq!(ss, ps, "SPDY run for seed {i} diverged under parallelism");
    }
    // The sweep actually measured something.
    assert!(serial
        .iter()
        .all(|(h, s)| !h.visits.is_empty() && !s.visits.is_empty()));
}

/// The manifest runner and the flight recorder inherit the same
/// guarantee: a paired 3G manifest with every bulk artifact on — the
/// paired dump and the per-cell trace bundle (JSONL event stream,
/// waterfall, stall table, metrics registry) — writes byte-identical
/// files whether it ran on one worker (`SPDYIER_JOBS=1`) or four.
#[test]
fn parallel_traced_sweep_has_byte_identical_jsonl() {
    let mut manifest = Manifest::paper_baseline("determinism");
    manifest.trace = TraceLevel::Transport;
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
