//! Property tests for the causal critical-path engine, driven by real
//! end-to-end runs: conservation (edge durations sum to PLT by
//! construction), RTO coverage (the recorder's RTO-stall intervals and
//! the path's `rto_recovery` edges agree region by region under the
//! engine's causal filtering rules), the diff's conservation of the PLT
//! delta, and the edge the RTT-reset mitigation's diff lands on. That
//! `explain` and `diff` write the same bytes at any pool width is a
//! property of the pin table (`tests/pins.rs`).

use spdyier_causal::{critical_paths, diff_paths, CriticalPath, EdgeKind, EventModel, Interval};
use spdyier_core::{NetworkKind, ProtocolMode, RunResult};
use spdyier_experiments::causal_cli::critical_paths_on;
use spdyier_experiments::{causal_diff, run_cell, Executor};
use spdyier_scenario::{Manifest, ProtocolSpec, Workload};
use spdyier_trace::TraceLevel;
use std::path::Path;

/// The paper baseline on `network` for `mode` alone at `seed`, traced at
/// `Full`.
fn traced_manifest(mode: ProtocolMode, network: NetworkKind, seed: u64) -> Manifest {
    let mut m = Manifest::paper_baseline("causal_engine");
    m.network.kind = network;
    m.protocols = vec![ProtocolSpec { mode }];
    m.seeds.base = seed;
    m.trace = TraceLevel::Full;
    m
}

/// Run the manifest's one cell: its result and the event model of
/// everything it emitted, which must have been recorded losslessly.
fn run_traced(m: &Manifest) -> (RunResult, EventModel) {
    let (result, traced) = run_cell(m, &m.cells()[0]).expect("within budget");
    let traced = traced.expect("traced at Full");
    assert_eq!(traced.log.dropped, 0, "lossy trace voids the property");
    (result, traced.model)
}

/// One traced single-site visit.
fn traced_run(mode: ProtocolMode, network: NetworkKind, seed: u64) -> EventModel {
    let mut m = traced_manifest(mode, network, seed);
    m.workload = Workload::Site {
        site: 1 + ((seed * 7) % 20) as u32,
        visits: 1,
        interval_s: 120,
    };
    run_traced(&m).1
}

/// Measure of the union of `intervals` clipped to `[a, b)`, restricted
/// to `conn` when given — mirroring the extractor's filtering rules.
fn union_us(intervals: &[Interval], a: u64, b: u64, conn: Option<usize>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .filter(|iv| conn.is_none() || iv.conn == conn)
        .map(|iv| (iv.a.max(a), iv.b.min(b)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = a;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if s < e {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// A maximal run of path edges sharing one `object` attribution: an
/// object span (`Some`), or a browser-held gap / the post-anchor tail
/// (`None`).
struct Region {
    object: Option<u32>,
    conn: Option<usize>,
    start_us: u64,
    end_us: u64,
    rto_edge_us: u64,
}

fn regions(p: &CriticalPath) -> Vec<Region> {
    let mut out: Vec<Region> = Vec::new();
    for e in &p.edges {
        let rto = if e.kind == EdgeKind::RtoRecovery {
            e.duration_us()
        } else {
            0
        };
        match out.last_mut() {
            Some(r) if r.object == e.object && r.conn == e.conn && r.end_us == e.start_us => {
                r.end_us = e.end_us;
                r.rto_edge_us += rto;
            }
            _ => out.push(Region {
                object: e.object,
                conn: e.conn,
                start_us: e.start_us,
                end_us: e.end_us,
                rto_edge_us: rto,
            }),
        }
    }
    out
}

/// The two causal-engine invariants, checked against one run's model.
fn check_invariants(model: &EventModel, paths: &[CriticalPath], what: &str) {
    assert!(!paths.is_empty(), "{what}: no visits extracted");
    for p in paths {
        // Conservation: edges tile the window exactly.
        let mut cursor = p.start_us;
        for e in &p.edges {
            assert_eq!(e.start_us, cursor, "{what}: edge gap before {e:?}");
            assert!(e.end_us > e.start_us, "{what}: empty edge {e:?}");
            cursor = e.end_us;
        }
        assert_eq!(cursor, p.end_us, "{what}: edges stop short of the window");
        assert_eq!(
            p.sums_us().iter().sum::<u64>(),
            p.plt_us(),
            "{what}: edge sums != PLT"
        );

        // RTO coverage, region by region. Spans attribute RTO silences on
        // the object's own connection; gaps attribute any connection's.
        // The trailing browser tail (object None, after the last span) is
        // pure parse/eval time and attributes none.
        let regs = regions(p);
        let last_span = regs.iter().rposition(|r| r.object.is_some());
        for (i, r) in regs.iter().enumerate() {
            let expected = match (r.object, last_span) {
                (Some(_), _) => union_us(&model.rto, r.start_us, r.end_us, r.conn),
                (None, Some(last)) if i > last => {
                    assert_eq!(
                        r.rto_edge_us, 0,
                        "{what}: tail region carries rto_recovery time"
                    );
                    continue;
                }
                (None, _) => union_us(&model.rto, r.start_us, r.end_us, None),
            };
            assert_eq!(
                r.rto_edge_us, expected,
                "{what}: region [{}, {}) object {:?} conn {:?}: rto edges {} != attributable RTO {}",
                r.start_us, r.end_us, r.object, r.conn, r.rto_edge_us, expected
            );
        }
    }
}

#[test]
fn conservation_and_rto_coverage_hold_across_the_sweep() {
    let networks = [NetworkKind::Umts3G, NetworkKind::Lte, NetworkKind::Wifi];
    let protocols = [ProtocolMode::Http, ProtocolMode::spdy()];
    for network in networks {
        for protocol in protocols {
            for seed in 0..8u64 {
                let model = traced_run(protocol, network, seed);
                let paths = critical_paths(&model);
                let what = format!("{network:?}/{protocol:?}/seed{seed}");
                check_invariants(&model, &paths, &what);
            }
        }
    }
}

/// Full Table-1 workloads exercise multi-visit windows and every gap
/// shape; one pair per protocol is enough on top of the seed sweep.
#[test]
fn conservation_holds_on_the_full_3g_schedule() {
    for protocol in [ProtocolMode::Http, ProtocolMode::spdy()] {
        let (result, model) = run_traced(&traced_manifest(protocol, NetworkKind::Umts3G, 0));
        let paths = critical_paths(&model);
        assert_eq!(paths.len(), result.visits.len());
        check_invariants(&model, &paths, &format!("table1/{protocol:?}"));
        // The extractor's window is the recorder's PLT verbatim.
        for (p, v) in paths.iter().zip(&result.visits) {
            assert_eq!(p.site, v.site as usize);
        }
    }
}

/// The paired-3G cells through the per-cell fold `explain` and `diff`
/// run on: the diff's edge deltas conserve the PLT delta exactly.
#[test]
fn diff_edge_deltas_conserve_the_plt_delta() {
    // Paired HTTP/SPDY at the paper's 3G operating point, full traces.
    let mut manifest = Manifest::paper_baseline("causal_identity");
    manifest.trace = TraceLevel::Full;
    // A limit or a lossy trace would be its error.
    let per_cell = critical_paths_on(&Executor::new(2), &manifest, &manifest.cells())
        .expect("every cell completes losslessly");
    let [(a_label, a), (b_label, b)] = &per_cell[..] else {
        panic!("paired baseline expands to two cells");
    };
    let report = diff_paths(a_label, a, b_label, b);
    let edge_delta: i64 = report.edge_deltas_us().iter().sum();
    assert_eq!(
        report.plt_delta_us(),
        edge_delta,
        "diff edge deltas conserve the PLT delta"
    );
}

/// The paper's RTT-reset mitigation (section 6.2.1) isolated on SPDY,
/// slow start after idle off in both cells: `experiments diff` files
/// most of the PLT it saves under RTO recovery.
#[test]
fn the_rtt_reset_diff_is_dominated_by_rto_recovery() {
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/mitigation_matrix_3g.json"
    );
    let out = std::env::temp_dir().join(format!("spdyier_rtt_reset_{}", std::process::id()));
    let outcome = causal_diff(
        &Executor::new(2),
        Path::new(scenario),
        "spdy.rtt_reset_after_idle=false+slow_start_after_idle=false",
        "spdy.rtt_reset_after_idle=true+slow_start_after_idle=false",
        &out,
    )
    .expect("diff runs");
    let json = std::fs::read_to_string(out.join("diff.json")).expect("diff.json reads back");
    let _ = std::fs::remove_dir_all(&out);
    assert!(
        json.contains(r#""dominant_edge": "rto_recovery""#),
        "{}",
        outcome.summary
    );
}
