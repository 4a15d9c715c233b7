//! Property tests for the causal critical-path engine, driven by real
//! end-to-end runs: conservation (edge durations sum to PLT by
//! construction), RTO coverage (the recorder's RTO-stall intervals and
//! the path's `rto_recovery` edges agree region by region under the
//! engine's causal filtering rules), and byte-identical diff/explain
//! output at any executor width.

use spdyier_causal::{
    critical_paths, diff_paths, explain_json, CriticalPath, EdgeKind, EventModel, Interval,
};
use spdyier_core::{NetworkKind, ProtocolMode, RunResult};
use spdyier_experiments::{run_cell, Executor};
use spdyier_scenario::{Manifest, ProtocolSpec, Workload};
use spdyier_trace::TraceLevel;

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

/// The paired-3G scenario through the real executor: diff and explain
/// artifacts are byte-identical serial vs 4-way parallel, and the diff
/// conserves the PLT delta exactly.
#[test]
fn diff_and_explain_are_byte_identical_at_any_pool_width() {
    // Paired HTTP/SPDY at the paper's 3G operating point, full traces.
    let mut manifest = Manifest::paper_baseline("causal_identity");
    manifest.trace = TraceLevel::Full;

    let artifacts = |exec: &Executor| {
        // The per-cell fold `explain`/`diff` run on: a limit or a lossy
        // trace would be its error.
        let per_cell =
            spdyier_experiments::causal_cli::critical_paths_on(exec, &manifest, &manifest.cells())
                .expect("every cell completes losslessly");
        let [(a_label, a), (b_label, b)] = &per_cell[..] else {
            panic!("paired baseline expands to two cells");
        };
        let report = diff_paths(a_label, a, b_label, b);
        let explains: Vec<String> = per_cell
            .iter()
            .map(|(label, paths)| explain_json(label, paths))
            .collect();
        (report.to_json(), report.to_text(), explains, {
            let deltas: i64 = report.edge_deltas_us().iter().sum();
            (report.plt_delta_us(), deltas)
        })
    };

    let (json1, text1, explains1, (plt_delta, edge_delta)) = artifacts(&Executor::new(1));
    let (json4, text4, explains4, _) = artifacts(&Executor::new(4));
    assert_eq!(json1, json4, "diff.json must not depend on pool width");
    assert_eq!(text1, text4);
    assert_eq!(explains1, explains4);
    assert_eq!(
        plt_delta, edge_delta,
        "diff edge deltas conserve the PLT delta"
    );
}

/// FNV-1a digests of everything `explain` and `diff` write for
/// `scenarios/paired_3g.json`, as the released binary wrote them (CI's
/// `scenario-matrix` digest step pins the same six against that
/// binary). A refactor or a performance change of the causal engine may
/// not touch them.
const PAIRED_3G_CAUSAL_ARTIFACTS: [(&str, u64); 6] = [
    ("explain_http.json", 0x6bfa_8d77_96b7_52cc),
    ("explain_http.txt", 0x31be_f059_88aa_3c16),
    ("explain_spdy.json", 0x1ff2_00c5_82b1_adfd),
    ("explain_spdy.txt", 0x7a24_97b9_0c4a_9637),
    ("diff.json", 0x032c_e5f8_237c_2570),
    ("diff.txt", 0x1945_1832_6a32_4963),
];

#[test]
fn paired_3g_explain_and_diff_artifact_digests_are_pinned() {
    use spdyier_experiments::causal_cli::{diff, explain};
    let scenario =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/paired_3g.json");
    let out = std::env::temp_dir().join(format!("spdyier_causal_pins_{}", std::process::id()));
    let mut written = explain(&scenario, None, &out)
        .expect("explain runs")
        .written;
    let diffed = diff(&scenario, "http", "spdy", &out);
    written.extend(diffed.expect("diff runs").written);
    let digests: Vec<(String, u64)> = written
        .iter()
        .map(|path| {
            let contents = std::fs::read(path).expect("a written artifact reads back");
            let digest = contents.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
            let name = path.file_name().expect("artifact name").to_string_lossy();
            (name.into_owned(), digest)
        })
        .collect();
    let pinned = PAIRED_3G_CAUSAL_ARTIFACTS.map(|(name, digest)| (name.to_string(), digest));
    assert_eq!(
        digests, pinned,
        "explain/diff output changed: {digests:#018x?}"
    );
    let _ = std::fs::remove_dir_all(&out);
}
