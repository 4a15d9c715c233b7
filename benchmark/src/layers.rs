//! One workload's per-layer section: the traced passes, the work counts,
//! a sweep's own artifacts and the substrate drivers, by declared name.

use crate::drivers::Substrate;
use crate::e2e::{Ctx, EndToEnd, SweepArtifacts};
use crate::stats::percentile;
use crate::traced::{self, Pass, WorkCounts};
use crate::workloads::{Size, Workload};

/// A finished sweep as the per-layer section sees it.
#[derive(Debug, Clone)]
pub struct SweepRun {
    artifacts: SweepArtifacts,
    wall_s: f64,
    peak_rss_mib: f64,
    cells: u64,
}

impl SweepRun {
    /// The fastest repetition of `run`, if `run` is a sweep.
    pub fn of(run: &EndToEnd) -> Option<SweepRun> {
        let fastest = *run.quiet_reps().first()?;
        Some(SweepRun {
            artifacts: fastest.sweep.clone()?,
            wall_s: fastest.usage.wall_s,
            peak_rss_mib: fastest.usage.peak_rss_mib,
            cells: run.cells,
        })
    }
}

/// One workload's per-layer section.
#[derive(Debug)]
pub struct Layers {
    /// `(declared name, value)`, every metric once.
    pub values: Vec<(String, f64)>,
    pub cells: u64,
    pub failures: Vec<String>,
    /// Advisory closure checks, printed but not part of `correct`.
    pub notes: Vec<String>,
}

impl Layers {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn measure_layers(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    size: Size,
    sweep: Option<&SweepRun>,
    substrate: &Substrate,
) -> Result<Layers, String> {
    let manifest = w.manifest_json(seed, size);
    let cells = w.cells(size) as usize;
    let on = traced::run_pass(w, &manifest, cells, true);
    let off = traced::run_pass(w, &manifest, cells, false);
    let counts = traced::count_work(&manifest)?;

    let spans_path = ctx.kept.join(format!("spans_{}.jsonl", w.name));
    std::fs::write(&spans_path, on.spans.to_jsonl())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut failures = on.failures.clone();
    failures.extend(
        off.failures
            .iter()
            .map(|f| format!("uninstrumented pass: {f}")),
    );
    if on.metrics != off.metrics {
        failures.push("cell metrics differ with harness spans and the profiler on vs off".into());
    }
    if counts.visits != on.visits {
        failures.push(format!(
            "the counting pass saw {} visits, the traced pass {}",
            counts.visits, on.visits
        ));
    }

    let (notes, mut values) = stage_metrics(&on, &off);
    values.extend(count_metrics(&counts));
    values.extend(sweep_metrics(sweep));
    for (name, rate) in &substrate.rates {
        values.push((format!("{name}.ns_per_op"), rate.ns_per_op));
        values.push((format!("{name}.allocs_per_op"), rate.allocs_per_op));
    }
    values.push(("spdy.compress.ratio".into(), substrate.compress_ratio));
    Ok(Layers {
        values,
        cells: on.cells,
        failures,
        notes,
    })
}

/// (a) of the per-layer section: stage self times from the harness spans,
/// `core.run` decomposed by the program's own profiler, and what the
/// instrumentation cost.
fn stage_metrics(on: &Pass, off: &Pass) -> (Vec<String>, Vec<(String, f64)>) {
    const STAGES: [&str; 14] = [
        "scenario.decode",
        "scenario.expand",
        "core.build",
        "core.run_http",
        "core.run_spdy",
        "scenario.fold",
        "scenario.codec",
        "scenario.assert",
        "core.attribution",
        "trace.jsonl",
        "causal.parse",
        "causal.model",
        "causal.path",
        "causal.render",
    ];
    const SUBSYSTEMS: [&str; 6] = ["session", "world", "driver", "browser", "origin", "visit"];

    let self_ns = on.spans.self_ns_by_name();
    let stage_ns = |name: &str| self_ns.get(name).copied().unwrap_or(0);
    let mut out: Vec<(String, f64)> = STAGES
        .iter()
        .map(|s| (format!("{s}.self_ms"), ms(stage_ns(s))))
        .collect();
    let run_ns = stage_ns("core.run_http") + stage_ns("core.run_spdy");
    out.push(("core.run.self_ms".into(), ms(run_ns)));

    let subsystems = on.profile.subsystems();
    let mut prof_ns = 0;
    for name in SUBSYSTEMS {
        let row = subsystems.get(name).copied().unwrap_or_default();
        prof_ns += row.self_ns;
        out.push((format!("prof.{name}.self_ms"), ms(row.self_ns)));
        if name == "session" || name == "world" {
            out.push((format!("prof.{name}.calls"), row.calls as f64));
        }
    }

    let (on_s, off_s) = (on.wall_ns as f64 / 1e9, off.wall_ns as f64 / 1e9);
    out.push(("trace.overhead_pct".into(), 100.0 * (on_s - off_s) / off_s));
    out.push((
        "core.allocs_per_visit".into(),
        off.core_allocs as f64 / off.visits.max(1) as f64,
    ));
    out.push(("core.sim_s_per_host_s".into(), off.sim_s / off_s));
    out.push(("trace.cells".into(), on.cells as f64));
    out.push(("trace.visits".into(), on.visits as f64));

    let staged: u64 = STAGES.iter().map(|s| stage_ns(s)).sum();
    let unstaged = 100.0 * (on.wall_ns - staged.min(on.wall_ns)) as f64 / on.wall_ns as f64;
    let unprofiled = 100.0 * (run_ns as f64 - prof_ns as f64) / run_ns.max(1) as f64;
    let notes = vec![
        format!(
            "stage self times cover {:.2}% of the traced pass ({:.1} of {:.1} ms)",
            100.0 - unstaged,
            ms(staged),
            ms(on.wall_ns)
        ),
        format!(
            "prof.* rows cover {:.2}% of core.run.self_ms ({:.1} of {:.1} ms)",
            100.0 - unprofiled,
            ms(prof_ns),
            ms(run_ns)
        ),
    ];
    (notes, out)
}

/// (b): exact work counts, per visit.
fn count_metrics(c: &WorkCounts) -> Vec<(String, f64)> {
    let per_visit = |n: u64| n as f64 / c.visits.max(1) as f64;
    vec![
        ("tcp.segments_per_visit".into(), per_visit(c.segments)),
        ("tcp.rto_per_visit".into(), per_visit(c.rto)),
        ("tcp.retransmits_per_visit".into(), per_visit(c.retransmits)),
        (
            "tcp.idle_restarts_per_visit".into(),
            per_visit(c.idle_restarts),
        ),
        ("tcp.conns_per_visit".into(), per_visit(c.conns)),
        (
            "cellular.promotions_per_visit".into(),
            per_visit(c.promotions),
        ),
        ("net.drops_per_visit".into(), per_visit(c.drops)),
        ("spdy.frames_per_visit".into(), per_visit(c.spdy_frames)),
        (
            "http1.requests_per_visit".into(),
            per_visit(c.http_requests),
        ),
        ("browser.objects_per_visit".into(), per_visit(c.objects)),
        ("payload.mb_per_visit".into(), per_visit(c.page_bytes) / 1e6),
        ("trace.records_per_visit".into(), per_visit(c.records)),
    ]
}

/// (c): what a sweep's own artifacts say. Workloads that are not sweeps
/// write no heartbeats or store, and read 0 here.
fn sweep_metrics(sweep: Option<&SweepRun>) -> Vec<(String, f64)> {
    let values = match sweep {
        Some(s) => [
            percentile(&s.artifacts.cell_ms, 50.0),
            percentile(&s.artifacts.cell_ms, 99.0),
            s.wall_s * 1e3 - s.artifacts.last_elapsed_ms,
            s.peak_rss_mib - s.artifacts.last_rss_mib,
            s.artifacts.store_bytes as f64 / s.cells as f64,
        ],
        None => [0.0; 5],
    };
    [
        "experiments.cell_ms_p50",
        "experiments.cell_ms_p99",
        "experiments.finish_ms",
        "experiments.finish_rss_mb",
        "experiments.store_bytes_per_cell",
    ]
    .iter()
    .map(|n| n.to_string())
    .zip(values)
    .collect()
}
