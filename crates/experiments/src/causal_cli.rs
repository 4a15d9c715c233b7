//! Back-ends for `experiments explain` and `experiments diff`.
//!
//! Both entry points are pure: they return the artifacts to write plus a
//! one-line summary, and an `Err(String)` the binary reports as a config
//! error (exit 3). Inputs are either raw `trace_*.jsonl` dumps (as
//! written by `experiments trace` / scenario trace artifacts) or a
//! scenario manifest. For a manifest, cell filters are resolved against
//! the expanded cell list *first* — a filter that matches nothing (or,
//! for `diff`, more than one cell) is reported without simulating
//! anything — and only the selected cells are re-run at `Full` trace
//! level on the deterministic executor, each reduced to its critical
//! paths on the worker that ran it (the flight log is dropped there).
//! So `explain`/`diff` outputs are byte-identical at any `SPDYIER_JOBS`
//! width, and memory does not grow with the number of cells.
//!
//! Lossy traces are refused outright: if the recorder's ring dropped
//! events (`trace.sink_dropped > 0`), the causal engine's conservation
//! guarantee (edge durations sum to PLT) is void, and a refusal beats a
//! silently-wrong attribution. For raw dumps the drop count comes from
//! the `metrics_<label>.json` sidecar next to the trace, when present.

use crate::exec::Executor;
use crate::scenario_run::{limit_diagnostic, run_cell};
use spdyier_causal::CriticalPath;
use spdyier_causal::{critical_paths_from_records, diff_paths, explain_json, explain_text};
use spdyier_core::{DataFile, TraceLevel};
use spdyier_scenario::{Cell, Manifest};
use spdyier_trace::FlightLog;
use std::path::Path;

/// What an `explain`/`diff` invocation produced: files for the caller to
/// write and a one-line summary for it to print.
#[derive(Debug)]
pub struct CausalOutcome {
    /// Artifacts, in write order.
    pub files: Vec<DataFile>,
    /// One-line human summary.
    pub summary: String,
}

/// Whether `path` names a raw trace dump rather than a manifest.
pub fn is_trace_file(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "jsonl")
}

/// Artifact label for a raw dump: `trace_spdy.jsonl` → `spdy`.
fn trace_label(path: &Path) -> String {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
    stem.strip_prefix("trace_").unwrap_or(stem).to_string()
}

/// The sink drop count recorded in the `metrics_<label>.json` sidecar
/// next to a raw dump, when one exists.
fn sidecar_dropped(path: &Path, label: &str) -> Option<u64> {
    let sidecar = path.with_file_name(format!("metrics_{label}.json"));
    let text = std::fs::read_to_string(sidecar).ok()?;
    let doc = serde_json::from_str(&text).ok()?;
    doc.get("metrics")?
        .get("counters")?
        .get("trace.sink_dropped")?
        .as_u64()
}

fn lossy_error(what: &str, dropped: u64) -> String {
    format!(
        "{what}: lossy trace ({dropped} event(s) dropped by the recorder ring); \
         critical-path conservation would be unsound — re-record with a larger \
         sink before explaining or diffing"
    )
}

fn refuse_lossy_log(label: &str, log: &FlightLog) -> Result<(), String> {
    if log.dropped > 0 {
        return Err(lossy_error(label, log.dropped));
    }
    Ok(())
}

/// Load one raw dump: refuse lossy sidecars, parse strictly, extract
/// per-visit critical paths.
fn load_trace_paths(path: &Path) -> Result<(String, Vec<CriticalPath>), String> {
    let label = trace_label(path);
    if let Some(dropped) = sidecar_dropped(path, &label) {
        if dropped > 0 {
            return Err(lossy_error(&path.display().to_string(), dropped));
        }
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records =
        spdyier_causal::parse_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((label, critical_paths_from_records(&records)))
}

/// Decode `manifest_path` with the trace level forced to `Full`
/// (critical paths need per-segment records).
fn load_manifest(manifest_path: &Path) -> Result<Manifest, String> {
    let mut manifest = Manifest::from_file(manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    manifest.trace = TraceLevel::Full;
    Ok(manifest)
}

/// The cells of `manifest` that match every dot-joined term of `filter`
/// (all cells when absent) — the assertion DSL's cell filters. Nothing
/// has run yet, so an empty selection costs no simulation.
fn select_cells(manifest: &Manifest, filter: Option<&str>) -> Result<Vec<Cell>, String> {
    let mut cells = manifest.cells();
    let all = labels(manifest, &cells);
    cells.retain(|c| filter.is_none_or(|f| f.split('.').all(|term| c.matches(term))));
    if cells.is_empty() {
        return Err(format!(
            "no cells match filter {:?} (cells: {all})",
            filter.unwrap_or("<none>")
        ));
    }
    Ok(cells)
}

/// The comma-joined artifact labels of `cells`, for diagnostics.
fn labels(manifest: &Manifest, cells: &[Cell]) -> String {
    let labels: Vec<String> = cells.iter().map(|c| c.artifact_label(manifest)).collect();
    labels.join(", ")
}

/// Run the selected `cells` of `manifest` (whose trace level must be
/// `Full`) on `exec` and reduce each to its artifact label and critical
/// paths on the worker that ran it; the flight log is dropped there.
/// The first cell (in order) that exceeds a limit or sheds trace
/// records is the error.
pub fn critical_paths_on(
    exec: &Executor,
    manifest: &Manifest,
    cells: &[Cell],
) -> Result<Vec<(String, Vec<CriticalPath>)>, String> {
    exec.run(cells.len(), |i, _worker| {
        let cell = &cells[i];
        let (_, log) = run_cell(manifest, cell).map_err(|e| limit_diagnostic(cell, &e))?;
        let log = log.expect("trace level is Full");
        let label = cell.artifact_label(manifest);
        refuse_lossy_log(&label, &log)?;
        Ok((label, critical_paths_from_records(&log.events)))
    })
    .into_iter()
    .collect()
}

/// `experiments explain <trace.jsonl|MANIFEST> [--cell FILTER]`:
/// per-visit critical-path extraction, one `explain_<label>.json` (+
/// `.txt` rendering) per selected cell.
pub fn explain(input: &Path, cell_filter: Option<&str>) -> Result<CausalOutcome, String> {
    let labeled = if is_trace_file(input) {
        vec![load_trace_paths(input)?]
    } else {
        let manifest = load_manifest(input)?;
        let cells = select_cells(&manifest, cell_filter)?;
        critical_paths_on(&Executor::from_env(), &manifest, &cells)?
    };
    let mut files = Vec::new();
    let mut visits = 0usize;
    for (label, paths) in &labeled {
        visits += paths.len();
        files.push(DataFile {
            name: format!("explain_{label}.json"),
            contents: explain_json(label, paths),
        });
        files.push(DataFile {
            name: format!("explain_{label}.txt"),
            contents: explain_text(label, paths),
        });
    }
    let summary = format!(
        "explained {} cell(s), {} visit(s); every critical path's edges sum to its PLT",
        labeled.len(),
        visits
    );
    Ok(CausalOutcome { files, summary })
}

/// The one cell of `manifest` that `filter` selects; matching several
/// is an error (a diff compares exactly two runs).
fn select_one_cell(manifest: &Manifest, filter: &str) -> Result<Cell, String> {
    let mut matched = select_cells(manifest, Some(filter))?;
    if matched.len() > 1 {
        return Err(format!(
            "filter {:?} matches {} cells ({}); add a seed<N> or variant term so \
             exactly one run is diffed",
            filter,
            matched.len(),
            labels(manifest, &matched)
        ));
    }
    Ok(matched.remove(0))
}

/// `experiments diff <a.jsonl> <b.jsonl>` or
/// `experiments diff <MANIFEST> --a FILTER --b FILTER`: align two runs of
/// the same workload by visit identity and attribute the PLT delta
/// edge-by-edge into `diff.json` + `diff.txt`.
pub fn diff(
    a_file: Option<&Path>,
    b_file: Option<&Path>,
    manifest_path: Option<&Path>,
    a_filter: Option<&str>,
    b_filter: Option<&str>,
) -> Result<CausalOutcome, String> {
    let [(a_label, a_paths), (b_label, b_paths)] =
        match (a_file, b_file, manifest_path, a_filter, b_filter) {
            (Some(a), Some(b), None, None, None) => [load_trace_paths(a)?, load_trace_paths(b)?],
            (None, None, Some(path), Some(a), Some(b)) => {
                let manifest = load_manifest(path)?;
                let pair = [
                    select_one_cell(&manifest, a)?,
                    select_one_cell(&manifest, b)?,
                ];
                critical_paths_on(&Executor::from_env(), &manifest, &pair)?
                    .try_into()
                    .expect("two cells in, two out")
            }
            _ => {
                return Err("usage: experiments diff <a.jsonl> <b.jsonl> [--out DIR]\n\
                     |      experiments diff <MANIFEST> --a FILTER --b FILTER [--out DIR]"
                    .into())
            }
        };
    let report = diff_paths(&a_label, &a_paths, &b_label, &b_paths);
    let summary = format!(
        "diff {} -> {}: {} aligned visit(s), total delta {:+.1} ms, dominant edge {}",
        report.a_label,
        report.b_label,
        report.visits.len(),
        report.plt_delta_us() as f64 / 1e3,
        report.dominant_edge().name()
    );
    let files = vec![
        DataFile {
            name: "diff.json".into(),
            contents: report.to_json(),
        },
        DataFile {
            name: "diff.txt".into(),
            contents: report.to_text(),
        },
    ];
    Ok(CausalOutcome { files, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_labels_strip_the_prefix() {
        assert_eq!(trace_label(Path::new("/x/trace_spdy.jsonl")), "spdy");
        assert_eq!(trace_label(Path::new("dump.jsonl")), "dump");
        assert!(is_trace_file(Path::new("a/trace_http.jsonl")));
        assert!(!is_trace_file(Path::new("scenarios/paired_3g.json")));
    }

    #[test]
    fn filters_are_resolved_before_anything_runs() {
        // One event is every cell's whole budget, so any run ends in the
        // limit error: a filter diagnostic proves nothing was simulated.
        let path = std::env::temp_dir().join(format!("spdyier_select_{}.json", std::process::id()));
        let manifest = r#"{
            "schema_version": 1,
            "name": "select",
            "network": { "kind": "wifi" },
            "protocols": ["http", "spdy"],
            "seeds": { "base": 0, "count": 2 },
            "limits": { "event_budget": 1 }
        }"#;
        std::fs::write(&path, manifest).unwrap();
        let e = explain(&path, Some("nosuch")).unwrap_err();
        assert!(
            e.starts_with("no cells match filter \"nosuch\" (cells: http_s0, spdy_s0,"),
            "{e}"
        );
        let e = diff(None, None, Some(&path), Some("spdy.seed1"), Some("http")).unwrap_err();
        assert!(
            e.starts_with("filter \"http\" matches 2 cells (http_s0, http_s1)"),
            "{e}"
        );
        // A selection that resolves does run, and only then hits the limit.
        let e = explain(&path, Some("spdy.seed1")).unwrap_err();
        assert!(e.starts_with("cell 3 (spdy seed 1): event budget"), "{e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_rejects_mixed_input_shapes() {
        let e = diff(Some(Path::new("a.jsonl")), None, None, None, None).unwrap_err();
        assert!(e.contains("usage"), "{e}");
    }
}
