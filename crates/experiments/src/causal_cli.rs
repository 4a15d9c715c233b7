//! Back-ends for `experiments explain` and `experiments diff`.
//!
//! Both entry points write their artifacts under an output directory
//! and return the paths plus a one-line summary, or an `Err(String)` the
//! binary reports as a config error (exit 3). The one input is a
//! scenario manifest: a recorded trace is an output, and re-running the
//! manifest that wrote it gives the same trace by determinism. Cell
//! filters are resolved against the expanded cell list and the output
//! directory is created and probed *first* — a filter that matches
//! nothing (or, for `diff`, more than one cell) and an unwritable
//! `--out` are reported without simulating anything — and only the
//! selected cells are re-run at `Full` trace level on the deterministic
//! executor.
//!
//! Memory does not grow with the number of cells, because nothing of a
//! cell outlives its worker's turn: the run folds its records into the
//! event model as it emits them (no flight log is retained, see
//! [`run_cell`]), and `explain` renders the cell's critical paths and
//! writes both files on the worker that ran it, handing back only their
//! paths and a visit count. The bytes written depend on the cell alone
//! and the paths are listed in cell order, so the output is identical
//! at any width of the caller's executor.
//!
//! Lossy traces are refused outright: if the recorder's sink dropped
//! events (`trace.sink_dropped > 0`), the causal engine's conservation
//! guarantee (edge durations sum to PLT) is void, and a refusal beats a
//! silently-wrong attribution.

use crate::exec::Executor;
use crate::scenario_run::{limit_diagnostic, run_cell};
use spdyier_causal::{critical_paths, diff_paths, explain_json, explain_text, CriticalPath};
use spdyier_core::TraceLevel;
use spdyier_scenario::{Cell, Manifest};
use spdyier_trace::FlightLog;
use std::path::{Path, PathBuf};

/// What an `explain`/`diff` invocation produced: the files it wrote and
/// a one-line summary for the caller to print.
#[derive(Debug)]
pub struct CausalOutcome {
    /// Paths written, in artifact order.
    pub written: Vec<PathBuf>,
    /// One-line human summary.
    pub summary: String,
}

/// Create `dir` and prove a file can be written in it, before anything
/// is simulated for it.
fn probe_out_dir(dir: &Path) -> Result<(), String> {
    let probe = dir.join(".spdyier_write_probe");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&probe, b""))
        .and_then(|()| std::fs::remove_file(&probe))
        .map_err(|e| format!("--out {dir:?}: {e}"))
}

/// Write one artifact under `dir`, naming the path on failure.
fn write_artifact(dir: &Path, name: &str, contents: &str) -> Result<PathBuf, String> {
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => Ok(path),
        Err(e) => Err(format!("{path:?}: {e}")),
    }
}

fn refuse_lossy_log(label: &str, log: &FlightLog) -> Result<(), String> {
    if log.dropped > 0 {
        return Err(format!(
            "{label}: lossy trace ({} event(s) dropped by the recorder's sink); \
             critical-path conservation would be unsound — re-record with a larger \
             sink before explaining or diffing",
            log.dropped
        ));
    }
    Ok(())
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
/// `Full`) on `exec` and hand each one's artifact label and critical
/// paths to `reduce` on the worker that ran it; the run and its event
/// model are dropped there first. The first cell (in order) that exceeds
/// a limit, sheds trace records, or fails to reduce is the error.
fn reduce_paths_on<T: Send>(
    exec: &Executor,
    manifest: &Manifest,
    cells: &[Cell],
    reduce: impl Fn(String, Vec<CriticalPath>) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    exec.run(cells.len(), |i, _worker| {
        let cell = &cells[i];
        let label = cell.artifact_label(manifest);
        let paths = {
            let (_, traced) = run_cell(manifest, cell).map_err(|e| limit_diagnostic(cell, &e))?;
            let traced = traced.expect("trace level is Full");
            refuse_lossy_log(&label, &traced.log)?;
            critical_paths(&traced.model)
        };
        reduce(label, paths)
    })
    .into_iter()
    .collect()
}

/// Each of `cells` reduced to its artifact label and critical paths,
/// all held at once: what `diff` aligns its two cells from.
pub fn critical_paths_on(
    exec: &Executor,
    manifest: &Manifest,
    cells: &[Cell],
) -> Result<Vec<(String, Vec<CriticalPath>)>, String> {
    reduce_paths_on(exec, manifest, cells, |label, paths| Ok((label, paths)))
}

/// Render and write one cell's `explain_<label>.json` and `.txt` under
/// `out_dir`, one after the other so only one rendering is alive.
fn write_explained(
    out_dir: &Path,
    label: &str,
    paths: &[CriticalPath],
) -> Result<[PathBuf; 2], String> {
    let json = format!("explain_{label}.json");
    let json = write_artifact(out_dir, &json, &explain_json(label, paths))?;
    let text = format!("explain_{label}.txt");
    let text = write_artifact(out_dir, &text, &explain_text(label, paths))?;
    Ok([json, text])
}

/// `experiments explain <MANIFEST> [--cell FILTER]`: per-visit
/// critical-path extraction, one `explain_<label>.json` (+ `.txt`
/// rendering) per selected cell, written under `out_dir`; the cells run
/// on `exec`.
pub fn explain(
    exec: &Executor,
    manifest_path: &Path,
    cell_filter: Option<&str>,
    out_dir: &Path,
) -> Result<CausalOutcome, String> {
    let manifest = load_manifest(manifest_path)?;
    let cells = select_cells(&manifest, cell_filter)?;
    probe_out_dir(out_dir)?;
    let cells = reduce_paths_on(exec, &manifest, &cells, |label, paths| {
        write_explained(out_dir, &label, &paths).map(|written| (written, paths.len()))
    })?;
    let visits: usize = cells.iter().map(|(_, visits)| visits).sum();
    let summary = format!(
        "explained {} cell(s), {} visit(s); every critical path's edges sum to its PLT",
        cells.len(),
        visits
    );
    let written = cells.into_iter().flat_map(|(written, _)| written).collect();
    Ok(CausalOutcome { written, summary })
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

/// `experiments diff <MANIFEST> --a FILTER --b FILTER`: align two runs
/// of the same workload by visit identity and attribute the PLT delta
/// edge-by-edge into `diff.json` + `diff.txt` under `out_dir`; the two
/// cells run on `exec`.
pub fn diff(
    exec: &Executor,
    manifest_path: &Path,
    a_filter: &str,
    b_filter: &str,
    out_dir: &Path,
) -> Result<CausalOutcome, String> {
    let manifest = load_manifest(manifest_path)?;
    let pair = [
        select_one_cell(&manifest, a_filter)?,
        select_one_cell(&manifest, b_filter)?,
    ];
    probe_out_dir(out_dir)?;
    let [(a_label, a_paths), (b_label, b_paths)] = critical_paths_on(exec, &manifest, &pair)?
        .try_into()
        .expect("two cells in, two out");
    let report = diff_paths(&a_label, &a_paths, &b_label, &b_paths);
    let summary = format!(
        "diff {} -> {}: {} aligned visit(s), total delta {:+.1} ms, dominant edge {}",
        report.a_label,
        report.b_label,
        report.visits.len(),
        report.plt_delta_us() as f64 / 1e3,
        report.dominant_edge().name()
    );
    let written = vec![
        write_artifact(out_dir, "diff.json", &report.to_json())?,
        write_artifact(out_dir, "diff.txt", &report.to_text())?,
    ];
    Ok(CausalOutcome { written, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A manifest whose every cell has one event as its whole budget, so
    /// any run ends in the limit error: a different diagnostic proves
    /// nothing was simulated.
    fn one_event_manifest(tag: &str) -> PathBuf {
        let name = format!("spdyier_{tag}_{}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        let manifest = r#"{
            "schema_version": 1,
            "name": "select",
            "network": { "kind": "wifi" },
            "protocols": ["http", "spdy"],
            "seeds": { "base": 0, "count": 2 },
            "limits": { "event_budget": 1 }
        }"#;
        std::fs::write(&path, manifest).unwrap();
        path
    }

    #[test]
    fn filters_are_resolved_before_anything_runs() {
        let path = one_event_manifest("select");
        let out = path.with_extension("out");
        let e = explain(&Executor::new(1), &path, Some("nosuch"), &out).unwrap_err();
        assert!(
            e.starts_with("no cells match filter \"nosuch\" (cells: http_s0, spdy_s0,"),
            "{e}"
        );
        let e = diff(&Executor::new(1), &path, "spdy.seed1", "http", &out).unwrap_err();
        assert!(
            e.starts_with("filter \"http\" matches 2 cells (http_s0, http_s1)"),
            "{e}"
        );
        assert!(!out.exists(), "a rejected filter creates no output");
        // A selection that resolves does run, and only then hits the limit.
        let e = explain(&Executor::new(1), &path, Some("spdy.seed1"), &out).unwrap_err();
        assert!(e.starts_with("cell 3 (spdy seed 1): event budget"), "{e}");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&out);
    }

    /// `--out` that is an existing file, and `--out` under a directory
    /// nothing can be created in, fail naming the path before the first
    /// cell runs (a run would end in the limit error instead).
    #[test]
    fn an_unwritable_out_dir_is_reported_before_anything_runs() {
        let path = one_event_manifest("unwritable");
        let taken = path.with_extension("taken");
        std::fs::write(&taken, "a file, not a directory").unwrap();
        // Mode bits do not bind a privileged user, for whom /proc is
        // the directory that admits no new entry.
        let read_only = path.with_extension("ro");
        std::fs::create_dir_all(&read_only).unwrap();
        let mut mode = std::fs::metadata(&read_only).unwrap().permissions();
        mode.set_readonly(true);
        std::fs::set_permissions(&read_only, mode.clone()).unwrap();
        let privileged = std::fs::create_dir(read_only.join("probe")).is_ok();
        let under_read_only = if privileged {
            PathBuf::from("/proc/spdyier_out")
        } else {
            read_only.join("out")
        };
        for out in [&taken, &under_read_only] {
            let named = format!("--out {out:?}: ");
            let e = explain(&Executor::new(1), &path, None, out).unwrap_err();
            assert!(e.starts_with(&named), "{e}");
            let e = diff(&Executor::new(1), &path, "http.seed0", "spdy.seed0", out).unwrap_err();
            assert!(e.starts_with(&named), "{e}");
        }
        #[allow(clippy::permissions_set_readonly_false)]
        mode.set_readonly(false);
        let _ = std::fs::set_permissions(&read_only, mode);
        let _ = std::fs::remove_dir_all(&read_only);
        let _ = std::fs::remove_file(&taken);
        let _ = std::fs::remove_file(&path);
    }

    /// Keeps the first 64 records and sheds the rest.
    #[derive(Default)]
    struct Shedding {
        kept: Vec<spdyier_trace::TraceRecord>,
        shed: u64,
    }

    impl spdyier_trace::TraceSink for Shedding {
        fn record(&mut self, rec: spdyier_trace::TraceRecord) {
            if self.kept.len() < 64 {
                self.kept.push(rec);
            } else {
                self.shed += 1;
            }
        }

        fn drain(&mut self) -> Vec<spdyier_trace::TraceRecord> {
            std::mem::take(&mut self.kept)
        }

        fn dropped(&self) -> u64 {
            self.shed
        }
    }

    /// A run recorded through a sink that sheds records; the log says so
    /// whatever the sink, and `explain`/`diff` refuse it.
    #[test]
    fn a_run_that_shed_records_is_refused() {
        use spdyier_core::Testbed;
        let mut manifest = Manifest::paper_baseline("shed");
        manifest.network.kind = spdyier_core::NetworkKind::Wifi;
        manifest.trace = TraceLevel::Full;
        let cell = &manifest.cells()[0];
        let testbed = Testbed::new(cell.build_config(&manifest));
        let (_, log, _) = testbed
            .try_run_into(Shedding::default())
            .expect("within budget");
        assert_eq!(log.events.len(), 64);
        assert_eq!(log.dropped, log.metrics.counter("trace.emitted") - 64);
        let e = refuse_lossy_log("http_s0", &log).unwrap_err();
        assert!(e.starts_with("http_s0: lossy trace ("), "{e}");
    }

    /// A write that fails once cells are running names the file.
    #[test]
    fn a_failed_artifact_write_names_its_path() {
        let dir = std::env::temp_dir().join(format!("spdyier_write_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("explain_x.json")).unwrap();
        let e = write_explained(&dir, "x", &[]).unwrap_err();
        assert!(
            e.starts_with(&format!("{:?}: ", dir.join("explain_x.json"))),
            "{e}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
