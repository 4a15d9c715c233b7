//! The manifest-driven scenario runner.
//!
//! [`run_manifest_on`] takes a decoded [`Manifest`], fans its cells across
//! the caller's deterministic parallel [`Executor`] (outputs land in cell order,
//! so every artifact is byte-identical at any pool width), evaluates the
//! manifest's assertions over the pooled cell metrics, and writes the
//! versioned results contract: `result.json`, `junit.xml`, and what the
//! manifest's `outputs` ask for (paired dump + sidecar, per-cell trace
//! bundles, per-cell plot data). The returned
//! [`ScenarioOutcome`] carries the standardized exit code (0 pass / 1
//! assertion failure / 2 limit exceeded — config errors never reach the
//! runner; they fail at manifest decode, exit 3).
//!
//! There is one way to run a cell: [`run_cell`] builds the cell's
//! config and drives a [`Testbed`] to completion, and every consumer is
//! a closure handed to [`Executor::run`] that calls it and reduces the
//! result **on the worker thread that ran it**. The runner's reduction
//! is [`fold_cell`] (metrics accumulator + pre-rendered artifacts, both
//! read from the cell's one [`EventModel`]); the O(visits) [`RunResult`]
//! and the [`TracedCell`] are dropped before the worker's next cell
//! starts, so a manifest run holds O(cells) state instead of O(total
//! visits).
//!
//! Both `run` and `sweep` end in `finish`, which evaluates the
//! assertions over the cells' metrics where they lie (`&[CellMetrics]`
//! or `&[&CellMetrics]`, never a copy) and prints `result.json`
//! straight into its file through a `BufWriter`, one 64 KiB spill at a
//! time, so a population sweep's multi-megabyte document is never held
//! whole. A write that fails ends the run as its `--out` error.
//!
//! A traced cell always yields its event model and retains its flight
//! log's records only when `outputs.trace_artifacts` asks for the JSONL
//! dump: otherwise the model *is* the recorder's sink and each record is
//! folded into it as the run emits it.
//!
//! `run` has one path: execute, fold, finish. The `sweep` runner adds
//! its own per-cell step (an allocation bracket and a heartbeat line).

use crate::exec::Executor;
use serde::Serialize;
use spdyier_causal::{EventModel, ModelBuilder};
use spdyier_core::{
    export_run, junit_xml, metrics_file, paired_meta_file, waterfall_json, AssertionVerdict,
    DataFile, FlightLog, RunError, RunResult, ScenarioExit, Testbed, TraceLevel, VerdictStatus,
};
use spdyier_scenario::{evaluate, Cell, CellMetrics, Manifest, Seeds, Summary};
use std::borrow::Borrow;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Everything a scenario run produced.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Standardized exit status.
    pub exit: ScenarioExit,
    /// One-line human summary (cells run, verdict counts).
    pub summary: String,
    /// Assertion verdicts, in manifest order.
    pub verdicts: Vec<AssertionVerdict>,
    /// Paths written under the output directory.
    pub written: Vec<PathBuf>,
}

/// One cell's worker-side reduction: everything the results contract
/// needs from the cell, with the raw `RunResult`/`FlightLog` dropped.
#[derive(Debug, Clone)]
pub struct FoldedCell {
    /// The cell's metrics accumulator.
    pub metrics: CellMetrics,
    /// The cell's line of the paired dump (serialized `RunResult`), when
    /// the manifest sets `outputs.paired_dump`.
    pub dump_line: Option<String>,
    /// The cell's pre-rendered files: its trace artifacts (when the cell
    /// was traced) and its plot data, when the manifest requests them.
    pub files: Vec<DataFile>,
}

/// What a traced cell leaves behind.
#[derive(Debug)]
pub struct TracedCell {
    /// The recorder's metrics registry and `dropped` count — and its
    /// records only under `outputs.trace_artifacts`;
    /// `events` is empty otherwise.
    pub log: FlightLog,
    /// The event model of everything the run emitted.
    pub model: EventModel,
}

/// Run one cell of `manifest` to completion: the only place outside
/// tests that turns a [`Cell`] into a config and starts a [`Testbed`].
/// The [`TracedCell`] is `None` when the effective trace level is `Off`.
pub fn run_cell(
    manifest: &Manifest,
    cell: &Cell,
) -> Result<(RunResult, Option<TracedCell>), RunError> {
    let cfg = cell.build_config(manifest);
    let traced = cfg.trace_level != TraceLevel::Off;
    let testbed = Testbed::new(cfg);
    if !traced {
        return Ok((testbed.try_run_traced()?.0, None));
    }
    let (result, log, model) = if manifest.outputs.trace_artifacts {
        let (result, log) = testbed.try_run_traced()?;
        let model = EventModel::from_records(&log.events);
        (result, log, model)
    } else {
        let (result, log, builder) = testbed.try_run_into(ModelBuilder::default())?;
        (result, log, builder.finish())
    };
    Ok((result, Some(TracedCell { log, model })))
}

/// The one-line diagnostic for a `cell` that exceeded a limit.
pub(crate) fn limit_diagnostic(cell: &Cell, e: &RunError) -> String {
    format!(
        "cell {} ({} seed {}): {e}",
        cell.index,
        cell.protocol.compact(),
        cell.seed
    )
}

/// Reduce one executed cell to its [`FoldedCell`] under `manifest`'s
/// output options. The runner and the sweep runner both reduce through
/// this, so what lands in the artifacts cannot depend on which ran it.
/// The metrics fold and every trace artifact read a traced cell's one
/// event model.
pub fn fold_cell(
    manifest: &Manifest,
    cell: &Cell,
    result: &RunResult,
    traced: Option<&TracedCell>,
) -> FoldedCell {
    let traced = traced.map(|t| (&t.log, &t.model));
    let metrics = CellMetrics::from_model(cell, result, traced);
    let dump_line = manifest
        .outputs
        .paired_dump
        .then(|| serde_json::to_string(result).expect("serialize run"));
    let mut files = match traced {
        Some((log, model)) if manifest.outputs.trace_artifacts => {
            let label = cell.artifact_label(manifest);
            cell_trace_files(&label, result, log, model)
        }
        _ => Vec::new(),
    };
    if manifest.outputs.plot_data {
        files.extend(export_run(result));
    }
    FoldedCell {
        metrics,
        dump_line,
        files,
    }
}

/// Run `cell` and reduce it to its [`FoldedCell`], on the calling
/// worker; an `Err` is a cell that exceeded a limit.
pub(crate) fn run_folded(manifest: &Manifest, cell: &Cell) -> Result<FoldedCell, RunError> {
    let (result, traced) = run_cell(manifest, cell)?;
    Ok(fold_cell(manifest, cell, &result, traced.as_ref()))
}

fn status_str(exit: ScenarioExit) -> &'static str {
    match exit {
        ScenarioExit::Pass => "pass",
        ScenarioExit::AssertionFailed => "fail",
        ScenarioExit::LimitExceeded => "limit",
        ScenarioExit::ConfigError => "config_error",
    }
}

/// The `result.json` document (schema v1; the integration suite pins
/// the key set).
#[derive(Serialize)]
struct ResultDoc<'a> {
    schema_version: u32,
    scenario: &'a str,
    description: &'a str,
    network: &'static str,
    seeds: Seeds,
    status: &'static str,
    exit_code: i32,
    cells: Vec<Summary<'a>>,
    assertions: &'a [AssertionVerdict],
    artifacts: &'a [String],
    #[serde(skip_serializing_if = "Option::is_none")]
    limit: Option<&'a str>,
}

/// How much `result.json` text is buffered before it is written out:
/// one write a spill, and the document is never in memory whole.
const RESULT_SPILL_BYTES: usize = 64 * 1024;

/// Print `result.json` straight into `path`, a spill at a time.
fn write_result_file(path: &Path, doc: &ResultDoc) -> std::io::Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    let mut text = String::new();
    let mut w = serde::Writer::to_sink(&mut text, true, &mut file, RESULT_SPILL_BYTES);
    doc.serialize(&mut w);
    w.finish()?;
    file.write_all(b"\n")?;
    file.flush()
}

/// One cell's trace artifacts: the JSONL event stream, the waterfall
/// and the metrics registry.
fn cell_trace_files(
    label: &str,
    result: &RunResult,
    log: &FlightLog,
    model: &EventModel,
) -> Vec<DataFile> {
    vec![
        DataFile {
            name: format!("trace_{label}.jsonl"),
            contents: log.to_jsonl(),
        },
        DataFile {
            name: format!("waterfall_{label}.har.json"),
            contents: waterfall_json(result, Some(model)),
        },
        metrics_file(label, &log.metrics),
    ]
}

/// Run a manifest end to end on `exec` and write its artifacts to
/// `out_dir`. `out_dir` is created before the first cell runs, so an unwritable one
/// costs nothing. Each cell is folded on the worker that ran it, and the
/// outputs land in cell order, so artifacts stay byte-identical at any
/// pool width. Then [`finish`] gets the first cell over a limit, the
/// paired dump and each cell's files.
pub fn run_manifest_on(
    exec: &Executor,
    manifest: &Manifest,
    out_dir: &Path,
) -> std::io::Result<ScenarioOutcome> {
    std::fs::create_dir_all(out_dir)?;
    let cells = manifest.cells();
    let mut outputs = exec.run(cells.len(), |i, _worker| run_folded(manifest, &cells[i]));
    let limit = outputs
        .iter()
        .zip(&cells)
        .find_map(|(out, cell)| out.as_ref().err().map(|e| limit_diagnostic(cell, e)));
    let mut files = Vec::new();
    if manifest.outputs.paired_dump && limit.is_none() {
        let dump_name = format!("paired_{}.jsonl", manifest.network.kind.cli_name());
        let mut dump = String::new();
        for line in outputs
            .iter()
            .flatten()
            .filter_map(|f| f.dump_line.as_deref())
        {
            dump.push_str(line);
            dump.push('\n');
        }
        files.push(paired_meta_file(
            &dump_name,
            manifest.network.kind.cli_name(),
            manifest.seeds.count,
        ));
        files.push(DataFile {
            name: dump_name,
            contents: dump,
        });
    }
    for folded in outputs.iter_mut().flatten() {
        files.append(&mut folded.files);
    }
    let metrics: Vec<&CellMetrics> = outputs.iter().flatten().map(|f| &f.metrics).collect();
    finish(manifest, &metrics, limit, files, out_dir)
}

/// Evaluate the manifest's assertions over `cells` — the metrics of
/// every cell that ran, in cell order, owned or borrowed — unless a cell
/// exceeded a limit (`limit`, its one-line diagnostic), and write the
/// results contract: `result.json`, printed straight into its file, then
/// `junit.xml`, then `files`. The run and sweep runners both end here.
pub(crate) fn finish<C: Borrow<CellMetrics>>(
    manifest: &Manifest,
    cells: &[C],
    limit: Option<String>,
    files: Vec<DataFile>,
    out_dir: &Path,
) -> std::io::Result<ScenarioOutcome> {
    let (verdicts, exit) = match limit {
        Some(_) => (Vec::new(), ScenarioExit::LimitExceeded),
        None => {
            let verdicts = evaluate(manifest, cells);
            let failed = verdicts.iter().any(|v| v.status == VerdictStatus::Fail);
            let exit = if failed {
                ScenarioExit::AssertionFailed
            } else {
                ScenarioExit::Pass
            };
            (verdicts, exit)
        }
    };

    // A limit stops evaluation, so JUnit gets one failing `limits` case
    // instead of zero tests: a CI reporter reads it as red, like exit 2.
    let junit = match &limit {
        Some(detail) => junit_xml(
            &manifest.name,
            &[AssertionVerdict {
                expr: "limits".into(),
                status: VerdictStatus::Fail,
                lhs: None,
                rhs: None,
                detail: detail.clone(),
            }],
        ),
        None => junit_xml(&manifest.name, &verdicts),
    };
    let files: Vec<DataFile> = std::iter::once(DataFile {
        name: "junit.xml".into(),
        contents: junit,
    })
    .chain(files)
    .collect();
    let artifacts: Vec<String> = std::iter::once("result.json".to_string())
        .chain(files.iter().map(|f| f.name.clone()))
        .collect();
    let doc = ResultDoc {
        schema_version: spdyier_core::RESULT_SCHEMA_VERSION,
        scenario: &manifest.name,
        description: &manifest.description,
        network: manifest.network.kind.cli_name(),
        seeds: manifest.seeds,
        status: status_str(exit),
        exit_code: exit.code(),
        cells: cells.iter().map(|c| Summary(c.borrow())).collect(),
        assertions: &verdicts,
        artifacts: &artifacts,
        limit: limit.as_deref(),
    };
    std::fs::create_dir_all(out_dir)?;
    let result_path = out_dir.join("result.json");
    write_result_file(&result_path, &doc)?;
    let mut written = vec![result_path];
    written.extend(spdyier_core::write_to_dir(&files, out_dir)?);

    let count = |status| verdicts.iter().filter(|v| v.status == status).count();
    let summary = match &limit {
        Some(detail) => format!(
            "scenario {}: LIMIT EXCEEDED ({detail}) — exit {}",
            manifest.name,
            exit.code()
        ),
        None => format!(
            "scenario {}: {} cell(s), {} passed / {} failed / {} skipped — exit {}",
            manifest.name,
            cells.len(),
            count(VerdictStatus::Pass),
            count(VerdictStatus::Fail),
            count(VerdictStatus::Skipped),
            exit.code()
        ),
    };
    Ok(ScenarioOutcome {
        exit,
        summary,
        verdicts,
        written,
    })
}
