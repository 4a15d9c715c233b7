//! The resumable population-scale sweep runner.
//!
//! `experiments sweep <MANIFEST> --out DIR` executes a manifest's cells
//! through the streaming fold path ([`crate::scenario_run`]) with two
//! additions a long sweep needs:
//!
//! * **Checkpointing.** As each cell completes, its [`CellMetrics`]
//!   accumulator is appended to `sweep_store.jsonl` in the output
//!   directory — an append-only, schema-versioned store whose every
//!   line is guarded by a CRC-32 of its payload. A sweep killed at any
//!   point loses at most the cells in flight; the store survives a torn
//!   final line: replay drops the tail, and the resuming invocation
//!   truncates the store back to its verified prefix before appending,
//!   so a fresh checkpoint can never fuse with the fragment. An append
//!   that fails (a full disk) ends the sweep the same recoverable way:
//!   the first error is kept, no worker claims another cell or writes
//!   another line, and the invocation exits 3 naming the store; the
//!   lines already written replay on the next run.
//! * **Resume.** Re-running the same command against the same output
//!   directory replays the store (after verifying the schema version,
//!   the manifest digest, and the cell count), runs only the missing
//!   cells, and appends their checkpoints. Because each cell's metrics
//!   are a deterministic function of the manifest and the codec
//!   round-trips exactly, the final `result.json` is byte-identical to
//!   an uninterrupted sweep — at any pool width.
//!
//! * **One copy of each cell.** The replay's cell-indexed
//!   `Vec<Option<CellMetrics>>` is the only per-cell state that grows:
//!   it starts with the replayed checkpoints, and each worker moves a
//!   fresh cell's metrics into it after checkpointing them, dropping the
//!   rest of the fold. Finishing borrows the cells to evaluate the
//!   assertions and prints `result.json` straight into its file, and a
//!   resume reads the store a line at a time — so the live heap grows by
//!   about one `CellMetrics` per cell (~0.7 KB at `population_wifi`;
//!   `tests/sweep_memory.rs` pins it).
//!
//! Workers heartbeat into `heartbeat_sweep.jsonl` via the PR 4
//! [`SweepTelemetry`] (cells done/total, events/s, ETA, peak RSS); on
//! resume the file is appended and the counters cover the resumed
//! invocation's pending cells, so the ETA tracks the work that is
//! actually left.
//!
//! The store checkpoints *metrics only*, so manifests that request
//! per-cell bulk artifacts (any `outputs` key) are rejected up front —
//! those artifacts cannot be reconstructed from a metrics checkpoint,
//! and a population-scale sweep could not afford to retain them anyway.

use crate::exec::Executor;
use crate::scenario_run::{finish, limit_diagnostic, run_folded, ScenarioOutcome};
use serde::{Deserialize, Serialize};
use spdyier_core::RunError;
use spdyier_prof::{CellReport, SweepTelemetry};
use spdyier_scenario::{Cell, CellMetrics, Manifest};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Schema version stamped into the checkpoint store header.
pub const SWEEP_STORE_SCHEMA_VERSION: u32 = 2;

/// The checkpoint store's file name inside the sweep output directory.
pub const SWEEP_STORE_NAME: &str = "sweep_store.jsonl";

/// The sweep heartbeat file name inside the sweep output directory.
pub const SWEEP_HEARTBEAT_NAME: &str = "heartbeat_sweep.jsonl";

// ---------------------------------------------------------------------
// CRC-32 (IEEE), table-driven, no dependencies
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Store lines
// ---------------------------------------------------------------------

/// A store line is `xxxxxxxx <json>` — eight lowercase hex digits of
/// the CRC-32 of the JSON payload, one space, the payload itself.
fn store_line(json: &str) -> String {
    format!("{:08x} {json}\n", crc32(json.as_bytes()))
}

/// Split and verify one store line, returning its JSON payload.
fn check_line(line: &str) -> Result<&str, String> {
    let (crc_hex, json) = line
        .split_once(' ')
        .ok_or_else(|| "missing CRC prefix".to_string())?;
    let want = u32::from_str_radix(crc_hex, 16).map_err(|_| "malformed CRC prefix".to_string())?;
    let got = crc32(json.as_bytes());
    if want != got {
        return Err(format!(
            "CRC mismatch (recorded {want:08x}, computed {got:08x})"
        ));
    }
    Ok(json)
}

/// A digest of everything that defines the sweep's cells, stamped into
/// the store header so a resume against a *different* manifest (or a
/// different `--seeds` override) is refused instead of silently mixing
/// checkpoints. CRC-32 over the manifest's canonical debug rendering —
/// stable for a given build, which is the only regime a checkpoint
/// store lives in.
pub fn manifest_digest(manifest: &Manifest) -> String {
    format!("{:08x}", crc32(format!("{manifest:?}").as_bytes()))
}

/// The store's first line: which sweep its cell lines belong to.
#[derive(Serialize, Deserialize)]
struct StoreHeader {
    schema_version: u32,
    kind: String,
    scenario: String,
    manifest_digest: String,
    cells: usize,
}

fn header_json(manifest: &Manifest, cells: usize) -> String {
    let header = StoreHeader {
        schema_version: SWEEP_STORE_SCHEMA_VERSION,
        kind: "sweep_store".into(),
        scenario: manifest.name.clone(),
        manifest_digest: manifest_digest(manifest),
        cells,
    };
    serde_json::to_string(&header).expect("header serializes")
}

/// Every later line: one finished cell's checkpoint.
#[derive(Serialize, Deserialize)]
struct CellLine {
    cell: usize,
    metrics: CellMetrics,
}

/// Cell `cell`'s checkpoint line; `metrics` is lent to it, not cloned.
fn cell_json(cell: usize, metrics: &mut CellMetrics) -> String {
    let line = CellLine {
        cell,
        metrics: std::mem::take(metrics),
    };
    let json = serde_json::to_string(&line).expect("cell checkpoint serializes");
    *metrics = line.metrics;
    json
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What replaying a checkpoint store recovered.
#[derive(Debug)]
pub struct Replay {
    /// Per-cell recovered metrics, indexed by cell order; `None` for
    /// cells that still need to run.
    pub done: Vec<Option<CellMetrics>>,
    /// How many distinct cells were recovered.
    pub recovered: usize,
    /// Whether a torn (CRC-failing, unparsable, or newline-less) tail
    /// was dropped.
    pub dropped_tail: bool,
    /// Byte length of the store's verified prefix: the header plus
    /// every whole line before the torn tail. A resume truncates the
    /// store to this before its first append.
    pub verified_len: u64,
}

/// Replay `sweep_store.jsonl` at `path` against `manifest` (whose sweep
/// has `cells` cells). A missing file is an empty replay; a header that
/// disagrees on schema version, manifest digest, or cell count is an
/// error (the store belongs to a different sweep). Any cell line that
/// is not UTF-8, fails its CRC, does not parse, or lacks its newline
/// truncates the replay at that point — with append-only writes only the
/// tail can be torn, and re-running the lost cells is always safe. The
/// store is read a line at a time.
pub fn replay_store(path: &Path, manifest: &Manifest, cells: usize) -> Result<Replay, String> {
    let mut replay = Replay {
        done: (0..cells).map(|_| None).collect(),
        recovered: 0,
        dropped_tail: false,
        verified_len: 0,
    };
    let file = match std::fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(replay),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    // One line at a time: a resume holds one store line, not the store.
    let mut store = BufReader::new(file);
    let mut raw = Vec::new();
    let mut next_line = |raw: &mut Vec<u8>| {
        raw.clear();
        store
            .read_until(b'\n', raw)
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    if next_line(&mut raw)? == 0 {
        return Ok(replay);
    }
    let Some(first) = raw.strip_suffix(b"\n") else {
        // The header itself was torn: nothing is recoverable.
        replay.dropped_tail = true;
        return Ok(replay);
    };
    let ctx = format!("{}: header", path.display());
    let first = std::str::from_utf8(first).map_err(|e| format!("{ctx}: {e}"))?;
    let header_json = check_line(first).map_err(|e| format!("{ctx}: {e}"))?;
    let header: StoreHeader = serde_json::from_str(header_json)
        .and_then(serde_json::from_value)
        .map_err(|e| format!("{ctx}: {e}"))?;
    let version = header.schema_version;
    if version != SWEEP_STORE_SCHEMA_VERSION {
        return Err(format!(
            "{ctx}: store is schema v{version}, this build speaks v{SWEEP_STORE_SCHEMA_VERSION}"
        ));
    }
    let digest = header.manifest_digest;
    if digest != manifest_digest(manifest) {
        return Err(format!(
            "{ctx}: store was written for a different manifest \
             (digest {digest}, this sweep is {}); use a fresh --out directory",
            manifest_digest(manifest)
        ));
    }
    if header.cells != cells {
        return Err(format!(
            "{ctx}: store covers {} cells, this sweep has {cells}",
            header.cells
        ));
    }
    replay.verified_len = raw.len() as u64;
    let mut lineno = 1;
    while next_line(&mut raw)? > 0 {
        lineno += 1;
        let parsed = raw
            .strip_suffix(b"\n")
            .and_then(|line| std::str::from_utf8(line).ok())
            .and_then(|line| check_line(line).ok())
            .and_then(|json| serde_json::from_str(json).ok());
        let Some(v) = parsed else {
            // Torn tail: drop this and everything after it.
            replay.dropped_tail = true;
            break;
        };
        let ctx = || format!("{}: line {lineno}", path.display());
        let CellLine {
            cell: index,
            metrics,
        } = serde_json::from_value(v).map_err(|e| format!("{}: {e}", ctx()))?;
        if index >= cells {
            return Err(format!("{}: cell index {index} out of range", ctx()));
        }
        if replay.done[index].is_none() {
            replay.recovered += 1;
        }
        replay.done[index] = Some(metrics);
        replay.verified_len += raw.len() as u64;
    }
    Ok(replay)
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// Sweep knobs beyond the manifest.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// Stop (cleanly) after this many *fresh* cells have been
    /// checkpointed, leaving the rest to a resume. The kill-injection
    /// hook the resumability tests and the CI smoke drill use; `None`
    /// runs to completion.
    pub stop_after: Option<usize>,
}

/// How a sweep invocation ended.
#[derive(Debug)]
pub enum SweepOutcome {
    /// Every cell ran (or replayed); the results contract was written.
    Completed(Box<ScenarioOutcome>),
    /// `stop_after` tripped: the store holds `checkpointed` of `total`
    /// cells and the same command resumes the rest.
    Interrupted {
        /// Cells in the store after this invocation.
        checkpointed: usize,
        /// Cells the sweep has in total.
        total: usize,
    },
}

/// A sweep-level error — a bad manifest/store combination, or a
/// checkpoint store that cannot be opened or appended to; maps to the
/// standardized config-error exit (3) with the message as the one-line
/// diagnostic.
#[derive(Debug)]
pub struct SweepError(pub String);

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// The open checkpoint store: where cell lines are appended, and the
/// first append that failed. Nothing is written after a failure — the
/// failed line may be torn, and a later append would fuse with it.
struct StoreSink {
    out: Box<dyn Write + Send>,
    failed: Option<std::io::Error>,
}

/// Run and fold `cell` on `worker` between two reads of the worker's own
/// allocation counters, then report it to `telemetry`: the one per-cell
/// step of a sweep, which keeps only the cell's metrics.
fn fold_reported(
    manifest: &Manifest,
    cell: &Cell,
    worker: usize,
    telemetry: &SweepTelemetry,
) -> Result<CellMetrics, RunError> {
    let before = spdyier_prof::thread_counts();
    let out = run_folded(manifest, cell);
    let allocs = spdyier_prof::thread_counts().since(before);
    let out = out?;
    let counter = |name: &str| out.metrics.counters.get(name).copied().unwrap_or(0);
    telemetry.cell_done(&CellReport {
        shard: worker,
        cell: cell.index,
        visits: out.metrics.visits,
        events: counter("trace.emitted"),
        trace_dropped: counter("trace.sink_dropped"),
        allocs: allocs.allocs,
        alloc_bytes: allocs.bytes,
    });
    Ok(out.metrics)
}

/// Run (or resume) `manifest`'s sweep on `exec`, checkpointing into and
/// replaying from `out_dir`. See the module docs for the store and
/// resume semantics.
pub fn run_sweep_on(
    exec: &Executor,
    manifest: &Manifest,
    out_dir: &Path,
    opts: SweepOptions,
) -> Result<SweepOutcome, SweepError> {
    run_sweep_through(exec, manifest, out_dir, opts, |store| Box::new(store))
}

/// [`run_sweep_on`] with cell checkpoints appended through
/// `sink(store file)` — the seam the failing-writer drill injects at.
fn run_sweep_through(
    exec: &Executor,
    manifest: &Manifest,
    out_dir: &Path,
    opts: SweepOptions,
    sink: impl FnOnce(std::fs::File) -> Box<dyn Write + Send>,
) -> Result<SweepOutcome, SweepError> {
    if manifest.outputs != Default::default() {
        return Err(SweepError(
            "experiments sweep: manifest requests per-cell bulk artifacts \
             (outputs.paired_dump / outputs.trace_artifacts / outputs.plot_data), \
             which the metrics-only checkpoint store cannot resume; use \
             `experiments run`"
                .into(),
        ));
    }
    let cells = manifest.cells();
    std::fs::create_dir_all(out_dir)
        .map_err(|e| SweepError(format!("--out {}: {e}", out_dir.display())))?;
    let store_path = out_dir.join(SWEEP_STORE_NAME);
    let replay = replay_store(&store_path, manifest, cells.len()).map_err(SweepError)?;

    let pending: Vec<usize> = (0..cells.len())
        .filter(|&i| replay.done[i].is_none())
        .collect();

    let store_err = |e| SweepError(format!("{}: {e}", store_path.display()));
    let mut store = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&store_path)
        .map_err(store_err)?;
    if replay.dropped_tail {
        // Cut the torn fragment off before the first append, or the next
        // checkpoint fuses with it and takes every later line down too.
        store.set_len(replay.verified_len).map_err(store_err)?;
    }
    if replay.verified_len == 0 {
        let header = store_line(&header_json(manifest, cells.len()));
        store.write_all(header.as_bytes()).map_err(store_err)?;
    }
    let store = Mutex::new(StoreSink {
        out: sink(store),
        failed: None,
    });

    let heartbeat_path = out_dir.join(SWEEP_HEARTBEAT_NAME);
    let heartbeat = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&heartbeat_path)
        .map_err(|e| {
            SweepError(format!(
                "{}: cannot open heartbeat file ({e})",
                heartbeat_path.display()
            ))
        })?;
    let telemetry = SweepTelemetry::new(pending.len(), Some(Box::new(heartbeat)));

    let fresh = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let budget = opts.stop_after.unwrap_or(usize::MAX);
    // The one cell-indexed vector: replayed checkpoints, and each fresh
    // cell's metrics moved in by the worker that folded it.
    let done = Mutex::new(replay.done);
    // The lowest-indexed cell that exceeded a limit, as a serial run
    // would meet it first.
    let first_limit: Mutex<Option<(usize, RunError)>> = Mutex::new(None);

    let ran: Vec<bool> = exec.run(pending.len(), |j, worker| {
        if stopped.load(Ordering::Relaxed) {
            return false;
        }
        let index = pending[j];
        let mut metrics = match fold_reported(manifest, &cells[index], worker, &telemetry) {
            Ok(metrics) => metrics,
            Err(e) => {
                let mut first = lock(&first_limit);
                if first.as_ref().is_none_or(|&(i, _)| index < i) {
                    *first = Some((index, e));
                }
                return true;
            }
        };
        let line = store_line(&cell_json(index, &mut metrics));
        let checkpointed = {
            let mut store = lock(&store);
            if store.failed.is_none() {
                // One write_all per checkpoint: a crash can tear at
                // most the final line, which replay drops.
                store.failed = store.out.write_all(line.as_bytes()).err();
            }
            store.failed.is_none()
        };
        lock(&done)[index] = Some(metrics);
        // A cell whose checkpoint failed is lost to this invocation:
        // stop claiming more, as after the last budgeted one.
        if !checkpointed || fresh.fetch_add(1, Ordering::Relaxed) + 1 >= budget {
            stopped.store(true, Ordering::Relaxed);
        }
        true
    });
    telemetry.finish();

    let checkpointed = replay.recovered + fresh.load(Ordering::Relaxed);
    let store = store.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = store.failed {
        return Err(SweepError(format!(
            "{}: checkpoint append failed ({e}); {checkpointed}/{} cell(s) are checkpointed, \
             re-run the same command to resume",
            store_path.display(),
            cells.len()
        )));
    }
    if ran.contains(&false) {
        return Ok(SweepOutcome::Interrupted {
            checkpointed,
            total: cells.len(),
        });
    }

    // Finish over the cells in index order: replayed checkpoints and
    // fresh cells carry metrics from the same fold, and the store codec
    // round-trips exactly, so the artifacts are byte-identical to an
    // uninterrupted sweep.
    let done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    let metrics: Vec<&CellMetrics> = done.iter().flatten().collect();
    let limit = first_limit
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .map(|(index, e)| limit_diagnostic(&cells[index], &e));
    let outcome = finish(manifest, &metrics, limit, Vec::new(), out_dir)
        .map_err(|e| SweepError(format!("--out {}: {e}", out_dir.display())))?;
    Ok(SweepOutcome::Completed(Box::new(outcome)))
}

/// `mutex`, locked; a worker that panicked holding it left nothing torn.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`run_sweep_on`] with the environment-sized executor.
pub fn run_sweep(
    manifest: &Manifest,
    out_dir: &Path,
    opts: SweepOptions,
) -> Result<SweepOutcome, SweepError> {
    run_sweep_on(&Executor::from_env(), manifest, out_dir, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn store_lines_round_trip_and_reject_corruption() {
        let line = store_line(r#"{"cell":3}"#);
        let json = check_line(line.trim_end()).expect("valid line verifies");
        assert_eq!(json, r#"{"cell":3}"#);
        let corrupted = line.replace("\"cell\":3", "\"cell\":4");
        assert!(check_line(corrupted.trim_end()).is_err());
        assert!(check_line("nocrcprefix").is_err());
    }

    #[test]
    fn manifest_digest_tracks_manifest_identity() {
        let a = Manifest::paper_baseline("sweep_a");
        let mut b = a.clone();
        assert_eq!(manifest_digest(&a), manifest_digest(&b));
        b.seeds.count = 7;
        assert_ne!(manifest_digest(&a), manifest_digest(&b));
    }

    #[test]
    fn replay_of_missing_store_is_empty() {
        let m = Manifest::paper_baseline("sweep_none");
        let replay = replay_store(Path::new("/nonexistent/sweep_store.jsonl"), &m, 4)
            .expect("missing store is an empty replay");
        assert_eq!(replay.recovered, 0);
        assert!(!replay.dropped_tail);
        assert!(replay.done.iter().all(Option::is_none));
    }

    #[test]
    fn replay_refuses_a_foreign_store() {
        let dir =
            std::env::temp_dir().join(format!("spdyier_sweep_foreign_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SWEEP_STORE_NAME);
        let m = Manifest::paper_baseline("sweep_x");
        let mut other = m.clone();
        other.seeds.count = 9;
        std::fs::write(&path, store_line(&header_json(&other, 18))).unwrap();
        let err = replay_store(&path, &m, 4).expect_err("digest mismatch refuses");
        assert!(err.contains("different manifest"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_drops_a_torn_tail_but_keeps_whole_lines() {
        let dir = std::env::temp_dir().join(format!("spdyier_sweep_tail_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SWEEP_STORE_NAME);
        let m = Manifest::paper_baseline("sweep_tail");
        let mut metrics = CellMetrics {
            seed: 5,
            protocol: "http".into(),
            ..CellMetrics::default()
        };
        metrics.visits = 3;
        let mut whole = store_line(&header_json(&m, 4));
        whole.push_str(&store_line(&cell_json(1, &mut metrics)));
        let torn = store_line(&cell_json(2, &mut metrics));
        // A crash mid-write — or after everything but the newline: a
        // later append would fuse with either fragment.
        for cut in [torn.len() / 2, torn.len() - 1] {
            std::fs::write(&path, format!("{whole}{}", &torn[..cut])).unwrap();
            let replay = replay_store(&path, &m, 4).expect("replay tolerates torn tail");
            assert_eq!(replay.recovered, 1);
            assert!(replay.dropped_tail);
            assert_eq!(replay.verified_len, whole.len() as u64);
            assert_eq!(replay.done[1].as_ref().unwrap().visits, 3);
            assert!(replay.done[2].is_none());
        }
        // A whole line that is not even UTF-8 is torn the same way.
        let mut bytes = whole.clone().into_bytes();
        bytes.extend_from_slice(b"\xff\xfe\n");
        std::fs::write(&path, bytes).unwrap();
        let replay = replay_store(&path, &m, 4).expect("replay tolerates a non-UTF-8 tail");
        assert_eq!((replay.recovered, replay.dropped_tail), (1, true));
        assert_eq!(replay.verified_len, whole.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A whole, CRC-valid line that is not the encoder's output — a key
    /// too many or one missing — is refused naming its path, not
    /// replayed with a default in the gap.
    #[test]
    fn replay_refuses_a_cell_line_with_a_missing_or_unknown_key() {
        let dir = std::env::temp_dir().join(format!("spdyier_sweep_keys_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SWEEP_STORE_NAME);
        let m = Manifest::paper_baseline("sweep_keys");
        let json = cell_json(1, &mut CellMetrics::default());
        let cases = [
            (
                json.replace("\"critical_visits\":0,", ""),
                "metrics.critical_visits: missing key",
            ),
            (
                json.replace("\"timeouts\":0,", "\"timeouts\":0,\"bogus\":1,"),
                "metrics.bogus: unknown key (expected one of: protocol, variant, seed, ",
            ),
            (
                json.replace("{\"cell\":1,", "{\"cell\":1,\"bogus\":1,"),
                " bogus: unknown key (expected one of: cell, metrics)",
            ),
        ];
        for (line, want) in cases {
            assert_ne!(line, json);
            let store = store_line(&header_json(&m, 4)) + &store_line(&line);
            std::fs::write(&path, store).unwrap();
            let err = replay_store(&path, &m, 4).expect_err("a foreign line refuses");
            assert!(err.contains(": line 2: ") && err.contains(want), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sweep whose cells exceed a limit finishes as `run` does: the
    /// diagnostic names the lowest-indexed such cell at any pool width,
    /// and nothing of it is checkpointed.
    #[test]
    fn a_sweep_over_a_limit_names_its_first_cell_like_run() {
        let mut m = Manifest::paper_baseline("sweep_limit");
        m.seeds.count = 2;
        m.limits.event_budget = 50;
        let dir = std::env::temp_dir().join(format!("spdyier_sweep_limit_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ran =
            crate::run_manifest_on(&Executor::new(1), &m, &dir.join("run")).expect("run writes");
        assert_eq!(ran.exit.code(), 2);
        for workers in [1, 3] {
            let swept = dir.join(format!("sweep{workers}"));
            let outcome =
                run_sweep_on(&Executor::new(workers), &m, &swept, SweepOptions::default());
            match outcome.expect("sweep writes") {
                SweepOutcome::Completed(o) => assert_eq!(o.summary, ran.summary),
                SweepOutcome::Interrupted { .. } => panic!("an unbudgeted sweep completes"),
            }
            for artifact in ["result.json", "junit.xml"] {
                assert_eq!(
                    std::fs::read(swept.join(artifact)).unwrap(),
                    std::fs::read(dir.join("run").join(artifact)).unwrap(),
                    "{artifact} at {workers} worker(s)"
                );
            }
            let replay = replay_store(&swept.join(SWEEP_STORE_NAME), &m, 4).expect("replays");
            assert_eq!(replay.recovered, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store writer that accepts `whole` appends, then writes half of
    /// the next line and fails — a disk filling up mid-checkpoint.
    struct FullDisk {
        file: std::fs::File,
        whole: usize,
    }

    impl Write for FullDisk {
        fn write(&mut self, line: &[u8]) -> std::io::Result<usize> {
            if self.whole == 0 {
                self.file.write_all(&line[..line.len() / 2])?;
                return Err(std::io::Error::other("no space left on device"));
            }
            self.whole -= 1;
            self.file.write_all(line)?;
            Ok(line.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    #[test]
    fn failed_checkpoint_append_ends_the_sweep_and_the_prefix_resumes() {
        let mut m = Manifest::from_json(
            r#"{
                "schema_version": 1,
                "name": "sweep_full_disk",
                "network": { "kind": "wifi" },
                "workload": { "kind": "synthetic", "objects": 4, "object_bytes": 1500,
                              "same_domain": true, "visits": 1, "interval_s": 30 },
                "protocols": ["http", "spdy"],
                "assertions": ["completion_rate >= 1.0"]
            }"#,
        )
        .expect("manifest decodes");
        m.seeds.count = 3;
        let dir =
            std::env::temp_dir().join(format!("spdyier_sweep_full_disk_{}", std::process::id()));
        let reference = dir.join("reference");
        let drilled = dir.join("drilled");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions::default();
        let exec = Executor::new(2);
        run_sweep_on(&exec, &m, &reference, opts).expect("reference sweep runs");

        // Two checkpoints land, the third tears and fails.
        let err = run_sweep_through(&exec, &m, &drilled, opts, |file| {
            Box::new(FullDisk { file, whole: 2 })
        })
        .expect_err("a failed append must not look like success");
        let store_path = drilled.join(SWEEP_STORE_NAME);
        assert!(
            err.0.starts_with(&format!(
                "{}: checkpoint append failed (no space left on device); 2/6 cell(s)",
                store_path.display()
            )) && !err.0.contains('\n'),
            "{err}"
        );
        assert!(!drilled.join("result.json").exists());

        // Exactly the two whole lines replay; nothing was appended after
        // the torn one.
        let replay = replay_store(&store_path, &m, 6).expect("store replays");
        assert_eq!(replay.recovered, 2);
        assert!(replay.dropped_tail);
        let text = std::fs::read_to_string(&store_path).unwrap();
        assert_eq!(text.lines().count(), 4, "header, two cells, one fragment");

        // The same command resumes the other four and matches a sweep
        // that never failed.
        match run_sweep_on(&exec, &m, &drilled, opts).expect("resume runs") {
            SweepOutcome::Completed(_) => {}
            SweepOutcome::Interrupted { .. } => panic!("resume must complete"),
        }
        for artifact in ["result.json", "junit.xml"] {
            assert_eq!(
                std::fs::read(drilled.join(artifact)).unwrap(),
                std::fs::read(reference.join(artifact)).unwrap(),
                "{artifact} differs after the drill"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
