//! End-to-end measurement: spawn the released `experiments` CLI, account
//! for it exactly, and check what it wrote.
//!
//! Everything here runs in the process that spawns the measured children,
//! and a child's peak RSS cannot read below its spawner's (see
//! `ChildUsage::spawner_peak_rss_mib`). So this stays allocation-light on
//! purpose: big artifacts are hashed and text-scanned, never parsed into a
//! tree, and the harness spawns every measured child ahead of its
//! in-process work.

use crate::child::{run_child, ChildUsage};
use crate::stats::{median, Fnv1a};
use crate::workloads::{setup_probe_manifest_json, Size, Subcommand, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Where the CLI under test is and where the harness may write.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub experiments: PathBuf,
    /// Manifests and the children's output; removed when the run ends.
    pub work: PathBuf,
    /// What outlives the run: the traced passes' `spans_*.jsonl` and the
    /// quiet-host gate's state.
    pub kept: PathBuf,
}

impl Ctx {
    /// An `experiments` invocation as the benchmark runs it: one worker,
    /// and none of the environment switches that change what a run does.
    fn command(&self, args: &[&str], manifest: &Path, out: &Path) -> Command {
        let mut cmd = Command::new(&self.experiments);
        cmd.args(args)
            .arg(manifest)
            .arg("--out")
            .arg(out)
            .env("SPDYIER_JOBS", "1")
            .env_remove("SPDYIER_TRACE")
            .env_remove("SPDYIER_MATERIALIZE_BODIES")
            .stdout(Stdio::null());
        cmd
    }

    /// Write `json` as `<name>.json` in the work directory.
    pub fn write_manifest(&self, name: &str, json: &str) -> Result<PathBuf, String> {
        let path = self.work.join(format!("{name}.json"));
        std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// One timed repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    pub usage: ChildUsage,
    /// FNV-1a over everything simulated that the run wrote.
    pub sim_digest: u64,
    /// What a sweep's own artifacts say about the repetition.
    pub sweep: Option<SweepArtifacts>,
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// `result.json` must say `pass` and list one entry per cell. Scanned as
/// text: the file is pretty-printed with one key per line, and a
/// population sweep's is megabytes.
fn check_result_json(bytes: &[u8], cells: u64) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("result.json: {e}"))?;
    let status = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"status\": "))
        .ok_or("result.json: no status")?;
    if status != "\"pass\"," {
        return Err(format!("result.json: status is {status} not \"pass\""));
    }
    let listed = text
        .lines()
        .filter(|l| l.starts_with("      \"protocol\": "))
        .count() as u64;
    if listed != cells {
        return Err(format!(
            "result.json lists {listed} cells, expected {cells}"
        ));
    }
    Ok(())
}

/// The digest of an `explain` output directory: every `explain_*.json`,
/// in name order. There must be one per cell.
fn digest_explain_dir(dir: &Path, cells: u64) -> Result<u64, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("explain_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.len() as u64 != cells {
        return Err(format!(
            "{} explain_*.json artifacts, expected {cells}",
            names.len()
        ));
    }
    let mut digest = Fnv1a::default();
    for name in names {
        digest.write(name.as_bytes());
        digest.write(&read(&dir.join(name))?);
    }
    Ok(digest.0)
}

/// Run `workload` once on `manifest` (which expands to `cells` cells)
/// and check its exit code and artifacts.
pub fn run_rep(ctx: &Ctx, workload: &Workload, manifest: &Path, cells: u64) -> Result<Rep, String> {
    let out = ctx.work.join(format!("{}.out", workload.name));
    // A sweep resumes from what it finds; every rep starts from nothing.
    match std::fs::remove_dir_all(&out) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("{}: {e}", out.display()))
        }
        _ => {}
    }
    let usage = run_child(&mut ctx.command(&[workload.subcommand.name()], manifest, &out))?;
    if usage.exit_code != Some(0) {
        return Err(format!("experiments exited with {:?}", usage.exit_code));
    }
    if usage.peak_rss_mib <= usage.spawner_peak_rss_mib {
        return Err(format!(
            "peak RSS reads {} MiB, no more than the harness's own {} MiB: \
             the reading is the harness, not the child",
            usage.peak_rss_mib, usage.spawner_peak_rss_mib
        ));
    }
    let sim_digest = match workload.subcommand {
        Subcommand::Run | Subcommand::Sweep => {
            let result = read(&out.join("result.json"))?;
            check_result_json(&result, cells)?;
            let mut digest = Fnv1a::default();
            digest.write(&result);
            digest.0
        }
        Subcommand::Explain => digest_explain_dir(&out, cells)?,
    };
    let sweep = match workload.subcommand {
        Subcommand::Sweep => Some(read_sweep_artifacts(&out)?),
        Subcommand::Run | Subcommand::Explain => None,
    };
    Ok(Rep {
        usage,
        sim_digest,
        sweep,
    })
}

/// What a finished sweep's own artifacts say about it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArtifacts {
    /// Host milliseconds between consecutive heartbeats: one per cell.
    pub cell_ms: Vec<f64>,
    /// `elapsed_ms` of the last heartbeat.
    pub last_elapsed_ms: f64,
    /// Peak RSS the last heartbeat reported, MiB.
    pub last_rss_mib: f64,
    /// Size of the checkpoint store, bytes.
    pub store_bytes: u64,
}

/// Heartbeat schema v2 lines → per-cell durations and the final reading.
pub fn parse_heartbeats(text: &str) -> Result<(Vec<f64>, f64, f64), String> {
    let mut cell_ms = Vec::new();
    let (mut elapsed, mut rss_kib) = (0.0, 0.0);
    for (i, line) in text.lines().enumerate() {
        let field = |v: &serde_json::Value, name: &str| {
            v.get(name)
                .and_then(serde_json::Value::as_f64)
                .ok_or(format!("heartbeat line {}: no numeric {name:?}", i + 1))
        };
        let v = serde_json::from_str(line).map_err(|e| format!("heartbeat line {}: {e}", i + 1))?;
        if field(&v, "schema_version")? != 2.0 {
            return Err(format!("heartbeat line {}: not schema v2", i + 1));
        }
        let now = field(&v, "elapsed_ms")?;
        cell_ms.push(now - elapsed);
        elapsed = now;
        rss_kib = field(&v, "peak_rss_kb")?;
    }
    if cell_ms.is_empty() {
        return Err("no heartbeats".into());
    }
    Ok((cell_ms, elapsed, rss_kib / 1024.0))
}

fn read_sweep_artifacts(out: &Path) -> Result<SweepArtifacts, String> {
    let heartbeats = read(&out.join("heartbeat_sweep.jsonl"))?;
    let text = std::str::from_utf8(&heartbeats).map_err(|e| format!("heartbeats: {e}"))?;
    let (cell_ms, last_elapsed_ms, last_rss_mib) = parse_heartbeats(text)?;
    let store = out.join("sweep_store.jsonl");
    let store_bytes = std::fs::metadata(&store)
        .map_err(|e| format!("{}: {e}", store.display()))?
        .len();
    Ok(SweepArtifacts {
        cell_ms,
        last_elapsed_ms,
        last_rss_mib,
        store_bytes,
    })
}

/// The metrics of a run are taken over its `QUIET_REPS` fastest
/// repetitions. Everything that disturbs a measurement on a shared host —
/// a neighbour's burst, a clock that has not ramped up — makes a
/// repetition slower, never faster, so the fastest are the least
/// disturbed; a plain median over all of them moves with every burst
/// that covers half a window. The rest are kept, printed and written to
/// the ledger, but not scored.
pub const QUIET_REPS: usize = 3;
/// One `setup_s` sample is the median launch of a batch of this many
/// launches of the probe manifest.
const SETUP_LAUNCHES_PER_BATCH: usize = 50;

/// The repetitions of one workload, and what went wrong in them.
#[derive(Debug)]
pub struct EndToEnd {
    pub workload: &'static Workload,
    pub cells: u64,
    pub visits: u64,
    /// Every repetition that ran and checked out, in run order.
    pub reps: Vec<Rep>,
    pub failures: Vec<String>,
}

impl EndToEnd {
    pub fn attempted(&self) -> u64 {
        self.cells * (self.reps.len() + self.failures.len()) as u64
    }

    pub fn failed(&self) -> u64 {
        self.cells * self.failures.len() as u64
    }

    /// Every rep must have simulated exactly the same thing.
    fn check_digests(&mut self) {
        let Some(first) = self.reps.first().map(|r| r.sim_digest) else {
            return;
        };
        let (same, differing): (Vec<Rep>, Vec<Rep>) = self
            .reps
            .iter()
            .cloned()
            .partition(|r| r.sim_digest == first);
        for rep in &differing {
            self.failures.push(format!(
                "sim_digest {:016x} differs from the first rep's {first:016x}",
                rep.sim_digest
            ));
        }
        self.reps = same;
    }

    /// The repetitions that are scored: the [`QUIET_REPS`] fastest.
    pub fn quiet_reps(&self) -> Vec<&Rep> {
        let mut reps: Vec<&Rep> = self.reps.iter().collect();
        reps.sort_by(|a, b| a.usage.wall_s.total_cmp(&b.usage.wall_s));
        reps.truncate(QUIET_REPS);
        reps
    }

    /// Samples of the five per-run metrics over the quiet repetitions, by
    /// declared name.
    pub fn samples(&self) -> Vec<(&'static str, Vec<f64>)> {
        let quiet = self.quiet_reps();
        let per_rep = |f: &dyn Fn(&Rep) -> f64| quiet.iter().map(|r| f(r)).collect::<Vec<f64>>();
        vec![
            ("wall_s", per_rep(&|r| r.usage.wall_s)),
            ("cpu_s", per_rep(&|r| r.usage.cpu_s)),
            (
                "host_ms_per_visit",
                per_rep(&|r| 1e3 * r.usage.wall_s / self.visits as f64),
            ),
            (
                "cells_per_s",
                per_rep(&|r| self.cells as f64 / r.usage.wall_s),
            ),
            ("peak_rss_mb", per_rep(&|r| r.usage.peak_rss_mib)),
        ]
    }
}

/// The host-quietness gate in front of every timed repetition.
///
/// A batch of probe launches takes 0.1 s and slows down with everything
/// else when the host is disturbed (by 25–100% in the events observed).
/// Before each repetition the gate launches a batch; while its median
/// launch is more than `DISTURBED` times the fastest batch this checkout
/// has ever seen, it pauses and probes again. The batch it admits on is
/// one `setup_s` sample, so that metric is gated the same way.
///
/// Waiting is bounded twice — per run, and per checkout through the state
/// file — so a host that has simply become slower costs a fixed amount of
/// time and then measures anyway.
struct QuietGate {
    probe_manifest: PathBuf,
    state: PathBuf,
    /// Modification time of the CLI binary the reference belongs to.
    build: f64,
    /// Fastest batch this checkout has seen, seconds.
    quiet_s: f64,
    /// Seconds every run in this checkout has spent waiting, this one
    /// included.
    checkout_waited_s: f64,
    run_waited_s: f64,
    /// The batch each repetition was admitted on.
    admitted_s: Vec<f64>,
}

const DISTURBED: f64 = 1.25;
const PAUSE_S: f64 = 2.0;
const RUN_PATIENCE_S: f64 = 60.0;
const CHECKOUT_PATIENCE_S: f64 = 600.0;

impl QuietGate {
    fn open(ctx: &Ctx) -> Result<QuietGate, String> {
        let probe_manifest = ctx.write_manifest("setup_probe", setup_probe_manifest_json())?;
        let state = ctx.kept.join("quiet_host");
        // The reference is a launch time of this build of the CLI: another
        // build starts over.
        let build = std::fs::metadata(&ctx.experiments)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0.0, |d| d.as_secs_f64());
        let saved = std::fs::read_to_string(&state).unwrap_or_default();
        let fields: Vec<f64> = saved
            .split_whitespace()
            .filter_map(|f| f.parse().ok())
            .collect();
        let (quiet_s, checkout_waited_s) = match fields[..] {
            [b, q, w] if b == build && q > 0.0 && w >= 0.0 => (q, w),
            _ => (f64::INFINITY, 0.0),
        };
        Ok(QuietGate {
            probe_manifest,
            state,
            build,
            quiet_s,
            checkout_waited_s,
            run_waited_s: 0.0,
            admitted_s: Vec::new(),
        })
    }

    /// Launch `experiments run` on the one-cell probe manifest
    /// `SETUP_LAUNCHES_PER_BATCH` times; the median launch's wall time.
    fn probe(&self, ctx: &Ctx) -> Result<f64, String> {
        let out = ctx.work.join("setup_probe.out");
        let walls = (0..SETUP_LAUNCHES_PER_BATCH)
            .map(|_| {
                let usage = run_child(&mut ctx.command(&["run"], &self.probe_manifest, &out))?;
                if usage.exit_code != Some(0) {
                    return Err(format!("setup probe exited with {:?}", usage.exit_code));
                }
                Ok(usage.wall_s)
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(median(&walls))
    }

    fn admit(&mut self, ctx: &Ctx) -> Result<(), String> {
        loop {
            let batch = self.probe(ctx)?;
            self.quiet_s = self.quiet_s.min(batch);
            if batch <= self.quiet_s * DISTURBED
                || self.run_waited_s >= RUN_PATIENCE_S
                || self.checkout_waited_s >= CHECKOUT_PATIENCE_S
            {
                self.admitted_s.push(batch);
                let saved = format!(
                    "{} {} {}\n",
                    self.build, self.quiet_s, self.checkout_waited_s
                );
                return std::fs::write(&self.state, saved)
                    .map_err(|e| format!("{}: {e}", self.state.display()));
            }
            println!(
                "# waiting for a quiet host: a probe launch takes {:.2} ms, {:.2} ms when quiet",
                batch * 1e3,
                self.quiet_s * 1e3
            );
            std::thread::sleep(Duration::from_secs_f64(PAUSE_S));
            self.run_waited_s += PAUSE_S;
            self.checkout_waited_s += PAUSE_S;
        }
    }
}

/// One set of end-to-end measurements: the workloads' repetitions
/// interleaved (A B C D A B C D …) so slow drift of the host lands on
/// every workload alike, each behind the [`QuietGate`].
#[derive(Debug)]
pub struct EndToEndSet {
    /// The probe batch each repetition was admitted on, in run order.
    pub setup_s: Vec<f64>,
    pub runs: Vec<EndToEnd>,
}

impl EndToEndSet {
    /// The `setup_s` samples that are scored: the [`QUIET_REPS`] fastest
    /// batches, as for the workloads.
    pub fn quiet_setup_s(&self) -> Vec<f64> {
        let mut batches = self.setup_s.clone();
        batches.sort_by(f64::total_cmp);
        batches.truncate(QUIET_REPS);
        batches
    }
}

/// When to stop repeating.
#[derive(Debug, Clone, Copy)]
pub enum Reps {
    Exactly(usize),
    /// At least [`QUIET_REPS`], then until this much time has been measured.
    For(Duration),
}

pub fn measure_end_to_end(
    ctx: &Ctx,
    which: &[&'static Workload],
    seed: u64,
    size: Size,
    reps: Reps,
    probe_setup: bool,
) -> Result<EndToEndSet, String> {
    let mut runs = Vec::new();
    let mut manifests = Vec::new();
    for w in which {
        manifests.push(ctx.write_manifest(w.name, &w.manifest_json(seed, size))?);
        runs.push(EndToEnd {
            workload: w,
            cells: w.cells(size),
            visits: w.cells(size) * w.visits_per_cell(),
            reps: Vec::new(),
            failures: Vec::new(),
        });
    }
    let mut gate = probe_setup.then(|| QuietGate::open(ctx)).transpose()?;
    let started = Instant::now();
    let mut round = 0;
    loop {
        for (run, manifest) in runs.iter_mut().zip(&manifests) {
            if let Some(gate) = &mut gate {
                gate.admit(ctx)?;
            }
            match run_rep(ctx, run.workload, manifest, run.cells) {
                Ok(rep) => run.reps.push(rep),
                Err(e) => run.failures.push(e),
            }
        }
        round += 1;
        let more = match reps {
            Reps::Exactly(n) => round < n,
            Reps::For(window) => round < QUIET_REPS || started.elapsed() < window,
        };
        if !more {
            break;
        }
    }
    for run in &mut runs {
        run.check_digests();
    }
    Ok(EndToEndSet {
        setup_s: gate.map_or(Vec::new(), |g| g.admitted_s),
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with_walls(walls: &[f64]) -> EndToEnd {
        let w = &crate::workloads::WORKLOADS[0];
        EndToEnd {
            workload: w,
            cells: 12,
            visits: 240,
            reps: walls
                .iter()
                .map(|&wall_s| Rep {
                    usage: ChildUsage {
                        wall_s,
                        cpu_s: wall_s,
                        peak_rss_mib: 20.0 + wall_s,
                        spawner_peak_rss_mib: 3.0,
                        exit_code: Some(0),
                    },
                    sim_digest: 1,
                    sweep: None,
                })
                .collect(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn the_fastest_repetitions_are_the_ones_scored() {
        let run = run_with_walls(&[6.0, 9.0, 6.1, 6.05, 8.0]);
        let samples = run.samples();
        assert_eq!(samples[0], ("wall_s", vec![6.0, 6.05, 6.1]));
        assert_eq!(samples[4], ("peak_rss_mb", vec![26.0, 26.05, 26.1]));
        assert_eq!(samples[3].1[0], 2.0, "12 cells in 6 s");
        assert_eq!(run.attempted(), 60);
        assert_eq!(run_with_walls(&[6.0, 5.0]).samples()[0].1, vec![5.0, 6.0]);
        let set = EndToEndSet {
            setup_s: vec![2.0e-3, 1.8e-3, 3.9e-3, 1.9e-3],
            runs: Vec::new(),
        };
        assert_eq!(set.quiet_setup_s(), vec![1.8e-3, 1.9e-3, 2.0e-3]);
    }

    #[test]
    fn heartbeat_diffs_are_per_cell_durations() {
        let text = concat!(
            r#"{"schema_version":2,"shard":0,"cell":0,"cells_completed":1,"cells_total":3,"elapsed_ms":0.5,"events":0,"peak_rss_kb":7168}"#,
            "\n",
            r#"{"schema_version":2,"shard":0,"cell":1,"cells_completed":2,"cells_total":3,"elapsed_ms":2.0,"events":0,"peak_rss_kb":8192}"#,
            "\n",
            r#"{"schema_version":2,"shard":0,"cell":2,"cells_completed":3,"cells_total":3,"elapsed_ms":2.75,"events":0,"peak_rss_kb":10240}"#,
            "\n",
        );
        let (cell_ms, last, rss) = parse_heartbeats(text).expect("parses");
        assert_eq!(cell_ms, vec![0.5, 1.5, 0.75]);
        assert_eq!(last, 2.75);
        assert_eq!(rss, 10.0);
    }

    #[test]
    fn heartbeats_of_another_schema_are_refused() {
        let v1 = r#"{"schema_version":1,"elapsed_ms":1.0,"peak_rss_kb":1}"#;
        assert!(parse_heartbeats(v1).unwrap_err().contains("schema v2"));
        assert!(parse_heartbeats("").unwrap_err().contains("no heartbeats"));
        assert!(parse_heartbeats("{").is_err());
    }

    #[test]
    fn result_json_is_checked_for_status_and_cell_count() {
        let doc = |status: &str| {
            format!(
                "{{\n  \"schema_version\": 1,\n  \"status\": \"{status}\",\n  \"cells\": [\n    {{\n      \"protocol\": \"http\",\n      \"seed\": 0\n    }},\n    {{\n      \"protocol\": \"spdy\",\n      \"seed\": 0\n    }}\n  ]\n}}\n"
            )
        };
        assert_eq!(check_result_json(doc("pass").as_bytes(), 2), Ok(()));
        assert!(check_result_json(doc("pass").as_bytes(), 4)
            .unwrap_err()
            .contains("lists 2 cells"));
        assert!(check_result_json(doc("fail").as_bytes(), 2)
            .unwrap_err()
            .contains("status"));
    }
}
