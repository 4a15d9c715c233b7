//! The `experiments` binary: regenerate the paper's tables and figures.
//!
//! Run it with no arguments for every invocation form (the `USAGE`
//! table below): the per-figure runners by id, and the `run`, `sweep`,
//! `explain` and `diff` subcommands. Every form but the figure ids takes
//! a scenario manifest; what a run writes besides its results contract
//! is the manifest's `outputs`, never a flag.
//!
//! The `run` form executes a declarative scenario manifest (a JSON
//! document) end to end: expand cells, fan them across
//! `SPDYIER_JOBS` workers, evaluate assertions, and write the versioned
//! results contract (`result.json`, `junit.xml`, and the paired dump,
//! trace artifacts and plot data the manifest's `outputs` ask for) to
//! the output directory. Exit codes are standardized: 0 pass, 1
//! assertion failure, 2 limit exceeded, 3 config error.
//!
//! The `explain` form re-runs a manifest's cells at `Full` trace level,
//! extracts each visit's causal critical path and writes
//! `explain_<label>.json` / `.txt` — every path's edge durations sum to
//! the visit's PLT by construction. The `diff` form re-runs two cells of
//! a manifest, aligns them by visit identity and attributes the PLT
//! delta edge-by-edge into `diff.json` / `diff.txt`. Both refuse lossy
//! traces (recorder drops) with exit 3. A recorded trace is an output,
//! never an input: a `.jsonl` path is refused like any non-manifest.

use spdyier_core::ScenarioExit;
use spdyier_experiments::{run_by_id, ExpOpts, EXPERIMENTS};
use spdyier_scenario::Manifest;
use std::path::{Path, PathBuf};

/// Count every allocation the binary makes, so sweep heartbeats can
/// report allocations per visit (near-zero cost otherwise: a load and a
/// store per counter, in the allocating thread's own slot).
#[global_allocator]
static GLOBAL: spdyier_prof::CountingAlloc = spdyier_prof::CountingAlloc;

/// Every invocation form, leading with its subcommand (or the figure-id
/// placeholder). The one table all usage text is printed from.
const USAGE: &[&str] = &[
    "<id|all> [--seeds N] [--json DIR]",
    "run <MANIFEST.json> [--out DIR] [--seeds N]",
    "sweep <MANIFEST.json> --out DIR [--seeds N] [--stop-after K]",
    "explain <MANIFEST.json> [--cell FILTER] [--out DIR]",
    "diff <MANIFEST.json> --a FILTER --b FILTER [--out DIR]",
];

/// One-line config diagnostic, then the standardized config-error exit.
fn config_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(ScenarioExit::ConfigError.code());
}

/// Print the usage of `cmd` (every form when `None`) and exit 3.
fn usage_error(cmd: Option<&str>) -> ! {
    let forms = USAGE
        .iter()
        .filter(|form| cmd.is_none_or(|cmd| form.split(' ').next() == Some(cmd)));
    for (i, form) in forms.enumerate() {
        let lead = if i == 0 { "usage:" } else { "      " };
        eprintln!("{lead} experiments {form}");
    }
    if cmd.is_none() {
        eprintln!("ids: {}", experiment_ids().join(" "));
    }
    std::process::exit(ScenarioExit::ConfigError.code());
}

/// Every figure id, in presentation order.
fn experiment_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id).collect()
}

/// The arguments that are not flags (or flag values) from `flags`.
fn positional_args<'a>(args: &'a [String], flags: &[&str]) -> Vec<&'a str> {
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if flags.contains(&args[i].as_str()) {
            i += 2;
            continue;
        }
        positional.push(args[i].as_str());
        i += 1;
    }
    positional
}

/// The value following `--flag VALUE`; absent flag yields `None`,
/// present-but-valueless names the flag and exits 3.
fn parse_flag_str(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => config_error(&format!("{flag}: expected a value after the flag")),
    }
}

/// [`parse_flag_str`] as an unsigned integer; malformed names the flag
/// and exits 3.
fn parse_flag_u64(args: &[String], flag: &str) -> Option<u64> {
    let raw = parse_flag_str(args, flag)?;
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => config_error(&format!(
            "{flag}: expected an unsigned integer, got {raw:?}"
        )),
    }
}

/// `--seeds N`, the seed count of every subcommand that takes one: zero
/// seeds is a config error, never an empty run.
fn parse_seeds(args: &[String]) -> Option<u64> {
    let n = parse_flag_u64(args, "--seeds")?;
    if n == 0 {
        config_error("--seeds: must be at least 1");
    }
    Some(n)
}

/// Print the paths a subcommand wrote.
fn print_written(paths: &[PathBuf]) {
    for p in paths {
        println!("wrote {}", p.display());
    }
}

/// `cmd` could not create or write `path`: name it and the cause on one
/// line and exit 3.
fn write_error(cmd: &str, path: &Path, e: &std::io::Error) -> ! {
    config_error(&format!("experiments {cmd}: {path:?}: {e}"))
}

/// Print what `cmd` (`explain` / `diff`) wrote and its summary, or its
/// diagnostic as a config error.
fn finish_causal(cmd: &str, result: Result<spdyier_experiments::CausalOutcome, String>) -> ! {
    match result {
        Ok(outcome) => {
            print_written(&outcome.written);
            println!("{}", outcome.summary);
            std::process::exit(0);
        }
        Err(e) => config_error(&format!("experiments {cmd}: {e}")),
    }
}

/// `experiments explain <MANIFEST.json> [--cell FILTER] [--out DIR]`.
fn run_explain(args: &[String]) -> ! {
    let [manifest] = positional_args(args, &["--cell", "--out"])[..] else {
        usage_error(Some("explain"));
    };
    let cell = parse_flag_str(args, "--cell");
    let out = parse_flag_str(args, "--out").unwrap_or_else(|| "results/explain".into());
    let result =
        spdyier_experiments::causal_explain(Path::new(manifest), cell.as_deref(), Path::new(&out));
    finish_causal("explain", result)
}

/// `experiments diff <MANIFEST.json> --a FILTER --b FILTER [--out DIR]`.
fn run_diff(args: &[String]) -> ! {
    let positional = positional_args(args, &["--a", "--b", "--out"]);
    let a_filter = parse_flag_str(args, "--a");
    let b_filter = parse_flag_str(args, "--b");
    let out = parse_flag_str(args, "--out").unwrap_or_else(|| "results/diff".into());
    let ([manifest], Some(a), Some(b)) = (&positional[..], &a_filter, &b_filter) else {
        usage_error(Some("diff"));
    };
    let result = spdyier_experiments::causal_diff(Path::new(manifest), a, b, Path::new(&out));
    finish_causal("diff", result)
}

/// Decode the manifest at `path`, applying a `--seeds N` override.
fn load_manifest(path: &str, args: &[String]) -> Manifest {
    let mut manifest = Manifest::from_file(Path::new(path))
        .unwrap_or_else(|e| config_error(&format!("{path}: {e}")));
    if let Some(n) = parse_seeds(args) {
        if manifest.seeds.base.checked_add(n).is_none() {
            config_error("--seeds: seeds.base + N overflows a 64-bit seed");
        }
        manifest.seeds.count = n;
    }
    manifest
}

/// Print a finished scenario's artifacts and summary; exit with its code.
fn exit_with_outcome(outcome: &spdyier_experiments::ScenarioOutcome) -> ! {
    print_written(&outcome.written);
    println!("{}", outcome.summary);
    std::process::exit(outcome.exit.code());
}

/// `experiments run <MANIFEST> [--out DIR] [--seeds N]`: the scenario
/// runner front-end.
fn run_scenario(args: &[String]) -> ! {
    let [manifest_path] = positional_args(args, &["--out", "--seeds"])[..] else {
        usage_error(Some("run"));
    };
    let manifest = load_manifest(manifest_path, args);
    let out_dir =
        parse_flag_str(args, "--out").unwrap_or_else(|| format!("results/{}", manifest.name));
    match spdyier_experiments::run_manifest(&manifest, Path::new(&out_dir)) {
        Ok(outcome) => exit_with_outcome(&outcome),
        Err(e) => config_error(&format!("experiments run: --out {out_dir:?}: {e}")),
    }
}

/// `experiments sweep <MANIFEST> --out DIR [--seeds N] [--stop-after K]`:
/// the checkpointing, resumable population-scale runner. Re-running the
/// same command against the same `--out` directory resumes from the
/// checkpoint store.
fn run_sweep_cmd(args: &[String]) -> ! {
    let [manifest_path] = positional_args(args, &["--out", "--seeds", "--stop-after"])[..] else {
        usage_error(Some("sweep"));
    };
    let Some(out_dir) = parse_flag_str(args, "--out") else {
        eprintln!("experiments sweep: --out is required (the checkpoint store lives there)");
        usage_error(Some("sweep"));
    };
    let manifest = load_manifest(manifest_path, args);
    let opts = spdyier_experiments::SweepOptions {
        stop_after: parse_flag_u64(args, "--stop-after").map(|k| k as usize),
    };
    match spdyier_experiments::run_sweep(&manifest, Path::new(&out_dir), opts) {
        Ok(spdyier_experiments::SweepOutcome::Completed(outcome)) => exit_with_outcome(&outcome),
        Ok(spdyier_experiments::SweepOutcome::Interrupted {
            checkpointed,
            total,
        }) => {
            println!(
                "sweep {}: stopped with {checkpointed}/{total} cell(s) checkpointed; \
                 re-run the same command to resume",
                manifest.name
            );
            std::process::exit(0);
        }
        Err(e) => config_error(&e.to_string()),
    }
}

/// `experiments <id|all> [--seeds N] [--json DIR]`: the per-figure
/// runners.
fn run_figures(args: &[String]) {
    let opts = ExpOpts {
        seeds: parse_seeds(args).unwrap_or(ExpOpts::default().seeds),
    };
    let json_dir = parse_flag_str(args, "--json").map(PathBuf::from);
    let mut ids = positional_args(args, &["--seeds", "--json"]);
    if ids.contains(&"all") {
        ids = experiment_ids();
    }
    let known = experiment_ids();
    if let Some(id) = ids.iter().find(|id| !known.contains(id)) {
        config_error(&format!(
            "unknown experiment id: {id}\nids: {}",
            known.join(" ")
        ));
    }
    if let Some(dir) = &json_dir {
        // Before the first figure runs, so an unwritable location costs nothing.
        if let Err(e) = std::fs::create_dir_all(dir) {
            write_error("--json", dir, &e);
        }
    }
    for id in ids {
        let started = std::time::Instant::now();
        let report = run_by_id(id, opts).expect("id was resolved above");
        println!("{}\n", report.render());
        eprintln!("[{} completed in {:.1?}]", id, started.elapsed());
        if let Some(dir) = &json_dir {
            let path = dir.join(format!("{id}.json"));
            let blob = serde_json::json!({
                "id": report.id,
                "title": report.title,
                "paper_claim": report.paper_claim,
                "data": report.data,
            });
            let blob = serde_json::to_string_pretty(&blob).expect("serialize");
            if let Err(e) = std::fs::write(&path, blob + "\n") {
                write_error("--json", &path, &e);
            }
            eprintln!("wrote {}", path.display());
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage_error(None);
    };
    match cmd.as_str() {
        "run" => run_scenario(&args[1..]),
        "sweep" => run_sweep_cmd(&args[1..]),
        "explain" => run_explain(&args[1..]),
        "diff" => run_diff(&args[1..]),
        _ => run_figures(&args),
    }
}
