//! The `experiments` binary: regenerate the paper's tables and figures.
//!
//! Run it with no arguments for every invocation form (the `USAGE`
//! table below): the per-figure runners by id, and the `run`, `sweep`,
//! `export`, `trace`, `paired`, `explain`, `diff` and `profile`
//! subcommands.
//!
//! The `run` form executes a declarative scenario manifest (a JSON
//! document) end to end: expand cells, fan them across
//! `SPDYIER_JOBS` workers, evaluate assertions, and write the versioned
//! results contract (`result.json`, `junit.xml`, optional paired dump
//! and trace artifacts) to the output directory. Exit codes are
//! standardized: 0 pass, 1 assertion failure, 2 limit exceeded, 3
//! config error.
//!
//! The `export` form runs one full schedule with traces and writes
//! gnuplot-ready `.dat` files (PLTs, per-second downlink, bytes in
//! flight, retransmissions, promotions, proxy timelines, per-connection
//! cwnd traces) to `DIR`.
//!
//! The `trace` form runs one full schedule with the flight recorder on
//! (level from `SPDYIER_TRACE`, default `full`) and writes the raw
//! JSONL event stream, the HAR-style waterfall, the per-visit stall
//! attribution table, and the metrics registry to `DIR` — routed
//! through the same scenario runner as `run`, so the directory also
//! gains `result.json`, `junit.xml`, and the stall-table sidecar.
//!
//! The `paired` form is likewise a pre-baked paired-sweep manifest: one
//! `RunResult` JSON line per run (HTTP then SPDY per seed), plus a
//! `.meta.json` schema sidecar next to the dump.
//!
//! The `explain` form extracts each visit's causal critical path from a
//! recorded trace (or re-runs a manifest's cells at `Full` trace level)
//! and writes `explain_<label>.json` / `.txt` — every path's edge
//! durations sum to the visit's PLT by construction. The `diff` form
//! aligns two runs of the same workload by visit identity and
//! attributes the PLT delta edge-by-edge into `diff.json` / `diff.txt`.
//! Both refuse lossy traces (recorder drops) with exit 3.
//!
//! The `profile` form turns the host-side self-profiler on and runs one
//! or more schedules (`--seeds N`, fanned across `SPDYIER_JOBS`
//! workers), writing `profile_<proto>.json` (wall-time / allocations /
//! events-per-second by subsystem), `heartbeat_<proto>.jsonl` (one line
//! per completed cell), and the merged `metrics_<proto>.json` to `DIR`.

use spdyier_core::{
    export_run, metrics_file, write_to_dir, DataFile, NetworkSpec, ProtocolMode, ScenarioExit,
    TraceLevel,
};
use spdyier_experiments::{
    profile_manifest_on, run_by_id, scenario_run, Executor, ExpOpts, ALL_EXPERIMENTS,
};
use spdyier_scenario::{Manifest, ProtocolSpec, Seeds};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Count every allocation the binary makes, so `profile` runs can report
/// allocations per visit and per subsystem (near-zero cost otherwise:
/// two relaxed atomic increments per allocation).
#[global_allocator]
static GLOBAL: spdyier_prof::CountingAlloc = spdyier_prof::CountingAlloc;

/// Every invocation form, leading with its subcommand (or the figure-id
/// placeholder). The one table all usage text is printed from.
const USAGE: &[&str] = &[
    "<id|all> [--seeds N] [--json DIR]",
    "run <MANIFEST.json> [--out DIR] [--seeds N]",
    "sweep <MANIFEST.json> --out DIR [--seeds N] [--stop-after K]",
    "export <http|spdy> <3g|lte|wifi|3g-pinned> <DIR> [--seed N]",
    "trace <http|spdy> <3g|lte|wifi|3g-pinned> <DIR> [--seed N]",
    "paired <3g|lte|wifi|3g-pinned> <FILE> [--seeds N]",
    "explain <trace.jsonl|MANIFEST> [--cell FILTER] [--out DIR]",
    "diff <a.jsonl> <b.jsonl> [--out DIR]",
    "diff <MANIFEST> --a FILTER --b FILTER [--out DIR]",
    "profile <http|spdy> <3g|lte|wifi|3g-pinned> <DIR> [--seed N] [--seeds N]",
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
        eprintln!("ids: {}", ALL_EXPERIMENTS.join(" "));
    }
    std::process::exit(ScenarioExit::ConfigError.code());
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

/// A cell of `cmd`'s manifest exceeded a limit: report it and exit 2.
fn limit_exit(cmd: &str, e: &spdyier_core::RunError) -> ! {
    eprintln!("experiments {cmd}: {e}");
    std::process::exit(ScenarioExit::LimitExceeded.code());
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

/// Create `cmd`'s output directory before anything is simulated, so an
/// unwritable location costs nothing.
fn create_out_dir(cmd: &str, dir: &Path) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        write_error(cmd, dir, &e);
    }
}

/// Parse the shared `<http|spdy> <network> <DIR> [--seed N]` tail.
fn parse_run_args(args: &[String], cmd: &str) -> (ProtocolSpec, NetworkSpec, PathBuf, u64) {
    let [protocol, network, dir] = positional_args(args, &["--seed", "--seeds"])[..] else {
        usage_error(Some(cmd));
    };
    let protocol = ProtocolSpec::parse(protocol)
        .unwrap_or_else(|e| config_error(&format!("experiments {cmd}: protocol: {e}")));
    let network: NetworkSpec = network
        .parse()
        .unwrap_or_else(|e| config_error(&format!("experiments {cmd}: network: {e}")));
    let seed = parse_flag_u64(args, "--seed").unwrap_or(0);
    (protocol, network, PathBuf::from(dir), seed)
}

/// The paper-baseline manifest the legacy single-protocol subcommands
/// (`export`, `trace`, `profile`) are re-expressed as.
fn single_protocol_manifest(
    cmd: &str,
    protocol: ProtocolSpec,
    network: NetworkSpec,
    seeds: Seeds,
    level: TraceLevel,
) -> Manifest {
    let mut manifest = Manifest::paper_baseline(cmd);
    manifest.name = format!(
        "{cmd}_{}_{}",
        protocol.compact().replace(':', "-"),
        network.cli_name()
    );
    manifest.network.kind = network;
    manifest.protocols = vec![protocol];
    manifest.seeds = seeds;
    manifest.trace = level;
    manifest
}

/// `SPDYIER_TRACE`, or `default` when it is unset or `off` (these
/// subcommands exist to record).
fn trace_level_or(default: TraceLevel) -> TraceLevel {
    match TraceLevel::from_env() {
        TraceLevel::Off => default,
        explicit => explicit,
    }
}

fn run_export(args: &[String]) -> ! {
    let (protocol, network, dir, seed) = parse_run_args(args, "export");
    create_out_dir("export", &dir);
    let seeds = Seeds {
        base: seed,
        count: 1,
    };
    let mut manifest =
        single_protocol_manifest("export", protocol, network, seeds, TraceLevel::Off);
    manifest.tcp_traces = true;
    let result = match scenario_run::run_cell(&manifest, &manifest.cells()[0]) {
        Ok((result, _log)) => result,
        Err(e) => limit_exit("export", &e),
    };
    match write_to_dir(&export_run(&result), &dir) {
        Ok(paths) => print_written(&paths),
        Err(e) => write_error("export", &dir, &e),
    }
    std::process::exit(0);
}

fn run_trace(args: &[String]) -> ! {
    let (protocol, network, dir, seed) = parse_run_args(args, "trace");
    create_out_dir("trace", &dir);
    let level = trace_level_or(TraceLevel::Full);
    let seeds = Seeds {
        base: seed,
        count: 1,
    };
    let mut manifest = single_protocol_manifest("trace", protocol, network, seeds, level);
    manifest.outputs.trace_artifacts = true;

    let outputs = scenario_run::execute_folded_on(&Executor::from_env(), &manifest);
    let counters = match &outputs[0] {
        Ok(cell) => &cell.metrics.counters,
        Err(e) => limit_exit("trace", e),
    };
    let dropped = counters["trace.sink_dropped"];
    println!(
        "traced {} on {:?} at {:?}: {} events ({} dropped)",
        protocol.mode.label(),
        network,
        level,
        counters["trace.emitted"] - dropped,
        dropped
    );
    match scenario_run::finish_folded(&manifest, &outputs, &dir) {
        Ok(outcome) => print_written(&outcome.written),
        Err(e) => write_error("trace", &dir, &e),
    }
    std::process::exit(0);
}

/// Run one or more profiled schedules and write the self-observability
/// artifacts: `profile_<proto>.json` (the span/subsystem self-report),
/// `heartbeat_<proto>.jsonl` (one line per completed cell), and
/// `metrics_<proto>.json` (the merged trace metrics registry, which
/// includes `trace.emitted` / `trace.sink_dropped`).
fn run_profile(args: &[String]) -> ! {
    let (protocol, network, dir, seed) = parse_run_args(args, "profile");
    let seeds = parse_seeds(args).unwrap_or(1);
    let level = trace_level_or(TraceLevel::Lifecycle);
    let proto = match protocol.mode {
        ProtocolMode::Http => "http",
        ProtocolMode::Spdy { .. } => "spdy",
    };
    let seed_range = Seeds {
        base: seed,
        count: seeds,
    };
    let manifest = single_protocol_manifest("profile", protocol, network, seed_range, level);

    create_out_dir("profile", &dir);
    let hb_path = dir.join(format!("heartbeat_{proto}.jsonl"));
    let heartbeat: Box<dyn Write + Send> = match std::fs::File::create(&hb_path) {
        Ok(file) => Box::new(file),
        Err(e) => write_error("profile", &hb_path, &e),
    };

    spdyier_prof::set_enabled(true);
    let alloc_before = spdyier_prof::global_counts();
    let sweep = profile_manifest_on(&Executor::from_env(), &manifest, Some(heartbeat))
        .unwrap_or_else(|e| limit_exit("profile", &e));
    let alloc_delta = spdyier_prof::global_counts().since(alloc_before);

    let secs = sweep.wall_ms / 1e3;
    let report = spdyier_prof::SelfReport::assemble(
        format!("{proto} {} seeds={seeds}", network.cli_name()),
        &sweep.profile,
        sweep.wall_ms,
        sweep.telemetry.visits,
        alloc_delta,
        sweep.telemetry.events,
        spdyier_prof::SinkReport {
            emitted: sweep.telemetry.events,
            retained: sweep.retained,
            dropped: sweep.telemetry.trace_dropped,
            events_per_sec: if secs > 0.0 {
                sweep.telemetry.events as f64 / secs
            } else {
                0.0
            },
        },
    );
    spdyier_prof::set_enabled(false);
    let files = vec![
        DataFile {
            name: format!("profile_{proto}.json"),
            contents: report.to_json(),
        },
        metrics_file(proto, &sweep.metrics),
    ];
    let paths = write_to_dir(&files, &dir).unwrap_or_else(|e| write_error("profile", &dir, &e));
    println!(
        "profiled {seeds} cell(s) of {} on {:?} at {:?}: {:.0} ms, {} events ({:.0}/s), {:.0} allocs/visit",
        proto,
        network,
        level,
        sweep.wall_ms,
        sweep.telemetry.events,
        report.events_per_sec,
        report.allocs_per_visit,
    );
    for (name, s) in &report.subsystems {
        println!(
            "  {name:<10} {:>10.1} ms self  {:>12} allocs  {:>8} calls",
            s.self_ns as f64 / 1e6,
            s.allocs,
            s.calls
        );
    }
    println!("wrote {}", hb_path.display());
    print_written(&paths);
    std::process::exit(0);
}

/// Run the paired sweep on one network and dump every `RunResult` as one
/// JSON line (HTTP then SPDY per seed). The output is byte-stable for a
/// given build, which makes it the reference artifact for the CI
/// byte-identity guard: dump before and after a data-plane change and
/// `cmp` the files. A pre-baked paired manifest through the scenario
/// runner's fold, with a `.meta.json` schema sidecar next to the dump.
fn run_paired(args: &[String]) -> ! {
    let [network, file] = positional_args(args, &["--seeds"])[..] else {
        usage_error(Some("paired"));
    };
    let network: NetworkSpec = network
        .parse()
        .unwrap_or_else(|e| config_error(&format!("experiments paired: network: {e}")));
    let seeds = parse_seeds(args).unwrap_or(ExpOpts::default().seeds);

    let mut manifest = Manifest::paper_baseline("paired");
    manifest.name = format!("paired_{}", network.cli_name());
    manifest.network.kind = network;
    manifest.seeds = Seeds {
        base: 0,
        count: seeds,
    };
    manifest.tcp_traces = true;
    manifest.outputs.paired_dump = true;

    let mut out = String::new();
    for cell in scenario_run::execute_folded_on(&Executor::from_env(), &manifest) {
        match cell {
            Ok(cell) => {
                out.push_str(&cell.dump_line.expect("manifest requests the paired dump"));
                out.push('\n');
            }
            Err(e) => limit_exit("paired", &e),
        }
    }

    let path = PathBuf::from(file);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create dump dir");
        }
    }
    std::fs::write(&path, &out).expect("write paired dump");
    let dump_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "paired.jsonl".to_string());
    let keys = spdyier_core::contract::json_line_keys(out.lines().next().unwrap_or_default());
    let meta = spdyier_core::paired_meta_file(&dump_name, network.cli_name(), seeds, &keys);
    let meta_path = path.with_file_name(&meta.name);
    std::fs::write(&meta_path, &meta.contents).expect("write paired dump sidecar");
    println!("wrote {} ({} pairs)", path.display(), seeds);
    println!("wrote {}", meta_path.display());
    std::process::exit(0);
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

/// `experiments explain <trace.jsonl|MANIFEST> [--cell FILTER] [--out DIR]`.
fn run_explain(args: &[String]) -> ! {
    let [input] = positional_args(args, &["--cell", "--out"])[..] else {
        usage_error(Some("explain"));
    };
    let cell = parse_flag_str(args, "--cell");
    let out = parse_flag_str(args, "--out").unwrap_or_else(|| "results/explain".into());
    let result =
        spdyier_experiments::causal_explain(Path::new(input), cell.as_deref(), Path::new(&out));
    finish_causal("explain", result)
}

/// `experiments diff <a.jsonl> <b.jsonl> | <MANIFEST> --a F --b F [--out DIR]`.
fn run_diff(args: &[String]) -> ! {
    let positional = positional_args(args, &["--a", "--b", "--out"]);
    let a_filter = parse_flag_str(args, "--a");
    let b_filter = parse_flag_str(args, "--b");
    let out = parse_flag_str(args, "--out").unwrap_or_else(|| "results/diff".into());
    let result = match (&positional[..], &a_filter, &b_filter) {
        ([a, b], None, None) => spdyier_experiments::causal_diff(
            Some(Path::new(a)),
            Some(Path::new(b)),
            None,
            None,
            None,
            Path::new(&out),
        ),
        ([manifest], Some(a), Some(b)) => spdyier_experiments::causal_diff(
            None,
            None,
            Some(Path::new(manifest)),
            Some(a),
            Some(b),
            Path::new(&out),
        ),
        _ => usage_error(Some("diff")),
    };
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
        ids = ALL_EXPERIMENTS.to_vec();
    }
    if let Some(id) = ids.iter().find(|id| !ALL_EXPERIMENTS.contains(id)) {
        config_error(&format!(
            "unknown experiment id: {id}\nids: {}",
            ALL_EXPERIMENTS.join(" ")
        ));
    }
    if let Some(dir) = &json_dir {
        create_out_dir("--json", dir);
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
        "export" => run_export(&args[1..]),
        "trace" => run_trace(&args[1..]),
        "profile" => run_profile(&args[1..]),
        "paired" => run_paired(&args[1..]),
        "explain" => run_explain(&args[1..]),
        "diff" => run_diff(&args[1..]),
        _ => run_figures(&args),
    }
}
