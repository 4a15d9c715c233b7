//! The layered benchmark of the SPDY testbed, measured from outside.
//!
//! End to end, the harness spawns the released `experiments` CLI on
//! manifests it generates from `--seed` and accounts for each child
//! exactly (`wait4`). Per layer, it times calls into each crate's public
//! functions in-process. `BENCHMARK.json` declares every metric; see
//! `benchmark/README.md` for what each one times.
//!
//! ```text
//! spdyier-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! spdyier-benchmark --seed N --out FILE [--aa] [--smoke]
//! ```
//!
//! The first form measures one workload and prints one JSON object as its
//! last line (`--trace 0`: the end-to-end metrics, `--trace 1`: the
//! per-layer ones). The second runs everything — repetitions of the four
//! workloads interleaved, then every per-layer pass — and writes one
//! schema-versioned ledger; `--aa` does it twice and compares the two.
//! `benchmark/run.sh` builds both binaries and forwards its arguments.

mod child;
mod declared;
mod drivers;
mod e2e;
mod layers;
mod report;
mod spans;
mod stats;
mod traced;
mod workloads;

use declared::Declared;
use drivers::Effort;
use e2e::{measure_end_to_end, Ctx, Reps};
use layers::{measure_layers, SweepRun};
use report::{
    compare_sets, print_end_to_end, print_failures, print_layers, print_result_line,
    print_substrate_note, render, report_ledger, score_end_to_end, score_layers, value_and_unit,
    Ledger,
};
use serde_json::Value;
use std::path::PathBuf;
use std::time::Duration;
use workloads::{Size, Subcommand, Workload, WORKLOADS};

/// The in-process passes report allocations, so the harness counts them
/// the same way the `experiments` binary does.
#[global_allocator]
static GLOBAL: spdyier_prof::CountingAlloc = spdyier_prof::CountingAlloc;

/// Interleaved repetitions per workload in a ledger run.
const LEDGER_REPS: usize = 5;
/// Each substrate driver runs for this share of `--seconds`.
const DRIVER_SHARE: f64 = 1.0 / 50.0;
/// `--seconds` of a ledger run (the `run_seconds` of `BENCHMARK.json`).
const LEDGER_SECONDS: f64 = 15.0;

#[derive(Debug, Default)]
struct Args {
    root: PathBuf,
    target_dir: Option<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    aa: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        ..Args::default()
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag}: expected a value"));
        match flag.as_str() {
            "--root" => args.root = value()?.into(),
            "--target-dir" => args.target_dir = Some(value()?.into()),
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not an integer: {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds: must be positive, got {v}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seed.checked_add(10_000).is_none() {
        return Err("--seed: too large to base a seed range on".into());
    }
    Ok(args)
}

fn substrate_effort(seconds: f64, smoke: bool) -> Effort {
    if smoke {
        Effort::OneBatch
    } else {
        Effort::AtLeast(Duration::from_secs_f64(seconds * DRIVER_SHARE))
    }
}

/// `--workload W --seed N --seconds S --trace T`: one workload, one
/// result line.
fn run_one(args: &Args, ctx: &Ctx, declared: &Declared, name: &str) -> Result<bool, String> {
    let w = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("--workload: unknown {name:?} (known: {})", known.join(", "))
    })?;
    let seconds = args.seconds.unwrap_or(LEDGER_SECONDS);
    let size = |full| if args.smoke { Size::Smoke } else { full };
    let mut failures = Vec::new();

    if !args.trace {
        let reps = if args.smoke {
            Reps::Exactly(1)
        } else {
            Reps::For(Duration::from_secs_f64(seconds))
        };
        let set = measure_end_to_end(ctx, &[w], args.seed, size(Size::EndToEnd), reps, true)?;
        let run = &set.runs[0];
        failures.extend(run.failures.iter().cloned());
        let scored = score_end_to_end(declared, run, &set, &mut failures);
        print_end_to_end(w.name, run, &scored);
        if let Some(rep) = run.reps.first() {
            println!("# {}: sim_digest {:016x}", w.name, rep.sim_digest);
        }
        print_failures(w.name, &failures);
        let correct = failures.is_empty();
        let metrics = scored
            .iter()
            .map(|s| {
                (
                    s.metric.name.clone(),
                    value_and_unit(s.summary.median, &s.metric.unit),
                )
            })
            .collect();
        print_result_line(correct, run.attempted(), run.failed(), metrics);
        return Ok(correct);
    }

    // Measured children first, while this process is still small.
    let sweep = if w.subcommand == Subcommand::Sweep {
        let set = measure_end_to_end(
            ctx,
            &[w],
            args.seed,
            size(Size::EndToEnd),
            Reps::Exactly(1),
            false,
        )?;
        failures.extend(set.runs[0].failures.iter().cloned());
        SweepRun::of(&set.runs[0])
    } else {
        None
    };
    let substrate = drivers::run_all(substrate_effort(seconds, args.smoke));
    let layers = measure_layers(
        ctx,
        w,
        args.seed,
        size(Size::Traced),
        sweep.as_ref(),
        &substrate,
    )?;
    failures.extend(layers.failures.iter().cloned());
    let scored = score_layers(declared, &layers, &mut failures);
    print_layers(w.name, &scored, &layers);
    print_substrate_note(&substrate);
    print_failures(w.name, &failures);
    let correct = failures.is_empty();
    let metrics = scored
        .iter()
        .map(|(m, v)| (m.name.clone(), value_and_unit(*v, &m.unit)))
        .collect();
    print_result_line(correct, layers.cells, layers.failures.len() as u64, metrics);
    Ok(correct)
}

/// `--seed N --out FILE [--aa] [--smoke]`: the whole ledger.
fn run_ledger(args: &Args, ctx: &Ctx, declared: &Declared) -> Result<bool, String> {
    let all: Vec<&'static Workload> = WORKLOADS.iter().collect();
    let (e2e_size, traced_size, reps) = if args.smoke {
        (Size::Smoke, Size::Smoke, Reps::Exactly(1))
    } else {
        (Size::EndToEnd, Size::Traced, Reps::Exactly(LEDGER_REPS))
    };
    let sets = if args.aa { 2 } else { 1 };

    // One untimed repetition first: a host that has sat idle runs its
    // first seconds up to 60% slow, and that would land on round one.
    measure_end_to_end(ctx, &all[..1], args.seed, e2e_size, Reps::Exactly(1), false)?;

    // Every measured child of every set runs before any in-process pass:
    // the passes grow this process, and a child's peak RSS cannot read
    // below its parent's.
    let mut measured = Vec::new();
    for _ in 0..sets {
        measured.push(measure_end_to_end(
            ctx, &all, args.seed, e2e_size, reps, true,
        )?);
    }
    let mut ledgers = Vec::new();
    for end_to_end in measured {
        let substrate = drivers::run_all(substrate_effort(LEDGER_SECONDS, args.smoke));
        let mut layers = Vec::new();
        for run in &end_to_end.runs {
            let sweep = SweepRun::of(run);
            layers.push(measure_layers(
                ctx,
                run.workload,
                args.seed,
                traced_size,
                sweep.as_ref(),
                &substrate,
            )?);
        }
        ledgers.push(Ledger {
            end_to_end,
            layers,
            substrate,
        });
    }

    let (mut doc, mut correct) =
        report_ledger(&args.root, args.seed, args.smoke, declared, &ledgers[0]);
    if let [a, b] = &ledgers[..] {
        println!("# second set");
        let (_, correct_b) = report_ledger(&args.root, args.seed, args.smoke, declared, b);
        let (aa, agree) = compare_sets(declared, a, b);
        correct &= correct_b && agree;
        if let Value::Object(entries) = &mut doc {
            entries.push(("aa".into(), aa));
        }
    }
    if let Some(out) = &args.out {
        std::fs::write(out, render(&doc, true) + "\n")
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }
    Ok(correct)
}

fn run(args: &Args) -> Result<bool, String> {
    let declared = Declared::load(&args.root.join("BENCHMARK.json"))?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if declared.workloads != names {
        return Err(format!(
            "BENCHMARK.json declares workloads {:?}, the harness has {names:?}",
            declared.workloads
        ));
    }
    let target_dir = args
        .target_dir
        .clone()
        .unwrap_or_else(|| args.root.join("target"));
    let kept = target_dir.join("spdyier-benchmark");
    let ctx = Ctx {
        experiments: target_dir.join("release/experiments"),
        work: kept.join(format!("run-{}", std::process::id())),
        kept,
    };
    if !ctx.experiments.is_file() {
        return Err(format!(
            "{} is not built; benchmark/run.sh builds it",
            ctx.experiments.display()
        ));
    }
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let outcome = match &args.workload {
        Some(name) => run_one(args, &ctx, &declared, name),
        None => run_ledger(args, &ctx, &declared),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome
}

fn main() {
    // The in-process passes must run what the children run.
    std::env::remove_var("SPDYIER_TRACE");
    std::env::remove_var("SPDYIER_MATERIALIZE_BODIES");
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("spdyier-benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}
