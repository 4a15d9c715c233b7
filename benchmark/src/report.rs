//! Scoring against the declaration, printing, and the ledger document.

use crate::declared::{check_names, Declared, Metric};
use crate::drivers::Substrate;
use crate::e2e::{EndToEnd, EndToEndSet};
use crate::layers::Layers;
use crate::stats::{worsening, Summary};
use serde_json::Value;
use std::path::Path;

const LEDGER_SCHEMA_VERSION: u64 = 1;

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn render(v: &Value, pretty: bool) -> String {
    if pretty {
        serde_json::to_string_pretty(v)
    } else {
        serde_json::to_string(v)
    }
    .expect("rendering a value tree cannot fail")
}

/// One end-to-end metric of one workload, as the ledger keeps it.
#[derive(Debug, Clone)]
pub struct Scored {
    pub metric: Metric,
    pub summary: Summary,
}

impl Scored {
    fn unstable(&self) -> bool {
        self.summary.spread() > self.metric.bound.unwrap_or(f64::INFINITY)
    }

    fn to_value(&self) -> Value {
        obj(vec![
            ("unit", Value::Str(self.metric.unit.clone())),
            ("min", Value::F64(self.summary.min)),
            ("median", Value::F64(self.summary.median)),
            ("max", Value::F64(self.summary.max)),
            ("n", Value::U64(self.summary.n as u64)),
            ("unstable", Value::Bool(self.unstable())),
        ])
    }
}

/// Score one workload's repetitions against the declaration; a problem
/// with the names is a failure of the run.
pub fn score_end_to_end(
    declared: &Declared,
    run: &EndToEnd,
    set: &EndToEndSet,
    failures: &mut Vec<String>,
) -> Vec<Scored> {
    let mut samples = run.samples();
    samples.push(("setup_s", set.quiet_setup_s()));
    let names: Vec<&str> = samples.iter().map(|(n, _)| *n).collect();
    failures.extend(check_names(&declared.end_to_end, &names));
    let mut scored = Vec::new();
    for (name, values) in samples {
        let Some(metric) = declared.end_to_end.iter().find(|m| m.name == name) else {
            continue;
        };
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            failures.push(format!("{name}: no finite samples"));
            continue;
        }
        scored.push(Scored {
            metric: metric.clone(),
            summary: Summary::of(&values),
        });
    }
    scored
}

pub fn print_end_to_end(workload: &str, run: &EndToEnd, scored: &[Scored]) {
    let walls: Vec<String> = run
        .reps
        .iter()
        .map(|r| format!("{:.3}", r.usage.wall_s))
        .collect();
    println!(
        "# {workload}: scored over the {} fastest of {} repetitions (wall_s {})",
        run.quiet_reps().len(),
        run.reps.len(),
        walls.join(" ")
    );
    for s in scored {
        println!(
            "{workload} {} = {} {} (min {} max {} n={}{})",
            s.metric.name,
            s.summary.median,
            s.metric.unit,
            s.summary.min,
            s.summary.max,
            s.summary.n,
            if s.unstable() { " UNSTABLE" } else { "" }
        );
    }
}

/// Pair the per-layer values with their declared units; names that do
/// not match the declaration are failures.
pub fn score_layers(
    declared: &Declared,
    layers: &Layers,
    failures: &mut Vec<String>,
) -> Vec<(Metric, f64)> {
    let names: Vec<&str> = layers.values.iter().map(|(n, _)| n.as_str()).collect();
    failures.extend(check_names(&declared.per_layer, &names));
    let mut scored = Vec::new();
    for metric in &declared.per_layer {
        match layers.get(&metric.name) {
            Some(v) if v.is_finite() => scored.push((metric.clone(), v)),
            Some(v) => failures.push(format!("{}: not finite ({v})", metric.name)),
            None => {}
        }
    }
    scored
}

pub fn print_layers(workload: &str, scored: &[(Metric, f64)], layers: &Layers) {
    for (metric, value) in scored {
        println!("{workload} {} = {value} {}", metric.name, metric.unit);
    }
    for note in &layers.notes {
        println!("# {workload}: {note}");
    }
}

pub fn print_failures(workload: &str, failures: &[String]) {
    for f in failures {
        println!("FAILED {workload}: {f}");
    }
}

/// The contract's last line: one JSON object on one line.
pub fn print_result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) {
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted.max(1))),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", render(&line, false));
}

pub fn value_and_unit(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::F64(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

pub fn print_substrate_note(substrate: &Substrate) {
    println!(
        "# the drivers' measuring loop itself costs {:.3} ns per operation",
        substrate.empty_loop_ns_per_op
    );
}

/// Everything one ledger holds.
pub struct Ledger {
    pub end_to_end: EndToEndSet,
    pub layers: Vec<Layers>,
    pub substrate: Substrate,
}

fn git_commit(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// Print a ledger's every metric and return its JSON and whether every
/// check passed.
pub fn report_ledger(
    root: &Path,
    seed: u64,
    smoke: bool,
    declared: &Declared,
    ledger: &Ledger,
) -> (Value, bool) {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (run, layers) in ledger.end_to_end.runs.iter().zip(&ledger.layers) {
        let name = run.workload.name;
        let mut failures = run.failures.clone();
        failures.extend(layers.failures.iter().cloned());
        let e2e = score_end_to_end(declared, run, &ledger.end_to_end, &mut failures);
        let per_layer = score_layers(declared, layers, &mut failures);
        print_end_to_end(name, run, &e2e);
        println!(
            "{name} cells_attempted = {} cells_failed = {}",
            run.attempted(),
            run.failed()
        );
        let digest = run.reps.first().map_or(0, |r| r.sim_digest);
        println!("{name} sim_digest = {digest:016x}");
        print_layers(name, &per_layer, layers);
        for s in e2e.iter().filter(|s| s.unstable()) {
            println!(
                "# {name}: {} is UNSTABLE: its reps span {:.1}% of the median, its bound is {:.1}%",
                s.metric.name,
                100.0 * s.summary.spread(),
                100.0 * s.metric.bound.unwrap_or(0.0)
            );
        }
        print_failures(name, &failures);
        all_correct &= failures.is_empty();
        workloads.push((
            name.to_string(),
            obj(vec![
                (
                    "subcommand",
                    Value::Str(run.workload.subcommand.name().into()),
                ),
                ("cells", Value::U64(run.cells)),
                ("visits", Value::U64(run.visits)),
                ("cells_attempted", Value::U64(run.attempted())),
                ("cells_failed", Value::U64(run.failed())),
                ("sim_digest", Value::Str(format!("{digest:016x}"))),
                (
                    "reps_wall_s",
                    Value::Array(
                        run.reps
                            .iter()
                            .map(|r| Value::F64(r.usage.wall_s))
                            .collect(),
                    ),
                ),
                (
                    "end_to_end",
                    Value::Object(
                        e2e.iter()
                            .map(|s| (s.metric.name.clone(), s.to_value()))
                            .collect(),
                    ),
                ),
                (
                    "per_layer",
                    Value::Object(
                        per_layer
                            .iter()
                            .map(|(m, v)| (m.name.clone(), value_and_unit(*v, &m.unit)))
                            .collect(),
                    ),
                ),
                (
                    "notes",
                    Value::Array(layers.notes.iter().cloned().map(Value::Str).collect()),
                ),
                (
                    "failures",
                    Value::Array(failures.into_iter().map(Value::Str).collect()),
                ),
            ]),
        ));
    }
    print_substrate_note(&ledger.substrate);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let doc = obj(vec![
        ("schema_version", Value::U64(LEDGER_SCHEMA_VERSION)),
        ("kind", Value::Str("spdyier_benchmark_ledger".into())),
        ("commit", Value::Str(git_commit(root))),
        ("nproc", Value::U64(nproc)),
        ("seed", Value::U64(seed)),
        ("smoke", Value::Bool(smoke)),
        ("correct", Value::Bool(all_correct)),
        (
            "drivers_empty_loop_ns_per_op",
            Value::F64(ledger.substrate.empty_loop_ns_per_op),
        ),
        ("workloads", Value::Object(workloads)),
    ]);
    (doc, all_correct)
}

/// Compare two ledgers of the same code: each end-to-end median may
/// differ by no more than its bound, every exact count must repeat, and
/// allocations per visit within 0.1%.
pub fn compare_sets(declared: &Declared, a: &Ledger, b: &Ledger) -> (Value, bool) {
    let mut agree = true;
    let mut rows = Vec::new();
    for (((run_a, run_b), layers_a), layers_b) in a
        .end_to_end
        .runs
        .iter()
        .zip(&b.end_to_end.runs)
        .zip(&a.layers)
        .zip(&b.layers)
    {
        let name = run_a.workload.name;
        let mut sink = Vec::new();
        let scored_a = score_end_to_end(declared, run_a, &a.end_to_end, &mut sink);
        let scored_b = score_end_to_end(declared, run_b, &b.end_to_end, &mut sink);
        for (sa, sb) in scored_a.iter().zip(&scored_b) {
            let bound = sa.metric.bound.unwrap_or(0.0);
            let diff = worsening(
                sa.summary.median,
                sb.summary.median,
                sa.metric.lower_is_better,
            );
            let ok = diff.abs() <= bound;
            agree &= ok;
            println!(
                "aa {name} {}: A {} B {} {} -> {:+.2}% of a {:.0}% bound{}",
                sa.metric.name,
                sa.summary.median,
                sb.summary.median,
                sa.metric.unit,
                100.0 * diff,
                100.0 * bound,
                if ok { "" } else { " EXCEEDED" }
            );
            rows.push(obj(vec![
                ("workload", Value::Str(name.into())),
                ("metric", Value::Str(sa.metric.name.clone())),
                ("a", Value::F64(sa.summary.median)),
                ("b", Value::F64(sb.summary.median)),
                ("worsening", Value::F64(diff)),
                ("bound", Value::F64(bound)),
                ("within_bound", Value::Bool(ok)),
            ]));
        }
        let digests = |run: &EndToEnd| run.reps.first().map(|r| r.sim_digest);
        if digests(run_a) != digests(run_b) {
            agree = false;
            println!("aa {name} sim_digest differs between the sets");
        }
        for (metric, va) in &layers_a.values {
            let vb = layers_b.get(metric).unwrap_or(f64::NAN);
            let exact = metric.ends_with("_per_visit") && metric != "core.allocs_per_visit"
                || metric == "spdy.compress.ratio"
                || metric == "trace.cells"
                || metric == "trace.visits";
            let ok = if exact {
                *va == vb
            } else if metric == "core.allocs_per_visit" {
                ((vb - va) / va).abs() <= 1e-3
            } else {
                continue;
            };
            if !ok {
                agree = false;
                println!("aa {name} {metric}: A {va} B {vb} must repeat and does not");
            }
        }
    }
    println!(
        "aa: the two sets {}",
        if agree {
            "agree within every bound"
        } else {
            "DISAGREE"
        }
    );
    (
        obj(vec![
            ("agree", Value::Bool(agree)),
            ("end_to_end", Value::Array(rows)),
        ]),
        agree,
    )
}
