//! Every byte-identity pin, checked against one table: `tests/pins.tsv`.
//!
//! Each row of the table pins one output: the scenario file under
//! `scenarios/`, the command that writes the output, the output's name
//! and its digest. Every (scenario, command) pair runs in-process into a
//! fresh directory, and every row is checked against what it wrote.
//! There are six commands:
//!
//! - `run`: the scenario's `result.json`, `junit.xml` and its `outputs`;
//! - `sweep`: the same contract from the checkpointed runner, plus its
//!   store;
//! - `explain`: every cell's critical-path rendering;
//! - `diff A B`: the two named cells' PLT delta, edge by edge;
//! - `registry`: the first seed's HTTP and SPDY cells, run at `full`
//!   trace, each writing its `metrics_<protocol>.json`;
//! - `decode`: the decoded manifest, as `Debug` (its `{:?}` text) and
//!   `manifest_digest` (the CRC-32 a checkpoint store's header carries,
//!   so an older store still resumes).
//!
//! The four commands that fan cells across a pool (`run`, `sweep`,
//! `explain` and `diff`) run twice, on one worker and on three, into
//! separate directories, and every row is checked against both: an
//! output that depends on the pool width fails its row at width 3. One
//! row is checked at width 1 alone: `sweep_store.jsonl[2..]`, the
//! store's cell lines, which each worker appends as its cell completes,
//! so their order is the schedule's. The store's header, and the
//! `result.json` and `junit.xml` folded from it, are checked at both.
//! `registry` and `decode` run no pool and run once.
//!
//! A digest is the FNV-1a of the output's bytes, except for
//! `manifest_digest`, whose digest is the CRC-32 itself. `file[N]` pins
//! line N of `file` alone and `file[N..]` pins line N and every line
//! after it, each line with its newline; lines count from 1.
//!
//! Coverage is checked too: every committed scenario has a test below, a
//! `decode` pair and a `result.json` and `junit.xml` row; every file a
//! command writes has a row; every row names a file that was written.
//!
//! A refactor or a performance change leaves the table alone. A
//! deliberate behaviour change edits the rows it moves, in the same
//! commit, and names each `old → new`: a failure prints exactly those
//! lines. The test never writes the table.

use spdyier::core::{metrics_file, write_to_dir, TraceLevel};
use spdyier::experiments::sweep::{manifest_digest, SWEEP_HEARTBEAT_NAME};
use spdyier::experiments::{
    causal_diff, causal_explain, run_cell, run_manifest_on, run_sweep_on, Executor, SweepOptions,
    SweepOutcome,
};
use spdyier::scenario::Manifest;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::Path;

/// The one file a command writes that no row pins: a sweep's heartbeats
/// hold host wall time, which differs from run to run.
const HOST_TIMED: &str = SWEEP_HEARTBEAT_NAME;

/// The pool widths a pooled command runs at: serial, and wider than the
/// two cells of a paired scenario.
const WIDTHS: [usize; 2] = [1, 3];

/// The one output checked at width 1 alone: a sweep store's cell lines,
/// in the order their cells completed.
const COMPLETION_ORDERED: &str = "sweep_store.jsonl[2..]";

/// What the table's `command` column names.
enum Command<'a> {
    Run,
    Sweep,
    Explain,
    Diff(&'a str, &'a str),
    Registry,
    Decode,
}

impl Command<'_> {
    fn parse(text: &str) -> Option<Command<'_>> {
        Some(match text.split(' ').collect::<Vec<_>>()[..] {
            ["run"] => Command::Run,
            ["sweep"] => Command::Sweep,
            ["explain"] => Command::Explain,
            ["diff", a, b] => Command::Diff(a, b),
            ["registry"] => Command::Registry,
            ["decode"] => Command::Decode,
            _ => return None,
        })
    }

    /// The pool widths the command runs at: one for the commands that
    /// run no pool.
    fn widths(&self) -> &'static [usize] {
        match self {
            Command::Registry | Command::Decode => &WIDTHS[..1],
            _ => &WIDTHS,
        }
    }

    /// Run the command on the committed `scenario` into `dir`, on
    /// `exec` if it runs a pool; `dir` holds nothing else afterwards.
    fn write(&self, exec: &Executor, scenario: &Path, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        let manifest = || Manifest::from_file(scenario).expect("a committed scenario decodes");
        match *self {
            Command::Run => {
                run_manifest_on(exec, &manifest(), dir).expect("run writes");
            }
            Command::Sweep => {
                let outcome = run_sweep_on(exec, &manifest(), dir, SweepOptions::default())
                    .expect("sweep writes");
                assert!(
                    matches!(outcome, SweepOutcome::Completed(_)),
                    "sweep completes"
                );
            }
            Command::Explain => {
                causal_explain(exec, scenario, None, dir).expect("explain writes");
            }
            Command::Diff(a, b) => {
                causal_diff(exec, scenario, a, b, dir).expect("diff writes");
            }
            Command::Registry => {
                let mut manifest = manifest();
                manifest.trace = TraceLevel::Full;
                let cells = manifest.cells();
                for protocol in ["http", "spdy"] {
                    let cell = cells
                        .iter()
                        .find(|c| c.seed == manifest.seeds.base && c.protocol.compact() == protocol)
                        .expect("the scenario runs both protocols");
                    let (_, traced) = run_cell(&manifest, cell).expect("within the event budget");
                    let log = traced.expect("a full-trace cell is traced").log;
                    write_to_dir(&[metrics_file(protocol, &log.metrics)], dir)
                        .expect("registry writes");
                }
            }
            Command::Decode => {
                let manifest = manifest();
                std::fs::create_dir_all(dir).expect("decode dir");
                std::fs::write(dir.join("Debug"), format!("{manifest:?}")).expect("writes");
                std::fs::write(dir.join("manifest_digest"), manifest_digest(&manifest))
                    .expect("writes");
            }
        }
    }
}

/// One row of the table.
#[derive(Debug)]
struct Pin {
    /// 1-based line in the table.
    line: usize,
    scenario: String,
    command: String,
    output: String,
    digest: u64,
}

/// An output's file and the 0-based line range of it that is pinned
/// (all of it when `None`).
fn split_output(output: &str) -> Result<(&str, Option<Range<usize>>), String> {
    let Some((file, part)) = output.split_once('[') else {
        return Ok((output, None));
    };
    let bad = || format!("output {output:?}: a part is [N] or [N..], N from 1");
    let part = part.strip_suffix(']').ok_or_else(bad)?;
    let (first, to_end) = match part.strip_suffix("..") {
        Some(first) => (first, true),
        None => (part, false),
    };
    let first: usize = first.parse().ok().filter(|&n| n >= 1).ok_or_else(bad)?;
    let end = if to_end { usize::MAX } else { first };
    Ok((file, Some(first - 1..end)))
}

fn parse_row(line: usize, row: &str) -> Result<Pin, String> {
    let [scenario, command, output, digest] = row.split('\t').collect::<Vec<_>>()[..] else {
        return Err("a row is scenario, command, output and digest, tab-separated".into());
    };
    Command::parse(command).ok_or_else(|| format!("unknown command {command:?}"))?;
    split_output(output)?;
    let digest = digest
        .strip_prefix("0x")
        .filter(|hex| hex.len() == 16)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| format!("digest {digest:?} is not 0x and 16 hex digits"))?;
    Ok(Pin {
        line,
        scenario: scenario.into(),
        command: command.into(),
        output: output.into(),
        digest,
    })
}

/// The rows of `text` (`path` names it in errors). Blank lines and lines
/// starting with `#` are skipped. Panics naming the line of every bad
/// row: wrong column count, unknown command, bad output part, a digest
/// that is not `0x` and 16 hex digits, or a repeated (scenario, command,
/// output).
fn parse_pins(path: &str, text: &str) -> Vec<Pin> {
    let (mut pins, mut errors, mut seen) = (Vec::new(), Vec::new(), BTreeMap::new());
    for (line, row) in (1..).zip(text.lines()) {
        if row.trim().is_empty() || row.starts_with('#') {
            continue;
        }
        match parse_row(line, row) {
            Err(e) => errors.push(format!("{path}:{line}: {e}")),
            // Everything before the digest column names the output.
            Ok(pin) => match seen.insert(row.rsplit_once('\t').map(|(key, _)| key), line) {
                Some(first) => {
                    errors.push(format!("{path}:{line}: repeats the row on line {first}"))
                }
                None => pins.push(pin),
            },
        }
    }
    assert!(errors.is_empty(), "bad rows:\n{}", errors.join("\n"));
    pins
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The digest of `output` as written under `dir`, or `None` if its file
/// was not written.
fn digest(dir: &Path, output: &str) -> Option<u64> {
    let (file, lines) = split_output(output).expect("validated at load");
    let bytes = std::fs::read(dir.join(file)).ok()?;
    if file == "manifest_digest" {
        let crc = String::from_utf8(bytes).expect("hex text");
        return Some(u64::from_str_radix(&crc, 16).expect("manifest_digest is hex"));
    }
    let Some(lines) = lines else {
        return Some(fnv1a(&bytes));
    };
    let part: Vec<u8> = (bytes.split_inclusive(|&b| b == b'\n'))
        .skip(lines.start)
        .take(lines.len())
        .flatten()
        .copied()
        .collect();
    Some(fnv1a(&part))
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn table() -> Vec<Pin> {
    let path = repo().join("tests/pins.tsv");
    let text = std::fs::read_to_string(&path).expect("tests/pins.tsv reads");
    parse_pins("tests/pins.tsv", &text)
}

/// The names of the files in `dir`, sorted.
fn list(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    names
}

/// Run every command the table names for `scenario`, at each of its
/// widths, and check each of its rows, and that each file written has a
/// row. Panics listing every difference: a changed row as `old → new`
/// (naming the width of a pooled command), a file without a row as the
/// row to add, a row whose file was not written.
fn check(scenario: &str) {
    let pins = table();
    let mut by_command: BTreeMap<&str, Vec<&Pin>> = BTreeMap::new();
    for pin in pins.iter().filter(|p| p.scenario == scenario) {
        by_command.entry(&pin.command).or_default().push(pin);
    }
    let path = repo().join("scenarios").join(scenario);
    let mut problems = Vec::new();
    for (command, rows) in by_command {
        let pinned: BTreeSet<&str> = rows
            .iter()
            .map(|p| split_output(&p.output).expect("validated at load").0)
            .collect();
        let parsed = Command::parse(command).expect("validated at load");
        let widths = parsed.widths();
        for &jobs in widths {
            let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
                .join("pins")
                .join(scenario)
                .join(command)
                .join(format!("jobs{jobs}"));
            parsed.write(&Executor::new(jobs), &path, &dir);
            let width = match widths.len() {
                1 => String::new(),
                _ => format!(" at width {jobs}"),
            };
            for pin in &rows {
                if jobs > 1 && pin.output == COMPLETION_ORDERED {
                    continue;
                }
                let at = format!(
                    "tests/pins.tsv:{}: {scenario} {command} {}{width}",
                    pin.line, pin.output
                );
                match digest(&dir, &pin.output) {
                    Some(new) if new == pin.digest => {}
                    Some(new) => problems.push(format!("{at}: {:#018x} → {new:#018x}", pin.digest)),
                    None => problems.push(format!("{at}: not written")),
                }
            }
            for file in list(&dir) {
                if file != HOST_TIMED && !pinned.contains(file.as_str()) {
                    let new = digest(&dir, &file).expect("just listed");
                    let row = format!("no row: {scenario}\t{command}\t{file}\t{new:#018x}");
                    if !problems.contains(&row) {
                        problems.push(row);
                    }
                }
            }
        }
    }
    assert!(
        problems.is_empty(),
        "{scenario} no longer writes what tests/pins.tsv pins:\n{}",
        problems.join("\n")
    );
}

macro_rules! scenario_tests {
    ($($name:ident),* $(,)?) => {
        /// The scenario files that have a test below.
        const TESTED: &[&str] = &[$(concat!(stringify!($name), ".json")),*];
        $(
            #[test]
            fn $name() {
                check(concat!(stringify!($name), ".json"));
            }
        )*
    };
}

scenario_tests!(
    bulk_lte_small,
    export_spdy_3g,
    mitigation_matrix_3g,
    paired_3g,
    paired_lte,
    population_wifi,
    quick_wifi,
    synthetic_50obj,
    trace_spdy_3g,
);

#[test]
fn every_scenario_has_a_test_and_its_contract_rows() {
    let committed: Vec<String> = list(&repo().join("scenarios"))
        .into_iter()
        .filter(|name| name.ends_with(".json"))
        .collect();
    let pins = table();
    let mut missing = Vec::new();
    for scenario in &committed {
        if !TESTED.contains(&scenario.as_str()) {
            missing.push(format!("{scenario}: no test in tests/pins.rs"));
        }
        for (commands, output) in [
            (&["decode"][..], "Debug"),
            (&["decode"], "manifest_digest"),
            (&["run", "sweep"], "result.json"),
            (&["run", "sweep"], "junit.xml"),
        ] {
            let has = |p: &Pin| {
                &p.scenario == scenario
                    && commands.contains(&p.command.as_str())
                    && p.output == output
            };
            if !pins.iter().any(has) {
                missing.push(format!(
                    "{scenario}: no {} row for {output}",
                    commands.join("/")
                ));
            }
        }
    }
    for pin in pins.iter().filter(|p| !committed.contains(&p.scenario)) {
        missing.push(format!(
            "tests/pins.tsv:{}: no scenarios/{}",
            pin.line, pin.scenario
        ));
    }
    assert!(
        missing.is_empty(),
        "pin table gaps:\n{}",
        missing.join("\n")
    );
}

#[test]
fn a_bad_row_is_refused_with_its_line() {
    let text = "# scenario\tcommand\toutput\tdigest\n\
                quick_wifi.json\trun\tresult.json\t0x0031f90ba9a046cg\n\
                quick_wifi.json\trerun\tresult.json\t0x0031f90ba9a046c4\n\
                quick_wifi.json\trun\tjunit.xml\t0x0000000000000001\n\
                quick_wifi.json\trun\tjunit.xml\t0x0000000000000002\n";
    let message = std::panic::catch_unwind(|| parse_pins("bad.tsv", text))
        .expect_err("three bad rows")
        .downcast::<String>()
        .expect("a formatted message");
    for needle in [
        "bad.tsv:2: digest \"0x0031f90ba9a046cg\"",
        "bad.tsv:3: unknown command \"rerun\"",
        "bad.tsv:5: repeats the row on line 4",
    ] {
        assert!(message.contains(needle), "{needle:?} not in {message}");
    }
}
