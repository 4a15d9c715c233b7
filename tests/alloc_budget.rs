//! A performance guard that cannot flake: allocator calls per visit.
//!
//! Wall time on a shared host wanders by ±10% between half hours; the
//! number of times a cell calls the allocator repeats exactly, run after
//! run and machine after machine, because the simulation is
//! deterministic. Each ceiling below sits 5% above what the tree
//! measured when it was committed, so re-introducing a per-request
//! allocation on the request path (a `VecDeque` per header 4-gram, a
//! domain `String` per pool call) fails here, in tier-1, with a message
//! that carries the number. A change that *lowers* a count should lower
//! its ceiling in the same commit; CI prints the measured values
//! (`cargo test --test alloc_budget -- --nocapture`).
//!
//! Two rows price the JSON printer itself: a record or a `RunResult`
//! printed through a `Value` tree costs an allocation per key and per
//! container, where the writer only grows its output string.
//!
//! The `explain` rows count bytes requested instead of calls: what makes
//! a traced cell expensive to hold is a retained structure (the flight
//! log's records, a `Value` tree of the document), and each of those
//! shows up as megabytes requested per visit long before it shows up as
//! a noisy RSS reading. The `bulk_lte_small` rows count bytes for the
//! same reason: a series grown per segment and never read is most of a
//! data-plane cell's memory.
//!
//! One test function, alone in its binary: the deltas are read from the
//! process-wide counters, which only this thread moves while it runs.

use spdyier::experiments::{causal_explain, run_cell, Executor};
use spdyier::prof::{global_counts, CountingAlloc};
use spdyier_scenario::Manifest;
use std::path::Path;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(scenario, protocol, allocator calls per visit at most)`. Measured
/// when committed: 9,762 / 11,325 / 1,415 / 1,682. A tree that held
/// headers as `Vec<(String, String)>` (two strings a header at every
/// parse, clone and forward) measured 16,367 / 19,878 / 2,535 / 3,144,
/// and one that also built each decoded string through three
/// allocations 25,536 / 4,148 on the SPDY rows: every row fails there.
const CEILINGS: [(&str, &str, u64); 4] = [
    ("paired_3g.json", "http", 10_250),
    ("paired_3g.json", "spdy", 11_891),
    ("quick_wifi.json", "http", 1_486),
    ("quick_wifi.json", "spdy", 1_767),
];

/// `(scenario, protocol, bytes requested per visit at most)` by a cell
/// run, from building the testbed to dropping its result. Measured when
/// committed: 1,458,827 / 2,438,110 (1,503,699 / 2,446,089 while every
/// pipe stayed in a growing `Vec` until the run ended). A tree that
/// recorded the per-segment downlink and bytes-in-flight series for
/// every cell, read or not, measured 1,895,035 / 2,838,897 and fails
/// both rows.
const BYTES_CEILINGS: [(&str, &str, u64); 2] = [
    ("bulk_lte_small.json", "http", 1_531_769),
    ("bulk_lte_small.json", "spdy", 2_560_016),
];

/// `(scenario, protocol, bytes requested per visit at most)` by
/// `experiments explain`: run at full trace, event model, critical
/// paths, both renderings, both files. Measured when committed:
/// 3,202,734 / 3,104,552 (3,422,451 / 3,211,382 while every pipe stayed
/// in a growing `Vec` until the run ended; a tree that retained the
/// flight log and printed the JSON from a `Value` tree measured
/// 4,609,335 / 5,583,375; one that rebuilt the compressor's index per
/// session and held headers as string pairs 3,660,113 / 3,991,101: each
/// fails both rows).
const EXPLAIN_CEILINGS: [(&str, &str, u64); 2] = [
    ("paired_3g.json", "http", 3_362_871),
    ("paired_3g.json", "spdy", 3_259_780),
];

/// `(protocol, allocator calls, bytes requested)` at most, for one
/// steady-state cell of `population_wifi.json` — its first `protocol`
/// cell, run once to warm the thread and measured on the second run,
/// which is what cells 2..N of a sweep cost. A cell is two visits of a
/// six-object page, so the fixed cost per session dominates: a
/// compressor index rebuilt per session shows in the bytes, an owned
/// string per header in the calls. The calls ceilings sit over 1,217 /
/// 1,329 measured when they were committed; dropping each closed pipe
/// (one `Box` per pipe opened) took them to 1,232 / 1,333. The bytes
/// ceilings sit over 240,711 / 195,277, measured with that change
/// (326,432 / 210,803 while every pipe stayed in a growing `Vec`).
/// 879d3dc, which rebuilt the index and owned its header strings,
/// measured 2,037 and 361,843 / 3,160 and 776,652 and fails every
/// figure.
const POPULATION_CEILINGS: [(&str, u64, u64); 2] =
    [("http", 1_278, 252_747), ("spdy", 1_396, 205_041)];

/// Allocator calls per million records of `FlightLog::to_jsonl` over
/// `trace_spdy_3g.json`'s 81,008-record log, at most. Measured when
/// committed: 271, the output string growing. A printer that built each
/// record's `Value` tree first measured 10,788,465.
const JSONL_CALLS_PER_MILLION_RECORDS: u64 = 284;

/// Allocator calls of `serde_json::to_string` of `paired_3g.json`'s
/// first `RunResult` (the paired dump's first line), at most. Measured
/// when committed: 21; through a `Value` tree: 293,871.
const DUMP_LINE_CALLS: u64 = 22;

fn scenario_path(scenario: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(scenario)
}

/// Bytes requested per visit by explaining `scenario`'s one `protocol`
/// cell, from decoding the manifest to the second file written. One
/// cell runs serially at any pool width, so the pool has one worker.
fn explain_bytes_per_visit(scenario: &str, protocol: &str) -> u64 {
    let out = std::env::temp_dir().join(format!("spdyier_alloc_budget_{}", std::process::id()));
    let before = global_counts();
    let outcome = causal_explain(
        &Executor::new(1),
        &scenario_path(scenario),
        Some(protocol),
        &out,
    );
    let bytes = global_counts().since(before).bytes;
    let written = outcome.expect("explain runs").written;
    let text = std::fs::read_to_string(&written[1]).expect("explain_*.txt reads back");
    let visits = text.matches("\n  visit ").count() as u64;
    let _ = std::fs::remove_dir_all(&out);
    assert!(visits > 0, "{scenario}: no {protocol} visit explained");
    bytes / visits
}

/// Allocator calls and bytes requested per visit of every cell of
/// `scenario` under `protocol`, from building the testbed to dropping
/// its result.
fn cost_per_visit(scenario: &str, protocol: &str) -> (u64, u64) {
    let manifest =
        Manifest::from_file(&scenario_path(scenario)).expect("committed scenario decodes");
    let (mut allocs, mut bytes, mut visits) = (0u64, 0u64, 0u64);
    for cell in manifest.cells() {
        if cell.protocol.compact() != protocol {
            continue;
        }
        let before = global_counts();
        let (result, _log) = run_cell(&manifest, &cell).expect("within budget");
        let cost = global_counts().since(before);
        allocs += cost.allocs;
        bytes += cost.bytes;
        visits += result.visits.len() as u64;
    }
    assert!(visits > 0, "{scenario}: no {protocol} visit ran");
    (allocs / visits, bytes / visits)
}

/// Allocator calls and bytes requested by the second run of
/// `population_wifi.json`'s first `protocol` cell.
fn population_cell_cost(protocol: &str) -> (u64, u64) {
    let manifest = Manifest::from_file(&scenario_path("population_wifi.json"))
        .expect("committed scenario decodes");
    let cell = manifest
        .cells()
        .into_iter()
        .find(|cell| cell.protocol.compact() == protocol)
        .expect("the population has a cell per protocol");
    drop(run_cell(&manifest, &cell).expect("within budget"));
    let before = global_counts();
    drop(run_cell(&manifest, &cell).expect("within budget"));
    let cost = global_counts().since(before);
    (cost.allocs, cost.bytes)
}

/// `scenario`'s first cell, run to completion with its trace retained
/// when the manifest keeps one.
fn first_cell(scenario: &str) -> (spdyier::core::RunResult, Option<spdyier::core::FlightLog>) {
    let manifest =
        Manifest::from_file(&scenario_path(scenario)).expect("committed scenario decodes");
    let (result, traced) = run_cell(&manifest, &manifest.cells()[0]).expect("within budget");
    (result, traced.map(|t| t.log))
}

/// Allocator calls of `print`.
fn calls_of<T>(print: impl FnOnce() -> T) -> u64 {
    let before = global_counts();
    drop(print());
    global_counts().since(before).allocs
}

#[test]
fn allocator_calls_per_visit_stay_under_their_ceilings() {
    let mut over = Vec::new();
    for (scenario, protocol, ceiling) in CEILINGS {
        let measured = cost_per_visit(scenario, protocol).0;
        println!("alloc_budget {scenario} {protocol}: {measured} allocs/visit (ceiling {ceiling})");
        if measured > ceiling {
            over.push(format!(
                "{scenario} {protocol}: {measured} > {ceiling} allocs/visit"
            ));
        }
    }
    for (scenario, protocol, ceiling) in BYTES_CEILINGS {
        let measured = cost_per_visit(scenario, protocol).1;
        println!("alloc_budget {scenario} {protocol}: {measured} bytes/visit (ceiling {ceiling})");
        if measured > ceiling {
            over.push(format!(
                "{scenario} {protocol}: {measured} > {ceiling} bytes/visit"
            ));
        }
    }
    for (scenario, protocol, ceiling) in EXPLAIN_CEILINGS {
        let measured = explain_bytes_per_visit(scenario, protocol);
        println!(
            "alloc_budget explain {scenario} {protocol}: {measured} bytes/visit (ceiling {ceiling})"
        );
        if measured > ceiling {
            over.push(format!(
                "explain {scenario} {protocol}: {measured} > {ceiling} bytes/visit"
            ));
        }
    }
    for (protocol, allocs_ceiling, bytes_ceiling) in POPULATION_CEILINGS {
        let (allocs, bytes) = population_cell_cost(protocol);
        println!(
            "alloc_budget population_wifi.json {protocol}: {allocs} allocs/cell, {bytes} bytes/cell \
             (ceilings {allocs_ceiling}, {bytes_ceiling})"
        );
        if allocs > allocs_ceiling || bytes > bytes_ceiling {
            over.push(format!(
                "population_wifi.json {protocol}: {allocs} allocs, {bytes} bytes a cell > \
                 {allocs_ceiling}, {bytes_ceiling}"
            ));
        }
    }
    let log = first_cell("trace_spdy_3g.json")
        .1
        .expect("the scenario keeps its trace");
    let records = log.events.len() as u64;
    let measured = calls_of(|| log.to_jsonl()) * 1_000_000 / records;
    println!(
        "alloc_budget trace_spdy_3g.json to_jsonl: {measured} allocs/1e6 records over {records} \
         (ceiling {JSONL_CALLS_PER_MILLION_RECORDS})"
    );
    if measured > JSONL_CALLS_PER_MILLION_RECORDS {
        over.push(format!(
            "trace_spdy_3g.json to_jsonl: {measured} > {JSONL_CALLS_PER_MILLION_RECORDS} allocs/1e6 records"
        ));
    }
    let (result, _) = first_cell("paired_3g.json");
    let measured = calls_of(|| serde_json::to_string(&result));
    println!(
        "alloc_budget paired_3g.json dump line: {measured} allocs (ceiling {DUMP_LINE_CALLS})"
    );
    if measured > DUMP_LINE_CALLS {
        over.push(format!(
            "paired_3g.json dump line: {measured} > {DUMP_LINE_CALLS} allocs"
        ));
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
