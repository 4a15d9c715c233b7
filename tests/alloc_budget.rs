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
//! One test function, alone in its binary: the deltas are read from the
//! process-wide counters, which only this thread moves while it runs.

use spdyier::experiments::run_cell;
use spdyier::prof::{global_counts, CountingAlloc};
use spdyier_scenario::Manifest;
use std::path::Path;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(scenario, protocol, allocator calls per visit at most)`. Measured
/// when committed: 16,367 / 25,536 / 2,535 / 4,148 (the commit before
/// measured 16,377 / 33,118 / 2,540 / 6,515 and fails both SPDY rows).
const CEILINGS: [(&str, &str, u64); 4] = [
    ("paired_3g.json", "http", 17_185),
    ("paired_3g.json", "spdy", 26_812),
    ("quick_wifi.json", "http", 2_661),
    ("quick_wifi.json", "spdy", 4_355),
];

/// Allocator calls per visit of every cell of `scenario` under
/// `protocol`, from building the testbed to dropping its result.
fn allocs_per_visit(scenario: &str, protocol: &str) -> u64 {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(scenario);
    let manifest = Manifest::from_file(&path).expect("committed scenario decodes");
    let (mut allocs, mut visits) = (0u64, 0u64);
    for cell in manifest.cells() {
        if cell.protocol.compact() != protocol {
            continue;
        }
        let before = global_counts();
        let (result, _log) = run_cell(&manifest, &cell).expect("within budget");
        allocs += global_counts().since(before).allocs;
        visits += result.visits.len() as u64;
    }
    assert!(visits > 0, "{scenario}: no {protocol} visit ran");
    allocs / visits
}

#[test]
fn allocator_calls_per_visit_stay_under_their_ceilings() {
    let mut over = Vec::new();
    for (scenario, protocol, ceiling) in CEILINGS {
        let measured = allocs_per_visit(scenario, protocol);
        println!("alloc_budget {scenario} {protocol}: {measured} allocs/visit (ceiling {ceiling})");
        if measured > ceiling {
            over.push(format!(
                "{scenario} {protocol}: {measured} > {ceiling} allocs/visit"
            ));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
