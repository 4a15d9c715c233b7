//! One cell's memory, measured as live heap.
//!
//! Peak RSS of a run is set by the largest cell it holds at once, and a
//! cell's heap is mostly its connections: each device↔proxy pipe carries
//! a TCP pair, its role and its staging queues. The live-heap high-water
//! mark of `run_cell` repeats to the byte, so it gates what a cell holds
//! at its peak where RSS could only hint at it. A table that keeps every
//! pipe ever opened until the run ends holds all of an HTTP run's short
//! connections at once and fails every row; `cargo test --test
//! cell_memory -- --nocapture` prints the measured values.
//!
//! One test function, alone in its binary: the counters are process-wide
//! and only this thread moves them while it runs.

mod common;

use spdyier::experiments::run_cell;
use spdyier_scenario::Manifest;
use std::path::Path;

/// `(scenario, protocol, live-heap high-water bytes at most)` of running
/// that cell, its result still held. Measured when committed:
/// 10,371,900 / 12,806,653 / 1,183,985. A tree that kept every pipe
/// until the run ended measured 17,313,321 / 13,701,495 / 1,480,049 and
/// fails every row.
const CEILINGS: [(&str, &str, usize); 3] = [
    ("paired_3g.json", "http", 10_891_000),
    ("paired_3g.json", "spdy", 13_447_000),
    ("bulk_lte_small.json", "http", 1_244_000),
];

/// The live-heap high-water mark of running `scenario`'s one `protocol`
/// cell.
fn cell_high_water(scenario: &str, protocol: &str) -> usize {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(scenario);
    let manifest = Manifest::from_file(&path).expect("committed scenario decodes");
    let cell = manifest
        .cells()
        .into_iter()
        .find(|cell| cell.protocol.compact() == protocol)
        .expect("the scenario has a cell for the protocol");
    let (outcome, high_water) = common::high_water(|| run_cell(&manifest, &cell));
    let (result, _) = outcome.expect("within budget");
    assert!(
        !result.visits.is_empty(),
        "{scenario}: no {protocol} visit ran"
    );
    high_water
}

#[test]
fn a_cells_live_heap_stays_under_its_ceiling() {
    let mut over = Vec::new();
    for (scenario, protocol, ceiling) in CEILINGS {
        let measured = cell_high_water(scenario, protocol);
        println!(
            "cell_memory {scenario} {protocol}: {measured} B live at peak (ceiling {ceiling})"
        );
        if measured > ceiling {
            over.push(format!("{scenario} {protocol}: {measured} > {ceiling} B"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
