//! One cell's memory, measured as live heap.
//!
//! Peak RSS of a run is set by the largest cell it holds at once, and a
//! cell's heap is mostly its connections and its event model: each pipe
//! carries a TCP pair, its role and its staging queues, and a Table-1
//! cell ends holding about a thousand proxy↔origin pipes open, most of
//! them idle for visits on end. The live-heap high-water mark of
//! `run_cell` gates what a cell holds at its peak where RSS could only
//! hint at it. It repeats to within about 8 KB (one binary, run after
//! run), well inside the 5% each ceiling leaves. A table that keeps
//! every pipe ever opened until the run ends holds all of an HTTP run's
//! short connections at once and fails here too; `cargo test --test
//! cell_memory -- --nocapture` prints the measured values.
//!
//! One test function, alone in its binary: the counters are process-wide
//! and only this thread moves them while it runs.

mod common;

use spdyier::experiments::run_cell;
use spdyier_scenario::Manifest;
use std::path::Path;

/// `(scenario, protocol, live-heap high-water bytes at most)` of running
/// that cell, its result still held, 5% above the highest of eight
/// runs when committed: 8,890,247 / 10,891,325 / 1,181,542 / 5,094,947 /
/// 5,414,044. The `mitigation_matrix_3g` rows are Table-1 3G cells
/// whose manifest asks for no dump; the critical-path metrics it
/// asserts on make it fold an event model. The tree before idle origin
/// pipes gave back their empty buffers, unread proxy records were
/// skipped and the event model coalesced its intervals measured
/// 10,371,000 / 12,806,653 / 1,183,985 / 12,313,762 / 10,105,735 and
/// fails all but the `bulk_lte_small` row; one that kept every pipe
/// until the run ended measured 17,313,321 / 13,701,495 / 1,480,049 on
/// the first three.
const CEILINGS: [(&str, &str, usize); 5] = [
    ("paired_3g.json", "http", 9_335_000),
    ("paired_3g.json", "spdy", 11_436_000),
    ("bulk_lte_small.json", "http", 1_241_000),
    ("mitigation_matrix_3g.json", "spdy", 5_350_000),
    ("mitigation_matrix_3g.json", "http", 5_685_000),
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
