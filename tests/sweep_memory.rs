//! The sweep's memory per cell, measured as live heap.
//!
//! A population-scale sweep is meant to hold one `CellMetrics` per cell
//! and nothing else that grows with the cell count: finishing evaluates
//! the assertions over borrowed cells and prints `result.json` straight
//! into its file. Peak RSS says the same thing end to end, but only
//! coarsely; the live-heap high-water mark of a one-worker sweep repeats
//! to the byte, so its growth between two sweep sizes is the per-cell
//! constant itself. A runner that clones each cell's metrics to evaluate
//! them, keeps a second cell-indexed vector of folded cells, or renders
//! the whole document into one `String` grows by about 2 KB a cell and
//! fails here; `cargo test --test sweep_memory -- --nocapture` prints
//! the measured value.
//!
//! One test function, alone in its binary: the counters are process-wide
//! and only this thread moves them while it runs.

mod common;

use spdyier::experiments::sweep::{run_sweep_on, SweepOptions, SweepOutcome};
use spdyier::experiments::Executor;
use spdyier_scenario::Manifest;
use std::path::Path;

/// Live bytes added per cell, at most: one `CellMetrics` of this
/// workload is about 0.7 KB. Measured when committed: 676 bytes a cell;
/// the runner that held three cell-indexed vectors, cloned every cell to
/// evaluate it and built `result.json` in a `String` measured 1,907.
const BYTES_PER_CELL: usize = 1024;

/// `population_wifi.json` cut to `seeds` seeds (two cells each).
fn population(seeds: u64) -> Manifest {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/population_wifi.json");
    let text = std::fs::read_to_string(&path).expect("population_wifi.json reads");
    let mut m = Manifest::from_json(&text).expect("population_wifi.json decodes");
    m.seeds.count = seeds;
    m
}

/// The live-heap high-water mark of a serial sweep of `seeds` seeds into
/// a fresh directory, above what was live when it started.
fn sweep_high_water(seeds: u64) -> usize {
    let manifest = population(seeds);
    let dir = std::env::temp_dir().join(format!(
        "spdyier_sweep_memory_{}_{seeds}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let exec = Executor::new(1);
    let (outcome, high_water) =
        common::high_water(|| run_sweep_on(&exec, &manifest, &dir, SweepOptions::default()));
    match outcome.expect("the sweep runs") {
        SweepOutcome::Completed(outcome) => {
            assert_eq!(outcome.exit.code(), 0, "{}", outcome.summary)
        }
        SweepOutcome::Interrupted { .. } => panic!("an unbudgeted sweep completes"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    high_water
}

#[test]
fn sweep_live_heap_grows_by_one_cells_metrics_per_cell() {
    // Warm the thread and the process-wide state a first sweep sets up.
    sweep_high_water(5);
    let (small, large) = (100, 1_000);
    let (small_peak, large_peak) = (sweep_high_water(small), sweep_high_water(large));
    let added_cells = 2 * (large - small) as usize;
    let per_cell = large_peak.saturating_sub(small_peak) / added_cells;
    println!(
        "sweep live-heap high-water: {small_peak} B at {} cells, {large_peak} B at {} cells: \
         {per_cell} B per added cell (at most {BYTES_PER_CELL})",
        2 * small,
        2 * large
    );
    assert!(
        per_cell <= BYTES_PER_CELL,
        "the sweep holds {per_cell} B of live heap per cell, over {BYTES_PER_CELL}: \
         something besides one CellMetrics per cell grows with the sweep"
    );
}
