//! # spdyier-experiments
//!
//! One runner per table/figure of *"Towards a SPDY'ier Mobile Web?"*.
//! Each runner executes the testbed at the paper's operating point and
//! prints the same rows/series the paper reports, plus a JSON blob for
//! downstream plotting. The `experiments` binary dispatches by id
//! (`fig3`, `table2`, `rttreset`, … or `all`).

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod ascii;
pub mod causal_cli;
pub mod exec;
pub mod extensions;
pub mod mitigations;
pub mod objects;
pub mod plt;
pub mod profiling;
pub mod proxy_bottleneck;
pub mod scenario_run;
pub mod sweep;
pub mod table1;
pub mod tcp_dynamics;

use serde_json::Value;
use spdyier_core::{run_experiment, ExperimentConfig, NetworkKind, ProtocolMode, RunResult};
use spdyier_workload::VisitSchedule;

pub use causal_cli::{diff as causal_diff, explain as causal_explain, CausalOutcome};
pub use exec::Executor;
pub use profiling::{profile_manifest_on, ProfiledSweep};
pub use scenario_run::{
    execute_folded_on, fold_cell, run_cell, run_manifest, run_manifest_on, FoldedCell,
    ScenarioOutcome,
};
pub use sweep::{run_sweep, run_sweep_on, SweepOptions, SweepOutcome};

/// A rendered experiment result.
#[derive(Debug)]
pub struct Report {
    /// Short id (`fig3`, `table2`, ...).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// What the paper reports for this artifact.
    pub paper_claim: &'static str,
    /// The regenerated rows/series as text.
    pub text: String,
    /// Machine-readable series for plotting.
    pub data: Value,
}

impl Report {
    /// Full text rendering (header + claim + body).
    pub fn render(&self) -> String {
        format!(
            "== {} — {} ==\npaper: {}\n\n{}\n",
            self.id, self.title, self.paper_claim, self.text
        )
    }
}

/// How many independent runs (seeds) an experiment uses.
#[derive(Debug, Clone, Copy)]
pub struct ExpOpts {
    /// Number of seeds.
    pub seeds: u64,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts { seeds: 3 }
    }
}

impl ExpOpts {
    /// A fast single-seed configuration (CI / smoke).
    pub fn quick() -> ExpOpts {
        ExpOpts { seeds: 1 }
    }
}

/// The shared schedule for seed `s` (HTTP and SPDY see the same order, as
/// in the paper's alternating methodology). Delegates to the scenario
/// crate so manifests and legacy runners share one formula.
pub fn schedule_for_seed(s: u64) -> VisitSchedule {
    spdyier_scenario::table1_schedule_for_seed(s)
}

/// Run the full 20-site schedule for one protocol on one network.
pub fn run_schedule(
    protocol: ProtocolMode,
    network: NetworkKind,
    seed: u64,
    traces: bool,
) -> RunResult {
    let mut cfg = ExperimentConfig::paper_3g(protocol, seed)
        .with_network(network)
        .with_schedule(schedule_for_seed(seed));
    cfg.record_traces = traces;
    run_experiment(cfg)
}

/// Paired HTTP/SPDY runs over identical schedules, one pair per seed.
///
/// Runs fan out across an [`Executor`] sized by `SPDYIER_JOBS` (or the
/// machine's parallelism); each (seed, protocol) run is independent and
/// deterministic, so the output is byte-identical to a serial sweep.
pub fn paired_runs(
    network: NetworkKind,
    opts: ExpOpts,
    traces: bool,
) -> Vec<(RunResult, RunResult)> {
    paired_runs_on(&Executor::from_env(), network, opts, traces)
}

/// [`paired_runs`] on an explicit executor (tests pin the pool width).
pub fn paired_runs_on(
    exec: &Executor,
    network: NetworkKind,
    opts: ExpOpts,
    traces: bool,
) -> Vec<(RunResult, RunResult)> {
    // Flatten to 2 jobs per seed: even indices HTTP, odd indices SPDY.
    let n = (opts.seeds as usize) * 2;
    let mut flat = exec.run(n, |i, _worker| {
        let s = (i / 2) as u64;
        let protocol = if i % 2 == 0 {
            ProtocolMode::Http
        } else {
            ProtocolMode::spdy()
        };
        run_schedule(protocol, network, s, traces)
    });
    let mut pairs = Vec::with_capacity(opts.seeds as usize);
    while flat.len() >= 2 {
        let spdy = flat.pop().expect("even job count");
        let http = flat.pop().expect("even job count");
        pairs.push((http, spdy));
    }
    pairs.reverse();
    pairs
}

/// Per-site PLT samples (ms) pooled across runs.
pub fn plts_by_site(runs: &[&RunResult]) -> Vec<(u32, Vec<f64>)> {
    (1..=20u32)
        .map(|site| {
            let samples: Vec<f64> = runs.iter().flat_map(|r| r.plts_for_site(site)).collect();
            (site, samples)
        })
        .collect()
}

/// All experiment ids in presentation order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "table2",
    "multiconn",
    "rttreset",
    "metricscache",
    "pipelining",
    "promosweep",
    "energy",
];

/// Dispatch an experiment by id.
pub fn run_by_id(id: &str, opts: ExpOpts) -> Option<Report> {
    Some(match id {
        "table1" => table1::run(opts),
        "fig3" => plt::fig3(opts),
        "fig4" => plt::fig4(opts),
        "fig5" => objects::fig5(opts),
        "fig6" => objects::fig6(opts),
        "fig7" => objects::fig7(opts),
        "fig8" => proxy_bottleneck::fig8(opts),
        "fig9" => proxy_bottleneck::fig9(opts),
        "fig10" => proxy_bottleneck::fig10(opts),
        "fig11" => tcp_dynamics::fig11(opts),
        "fig12" => tcp_dynamics::fig12(opts),
        "fig13" => tcp_dynamics::fig13(opts),
        "fig14" => mitigations::fig14(opts),
        "fig15" => mitigations::fig15(opts),
        "fig16" => plt::fig16(opts),
        "fig17" => tcp_dynamics::fig17(opts),
        "table2" => mitigations::table2(opts),
        "multiconn" => mitigations::multiconn(opts),
        "rttreset" => mitigations::rttreset(opts),
        "metricscache" => mitigations::metricscache(opts),
        "pipelining" => extensions::pipelining(opts),
        "promosweep" => extensions::promo_sweep(opts),
        "energy" => extensions::energy(opts),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_reproducible() {
        assert_eq!(schedule_for_seed(1).order, schedule_for_seed(1).order);
        assert_ne!(schedule_for_seed(1).order, schedule_for_seed(2).order);
    }

    #[test]
    fn all_ids_dispatch() {
        // Only check that ids are known; running them is the bench suite's
        // job. The unknown id must return None.
        assert!(run_by_id("not-an-experiment", ExpOpts::quick()).is_none());
    }

    #[test]
    fn cheap_experiments_produce_reports() {
        // The sub-second experiments run end to end in tests.
        for id in ["table1", "fig7"] {
            let report = run_by_id(id, ExpOpts::quick()).expect("known id");
            assert_eq!(report.id, id);
            assert!(!report.text.is_empty());
            assert!(report.render().contains(report.title));
            assert!(report.data.is_object() || report.data.is_array());
        }
    }

    #[test]
    fn paired_runs_share_schedules() {
        let pairs = paired_runs(NetworkKind::Wifi, ExpOpts::quick(), false);
        assert_eq!(pairs.len(), 1);
        let (h, s) = &pairs[0];
        let h_sites: Vec<u32> = h.visits.iter().map(|v| v.site).collect();
        let s_sites: Vec<u32> = s.visits.iter().map(|v| v.site).collect();
        assert_eq!(h_sites, s_sites, "both protocols visit the same order");
    }
}
