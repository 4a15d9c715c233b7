//! # spdyier-experiments
//!
//! One runner per table/figure of *"Towards a SPDY'ier Mobile Web?"*.
//! Each runner is a scenario [`Manifest`] at the paper's operating point
//! plus a renderer: [`run_cells`] runs the manifest's cells and the
//! runner prints the same rows/series the paper reports, plus a JSON
//! blob for downstream plotting. The `experiments` binary dispatches by
//! id (`fig3`, `table2`, `rttreset`, … or `all`).

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod ascii;
pub mod causal_cli;
pub mod exec;
pub mod extensions;
pub mod mitigations;
pub mod objects;
pub mod plt;
pub mod proxy_bottleneck;
pub mod scenario_run;
pub mod sweep;
pub mod table1;
pub mod tcp_dynamics;

use serde_json::Value;
use spdyier_core::{NetworkKind, ProtocolMode, RunResult};
use spdyier_scenario::{Cell, Manifest, ProtocolSpec};

pub use causal_cli::{diff as causal_diff, explain as causal_explain, CausalOutcome};
pub use exec::Executor;
pub use scenario_run::{
    fold_cell, run_cell, run_manifest_on, FoldedCell, ScenarioOutcome, TracedCell,
};
pub use sweep::{run_sweep_on, SweepOptions, SweepOutcome};

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

/// How many independent runs (seeds) an experiment uses, and the pool
/// its cells run on.
#[derive(Debug, Clone, Copy)]
pub struct ExpOpts {
    /// Number of seeds.
    pub seeds: u64,
    /// The pool [`run_cells`] fans the figure's cells across.
    pub exec: Executor,
}

impl Default for ExpOpts {
    /// Three seeds, serially.
    fn default() -> Self {
        ExpOpts {
            seeds: 3,
            exec: Executor::new(1),
        }
    }
}

impl ExpOpts {
    /// A fast single-seed configuration (CI / smoke), serially.
    pub fn quick() -> ExpOpts {
        ExpOpts {
            seeds: 1,
            ..ExpOpts::default()
        }
    }
}

/// The manifest every figure starts from: the paper baseline (Table 1
/// workload, HTTP then SPDY per seed, no mitigation) on `network` with
/// `seeds` seeds. A figure sets its knobs on the returned value.
pub(crate) fn baseline(id: &str, network: NetworkKind, seeds: u64) -> Manifest {
    let mut manifest = Manifest::paper_baseline(id);
    manifest.network.kind = network;
    manifest.seeds.count = seeds;
    manifest
}

/// A manifest's `protocols` from their compact forms (`"http"`,
/// `"spdy:20:late"`).
pub(crate) fn protocols(specs: &[&str]) -> Vec<ProtocolSpec> {
    let parse = |spec: &&str| ProtocolSpec::parse(spec).expect("figure protocol parses");
    specs.iter().map(parse).collect()
}

/// Run every cell of `manifest` through [`run_cell`] on `exec` and
/// return the runs in cell order (variant, then seed, then protocol), so
/// what a figure renders is byte-identical at any pool width. A cell
/// that exceeds a limit panics naming the cell.
pub fn run_cells(exec: &Executor, manifest: &Manifest) -> Vec<(Cell, RunResult)> {
    let cells = manifest.cells();
    let runs = exec.run(cells.len(), |i, _worker| {
        match run_cell(manifest, &cells[i]) {
            Ok((result, _log)) => result,
            Err(e) => panic!("{}", scenario_run::limit_diagnostic(&cells[i], &e)),
        }
    });
    cells.into_iter().zip(runs).collect()
}

/// The runs whose cell satisfies `pick`, in cell order.
pub(crate) fn runs_where(
    runs: &[(Cell, RunResult)],
    pick: impl Fn(&Cell) -> bool,
) -> Vec<&RunResult> {
    let picked = runs.iter().filter(|(cell, _)| pick(cell));
    picked.map(|(_, run)| run).collect()
}

/// A baseline pairing's runs split by protocol: (HTTP, SPDY), each in
/// seed order.
pub(crate) fn by_protocol(runs: &[(Cell, RunResult)]) -> (Vec<&RunResult>, Vec<&RunResult>) {
    let http = |cell: &Cell| cell.protocol.mode == ProtocolMode::Http;
    (runs_where(runs, http), runs_where(runs, |cell| !http(cell)))
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

/// A figure runner: its manifest at the paper's operating point, run and
/// rendered.
pub type Runner = fn(ExpOpts) -> Report;

/// Every experiment by id, in presentation order: the one table the
/// dispatcher and the usage text read.
pub const EXPERIMENTS: &[(&str, Runner)] = &[
    ("table1", table1::run),
    ("fig3", plt::fig3),
    ("fig4", plt::fig4),
    ("fig5", objects::fig5),
    ("fig6", objects::fig6),
    ("fig7", objects::fig7),
    ("fig8", proxy_bottleneck::fig8),
    ("fig9", proxy_bottleneck::fig9),
    ("fig10", proxy_bottleneck::fig10),
    ("fig11", tcp_dynamics::fig11),
    ("fig12", tcp_dynamics::fig12),
    ("fig13", tcp_dynamics::fig13),
    ("fig14", mitigations::fig14),
    ("fig15", mitigations::fig15),
    ("fig16", plt::fig16),
    ("fig17", tcp_dynamics::fig17),
    ("table2", mitigations::table2),
    ("multiconn", mitigations::multiconn),
    ("rttreset", mitigations::rttreset),
    ("metricscache", mitigations::metricscache),
    ("pipelining", extensions::pipelining),
    ("promosweep", extensions::promo_sweep),
    ("energy", extensions::energy),
];

/// Dispatch an experiment by id.
pub fn run_by_id(id: &str, opts: ExpOpts) -> Option<Report> {
    let (_, run) = EXPERIMENTS.iter().find(|(known, _)| *known == id)?;
    Some(run(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_unknown_ones_do_not_dispatch() {
        // Running every id is the figures golden's job.
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 23);
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
            assert!(matches!(report.data, Value::Object(_) | Value::Array(_)));
        }
    }
}
