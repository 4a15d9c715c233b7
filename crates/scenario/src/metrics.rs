//! Per-cell metric extraction and pooled assertion evaluation.
//!
//! Each run cell reduces to a [`CellMetrics`] accumulator (a PLT
//! quantile sketch, critical-path edge sums, trace counters, aggregate
//! TCP/radio counters). Assertion references select cells by filter,
//! merge the accumulators, and compute the named metric over the pool —
//! so `spdy.critical_rto_stall_ms` with three seeds is the mean over
//! every SPDY visit of all three runs, not a mean of means.
//!
//! The accumulator is a *fold*: [`CellMetrics::fold_visit`] ingests one
//! visit at a time and [`CellMetrics::merge`] combines two accumulators
//! exactly (associative and commutative, like the sketch it contains),
//! so a population-scale sweep holds O(cells) state instead of
//! O(total visits), and any sharding of the work produces bit-identical
//! pooled metrics. [`CellMetrics::to_value`]/[`CellMetrics::from_value`]
//! are the checkpoint-store codec resumable sweeps persist cells with.

use crate::assertions::{Assertion, Operand};
use crate::cells::{filter_selects, Cell};
use crate::manifest::Manifest;
use serde::{Deserialize, Serialize, Value, Writer};
use spdyier_causal::{critical_paths, EventModel};
use spdyier_core::{
    AssertionVerdict, FlightLog, RunResult, TraceLevel, VerdictStatus, VisitResult,
};
use spdyier_sim::stats::{MergeError, QuantileSketch};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Everything assertion evaluation needs from one run cell. The derived
/// `Serialize` writes every field in declaration order and the derived
/// `Deserialize` ([`CellMetrics::from_value`]) reads them back: the
/// checkpoint codec.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Protocol compact name (`"http"`, `"spdy:20:late"`, …).
    pub protocol: String,
    /// Matrix variant name (`""` without a matrix).
    pub variant: String,
    /// Cell seed.
    pub seed: u64,
    /// PLT samples (ms) of completed visits, held as a mergeable
    /// log-bucketed sketch: O(buckets) memory however many visits the
    /// cell folds, exact min/max/mean, quantiles within the pinned
    /// sketch error bound (1/256 ≈ 0.39% relative).
    pub plt: QuantileSketch,
    /// Scheduled visits.
    pub visits: u64,
    /// Completed visits.
    pub completed: u64,
    /// Critical-path edge sums in µs over extracted visits, in the
    /// causal engine's canonical [`spdyier_causal::EDGE_KINDS`] order:
    /// [parse, conn_setup, promotion, rto, serialization, queueing,
    /// think, wait, receive].
    pub critical_sums_us: [u64; 9],
    /// Visits with an extracted critical path (0 when the cell was
    /// untraced).
    pub critical_visits: u64,
    /// Aggregate TCP retransmissions.
    pub retransmissions: u64,
    /// Aggregate RTO firings.
    pub timeouts: u64,
    /// The RTO firings whose segment is not a pure FIN.
    pub non_fin_timeouts: u64,
    /// Aggregate idle restarts.
    pub idle_restarts: u64,
    /// Client↔proxy connections opened.
    pub connections_opened: u64,
    /// RRC promotions taken.
    pub promotions: u64,
    /// Total page bytes over all visits.
    pub total_bytes: u64,
    /// Radio energy, mJ.
    pub energy_mj: f64,
    /// Trace metrics registry counters.
    pub counters: BTreeMap<String, u64>,
}

/// A metric's row: its name, the flight-recorder level that makes it
/// computable, and how to compute it over a (pooled) accumulator.
pub type Metric = (
    &'static str,
    TraceLevel,
    fn(&CellMetrics) -> Result<f64, String>,
);

const NO_CRITICAL_SAMPLES: &str =
    "no critical-path samples (critical metrics need full-level tracing)";

/// Every metric an assertion may name, besides the `counter.<name>`
/// passthrough into the trace metrics registry (which needs the recorder
/// on: [`TraceLevel::Full`]).
#[rustfmt::skip]
pub const METRICS: &[Metric] = {
    use TraceLevel::{Full, Off};
    &[
        ("plt_p50_ms", Off, |m| Ok(m.plt.percentile(50.0))),
        ("plt_p90_ms", Off, |m| Ok(m.plt.percentile(90.0))),
        ("plt_p95_ms", Off, |m| Ok(m.plt.percentile(95.0))),
        ("plt_mean_ms", Off, |m| Ok(m.plt.mean())),
        ("plt_min_ms", Off, |m| Ok(m.plt.min())),
        ("plt_max_ms", Off, |m| Ok(m.plt.max())),
        ("completion_rate", Off,
            |m| Ok(if m.visits == 0 { 0.0 } else { m.completed as f64 / m.visits as f64 })),
        ("visits", Off, |m| Ok(m.visits as f64)),
        ("completed_visits", Off, |m| Ok(m.completed as f64)),
        ("retransmissions", Off, |m| Ok(m.retransmissions as f64)),
        ("timeouts", Off, |m| Ok(m.timeouts as f64)),
        ("idle_restarts", Off, |m| Ok(m.idle_restarts as f64)),
        ("connections_opened", Off, |m| Ok(m.connections_opened as f64)),
        ("promotions", Off, |m| Ok(m.promotions as f64)),
        ("energy_mj", Off, |m| Ok(m.energy_mj)),
        ("total_bytes", Off, |m| Ok(m.total_bytes as f64)),
        // CRITICAL_ROWS: the nine critical-path edges (mean ms per visit
        // on the pooled cells' critical paths), in `critical_sums_us`
        // order.
        ("critical_parse_ms", Full, |m| m.critical_mean_ms(0)),
        ("critical_conn_setup_ms", Full, |m| m.critical_mean_ms(1)),
        ("critical_promotion_ms", Full, |m| m.critical_mean_ms(2)),
        ("critical_rto_stall_ms", Full, |m| m.critical_mean_ms(3)),
        ("critical_serialization_ms", Full, |m| m.critical_mean_ms(4)),
        ("critical_queueing_ms", Full, |m| m.critical_mean_ms(5)),
        ("critical_think_ms", Full, |m| m.critical_mean_ms(6)),
        ("critical_wait_ms", Full, |m| m.critical_mean_ms(7)),
        ("critical_receive_ms", Full, |m| m.critical_mean_ms(8)),
        ("critical_rto_per_event_ms", Full, |m| m.critical_rto_per_firing_ms()),
        // Trace-sink losses: any drop voids conservation guarantees, so
        // scenarios can pin this to zero.
        ("trace_dropped", Full, |m| Ok(m.counter("trace.sink_dropped"))),
    ]
};

/// The rows [`Summary`] prints by position.
const CRITICAL_ROWS: std::ops::Range<usize> = 16..25;

/// The segment that turns the rest of a reference into a registry
/// counter name: `counter.tcp.rto_fires`.
pub(crate) const COUNTER: &str = "counter";

fn counter_name(metric: &str) -> Option<&str> {
    metric.strip_prefix(COUNTER)?.strip_prefix('.')
}

/// The flight-recorder level at which `metric` is computable; `None`
/// for a name that is neither in [`METRICS`] nor a counter.
pub(crate) fn required_trace(metric: &str) -> Option<TraceLevel> {
    if counter_name(metric).is_some() {
        return Some(TraceLevel::Full);
    }
    let row = METRICS.iter().find(|(name, ..)| *name == metric);
    row.map(|&(_, level, _)| level)
}

impl CellMetrics {
    /// Reduce one cell's run (and its flight log, when recorded).
    pub fn from_run(cell: &Cell, result: &RunResult, log: Option<&FlightLog>) -> CellMetrics {
        let model = log.map(|l| EventModel::from_records(&l.events));
        Self::from_model(cell, result, log.zip(model.as_ref()))
    }

    /// [`Self::from_run`] for a caller that already holds the log's event
    /// model — the runner renders the cell's trace artifacts from the
    /// same model, so a traced cell is scanned once. A traced cell folds
    /// its critical paths and its registry counters.
    pub fn from_model(
        cell: &Cell,
        result: &RunResult,
        traced: Option<(&FlightLog, &EventModel)>,
    ) -> CellMetrics {
        let mut m = CellMetrics {
            protocol: cell.protocol.compact(),
            variant: cell.variant.clone(),
            seed: cell.seed,
            retransmissions: result.total_retransmissions,
            timeouts: result.total_timeouts,
            non_fin_timeouts: result.total_non_fin_timeouts,
            idle_restarts: result.total_idle_restarts,
            connections_opened: result.connections_opened,
            promotions: result.promotions.len() as u64,
            energy_mj: result.energy_mj,
            ..CellMetrics::default()
        };
        for v in &result.visits {
            m.fold_visit(v);
        }
        if let Some((log, model)) = traced {
            for p in critical_paths(model) {
                for (sum, add) in m.critical_sums_us.iter_mut().zip(p.sums_us()) {
                    *sum += add;
                }
                m.critical_visits += 1;
            }
            for (name, count) in log.metrics.counters() {
                *m.counters.entry(name.to_string()).or_insert(0) += count;
            }
        }
        m
    }

    /// Fold one visit into the accumulator: count it, and record its
    /// PLT sample and byte total. This is the streaming entry point —
    /// a caller that folds visits one at a time and drops them ends up
    /// with exactly the accumulator [`CellMetrics::from_run`] builds
    /// from a retained [`RunResult`].
    pub fn fold_visit(&mut self, v: &VisitResult) {
        self.visits += 1;
        if v.completed {
            self.completed += 1;
            self.plt.record(v.plt_ms);
        }
        self.total_bytes += v.total_bytes;
    }

    /// Whether `filter` selects this cell: the protocol compact name, the
    /// variant name, or `seed<N>` (all case-insensitive).
    pub fn matches(&self, filter: &str) -> bool {
        filter_selects(filter, &self.protocol, &self.variant, self.seed)
    }

    /// Merge `other`'s samples and counters into `self` (the pooled
    /// accumulator assertions evaluate over, and the shard-combine step
    /// of a folded sweep). Exact, associative, and commutative; a
    /// sketch-layout disagreement surfaces as a field-path
    /// [`MergeError`] instead of a silent mismerge.
    pub fn merge(&mut self, other: &CellMetrics) -> Result<(), MergeError> {
        self.plt.merge(&other.plt)?;
        self.visits += other.visits;
        self.completed += other.completed;
        for (sum, add) in self.critical_sums_us.iter_mut().zip(other.critical_sums_us) {
            *sum += add;
        }
        self.critical_visits += other.critical_visits;
        self.retransmissions += other.retransmissions;
        self.timeouts += other.timeouts;
        self.non_fin_timeouts += other.non_fin_timeouts;
        self.idle_restarts += other.idle_restarts;
        self.connections_opened += other.connections_opened;
        self.promotions += other.promotions;
        self.total_bytes += other.total_bytes;
        self.energy_mj += other.energy_mj;
        for (name, count) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += count;
        }
        Ok(())
    }

    fn critical_mean_ms(&self, edge: usize) -> Result<f64, String> {
        if self.critical_visits == 0 {
            return Err(NO_CRITICAL_SAMPLES.into());
        }
        Ok(self.critical_sums_us[edge] as f64 / 1_000.0 / self.critical_visits as f64)
    }

    /// The paper's headline normalization: critical-path RTO recovery
    /// per RTO firing instead of per visit. One RTO on SPDY's single
    /// connection stalls the whole page; HTTP's pool hides most of its
    /// (more numerous) firings behind parallel transfers. The divisor
    /// leaves out pure-FIN firings: a teardown FIN cannot stall a page.
    fn critical_rto_per_firing_ms(&self) -> Result<f64, String> {
        if self.critical_visits == 0 {
            return Err(NO_CRITICAL_SAMPLES.into());
        }
        if self.non_fin_timeouts == 0 {
            return Err("no non-FIN RTO firings in the selected cells".into());
        }
        Ok(self.critical_sums_us[3] as f64 / 1_000.0 / self.non_fin_timeouts as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Compute a named metric over this (possibly pooled) accumulator.
    pub fn metric(&self, name: &str) -> Result<f64, String> {
        if let Some(counter) = counter_name(name) {
            return Ok(self.counter(counter));
        }
        match METRICS.iter().find(|(known, ..)| *known == name) {
            Some((_, _, eval)) => eval(self),
            None => Err(format!("unknown metric {name:?}")),
        }
    }

    /// Decode an accumulator from the JSON value its `Serialize` impl
    /// produces — the checkpoint-store codec, derived strictly: every
    /// field is integer or a shortest-round-trip f64, so encode → decode
    /// is lossless and a resumed sweep reproduces the uninterrupted run
    /// byte for byte. Errors name the field under `cell`.
    pub fn from_value(v: &Value) -> Result<CellMetrics, String> {
        Self::deserialize(v).map_err(|e| e.at("cell").to_string())
    }
}

/// A cell's summary object in `result.json` (fixed key set — the
/// golden-schema test pins it).
pub struct Summary<'a>(pub &'a CellMetrics);

impl Serialize for Summary<'_> {
    fn serialize(&self, w: &mut Writer<'_>) {
        let m = self.0;
        w.begin_object();
        w.field("protocol", &m.protocol);
        w.field("variant", &m.variant);
        w.field("seed", &m.seed);
        w.field("visits", &m.visits);
        w.field("completed", &m.completed);
        w.field("plt_p50_ms", &m.plt.percentile(50.0));
        w.field("plt_p90_ms", &m.plt.percentile(90.0));
        w.field("plt_mean_ms", &m.plt.mean());
        w.field("retransmissions", &m.retransmissions);
        w.field("timeouts", &m.timeouts);
        w.field("connections_opened", &m.connections_opened);
        w.field("promotions", &m.promotions);
        w.field("total_bytes", &m.total_bytes);
        w.field("energy_mj", &m.energy_mj);
        for (name, _, eval) in &METRICS[CRITICAL_ROWS] {
            // Absent without samples, so an untraced run keeps the
            // legacy schema.
            if let Ok(value) = eval(m) {
                w.field(name, &value);
            }
        }
        w.end_object();
    }
}

/// Pool the cells selected by `filters` and compute `metric` over them.
/// The cells may be owned or borrowed (`&[CellMetrics]`, `&[&CellMetrics]`).
pub fn eval_metric<C: Borrow<CellMetrics>>(
    cells: &[C],
    filters: &[String],
    metric: &str,
) -> Result<f64, String> {
    let mut pool = CellMetrics::default();
    let mut matched = 0usize;
    for cell in cells.iter().map(Borrow::borrow) {
        if filters.iter().all(|f| cell.matches(f)) {
            pool.merge(cell).map_err(|e| e.to_string())?;
            matched += 1;
        }
    }
    if matched == 0 {
        return Err(format!(
            "no cells match filter \"{}\" (cells: {})",
            filters.join("."),
            cells
                .iter()
                .map(|c| c.borrow().protocol.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    pool.metric(metric)
}

fn eval_operand<C: Borrow<CellMetrics>>(cells: &[C], operand: &Operand) -> Result<f64, String> {
    match operand {
        Operand::Number(x) => Ok(*x),
        Operand::Metric(m) => eval_metric(cells, &m.filters, &m.metric),
    }
}

/// Evaluate every manifest assertion against the cells' metrics, owned
/// or borrowed.
pub fn evaluate<C: Borrow<CellMetrics>>(manifest: &Manifest, cells: &[C]) -> Vec<AssertionVerdict> {
    manifest
        .assertions
        .iter()
        .map(|a| evaluate_one(a, manifest, cells))
        .collect()
}

fn evaluate_one<C: Borrow<CellMetrics>>(
    a: &Assertion,
    manifest: &Manifest,
    cells: &[C],
) -> AssertionVerdict {
    if let Some(net) = a.on {
        if net != manifest.network.kind {
            return AssertionVerdict {
                expr: a.expr.clone(),
                status: VerdictStatus::Skipped,
                lhs: None,
                rhs: None,
                detail: format!(
                    "network clause '{}' does not match '{}'",
                    net.cli_name(),
                    manifest.network.kind.cli_name()
                ),
            };
        }
    }
    let lhs_res = eval_operand(cells, &a.lhs);
    let rhs_res = eval_operand(cells, &a.rhs);
    if let (&Ok(lhs), &Ok(rhs)) = (&lhs_res, &rhs_res) {
        let holds = a.op.holds(lhs, rhs);
        return AssertionVerdict {
            expr: a.expr.clone(),
            status: if holds {
                VerdictStatus::Pass
            } else {
                VerdictStatus::Fail
            },
            lhs: Some(lhs),
            rhs: Some(rhs),
            detail: format!(
                "{lhs:.1} {} {rhs:.1}{}",
                a.op.symbol(),
                if holds { "" } else { " is false" }
            ),
        };
    }
    let detail = [&lhs_res, &rhs_res]
        .into_iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect::<Vec<_>>()
        .join("; ");
    AssertionVerdict {
        expr: a.expr.clone(),
        status: VerdictStatus::Fail,
        lhs: lhs_res.ok(),
        rhs: rhs_res.ok(),
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Manifest;

    fn sketch_of(plts: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &x in plts {
            s.record(x);
        }
        s
    }

    fn cell(protocol: &str, seed: u64, plts: &[f64], rto_us: u64) -> CellMetrics {
        CellMetrics {
            protocol: protocol.into(),
            seed,
            plt: sketch_of(plts),
            visits: plts.len() as u64 + 1,
            completed: plts.len() as u64,
            critical_sums_us: [0, 0, 0, rto_us, 0, 0, 0, 0, 0],
            critical_visits: plts.len() as u64,
            retransmissions: 4,
            counters: BTreeMap::from([("tcp.rto_fires".to_string(), 3u64)]),
            ..CellMetrics::default()
        }
    }

    fn manifest_with(assertions: &[&str]) -> Manifest {
        let mut m = Manifest::paper_baseline("t");
        m.assertions = assertions
            .iter()
            .map(|s| Assertion::parse(s).unwrap())
            .collect();
        m
    }

    #[test]
    fn pooling_merges_samples_across_cells() {
        let cells = vec![
            cell("http", 0, &[100.0, 200.0], 1_000),
            cell("http", 1, &[300.0, 400.0], 3_000),
            cell("spdy", 0, &[500.0], 10_000),
        ];
        // Pooled over both http cells: 4 samples, mean 250.
        assert_eq!(
            eval_metric(&cells, &["http".to_string()], "plt_mean_ms").unwrap(),
            250.0
        );
        // seed filter narrows to one cell.
        assert_eq!(
            eval_metric(
                &cells,
                &["http".to_string(), "seed1".to_string()],
                "plt_mean_ms"
            )
            .unwrap(),
            350.0
        );
        // critical_rto_stall_ms pools sums and visit counts:
        // (1000+3000)/1000/4 = 1.0.
        assert_eq!(
            eval_metric(&cells, &["http".to_string()], "critical_rto_stall_ms").unwrap(),
            1.0
        );
        // counters sum across cells.
        assert_eq!(
            eval_metric(&cells, &[], "counter.tcp.rto_fires").unwrap(),
            9.0
        );
        assert_eq!(eval_metric(&cells, &[], "retransmissions").unwrap(), 12.0);
    }

    #[test]
    fn unmatched_filters_are_an_error() {
        let cells = vec![cell("http", 0, &[100.0], 0)];
        let e = eval_metric(&cells, &["spdy".to_string()], "plt_p50_ms").unwrap_err();
        assert!(e.contains("no cells match"), "{e}");
    }

    #[test]
    fn verdicts_pass_fail_and_skip() {
        let cells = vec![
            cell("http", 0, &[100.0], 1_000),
            cell("spdy", 0, &[200.0], 5_000),
        ];
        let m = manifest_with(&[
            "spdy.critical_rto_stall_ms > http.critical_rto_stall_ms on 3g",
            "plt_p50_ms < 90",
            "plt_p50_ms < 1 on lte",
        ]);
        let verdicts = evaluate(&m, &cells);
        assert_eq!(verdicts[0].status, VerdictStatus::Pass);
        assert_eq!(verdicts[0].lhs, Some(5.0));
        assert_eq!(verdicts[0].rhs, Some(1.0));
        assert_eq!(verdicts[1].status, VerdictStatus::Fail);
        assert!(
            verdicts[1].detail.contains("is false"),
            "{}",
            verdicts[1].detail
        );
        assert_eq!(verdicts[2].status, VerdictStatus::Skipped);
        assert!(verdicts[2].detail.contains("lte"), "{}", verdicts[2].detail);
    }

    #[test]
    fn missing_critical_samples_fail_the_verdict_with_reason() {
        let mut c = cell("http", 0, &[100.0], 0);
        c.critical_visits = 0;
        let m = manifest_with(&["http.critical_rto_stall_ms < 10"]);
        let verdicts = evaluate(&m, &[c]);
        assert_eq!(verdicts[0].status, VerdictStatus::Fail);
        assert!(
            verdicts[0].detail.contains("full-level tracing"),
            "{}",
            verdicts[0].detail
        );
    }

    #[test]
    fn the_summary_has_the_pinned_keys() {
        let mut c = cell("http", 0, &[100.0], 2_000);
        c.critical_sums_us = [50_000, 0, 10_000, 30_000, 5_000, 2_000, 1_000, 1_500, 500];
        c.critical_visits = 1;
        let Value::Object(entries) = Summary(&c).to_value() else {
            panic!("summary is an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "protocol",
                "variant",
                "seed",
                "visits",
                "completed",
                "plt_p50_ms",
                "plt_p90_ms",
                "plt_mean_ms",
                "retransmissions",
                "timeouts",
                "connections_opened",
                "promotions",
                "total_bytes",
                "energy_mj",
                "critical_parse_ms",
                "critical_conn_setup_ms",
                "critical_promotion_ms",
                "critical_rto_stall_ms",
                "critical_serialization_ms",
                "critical_queueing_ms",
                "critical_think_ms",
                "critical_wait_ms",
                "critical_receive_ms",
            ]
        );
        // Without critical-path samples the critical_* keys stay absent.
        c.critical_visits = 0;
        let Value::Object(entries) = Summary(&c).to_value() else {
            panic!("summary is an object");
        };
        assert!(entries.iter().all(|(k, _)| !k.starts_with("critical_")));
    }

    #[test]
    fn critical_metrics_pool_over_visits() {
        let mut a = cell("spdy", 0, &[100.0], 0);
        a.critical_sums_us[3] = 4_000;
        a.critical_visits = 1;
        let mut b = cell("spdy", 1, &[200.0], 0);
        b.critical_sums_us[3] = 2_000;
        b.critical_visits = 2;
        // Pooled mean over 3 visits: (4000+2000)/1000/3 = 2.0 ms.
        assert_eq!(
            eval_metric(&[a, b], &["spdy".to_string()], "critical_rto_stall_ms").unwrap(),
            2.0
        );
    }

    #[test]
    fn critical_metrics_without_samples_fail_with_reason() {
        let mut c = cell("http", 0, &[100.0], 0);
        c.critical_visits = 0;
        let e = c.metric("critical_parse_ms").unwrap_err();
        assert!(e.contains("full-level tracing"), "{e}");
    }

    fn visit(plt_ms: f64, completed: bool, total_bytes: u64) -> VisitResult {
        VisitResult {
            site: 1,
            start: spdyier_sim::SimTime::ZERO,
            onload: None,
            plt_ms,
            completed,
            object_timings: Vec::new(),
            object_count: 0,
            total_bytes,
        }
    }

    #[test]
    fn fold_visit_streams_the_same_accumulator_as_batch() {
        let mut folded = CellMetrics::default();
        for v in [
            visit(120.0, true, 1_000),
            visit(60_000.0, false, 400),
            visit(340.5, true, 2_000),
        ] {
            folded.fold_visit(&v);
        }
        assert_eq!(folded.visits, 3);
        assert_eq!(folded.completed, 2);
        assert_eq!(folded.total_bytes, 3_400);
        assert_eq!(folded.plt.count(), 2, "censored visits contribute no PLT");
        assert_eq!(folded.plt.min(), 120.0);
        assert_eq!(folded.plt.max(), 340.5);
    }

    #[test]
    fn merge_reports_sketch_layout_mismatch_with_field_path() {
        let mut a = cell("http", 0, &[100.0], 0);
        let mut b = cell("http", 1, &[200.0], 0);
        b.plt = QuantileSketch::with_sub_bits(5);
        let e = a.merge(&b).unwrap_err();
        assert_eq!(e.path, "quantile_sketch.sub_bits");
        // eval_metric surfaces it instead of mismerging.
        let cells = vec![cell("http", 0, &[100.0], 0), b];
        let e = eval_metric(&cells, &[], "plt_mean_ms").unwrap_err();
        assert!(e.contains("sub_bits"), "{e}");
    }

    #[test]
    fn checkpoint_codec_round_trips_through_json_text() {
        let mut c = cell("spdy:20:late", 3, &[100.25, 5_432.1, 60_000.0], 9_000);
        c.critical_sums_us = [1, 2, 3, 4, 5, 6, 7, 8, 9];
        c.critical_visits = 2;
        c.energy_mj = 1234.5678;
        c.variant = "rtt_reset".into();
        let text = serde_json::to_string(&c).unwrap();
        let decoded = CellMetrics::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(decoded, c, "encode → text → decode must be lossless");
        // Decode failures carry a field path.
        let e = CellMetrics::from_value(&Value::Object(vec![])).unwrap_err();
        assert!(e.contains("cell.protocol"), "{e}");
    }

    #[test]
    fn trace_dropped_reads_the_sink_counter() {
        let mut c = cell("http", 0, &[100.0], 0);
        assert_eq!(c.metric("trace_dropped").unwrap(), 0.0);
        c.counters.insert("trace.sink_dropped".into(), 7);
        assert_eq!(c.metric("trace_dropped").unwrap(), 7.0);
    }
}
