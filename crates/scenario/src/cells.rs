//! A manifest's run cells: matrix variants crossed with seeds and
//! protocols, each mapped onto the exact [`ExperimentConfig`] it runs.

use crate::manifest::{Knob, Manifest, ProtocolSpec, Settings, Workload};
use spdyier_core::{config::PageSource, ExperimentConfig};
use spdyier_sim::{DetRng, SimDuration};
use spdyier_workload::{test_page, VisitSchedule};

/// One resolved run cell: a (variant, seed, protocol) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Index in execution order.
    pub index: usize,
    /// Variant name (`""` when the matrix is empty, else
    /// `knob=value+knob=value` in matrix order).
    pub variant: String,
    /// Protocol side.
    pub protocol: ProtocolSpec,
    /// Root seed for this cell.
    pub seed: u64,
    /// Knob settings after applying the variant's overrides.
    pub settings: Settings,
}

/// The shared Table 1 schedule for seed `s` — the single source of truth
/// for the paper's alternating methodology (HTTP and SPDY see the same
/// order): every manifest cell, figure and test takes its schedule here.
pub fn table1_schedule_for_seed(s: u64) -> VisitSchedule {
    let mut rng = DetRng::new(0x5C_u64 ^ (s.wrapping_mul(0x9E37_79B9))).fork("schedule");
    VisitSchedule::paper_default(&mut rng)
}

impl Manifest {
    /// Matrix variants in cross-product order: each one's name and the
    /// settings it runs with. An empty matrix yields one unnamed variant
    /// with the manifest's settings.
    pub fn variants(&self) -> Vec<(String, Settings)> {
        let mut variants = vec![(String::new(), self.settings.clone())];
        for (knob, values) in &self.matrix {
            let row = Knob::named(knob)
                .expect("decode checks matrix knobs; a hand-built one must be real");
            let mut next = Vec::with_capacity(variants.len() * values.len());
            for (name, settings) in &variants {
                for value in values {
                    let part = format!("{knob}={}", value.render());
                    let name = if name.is_empty() {
                        part
                    } else {
                        format!("{name}+{part}")
                    };
                    let mut settings = settings.clone();
                    row.set(&mut settings, value)
                        .expect("decode checks matrix values");
                    next.push((name, settings));
                }
            }
            variants = next;
        }
        variants
    }

    /// All run cells in execution order: variant-outer, then seed, then
    /// protocol — so a paired manifest's cells interleave exactly like the
    /// legacy dump (HTTP line then SPDY line per seed).
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (variant, settings) in self.variants() {
            for seed in self.seeds.base..self.seeds.base + self.seeds.count {
                for &protocol in &self.protocols {
                    cells.push(Cell {
                        index: cells.len(),
                        variant: variant.clone(),
                        protocol,
                        seed,
                        settings: settings.clone(),
                    });
                }
            }
        }
        cells
    }
}

/// Whether `filter` — one term of an assertion reference or of a
/// `--cell` selector — names the cell with this identity: its protocol
/// compact name, its variant name, or `seed<N>` (all case-insensitive).
pub(crate) fn filter_selects(filter: &str, protocol: &str, variant: &str, seed: u64) -> bool {
    let f = filter.to_ascii_lowercase();
    f == protocol.to_ascii_lowercase()
        || (!variant.is_empty() && f == variant.to_ascii_lowercase())
        || f == format!("seed{seed}")
}

impl Cell {
    /// Whether the filter term `filter` selects this cell (the same
    /// predicate as [`crate::CellMetrics::matches`]).
    pub fn matches(&self, filter: &str) -> bool {
        filter_selects(filter, &self.protocol.compact(), &self.variant, self.seed)
    }

    /// Build the full [`ExperimentConfig`] for this cell: the one place a
    /// run's visit schedule is picked, and the one place
    /// [`ExperimentConfig::record_series`] is turned off. Every other
    /// default matches [`ExperimentConfig::paper_3g`] exactly.
    pub fn build_config(&self, manifest: &Manifest) -> ExperimentConfig {
        let sequential = |site, visits: u32, interval_s| {
            let order = vec![site; visits as usize];
            VisitSchedule::sequential(order, SimDuration::from_secs(interval_s))
        };
        let (schedule, pages) = match manifest.workload {
            Workload::Table1 => (table1_schedule_for_seed(self.seed), PageSource::Table1),
            Workload::Site {
                site,
                visits,
                interval_s,
            } => (sequential(site, visits, interval_s), PageSource::Table1),
            Workload::Synthetic {
                objects,
                object_bytes,
                same_domain,
                visits,
                interval_s,
            } => {
                let page = test_page(objects as usize, object_bytes, same_domain);
                (sequential(1, visits, interval_s), PageSource::Custom(page))
            }
        };
        let mut cfg = ExperimentConfig::paper_3g(self.protocol.mode, self.seed, schedule);
        cfg.network = manifest.network.kind;
        cfg.pages = pages;
        let s = &self.settings;
        cfg.tcp.reset_rtt_after_idle = s.rtt_reset_after_idle;
        cfg.tcp.slow_start_after_idle = s.slow_start_after_idle;
        cfg.tcp.cc = s.cc;
        cfg.cache_metrics = s.metrics_cache;
        cfg.keepalive_ping = s.keepalive_ping_s.map(secs_f64);
        cfg.http_pipelining = s.http_pipelining as usize;
        cfg.rrc_promotion_override = s.rrc_promotion_ms.map(SimDuration::from_millis);
        cfg.trace_level = manifest.effective_trace();
        cfg.tcp.trace = manifest.tcp_traces;
        // The per-segment series cost more memory than the rest of a run
        // together; only the paired dump, the plot files and a figure
        // that asks for TCP traces read them.
        let outputs = &manifest.outputs;
        cfg.record_series = manifest.tcp_traces || outputs.paired_dump || outputs.plot_data;
        cfg.event_budget = manifest.limits.event_budget;
        cfg.visit_timeout = SimDuration::from_secs(manifest.limits.visit_timeout_s);
        cfg
    }

    /// Artifact label for this cell: the protocol compact name, extended
    /// with the seed when the manifest has several seeds and with the
    /// variant under a matrix (one cell per protocol stays `<proto>`, as
    /// in `trace_spdy.jsonl`).
    pub fn artifact_label(&self, manifest: &Manifest) -> String {
        let mut label = self.protocol.compact().replace(':', "-");
        if manifest.seeds.count > 1 {
            label.push_str(&format!("_s{}", self.seed));
        }
        if !self.variant.is_empty() {
            label.push('_');
            label.push_str(&self.variant.replace('=', "-").replace('+', "_"));
        }
        label
    }
}

/// Whole milliseconds, rounded; a seconds knob takes at least 1 ms, so
/// this is never zero.
fn secs_f64(s: f64) -> SimDuration {
    SimDuration::from_millis((s * 1_000.0).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_core::ProtocolMode;
    use spdyier_trace::TraceLevel;

    const MINIMAL: &str = r#"{
        "schema_version": 1,
        "name": "paired_3g",
        "network": { "kind": "3g" },
        "protocols": ["http", "spdy"]
    }"#;

    #[test]
    fn baseline_cell_config_equals_paper_3g() {
        let m = Manifest::paper_baseline("x");
        let cells = m.cells();
        assert_eq!(cells.len(), 2);
        let cfg = cells[1].build_config(&m);
        let reference =
            ExperimentConfig::paper_3g(ProtocolMode::spdy(), 0, table1_schedule_for_seed(0));
        assert_eq!(cfg.seed, reference.seed);
        assert_eq!(cfg.network, reference.network);
        assert_eq!(cfg.protocol, reference.protocol);
        assert_eq!(cfg.tcp, reference.tcp);
        assert_eq!(cfg.cache_metrics, reference.cache_metrics);
        assert_eq!(cfg.keepalive_ping, reference.keepalive_ping);
        assert_eq!(cfg.schedule.order, reference.schedule.order);
        assert_eq!(cfg.visit_timeout, reference.visit_timeout);
        assert_eq!(cfg.trace_level, reference.trace_level);
        assert_eq!(cfg.http_pipelining, reference.http_pipelining);
        assert_eq!(cfg.rrc_promotion_override, reference.rrc_promotion_override);
        assert_eq!(cfg.event_budget, reference.event_budget);
        assert!(
            reference.record_series,
            "a hand-built config records the series"
        );
        assert!(!cfg.record_series, "no output of the baseline reads them");
        let reads: [fn(&mut Manifest); 3] = [
            |m| m.tcp_traces = true,
            |m| m.outputs.paired_dump = true,
            |m| m.outputs.plot_data = true,
        ];
        for (i, read) in reads.iter().enumerate() {
            let mut m = Manifest::paper_baseline("x");
            read(&mut m);
            let cfg = m.cells()[1].build_config(&m);
            assert!(cfg.record_series, "reader {i}");
            assert_eq!(cfg.tcp.trace, i == 0, "only tcp_traces traces: reader {i}");
        }
    }

    #[test]
    fn table1_schedules_are_reproducible_and_shared_by_both_protocols() {
        assert_eq!(
            table1_schedule_for_seed(1).order,
            table1_schedule_for_seed(1).order
        );
        assert_ne!(
            table1_schedule_for_seed(1).order,
            table1_schedule_for_seed(2).order
        );
        let m = Manifest::paper_baseline("x");
        let [http, spdy] = &m.cells()[..] else {
            panic!("the baseline is one HTTP/SPDY pair");
        };
        assert_eq!(
            http.build_config(&m).schedule.order,
            spdy.build_config(&m).schedule.order
        );
    }

    #[test]
    fn matrix_cross_product_orders_and_names_variants() {
        let text = r#"{
            "schema_version": 1,
            "name": "matrix",
            "network": { "kind": "3g" },
            "protocols": ["http", "spdy"],
            "matrix": {
                "rtt_reset_after_idle": [false, true],
                "slow_start_after_idle": [true, false]
            }
        }"#;
        let m = Manifest::from_json(text).unwrap();
        let names: Vec<String> = m.variants().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "rtt_reset_after_idle=false+slow_start_after_idle=true",
                "rtt_reset_after_idle=false+slow_start_after_idle=false",
                "rtt_reset_after_idle=true+slow_start_after_idle=true",
                "rtt_reset_after_idle=true+slow_start_after_idle=false",
            ]
        );
        let cells = m.cells();
        assert_eq!(cells.len(), 8);
        // variant-outer, seed, then protocol.
        assert_eq!(cells[0].protocol.compact(), "http");
        assert_eq!(cells[1].protocol.compact(), "spdy");
        assert_eq!(cells[0].variant, cells[1].variant);
        assert!(cells[2].settings.slow_start_after_idle != cells[0].settings.slow_start_after_idle);
        assert!(cells[6].settings.rtt_reset_after_idle);
        assert!(!m.is_paired(), "matrix manifests are not strictly paired");
    }

    #[test]
    fn synthetic_workload_builds_custom_pages() {
        let text = r#"{
            "schema_version": 1,
            "name": "synth",
            "network": { "kind": "wifi" },
            "protocols": ["spdy"],
            "workload": { "kind": "synthetic", "objects": 50, "object_bytes": 2500 }
        }"#;
        let m = Manifest::from_json(text).unwrap();
        let cfg = m.cells()[0].build_config(&m);
        assert_eq!(cfg.schedule.order, vec![1]);
        match &cfg.pages {
            PageSource::Custom(page) => assert_eq!(page.objects.len(), 51),
            PageSource::Table1 => panic!("expected custom pages"),
        }
    }

    /// The shortest interval a seconds knob takes is a 1 ms timer.
    #[test]
    fn the_shortest_seconds_knob_is_a_one_millisecond_timer() {
        let mut m = Manifest::paper_baseline("ping");
        m.settings.keepalive_ping_s = Some(0.001);
        let cfg = m.cells()[0].build_config(&m);
        assert_eq!(cfg.keepalive_ping, Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn assertions_raise_the_cells_trace_level() {
        let text = r#"{
            "schema_version": 1,
            "name": "headline",
            "network": { "kind": "3g" },
            "protocols": ["http", "spdy"],
            "assertions": ["spdy.critical_rto_per_event_ms > http.critical_rto_per_event_ms on 3g"]
        }"#;
        let m = Manifest::from_json(text).unwrap();
        assert_eq!(m.trace, TraceLevel::Off);
        assert_eq!(m.effective_trace(), TraceLevel::Full);
        let cfg = m.cells()[0].build_config(&m);
        assert_eq!(cfg.trace_level, TraceLevel::Full);
    }

    #[test]
    fn critical_path_and_counter_assertions_raise_trace_level_to_full() {
        let text = r#"{
            "schema_version": 1,
            "name": "critical",
            "network": { "kind": "3g" },
            "protocols": ["http", "spdy"],
            "assertions": [
                "spdy.critical_rto_stall_ms > http.critical_rto_stall_ms on 3g"
            ]
        }"#;
        let m = Manifest::from_json(text).unwrap();
        assert_eq!(m.trace, TraceLevel::Off);
        assert_eq!(m.effective_trace(), TraceLevel::Full);

        let text = r#"{
            "schema_version": 1,
            "name": "lossless",
            "network": { "kind": "wifi" },
            "protocols": ["http"],
            "assertions": ["trace_dropped <= 0", "counter.rrc.promotions >= 0"]
        }"#;
        let m = Manifest::from_json(text).unwrap();
        assert_eq!(m.effective_trace(), TraceLevel::Full);
    }

    #[test]
    fn untraced_metrics_leave_the_recorder_off() {
        let text = r#"{
            "schema_version": 1,
            "name": "plain",
            "network": { "kind": "wifi" },
            "protocols": ["http"],
            "assertions": ["plt_p50_ms < 9000", "timeouts >= 0"]
        }"#;
        let m = Manifest::from_json(text).unwrap();
        assert_eq!(m.effective_trace(), TraceLevel::Off);
    }

    #[test]
    fn artifact_labels_stay_legacy_for_single_cells() {
        let m = Manifest::from_json(MINIMAL).unwrap();
        let cells = m.cells();
        assert_eq!(cells[0].artifact_label(&m), "http");
        assert_eq!(cells[1].artifact_label(&m), "spdy");
        let mut multi = m.clone();
        multi.seeds.count = 2;
        let cells = multi.cells();
        assert_eq!(cells[0].artifact_label(&multi), "http_s0");
        assert_eq!(cells[3].artifact_label(&multi), "spdy_s1");
    }
}
