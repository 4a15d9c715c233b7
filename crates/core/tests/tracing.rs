//! Flight-recorder acceptance tests: tracing must be invisible to the
//! simulation (byte-identical results with the recorder off or on),
//! and the stall attributor must conserve PLT and reproduce the
//! paper's SPDY-suffers-more-RTOs story on 3G.

use spdyier_core::{
    attribute_stalls, ExperimentConfig, FlightLog, NetworkKind, ProtocolMode, RunResult, Testbed,
    TraceLevel,
};
use spdyier_sim::SimDuration;
use spdyier_workload::VisitSchedule;

fn run_traced(cfg: ExperimentConfig) -> (RunResult, FlightLog) {
    Testbed::new(cfg).try_run_traced().expect("within budget")
}

fn small_cfg(protocol: ProtocolMode, level: TraceLevel) -> ExperimentConfig {
    let schedule = VisitSchedule::sequential(vec![9], SimDuration::from_secs(60));
    let mut cfg = ExperimentConfig::paper_3g(protocol, 3, schedule);
    cfg.network = NetworkKind::Wifi;
    cfg.trace_level = level;
    cfg
}

/// Two visits with the §5.7 beacon gap between them — long enough on 3G
/// for the radio to demote and for background transfers to hit RTOs.
fn paired_3g_cfg(protocol: ProtocolMode, level: TraceLevel) -> ExperimentConfig {
    let schedule = VisitSchedule::sequential(vec![9, 4], SimDuration::from_secs(120));
    let mut cfg = ExperimentConfig::paper_3g(protocol, 3, schedule);
    cfg.trace_level = level;
    cfg
}

#[test]
fn tracing_is_invisible_to_the_simulation() {
    let (r_off, log_off) = run_traced(small_cfg(ProtocolMode::spdy(), TraceLevel::Off));
    let (r_full, log_full) = run_traced(small_cfg(ProtocolMode::spdy(), TraceLevel::Full));

    // Off: nothing materialized at all.
    assert!(log_off.events.is_empty());
    assert!(log_off.metrics.is_empty());

    // Full: the stream is populated, yet the simulation is untouched —
    // the serialized results are byte-identical.
    assert!(!log_full.events.is_empty());
    assert_eq!(
        log_full.metrics.counter("trace.emitted"),
        log_full.events.len() as u64
    );
    let off_json = serde_json::to_string(&r_off).unwrap();
    let full_json = serde_json::to_string(&r_full).unwrap();
    assert_eq!(off_json, full_json, "tracing perturbed the run");
}

#[test]
fn stall_attribution_conserves_plt_exactly() {
    let (_, log) = run_traced(paired_3g_cfg(ProtocolMode::spdy(), TraceLevel::Full));
    let stalls = attribute_stalls(&log);
    assert!(!stalls.is_empty(), "traced run produced visits");
    for b in &stalls {
        assert_eq!(
            b.attributed_us(),
            b.plt_us(),
            "visit {}: categories must sum to PLT exactly",
            b.visit
        );
        assert!(
            b.promotion_us + b.serialization_us + b.queueing_us > 0,
            "visit {}: a 3G load spends time on the radio and the link",
            b.visit
        );
    }
}

#[test]
fn spdy_attributes_more_rto_stall_than_http_on_3g() {
    let (_, spdy_log) = run_traced(paired_3g_cfg(ProtocolMode::spdy(), TraceLevel::Full));
    let (_, http_log) = run_traced(paired_3g_cfg(ProtocolMode::Http, TraceLevel::Full));
    let rto_total =
        |log: &FlightLog| -> u64 { attribute_stalls(log).iter().map(|b| b.rto_stall_us).sum() };
    let spdy_rto = rto_total(&spdy_log);
    let http_rto = rto_total(&http_log);
    assert!(
        spdy_rto > http_rto,
        "paper §5.7: SPDY's single long-lived connection eats more RTO \
         stall than HTTP's pool (spdy {spdy_rto}us vs http {http_rto}us)"
    );
}
