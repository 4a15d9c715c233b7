//! End-to-end smoke tests: full page loads through the assembled testbed.

use spdyier_core::{run_experiment, ExperimentConfig, NetworkKind, ProtocolMode};
use spdyier_sim::SimDuration;
use spdyier_workload::VisitSchedule;

fn short_schedule(sites: Vec<u32>) -> VisitSchedule {
    VisitSchedule::sequential(sites, SimDuration::from_secs(60))
}

fn quick_cfg(protocol: ProtocolMode, network: NetworkKind, sites: Vec<u32>) -> ExperimentConfig {
    ExperimentConfig::paper_3g(protocol, 42)
        .with_network(network)
        .with_schedule(short_schedule(sites))
}

#[test]
fn http_loads_one_small_site_over_wifi() {
    let result = run_experiment(quick_cfg(ProtocolMode::Http, NetworkKind::Wifi, vec![9]));
    assert_eq!(result.visits.len(), 1);
    let v = &result.visits[0];
    assert!(v.completed, "site 9 (5 objects) must load; unfinished run");
    assert!(v.plt_ms > 0.0);
    assert!(
        v.plt_ms < 10_000.0,
        "tiny site over WiFi is fast, got {} ms",
        v.plt_ms
    );
}

#[test]
fn spdy_loads_one_small_site_over_wifi() {
    let result = run_experiment(quick_cfg(ProtocolMode::spdy(), NetworkKind::Wifi, vec![9]));
    assert_eq!(result.visits.len(), 1);
    assert!(result.visits[0].completed, "SPDY load completes");
}

#[test]
fn http_loads_a_medium_site_over_3g() {
    let result = run_experiment(quick_cfg(ProtocolMode::Http, NetworkKind::Umts3G, vec![5]));
    let v = &result.visits[0];
    assert!(v.completed, "site 5 must load over 3G");
    // 3G promotion alone is 2 s.
    assert!(
        v.plt_ms > 2_000.0,
        "3G PLT includes promotion, got {} ms",
        v.plt_ms
    );
}

#[test]
fn spdy_loads_a_medium_site_over_3g() {
    let result = run_experiment(quick_cfg(
        ProtocolMode::spdy(),
        NetworkKind::Umts3G,
        vec![5],
    ));
    let v = &result.visits[0];
    assert!(v.completed, "site 5 must load over 3G via SPDY");
    assert!(v.plt_ms > 2_000.0);
    assert!(
        !result.promotions.is_empty(),
        "the radio promoted at least once"
    );
}

#[test]
fn deterministic_across_runs() {
    let a = run_experiment(quick_cfg(
        ProtocolMode::Http,
        NetworkKind::Wifi,
        vec![9, 12],
    ));
    let b = run_experiment(quick_cfg(
        ProtocolMode::Http,
        NetworkKind::Wifi,
        vec![9, 12],
    ));
    let plts_a: Vec<f64> = a.visits.iter().map(|v| v.plt_ms).collect();
    let plts_b: Vec<f64> = b.visits.iter().map(|v| v.plt_ms).collect();
    assert_eq!(plts_a, plts_b, "same seed ⇒ identical results");
}

/// With `http_pipelining > 1` the assignment sweep also reads every
/// connection's queue depth, so its skip-when-unchanged memo keys on
/// that too. Test builds re-run the sweep on every memo hit and assert
/// it was a no-op, so completing a throttled 3G load here is the check
/// that the pipelined key is complete.
#[test]
fn pipelined_http_stacks_requests_on_fewer_connections() {
    let run = |depth: usize| {
        let mut cfg = quick_cfg(ProtocolMode::Http, NetworkKind::Umts3G, vec![5, 1]);
        cfg.http_pipelining = depth;
        run_experiment(cfg)
    };
    let (plain, pipelined) = (run(1), run(4));
    assert!(pipelined.visits.iter().all(|v| v.completed));
    assert!(
        pipelined.connections_opened < plain.connections_opened,
        "depth 4 opened {} connections, depth 1 {}",
        pipelined.connections_opened,
        plain.connections_opened
    );
}
