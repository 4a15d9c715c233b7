//! Fault-injection integration tests: the testbed must stay correct —
//! every page still completes, every byte still arrives — under genuine
//! packet loss, and degrade gracefully rather than collapse.

use spdyier::core::{ExperimentConfig, NetworkKind, ProtocolMode, RunResult, Testbed};
use spdyier::net::LossModel;
use spdyier::scenario::Manifest;
use spdyier::sim::SimDuration;
use spdyier::tcp::{RtxTrigger, SegKind};
use spdyier::workload::VisitSchedule;
use std::collections::BTreeSet;

/// `sites` in order over WiFi under `loss`: a fixed site list no
/// workload kind expresses, so it goes to the constructor as is.
fn lossy(protocol: ProtocolMode, loss: Option<LossModel>, sites: Vec<u32>) -> Testbed {
    let schedule = VisitSchedule::sequential(sites, SimDuration::from_secs(60));
    let mut cfg = ExperimentConfig::paper_3g(protocol, 11, schedule);
    cfg.network = NetworkKind::Wifi;
    cfg.access_loss = loss;
    Testbed::new(cfg)
}

fn run_lossy(protocol: ProtocolMode, loss: Option<LossModel>, sites: Vec<u32>) -> RunResult {
    lossy(protocol, loss, sites).run()
}

#[test]
fn pages_complete_under_one_percent_loss() {
    for protocol in [ProtocolMode::Http, ProtocolMode::spdy()] {
        let r = run_lossy(protocol, Some(LossModel::Bernoulli { p: 0.01 }), vec![5, 9]);
        assert!(
            r.visits.iter().all(|v| v.completed),
            "{protocol:?} completed under 1% loss"
        );
        let (_, loss_drops) = r.downlink_drops;
        assert!(loss_drops > 0, "loss actually occurred");
    }
}

#[test]
fn pages_complete_under_five_percent_loss() {
    for protocol in [ProtocolMode::Http, ProtocolMode::spdy()] {
        let r = run_lossy(protocol, Some(LossModel::Bernoulli { p: 0.05 }), vec![9]);
        assert!(
            r.visits[0].completed,
            "{protocol:?} completed the 5-object site under 5% loss"
        );
    }
}

#[test]
fn loss_slows_loads_monotonically_ish() {
    let clean = run_lossy(ProtocolMode::spdy(), None, vec![5]);
    let lossy = run_lossy(
        ProtocolMode::spdy(),
        Some(LossModel::Bernoulli { p: 0.03 }),
        vec![5],
    );
    assert!(
        lossy.visits[0].plt_ms > clean.visits[0].plt_ms,
        "3% loss must cost time: {} vs {}",
        lossy.visits[0].plt_ms,
        clean.visits[0].plt_ms
    );
}

#[test]
fn bursty_loss_is_survivable() {
    let r = run_lossy(
        ProtocolMode::spdy(),
        Some(LossModel::GilbertElliott {
            p_good_to_bad: 0.002,
            p_bad_to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 0.5,
        }),
        vec![5, 12],
    );
    assert!(r.visits.iter().all(|v| v.completed), "bursty loss survived");
    assert!(r.total_retransmissions > 0, "recovery actually happened");
}

#[test]
fn genuine_loss_produces_genuine_retransmissions() {
    // Under injected loss the spurious-dominance invariant must NOT hold:
    // retransmissions are repairing real drops.
    let r = run_lossy(
        ProtocolMode::Http,
        Some(LossModel::Bernoulli { p: 0.02 }),
        vec![5, 12],
    );
    let (queue_drops, loss_drops) = r.downlink_drops;
    let drops = queue_drops + loss_drops;
    assert!(drops > 5, "drops recorded: {drops}");
    assert!(
        r.total_retransmissions as u64 >= drops / 2,
        "retransmissions repair the drops: {} rtx vs {} drops",
        r.total_retransmissions,
        drops
    );
}

/// Every path that asks for a retransmission shows in the census. A
/// partial ACK needs two losses in one window, so the 2% runs above
/// hold none; at 5% every trigger fires.
#[test]
fn bernoulli_loss_retransmits_by_every_trigger() {
    let loss = Some(LossModel::Bernoulli { p: 0.05 });
    let testbed = lossy(ProtocolMode::Http, loss, vec![5, 12]);
    let (r, _, census) = testbed.run_census().expect("within budget");
    let rtx: Vec<_> = census
        .iter()
        .filter(|(_, rec)| rec.sent.is_some())
        .collect();
    let triggers: BTreeSet<RtxTrigger> = rtx.iter().map(|(_, rec)| rec.trigger).collect();
    let all = [
        RtxTrigger::Rto,
        RtxTrigger::FastRetransmit,
        RtxTrigger::PartialAck,
    ];
    assert_eq!(triggers, BTreeSet::from(all));
    let counted = rtx.iter().filter(|(_, rec)| rec.kind != SegKind::PureFin);
    assert_eq!(counted.count() as u64, r.total_retransmissions);
}

#[test]
fn lossy_cellular_compounds_with_promotions() {
    let m = Manifest::from_json(
        r#"{
            "schema_version": 1,
            "name": "lossy_3g",
            "network": { "kind": "3g" },
            "protocols": ["spdy"],
            "workload": { "kind": "site", "site": 9 },
            "seeds": { "base": 13 }
        }"#,
    )
    .expect("manifest decodes");
    // Loss is not a manifest knob: set it on the cell's config.
    let mut cfg = m.cells()[0].build_config(&m);
    cfg.access_loss = Some(LossModel::Bernoulli { p: 0.02 });
    let r = Testbed::new(cfg).run();
    assert!(r.visits[0].completed, "completes despite loss + promotions");
    assert!(!r.promotions.is_empty());
}
