//! The paper's headline qualitative results, asserted as tests. These are
//! the "shape" checks EXPERIMENTS.md reports: who wins, roughly by how
//! much, and which mechanism is responsible.

use spdyier::core::{NetworkKind, ProtocolMode, RunResult};
use spdyier::experiments::run_cell;
use spdyier::scenario::{Manifest, ProtocolSpec, Settings, Workload};
use spdyier::sim::SimDuration;

/// The paper baseline on `network` at `seed`: HTTP then SPDY over the
/// seed's shared Table 1 schedule — the schedule the figure runners and
/// scenario manifests use for that seed, so these thresholds assert
/// exactly what EXPERIMENTS.md reports.
fn baseline(network: NetworkKind, seed: u64) -> Manifest {
    let mut m = Manifest::paper_baseline("paper_shapes");
    m.network.kind = network;
    m.seeds.base = seed;
    m
}

/// The (HTTP, SPDY) runs of a paired manifest.
fn pair(m: &Manifest) -> (RunResult, RunResult) {
    let run = |cell| run_cell(m, cell).expect("within budget").0;
    let runs: Vec<RunResult> = m.cells().iter().map(run).collect();
    let [http, spdy]: [RunResult; 2] = runs.try_into().expect("one HTTP/SPDY pair");
    (http, spdy)
}

/// SPDY alone on 3G over [`baseline`]'s schedule at `seed`, with
/// `mitigate` applied to its knob settings.
fn spdy_3g(seed: u64, mitigate: impl FnOnce(&mut Settings)) -> RunResult {
    let mut m = baseline(NetworkKind::Umts3G, seed);
    m.protocols = vec![ProtocolSpec {
        mode: ProtocolMode::spdy(),
    }];
    mitigate(&mut m.settings);
    run_cell(&m, &m.cells()[0]).expect("within budget").0
}

#[test]
fn wifi_spdy_clearly_outperforms_http() {
    // Paper Fig. 4: SPDY beats HTTP on (almost) every site over WiFi.
    let (http, spdy) = pair(&baseline(NetworkKind::Wifi, 0));
    let wins = http
        .visits
        .iter()
        .zip(spdy.visits.iter())
        .filter(|(h, s)| s.plt_ms < h.plt_ms)
        .count();
    assert!(wins >= 15, "SPDY won only {wins}/20 sites on WiFi");
    let h_mean: f64 = http.visits.iter().map(|v| v.plt_ms).sum::<f64>() / 20.0;
    let s_mean: f64 = spdy.visits.iter().map(|v| v.plt_ms).sum::<f64>() / 20.0;
    assert!(
        s_mean < h_mean * 0.95,
        "SPDY meaningfully faster on WiFi: {s_mean:.0} vs {h_mean:.0}"
    );
}

#[test]
fn cellular_erases_spdys_advantage() {
    // Paper Fig. 3: no convincing winner over 3G. Assert neither side
    // dominates across seeds (per-run variance is substantial, exactly as
    // the paper's wide whiskers show): pooled mean PLTs within 25% of
    // each other and each protocol wins a meaningful share of visits.
    let mut h_sum = 0.0;
    let mut s_sum = 0.0;
    let mut spdy_wins = 0usize;
    let mut visits = 0usize;
    for seed in 0..3u64 {
        let (http, spdy) = pair(&baseline(NetworkKind::Umts3G, seed));
        h_sum += http.visits.iter().map(|v| v.plt_ms).sum::<f64>();
        s_sum += spdy.visits.iter().map(|v| v.plt_ms).sum::<f64>();
        spdy_wins += http
            .visits
            .iter()
            .zip(spdy.visits.iter())
            .filter(|(h, s)| s.plt_ms < h.plt_ms)
            .count();
        visits += http.visits.len();
    }
    let ratio = s_sum / h_sum;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "3G pooled means within 25%: ratio {ratio:.2}"
    );
    let share = spdy_wins as f64 / visits as f64;
    assert!(
        (0.15..=0.85).contains(&share),
        "both protocols win a meaningful share on 3G; SPDY won {spdy_wins}/{visits}"
    );
}

#[test]
fn spdys_wifi_advantage_shrinks_on_3g() {
    // The crossover itself: SPDY's relative advantage on WiFi must exceed
    // its advantage (if any) on 3G.
    let adv = |h: &RunResult, s: &RunResult| {
        let hm: f64 = h.visits.iter().map(|v| v.plt_ms).sum::<f64>();
        let sm: f64 = s.visits.iter().map(|v| v.plt_ms).sum::<f64>();
        (hm - sm) / hm
    };
    // Average over seeds: per-seed 3G variance is large (it is in the
    // paper too — that is rather the point). Use the experiment harness's
    // own schedules so this asserts exactly what EXPERIMENTS.md reports.
    let mut wifi_adv = 0.0;
    let mut g3_adv = 0.0;
    for seed in [0, 1, 2] {
        let (http_w, spdy_w) = pair(&baseline(NetworkKind::Wifi, seed));
        let (http_g, spdy_g) = pair(&baseline(NetworkKind::Umts3G, seed));
        wifi_adv += adv(&http_w, &spdy_w) / 3.0;
        g3_adv += adv(&http_g, &spdy_g) / 3.0;
    }
    assert!(
        wifi_adv > g3_adv,
        "SPDY advantage shrinks on 3G: wifi {wifi_adv:.3} vs 3G {g3_adv:.3}"
    );
}

#[test]
fn retransmissions_are_overwhelmingly_spurious_on_3g() {
    // Paper §5.5.2: upon inspection, all retransmissions in an HTTP run
    // were spurious. Our testbed counts actual downlink drops directly.
    let (http, spdy) = pair(&baseline(NetworkKind::Umts3G, 2));
    for r in [&http, &spdy] {
        let (queue_drops, loss_drops) = r.downlink_drops;
        let drops = queue_drops + loss_drops;
        assert!(
            drops * 10 <= r.total_retransmissions.max(1),
            "{}: {} rtx but only {} real drops — spurious dominates",
            r.protocol,
            r.total_retransmissions,
            drops
        );
    }
}

#[test]
fn retransmissions_cluster_around_promotions() {
    let (_, spdy) = pair(&baseline(NetworkKind::Umts3G, 3));
    let correlated = spdy.promotion_correlated_rtx(SimDuration::from_secs(2));
    assert!(
        correlated * 2 >= spdy.total_retransmissions as usize,
        "most SPDY rtx are promotion-correlated: {correlated}/{}",
        spdy.total_retransmissions
    );
}

#[test]
fn pinning_the_radio_slashes_retransmissions() {
    // Paper Fig. 14: ~91–96% reduction with the keepalive ping.
    let base = spdy_3g(4, |_| {});
    let pinged = spdy_3g(4, |s| s.keepalive_ping_s = Some(3.0));
    assert!(
        (pinged.total_retransmissions as f64) < base.total_retransmissions as f64 * 0.4,
        "ping removes most retransmissions: {} -> {}",
        base.total_retransmissions,
        pinged.total_retransmissions
    );
    let b_mean: f64 = base.visits.iter().map(|v| v.plt_ms).sum::<f64>() / 20.0;
    let p_mean: f64 = pinged.visits.iter().map(|v| v.plt_ms).sum::<f64>() / 20.0;
    assert!(
        p_mean < b_mean,
        "pinning improves PLT: {p_mean:.0} vs {b_mean:.0}"
    );
}

#[test]
fn lte_has_far_fewer_retransmissions_than_3g() {
    // Paper: 8.9/7.5 per run on LTE vs 117/63 on 3G. Average two seeds;
    // per-seed rtx counts vary.
    let (http_g1, spdy_g1) = pair(&baseline(NetworkKind::Umts3G, 5));
    let (http_g2, spdy_g2) = pair(&baseline(NetworkKind::Umts3G, 6));
    let (http_l1, spdy_l1) = pair(&baseline(NetworkKind::Lte, 5));
    let (http_l2, spdy_l2) = pair(&baseline(NetworkKind::Lte, 6));
    let sum = |a: &RunResult, b: &RunResult| a.total_retransmissions + b.total_retransmissions;
    let (http_g, spdy_g) = (sum(&http_g1, &http_g2), sum(&spdy_g1, &spdy_g2));
    let (http_l, spdy_l) = (sum(&http_l1, &http_l2), sum(&spdy_l1, &spdy_l2));
    assert!(
        (http_l as f64) < http_g as f64 * 0.5,
        "LTE HTTP rtx {http_l} ≪ 3G {http_g}"
    );
    // SPDY's LTE floor is one spurious rtx per promotion (RTO 200 ms vs
    // the 400 ms promotion), so the reduction is structurally ~2x here
    // versus the paper's ~8x; direction and mechanism match.
    assert!(
        (spdy_l as f64) < spdy_g as f64 * 0.67,
        "LTE SPDY rtx {spdy_l} ≪ 3G {spdy_g}"
    );
}

#[test]
fn proxy_transfer_leg_dominates_for_spdy() {
    // Paper Fig. 8: origin wait ~14 ms and download ~4 ms; the transfer to
    // the client dominates by an order of magnitude.
    let mut m = baseline(NetworkKind::Umts3G, 6);
    // A run keeps its proxy records only when it records its series.
    m.tcp_traces = true;
    let (_, spdy) = pair(&m);
    assert!(!spdy.proxy_records.is_empty());
    let mut origin_ms = Vec::new();
    let mut transfer_ms = Vec::new();
    for rec in &spdy.proxy_records {
        if let (Some(w), Some(t)) = (rec.origin_wait(), rec.client_transfer()) {
            origin_ms.push(w.as_secs_f64() * 1e3);
            transfer_ms.push(t.as_secs_f64() * 1e3);
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&transfer_ms) > 5.0 * mean(&origin_ms),
        "client transfer ({:.0} ms) dominates origin wait ({:.0} ms)",
        mean(&transfer_ms),
        mean(&origin_ms)
    );
}

#[test]
fn rtt_reset_eliminates_promotion_timeouts() {
    // Paper §6.2.1. Compare promotion-correlated rtx with and without the fix.
    let base = spdy_3g(7, |_| {});
    let fixed = spdy_3g(7, |s| s.rtt_reset_after_idle = true);
    assert!(
        fixed.total_retransmissions * 3 < base.total_retransmissions.max(1),
        "rtt reset removes most rtx: {} -> {}",
        base.total_retransmissions,
        fixed.total_retransmissions
    );
}

#[test]
fn spdy_requests_everything_http_trickles() {
    // Paper Figs. 6/7: SPDY issues all discovered requests immediately;
    // HTTP is limited by its pool.
    let mut m = baseline(NetworkKind::Umts3G, 1);
    m.workload = Workload::Synthetic {
        objects: 50,
        object_bytes: 40_000,
        same_domain: true,
        visits: 1,
        interval_s: 60,
    };
    let (http, spdy) = pair(&m);
    let span = |r: &RunResult| {
        let v = &r.visits[0];
        let reqs: Vec<f64> = v.object_timings[1..]
            .iter()
            .filter_map(|t| t.requested)
            .map(|t| t.saturating_since(v.start).as_secs_f64())
            .collect();
        reqs.iter().cloned().fold(0.0, f64::max) - reqs.iter().cloned().fold(f64::MAX, f64::min)
    };
    assert!(span(&spdy) < 0.05, "SPDY requests all 50 within 50 ms");
    assert!(span(&http) > 0.5, "HTTP spreads requests over its pool");
}
