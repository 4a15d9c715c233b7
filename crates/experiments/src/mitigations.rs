//! Mitigation experiments: Fig. 14 (keep the radio in DCH), Fig. 15
//! (`tcp_slow_start_after_idle`), Table 2 (Reno vs Cubic), and the §6
//! proposals (multiple connections / late binding, RTT reset after idle,
//! metrics-cache disabling).

use crate::{baseline, protocols, run_cells, runs_where, ExpOpts, Report};
use serde_json::json;
use spdyier_core::{NetworkKind, ProtocolMode, RunResult};
use spdyier_scenario::KnobValue::{Bool, Null, Number, Str};
use spdyier_sim::{Cdf, SimDuration};
use spdyier_tcp::CcAlgorithm;

fn pooled_plts(runs: &[&RunResult]) -> Vec<f64> {
    runs.iter().flat_map(|r| r.plts_ms()).collect()
}

fn mean_rtx(runs: &[&RunResult]) -> f64 {
    runs.iter()
        .map(|r| r.total_retransmissions as f64)
        .sum::<f64>()
        / runs.len().max(1) as f64
}

/// Fig. 14: CDF of page load times with and without a background ping
/// keeping the device in DCH.
pub fn fig14(opts: ExpOpts) -> Report {
    let mut text = String::from("condition          P(load<8 s)   median (ms)   rtx/run\n");
    let mut data = Vec::new();
    let mut rtx_no_ping = [0.0f64; 2];
    let mut rtx_ping = [0.0f64; 2];
    let mut manifest = baseline("fig14", NetworkKind::Umts3G, opts.seeds);
    manifest.matrix = vec![("keepalive_ping_s".into(), vec![Null, Number(3.0)])];
    let all = run_cells(&opts.exec, &manifest);
    for (pi, protocol) in [ProtocolMode::Http, ProtocolMode::spdy()]
        .into_iter()
        .enumerate()
    {
        for ping in [false, true] {
            let runs = runs_where(&all, |c| {
                c.protocol.mode == protocol && c.settings.keepalive_ping_s.is_some() == ping
            });
            let plts = pooled_plts(&runs);
            let cdf = Cdf::from_samples(&plts);
            let under8 = cdf.fraction_at(8_000.0);
            let median = cdf.quantile(0.5).unwrap_or(0.0);
            let rtx = mean_rtx(&runs);
            if ping {
                rtx_ping[pi] = rtx;
            } else {
                rtx_no_ping[pi] = rtx;
            }
            text.push_str(&format!(
                "{:<6} {:<10}  {:>10.0}%   {:>10.0}   {:>7.0}\n",
                protocol.label(),
                if ping { "+ ping" } else { "no ping" },
                under8 * 100.0,
                median,
                rtx
            ));
            data.push(json!({
                "protocol": protocol.label(),
                "ping": ping,
                "cdf": cdf.points.iter().step_by((cdf.points.len()/50).max(1)).collect::<Vec<_>>(),
                "frac_under_8s": under8,
                "rtx_per_run": rtx,
            }));
        }
    }
    for (pi, label) in ["HTTP", "SPDY"].iter().enumerate() {
        let reduction = if rtx_no_ping[pi] > 0.0 {
            (1.0 - rtx_ping[pi] / rtx_no_ping[pi]) * 100.0
        } else {
            0.0
        };
        text.push_str(&format!(
            "{label}: pinning DCH removes {reduction:.0}% of retransmissions (paper: ~91% HTTP / ~96% SPDY)\n"
        ));
    }
    Report {
        id: "fig14",
        title: "Impact of the cellular RRC state machine (background ping)",
        paper_claim: ">80% of loads finish <8 s with pings vs 40–45% without; rtx drop ~91%/~96%",
        text,
        data: json!({ "conditions": data }),
    }
}

/// Fig. 15: relative PLT difference with `tcp_slow_start_after_idle`
/// disabled (negative = disabling helps).
pub fn fig15(opts: ExpOpts) -> Report {
    let mut text = String::from("site   HTTP Δms (off−on)   SPDY Δms (off−on)\n");
    let mut per_proto = Vec::new();
    let mut manifest = baseline("fig15", NetworkKind::Umts3G, opts.seeds);
    manifest.matrix = vec![(
        "slow_start_after_idle".into(),
        vec![Bool(true), Bool(false)],
    )];
    let all = run_cells(&opts.exec, &manifest);
    for protocol in [ProtocolMode::Http, ProtocolMode::spdy()] {
        let with = |idle_restart: bool| {
            runs_where(&all, |c| {
                c.protocol.mode == protocol && c.settings.slow_start_after_idle == idle_restart
            })
        };
        let (on, off) = (with(true), with(false));
        let mut deltas = Vec::new();
        for site in 1..=20u32 {
            let mean = |runs: &[&RunResult]| {
                let v: Vec<f64> = runs.iter().flat_map(|r| r.plts_for_site(site)).collect();
                spdyier_sim::stats::mean(&v)
            };
            deltas.push(mean(&off) - mean(&on));
        }
        per_proto.push(deltas);
    }
    let mut mixed = [0usize; 2];
    for (site, (h, s)) in per_proto[0].iter().zip(per_proto[1].iter()).enumerate() {
        text.push_str(&format!("{:>4}   {:>16.0}   {:>16.0}\n", site + 1, h, s));
        for (p, delta) in [h, s].into_iter().enumerate() {
            if *delta < 0.0 {
                mixed[p] += 1;
            }
        }
    }
    text.push_str(&format!(
        "\nsites helped by disabling: HTTP {}/20, SPDY {}/20 — benefits vary by site, no\nuniform winner (matches the paper's mixed result)\n",
        mixed[0], mixed[1]
    ));
    Report {
        id: "fig15",
        title: "Page load times with and without tcp_slow_start_after_idle",
        paper_claim: "benefits vary across websites; disabling risks inaccurate cwnd after idle",
        text,
        data: json!({ "http_delta_ms": per_proto[0], "spdy_delta_ms": per_proto[1] }),
    }
}

/// Table 2: HTTP and SPDY under TCP Reno vs TCP Cubic.
pub fn table2(opts: ExpOpts) -> Report {
    let mut text = String::from(
        "metric                     Reno/HTTP   Reno/SPDY   Cubic/HTTP   Cubic/SPDY\n",
    );
    let mut cells = Vec::new();
    let mut manifest = baseline("table2", NetworkKind::Umts3G, opts.seeds);
    manifest.matrix = vec![("cc".into(), vec![Str("reno".into()), Str("cubic".into())])];
    manifest.tcp_traces = true;
    let all = run_cells(&opts.exec, &manifest);
    for cc in [CcAlgorithm::Reno, CcAlgorithm::Cubic] {
        for protocol in [ProtocolMode::Http, ProtocolMode::spdy()] {
            let runs = runs_where(&all, |c| c.protocol.mode == protocol && c.settings.cc == cc);
            let plts = pooled_plts(&runs);
            let plt = spdyier_sim::stats::mean(&plts);
            let thr = runs.iter().map(|r| r.mean_load_throughput()).sum::<f64>()
                / runs.len() as f64
                / 1024.0;
            // Max per-second delivery rate (KBps).
            let max_thr = runs
                .iter()
                .map(|r| {
                    r.client_downlink_bytes
                        .bin_sum(
                            SimDuration::from_secs(1),
                            spdyier_sim::SimTime::from_secs(1200),
                        )
                        .into_iter()
                        .fold(0.0, f64::max)
                })
                .fold(0.0, f64::max)
                / 1024.0;
            // cwnd stats from traces (segments).
            let mut cwnd_means = Vec::new();
            let mut cwnd_max: f64 = 0.0;
            for r in &runs {
                for ct in &r.conn_traces {
                    if let Some(tr) = &ct.trace {
                        if !tr.cwnd_segments.is_empty() {
                            cwnd_means.push(tr.cwnd_segments.mean_value());
                            cwnd_max = cwnd_max.max(tr.cwnd_segments.max_value().unwrap_or(0.0));
                        }
                    }
                }
            }
            let cwnd_mean = spdyier_sim::stats::mean(&cwnd_means);
            cells.push(json!({
                "cc": format!("{cc:?}"),
                "protocol": protocol.label(),
                "avg_plt_ms": plt,
                "avg_throughput_kbps": thr,
                "max_throughput_kbps": max_thr,
                "avg_cwnd_segments": cwnd_mean,
                "max_cwnd_segments": cwnd_max,
            }));
        }
    }
    let get = |i: usize, k: &str| cells[i][k].as_f64().unwrap_or(0.0);
    for (label, key) in [
        ("Avg. page load (ms)", "avg_plt_ms"),
        ("Avg. throughput (KBps)", "avg_throughput_kbps"),
        ("Max. throughput (KBps)", "max_throughput_kbps"),
        ("Avg. cwnd (segments)", "avg_cwnd_segments"),
        ("Max. cwnd (segments)", "max_cwnd_segments"),
    ] {
        text.push_str(&format!(
            "{:<26} {:>9.1} {:>11.1} {:>12.1} {:>12.1}\n",
            label,
            get(0, key),
            get(1, key),
            get(2, key),
            get(3, key)
        ));
    }
    text.push_str(
        "\npaper: Cubic best avg PLT; SPDY+Cubic grows the largest windows (max cwnd 197 vs\nReno's 48); little overall difference between variants.\n",
    );
    Report {
        id: "table2",
        title: "HTTP and SPDY with different TCP variants",
        paper_claim: "little distinguishes Reno and Cubic; Cubic slightly better PLT; SPDY+Cubic reaches much larger cwnd",
        text,
        data: json!({ "cells": cells }),
    }
}

/// §6.1: multiple SPDY connections and late binding.
pub fn multiconn(opts: ExpOpts) -> Report {
    let variants = [
        ("HTTP", "http"),
        ("SPDY-1", "spdy"),
        ("SPDY-20", "spdy:20"),
        ("SPDY-20-late", "spdy:20:late"),
    ];
    let mut manifest = baseline("multiconn", NetworkKind::Umts3G, opts.seeds);
    manifest.protocols = protocols(&variants.map(|(_, spec)| spec));
    let all = run_cells(&opts.exec, &manifest);
    let mut text = String::from("variant         mean PLT (ms)   rtx/run   completed\n");
    let mut rows = Vec::new();
    for (name, spec) in variants {
        let runs = runs_where(&all, |c| c.protocol.compact() == spec);
        let plts: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.visits.iter().map(|v| v.plt_ms))
            .collect();
        let plt = spdyier_sim::stats::mean(&plts);
        let rtx = mean_rtx(&runs);
        let completion = runs.iter().map(|r| r.completion_rate()).sum::<f64>() / runs.len() as f64;
        text.push_str(&format!(
            "{:<15} {:>12.0}   {:>7.0}   {:>8.0}%\n",
            name,
            plt,
            rtx,
            completion * 100.0
        ));
        rows.push(
            json!({ "variant": name, "mean_plt_ms": plt, "rtx": rtx, "completion": completion }),
        );
    }
    text.push_str(
        "\npaper §6.1: spreading SPDY over 20 connections does NOT help, because requests\nbind to connections up front; late binding of responses to transmittable\nconnections recovers much of the loss.\n",
    );
    Report {
        id: "multiconn",
        title: "Multiple SPDY connections and late binding (§6.1)",
        paper_claim: "20 SPDY connections do not improve load times; late binding of responses is what is required",
        text,
        data: json!({ "variants": rows }),
    }
}

/// §6.2.1: resetting the RTT estimate after idle.
pub fn rttreset(opts: ExpOpts) -> Report {
    let mut text =
        String::from("protocol  rtt-reset  mean PLT (ms)   rtx/run   promotions-correlated rtx\n");
    let mut rows = Vec::new();
    let mut manifest = baseline("rttreset", NetworkKind::Umts3G, opts.seeds);
    manifest.matrix = vec![("rtt_reset_after_idle".into(), vec![Bool(false), Bool(true)])];
    let all = run_cells(&opts.exec, &manifest);
    for protocol in [ProtocolMode::Http, ProtocolMode::spdy()] {
        for reset in [false, true] {
            let runs = runs_where(&all, |c| {
                c.protocol.mode == protocol && c.settings.rtt_reset_after_idle == reset
            });
            let plts = pooled_plts(&runs);
            let plt = spdyier_sim::stats::mean(&plts);
            let rtx = mean_rtx(&runs);
            let correlated = runs
                .iter()
                .map(|r| r.promotion_correlated_rtx(SimDuration::from_secs(1)) as f64)
                .sum::<f64>()
                / runs.len() as f64;
            text.push_str(&format!(
                "{:<8}  {:<9}  {:>12.0}   {:>7.0}   {:>10.0}\n",
                protocol.label(),
                if reset { "on" } else { "off" },
                plt,
                rtx,
                correlated
            ));
            rows.push(json!({
                "protocol": protocol.label(),
                "reset": reset,
                "mean_plt_ms": plt,
                "rtx": rtx,
                "promotion_correlated": correlated,
            }));
        }
    }
    text.push_str(
        "\npaper §6.2.1: resetting the RTT estimate to its initial (multi-second) value after\nidle makes the RTO exceed the promotion delay, eliminating spurious timeouts and\nletting cwnd grow promptly.\n",
    );
    Report {
        id: "rttreset",
        title: "Resetting the RTT estimate after idle (§6.2.1)",
        paper_claim: "resetting the RTT estimate avoids spurious timeouts after promotions and reduces page load times",
        text,
        data: json!({ "rows": rows }),
    }
}

/// §6.2.4: the TCP metrics cache.
pub fn metricscache(opts: ExpOpts) -> Report {
    let mut text = String::from("protocol  cache   mean PLT (ms)   median PLT (ms)\n");
    let mut rows = Vec::new();
    let mut medians = [[0.0f64; 2]; 2];
    let mut manifest = baseline("metricscache", NetworkKind::Umts3G, opts.seeds);
    manifest.matrix = vec![("metrics_cache".into(), vec![Bool(true), Bool(false)])];
    let all = run_cells(&opts.exec, &manifest);
    for (pi, protocol) in [ProtocolMode::Http, ProtocolMode::spdy()]
        .into_iter()
        .enumerate()
    {
        for (ci, cache) in [true, false].into_iter().enumerate() {
            let runs = runs_where(&all, |c| {
                c.protocol.mode == protocol && c.settings.metrics_cache == cache
            });
            let plts = pooled_plts(&runs);
            let mean = spdyier_sim::stats::mean(&plts);
            let median = spdyier_sim::stats::percentile(&plts, 50.0);
            medians[pi][ci] = median;
            text.push_str(&format!(
                "{:<8}  {:<5}   {:>12.0}   {:>14.0}\n",
                protocol.label(),
                if cache { "on" } else { "off" },
                mean,
                median
            ));
            rows.push(json!({
                "protocol": protocol.label(),
                "cache": cache,
                "mean_plt_ms": mean,
                "median_plt_ms": median,
            }));
        }
    }
    for (pi, label) in ["HTTP", "SPDY"].iter().enumerate() {
        let gain = if medians[pi][0] > 0.0 {
            (1.0 - medians[pi][1] / medians[pi][0]) * 100.0
        } else {
            0.0
        };
        text.push_str(&format!(
            "{label}: disabling the cache changes the median by {gain:.0}% (paper: ~35% improvement at the median)\n"
        ));
    }
    Report {
        id: "metricscache",
        title: "Caching TCP statistics across connections (§6.2.4)",
        paper_claim:
            "disabling the per-destination metrics cache improved ~50% of runs by about 35%",
        text,
        data: json!({ "rows": rows }),
    }
}
