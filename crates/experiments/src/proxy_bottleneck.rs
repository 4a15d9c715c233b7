//! The proxy-bottleneck analyses: Fig. 8 (proxy object timelines), Fig. 9
//! (per-second transfer), Fig. 10 (bytes in flight).

use crate::{baseline, by_protocol, protocols, run_cells, ExpOpts, Report};
use serde_json::json;
use spdyier_core::NetworkKind;
use spdyier_sim::{SimDuration, SimTime};

/// Fig. 8: the sequence of steps at the proxy for a SPDY run — origin wait
/// (black), origin download (cyan), transfer to client (red).
pub fn fig8(opts: ExpOpts) -> Report {
    let mut manifest = baseline("fig8", NetworkKind::Umts3G, 1);
    manifest.protocols = protocols(&["spdy"]);
    let run = &run_cells(&opts.exec, &manifest)[0].1;
    let mut waits = Vec::new();
    let mut downloads = Vec::new();
    let mut transfers = Vec::new();
    for rec in &run.proxy_records {
        if let Some(w) = rec.origin_wait() {
            waits.push(w.as_secs_f64() * 1e3);
        }
        if let Some(d) = rec.origin_download() {
            downloads.push(d.as_secs_f64() * 1e3);
        }
        if let Some(t) = rec.client_transfer() {
            transfers.push(t.as_secs_f64() * 1e3);
        }
    }
    let stats = |v: &[f64]| {
        (
            spdyier_sim::stats::mean(v),
            v.iter().cloned().fold(0.0, f64::max),
        )
    };
    let (w_mean, w_max) = stats(&waits);
    let (d_mean, d_max) = stats(&downloads);
    let (t_mean, t_max) = stats(&transfers);
    let text = format!(
        "objects observed at proxy: {}\n\
         origin wait      (req → first byte): mean {:>7.1} ms, max {:>8.0} ms   (paper: 14 ms avg, 46 ms max)\n\
         origin download  (first → last byte): mean {:>6.1} ms, max {:>8.0} ms   (paper: ~4 ms avg)\n\
         client transfer  (done → delivered): mean {:>7.1} ms, max {:>8.0} ms   (paper: dominates — the proxy queues)\n\n\
         transfer-to-client exceeds the origin leg by {:.0}x on average: the\n\
         server↔proxy link is NOT the bottleneck; responses queue at the proxy\n\
         because the cellular downlink drains slowly.\n",
        run.proxy_records.len(),
        w_mean, w_max, d_mean, d_max, t_mean, t_max,
        if w_mean + d_mean > 0.0 { t_mean / (w_mean + d_mean) } else { 0.0 },
    );
    Report {
        id: "fig8",
        title: "Queueing delay at the proxy (SPDY)",
        paper_claim: "origin first byte 14 ms avg / 46 ms max, download ~4 ms; transfer to the client dominates",
        text,
        data: json!({
            "origin_wait_ms": { "mean": w_mean, "max": w_max },
            "origin_download_ms": { "mean": d_mean, "max": d_max },
            "client_transfer_ms": { "mean": t_mean, "max": t_max },
        }),
    }
}

/// Fig. 9: average bytes delivered to the device per second, aligned on
/// visit starts and averaged across the run.
pub fn fig9(opts: ExpOpts) -> Report {
    let mut manifest = baseline("fig9", NetworkKind::Umts3G, opts.seeds);
    manifest.tcp_traces = true;
    let runs = run_cells(&opts.exec, &manifest);
    let (http, spdy) = by_protocol(&runs);
    let horizon = SimTime::from_secs(20 * 60);
    let bin = SimDuration::from_secs(1);
    let avg_bins = |runs: Vec<&spdyier_core::RunResult>| -> Vec<f64> {
        let mut acc = vec![0.0; 20 * 60];
        for r in &runs {
            for (i, v) in r
                .client_downlink_bytes
                .bin_sum(bin, horizon)
                .iter()
                .enumerate()
            {
                acc[i] += v / runs.len() as f64;
            }
        }
        acc
    };
    let h_bins = avg_bins(http);
    let s_bins = avg_bins(spdy);
    // Align on visit starts: fold the 20 minutes into one 60 s window.
    let fold = |bins: &[f64]| -> Vec<f64> {
        let mut window = vec![0.0; 60];
        for (i, v) in bins.iter().enumerate() {
            window[i % 60] += v / 20.0;
        }
        window
    };
    let h_window = fold(&h_bins);
    let s_window = fold(&s_bins);
    let mut text = String::from("sec-into-visit   HTTP (KB/s)   SPDY (KB/s)\n");
    for i in 0..15 {
        text.push_str(&format!(
            "{:>13}   {:>10.1}   {:>10.1}\n",
            i,
            h_window[i] / 1024.0,
            s_window[i] / 1024.0
        ));
    }
    let h_peak = h_window.iter().cloned().fold(0.0, f64::max) / 1024.0;
    let s_peak = s_window.iter().cloned().fold(0.0, f64::max) / 1024.0;
    text.push_str(&format!(
        "\npeak per-second transfer: HTTP {:.0} KB/s vs SPDY {:.0} KB/s ({})\n",
        h_peak,
        s_peak,
        if h_peak >= s_peak {
            "HTTP transfers more per second, as the paper observed"
        } else {
            "SPDY peaks higher here"
        }
    ));
    Report {
        id: "fig9",
        title: "Average data transferred to the device per second",
        paper_claim: "HTTP achieves higher per-second transfers than SPDY, sometimes 2x",
        text,
        data: json!({ "http_window_bytes": h_window, "spdy_window_bytes": s_window }),
    }
}

/// Fig. 10: unacknowledged bytes in flight over one run, plus per-visit
/// zooms showing that whoever holds more bytes in flight loads faster.
pub fn fig10(opts: ExpOpts) -> Report {
    let mut manifest = baseline("fig10", NetworkKind::Umts3G, 1);
    manifest.tcp_traces = true;
    let runs = run_cells(&opts.exec, &manifest);
    let (http, spdy) = by_protocol(&runs);
    let (http, spdy) = (http[0], spdy[0]);
    let horizon = SimTime::from_secs(20 * 60);
    let bin = SimDuration::from_millis(500);
    let h_series = http.inflight_bytes.bin_last(bin, horizon, 0.0);
    let s_series = spdy.inflight_bytes.bin_last(bin, horizon, 0.0);
    let mut text =
        String::from("visit  HTTP max-inflight (KB)  SPDY max-inflight (KB)  faster PLT\n");
    let mut rows = Vec::new();
    for visit in 0..20usize {
        let lo = visit * 120;
        let hi = (lo + 120).min(h_series.len());
        let h_max = h_series[lo..hi].iter().cloned().fold(0.0, f64::max) / 1024.0;
        let s_max = s_series[lo..hi].iter().cloned().fold(0.0, f64::max) / 1024.0;
        let (h_plt, s_plt) = (
            http.visits.get(visit).map(|v| v.plt_ms).unwrap_or(f64::NAN),
            spdy.visits.get(visit).map(|v| v.plt_ms).unwrap_or(f64::NAN),
        );
        let faster = if h_plt < s_plt { "HTTP" } else { "SPDY" };
        text.push_str(&format!(
            "{:>5}  {:>21.0}  {:>21.0}  {}\n",
            visit + 1,
            h_max,
            s_max,
            faster
        ));
        rows.push(json!({
            "visit": visit + 1,
            "http_max_inflight_kb": h_max,
            "spdy_max_inflight_kb": s_max,
            "http_plt_ms": h_plt,
            "spdy_plt_ms": s_plt,
        }));
    }
    // Correlation check: does more in-flight mean faster?
    let consistent = rows
        .iter()
        .filter(|r| {
            let h_in = r["http_max_inflight_kb"].as_f64().unwrap();
            let s_in = r["spdy_max_inflight_kb"].as_f64().unwrap();
            let h_plt = r["http_plt_ms"].as_f64().unwrap();
            let s_plt = r["spdy_plt_ms"].as_f64().unwrap();
            (h_in > s_in) == (h_plt < s_plt)
        })
        .count();
    text.push_str(&format!(
        "\nvisits where the protocol with more bytes in flight also loaded faster: {consistent}/20\n"
    ));
    Report {
        id: "fig10",
        title: "Unacknowledged bytes in flight",
        paper_claim: "whenever outstanding bytes are higher, page load times are lower; SPDY's growth is often slow",
        text,
        data: json!({ "visits": rows }),
    }
}
