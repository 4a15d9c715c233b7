//! TCP window dynamics: Fig. 11 (SPDY cwnd/ssthresh over a run), Fig. 12
//! (the 40–190 s zoom), Fig. 13 (retransmission bursts per connection),
//! Fig. 17 (LTE cwnd trace).

use crate::{baseline, protocols, run_cells, Executor, ExpOpts, Report};
use serde_json::json;
use spdyier_core::{NetworkKind, RunResult};
use spdyier_sim::{SimDuration, SimTime};

/// Seed 0's full schedule for one `protocol` on `network`, with
/// per-connection TCP traces recorded: one cell, which runs on the
/// calling thread at any pool width.
fn traced_run(id: &str, protocol: &str, network: NetworkKind) -> RunResult {
    let mut manifest = baseline(id, network, 1);
    manifest.protocols = protocols(&[protocol]);
    manifest.tcp_traces = true;
    run_cells(&Executor::new(1), &manifest).remove(0).1
}

fn spdy_trace_report(
    id: &'static str,
    title: &'static str,
    paper_claim: &'static str,
    network: NetworkKind,
    window: Option<(u64, u64)>,
) -> Report {
    let run = traced_run(id, "spdy", network);
    let ct = run
        .conn_traces
        .iter()
        .find(|c| c.trace.is_some())
        .expect("traced SPDY connection");
    let tr = ct.trace.as_ref().expect("trace enabled");
    let (lo, hi) = window.unwrap_or((0, 20 * 60));
    let (lo_t, hi_t) = (SimTime::from_secs(lo), SimTime::from_secs(hi));
    let bin = SimDuration::from_secs(1);
    let horizon = SimTime::from_secs(hi);
    let cwnd = tr.cwnd_segments.bin_last(bin, horizon, 10.0);
    // Display-only substitution: plot "ssthresh unset" at a 999-segment
    // ceiling so the step trace stays on a finite axis.
    let ssthresh = tr
        .ssthresh_segments
        .to_series(999.0)
        .bin_last(bin, horizon, 999.0);
    let rtx: Vec<u64> = tr
        .retransmits
        .times()
        .filter(|&t| t >= lo_t && t < hi_t)
        .map(|t| t.as_millis())
        .collect();
    let idle_restarts: Vec<u64> = tr
        .idle_restarts
        .times()
        .filter(|&t| t >= lo_t && t < hi_t)
        .map(|t| t.as_millis())
        .collect();
    let mut text = String::from("t(s)   cwnd(seg)  ssthresh(seg)\n");
    let step = ((hi - lo) / 30).max(1) as usize;
    for i in (lo as usize..hi as usize).step_by(step) {
        text.push_str(&format!(
            "{:>4}   {:>9.1}  {:>12.1}\n",
            i,
            cwnd[i],
            ssthresh[i].min(200.0)
        ));
    }
    text.push_str(&format!(
        "\nretransmissions in window: {} (at ms: {:?}{})\n",
        rtx.len(),
        &rtx[..rtx.len().min(12)],
        if rtx.len() > 12 { ", …" } else { "" }
    ));
    text.push_str(&format!(
        "idle restarts (cwnd → IW) in window: {}\n",
        idle_restarts.len()
    ));
    let max_cwnd = cwnd[lo as usize..hi as usize]
        .iter()
        .cloned()
        .fold(0.0, f64::max);
    text.push_str(&format!("max cwnd in window: {max_cwnd:.0} segments\n"));
    // Terminal rendering: the cwnd trace with retransmissions marked.
    let window_len = (hi - lo) as usize;
    let cols = 100usize.min(window_len);
    let downsampled: Vec<f64> = (0..cols)
        .map(|i| cwnd[lo as usize + i * window_len / cols])
        .collect();
    text.push('\n');
    text.push_str(&crate::ascii::step_trace(&downsampled, 8, "time", "cwnd"));
    let rtx_rel: Vec<f64> = rtx.iter().map(|&ms| ms as f64 / 1e3 - lo as f64).collect();
    text.push_str(&crate::ascii::event_axis(
        &rtx_rel,
        (hi - lo) as f64,
        cols,
        "rtx",
    ));
    Report {
        id,
        title,
        paper_claim,
        text,
        data: json!({
            "cwnd_per_sec": &cwnd[lo as usize..hi as usize],
            "ssthresh_per_sec": &ssthresh[lo as usize..hi as usize],
            "rtx_ms": rtx,
            "idle_restart_ms": idle_restarts,
        }),
    }
}

/// Fig. 11: cwnd/ssthresh/retransmissions for one full SPDY run on 3G.
pub fn fig11(_opts: ExpOpts) -> Report {
    spdy_trace_report(
        "fig11",
        "SPDY cwnd, ssthresh and retransmissions (3G, full run)",
        "cwnd and ssthresh fluctuate all run; retransmission bursts recur; cwnd is the ceiling on outstanding data",
        NetworkKind::Umts3G,
        None,
    )
}

/// Fig. 12: the 40–190 s zoom of Fig. 11 (three consecutive websites).
pub fn fig12(_opts: ExpOpts) -> Report {
    spdy_trace_report(
        "fig12",
        "SPDY cwnd/ssthresh, 40–190 s zoom",
        "idle periods trigger cwnd collapse to 10; promotions trigger spurious retransmissions that also crush ssthresh",
        NetworkKind::Umts3G,
        Some((40, 190)),
    )
}

/// Fig. 13: retransmission bursts affect individual connections (HTTP).
pub fn fig13(_opts: ExpOpts) -> Report {
    let run = traced_run("fig13", "http", NetworkKind::Umts3G);
    // Rank connections by retransmissions.
    let mut per_conn: Vec<(&str, u64, Vec<u64>)> = run
        .conn_traces
        .iter()
        .map(|c| {
            let times: Vec<u64> = c
                .trace
                .as_ref()
                .map(|t| t.retransmits.times().map(|x| x.as_millis()).collect())
                .unwrap_or_default();
            (c.label.as_str(), c.stats.retransmissions, times)
        })
        .filter(|(_, n, _)| *n > 0)
        .collect();
    per_conn.sort_by_key(|(_, n, _)| std::cmp::Reverse(*n));
    let total: u64 = per_conn.iter().map(|(_, n, _)| *n).sum();
    let conns_with_rtx = per_conn.len();
    let total_conns = run.conn_traces.len();
    let mut text = format!(
        "connections: {total_conns}; with ≥1 retransmission: {conns_with_rtx}; total rtx {total} \
         ({:.1} per affected connection)\n\nworst connections:\n",
        total as f64 / conns_with_rtx.max(1) as f64
    );
    let mut rows = Vec::new();
    for (label, n, times) in per_conn.iter().take(8) {
        let bursts = burst_count(times, 1_000);
        text.push_str(&format!(
            "  {label}: {n} rtx in {bursts} burst(s) at {:?}{}\n",
            &times[..times.len().min(6)],
            if times.len() > 6 { ", …" } else { "" }
        ));
        rows.push(json!({ "conn": label, "rtx": n, "times_ms": times, "bursts": bursts }));
    }
    text.push_str(
        "\nbursts hit one TCP stream while the rest keep flowing — HTTP's late binding of\nrequests to connections routes around the victims; SPDY's single stream cannot.\n",
    );
    Report {
        id: "fig13",
        title: "Retransmission bursts affecting single connections (HTTP)",
        paper_claim: "HTTP has more total retransmissions but they are bursty and typically hit one connection (≈2.9 per connection across ≈42 concurrent)",
        text,
        data: json!({ "connections": rows, "total_rtx": total }),
    }
}

fn burst_count(times_ms: &[u64], gap_ms: u64) -> usize {
    if times_ms.is_empty() {
        return 0;
    }
    1 + times_ms.windows(2).filter(|w| w[1] - w[0] > gap_ms).count()
}

/// Fig. 17: SPDY congestion window and retransmissions over LTE — the
/// problem shrinks but persists.
pub fn fig17(_opts: ExpOpts) -> Report {
    let mut report = spdy_trace_report(
        "fig17",
        "SPDY cwnd and retransmissions over LTE",
        "retransmissions still occur after idle periods on LTE, albeit less frequently than 3G",
        NetworkKind::Lte,
        None,
    );
    let rtx = report.data["rtx_ms"]
        .as_array()
        .map(|a| a.len())
        .unwrap_or(0);
    report.text.push_str(&format!(
        "\nLTE run total SPDY-connection retransmissions: {rtx} — far below the 3G trace, but not zero:\npost-idle spurious timeouts survive the faster (400 ms) promotion.\n"
    ));
    report
}
