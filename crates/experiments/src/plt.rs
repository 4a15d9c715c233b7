//! Page-load-time comparisons: Fig. 3 (3G box plots), Fig. 4 (WiFi means),
//! Fig. 16 (LTE box plots).

use crate::{baseline, by_protocol, plts_by_site, run_cells, ExpOpts, Report};
use serde_json::json;
use spdyier_core::NetworkKind;
use spdyier_sim::{BoxStats, MeanCi};

fn boxplot_text(
    http: &[(u32, Vec<f64>)],
    spdy: &[(u32, Vec<f64>)],
) -> (String, Vec<serde_json::Value>) {
    let mut text = String::from(
        "site   HTTP min/q1/med/q3/max (mean)          SPDY min/q1/med/q3/max (mean)\n",
    );
    let mut rows = Vec::new();
    for ((site, h), (_, s)) in http.iter().zip(spdy.iter()) {
        let hb = BoxStats::from_samples(h);
        let sb = BoxStats::from_samples(s);
        let fmt = |b: &Option<BoxStats>| match b {
            Some(b) => format!(
                "{:>5.0}/{:>5.0}/{:>5.0}/{:>5.0}/{:>6.0} ({:>5.0})",
                b.min, b.q1, b.median, b.q3, b.max, b.mean
            ),
            None => "          (no samples)          ".to_string(),
        };
        text.push_str(&format!("{:>4}   {}   {}\n", site, fmt(&hb), fmt(&sb)));
        rows.push(json!({ "site": site, "http": hb, "spdy": sb }));
    }
    (text, rows)
}

/// Fig. 3: page load times over 3G, HTTP vs SPDY.
pub fn fig3(opts: ExpOpts) -> Report {
    let manifest = baseline("fig3", NetworkKind::Umts3G, opts.seeds);
    let runs = run_cells(&opts.exec, &manifest);
    let (http, spdy) = by_protocol(&runs);
    let hs = plts_by_site(&http);
    let ss = plts_by_site(&spdy);
    let (mut text, rows) = boxplot_text(&hs, &ss);
    // A terminal rendering of the figure itself: median PLT per site.
    let bar_rows: Vec<(String, f64, f64)> = hs
        .iter()
        .zip(ss.iter())
        .map(|((site, h), (_, s))| (format!("site {site}"), median(h), median(s)))
        .collect();
    text.push('\n');
    text.push_str(&crate::ascii::paired_bars(&bar_rows, "HTTP", "SPDY", 40));
    // Significance by box separation: a site is a clear win only when the
    // interquartile boxes do not overlap (the visual read of a box plot).
    let mut clear_http = 0;
    let mut clear_spdy = 0;
    let mut ties = 0;
    for ((_, h), (_, s)) in hs.iter().zip(ss.iter()) {
        match (BoxStats::from_samples(h), BoxStats::from_samples(s)) {
            (Some(hb), Some(sb)) if hb.q3 < sb.q1 => clear_http += 1,
            (Some(hb), Some(sb)) if sb.q3 < hb.q1 => clear_spdy += 1,
            _ => ties += 1,
        }
    }
    text.push_str(&format!(
        "\nclear wins (non-overlapping IQR boxes): HTTP {clear_http}, SPDY {clear_spdy};          overlapping/no significant difference: {ties}/20 — {}\n",
        if ties >= 8 {
            "no convincing winner (matches the paper)"
        } else {
            "distributions separate more than the paper's"
        }
    ));
    let rtx_h: u64 = http.iter().map(|r| r.total_retransmissions).sum::<u64>() / opts.seeds;
    let rtx_s: u64 = spdy.iter().map(|r| r.total_retransmissions).sum::<u64>() / opts.seeds;
    text.push_str(&format!(
        "avg retransmissions per run: HTTP {rtx_h}, SPDY {rtx_s} (paper: 117.3 vs 67.3)\n"
    ));
    Report {
        id: "fig3",
        title: "Page load time over 3G (box plots)",
        paper_claim: "no convincing winner between HTTP and SPDY over 3G",
        text,
        data: json!({ "sites": rows, "rtx_http": rtx_h, "rtx_spdy": rtx_s }),
    }
}

/// Fig. 4: page load times over 802.11g/broadband — SPDY wins everywhere.
pub fn fig4(opts: ExpOpts) -> Report {
    let runs = run_cells(&opts.exec, &baseline("fig4", NetworkKind::Wifi, opts.seeds));
    let (http, spdy) = by_protocol(&runs);
    let hs = plts_by_site(&http);
    let ss = plts_by_site(&spdy);
    let mut text =
        String::from("site   HTTP mean±CI95 (ms)    SPDY mean±CI95 (ms)    SPDY improvement\n");
    let mut rows = Vec::new();
    let mut improvements = Vec::new();
    for ((site, h), (_, s)) in hs.iter().zip(ss.iter()) {
        let hm = MeanCi::from_samples(h);
        let sm = MeanCi::from_samples(s);
        let improvement = if hm.mean > 0.0 {
            (hm.mean - sm.mean) / hm.mean * 100.0
        } else {
            0.0
        };
        improvements.push(improvement);
        text.push_str(&format!(
            "{:>4}   {:>8.0} ± {:>5.0}      {:>8.0} ± {:>5.0}      {:>6.1}%\n",
            site, hm.mean, hm.ci95, sm.mean, sm.ci95, improvement
        ));
        rows.push(json!({ "site": site, "http": hm, "spdy": sm, "improvement_pct": improvement }));
    }
    let wins = improvements.iter().filter(|&&i| i > 0.0).count();
    text.push_str(&format!(
        "\nSPDY faster on {wins}/20 sites; improvements {:.0}%–{:.0}% (paper: 4%–56%)\n",
        improvements.iter().cloned().fold(f64::MAX, f64::min),
        improvements.iter().cloned().fold(f64::MIN, f64::max),
    ));
    Report {
        id: "fig4",
        title: "Page load time over 802.11g/broadband",
        paper_claim: "SPDY consistently beats HTTP on WiFi, improvements 4%–56%",
        text,
        data: json!({ "sites": rows }),
    }
}

/// Fig. 16: page load times over LTE.
pub fn fig16(opts: ExpOpts) -> Report {
    let runs = run_cells(&opts.exec, &baseline("fig16", NetworkKind::Lte, opts.seeds));
    let (http, spdy) = by_protocol(&runs);
    let hs = plts_by_site(&http);
    let ss = plts_by_site(&spdy);
    let (mut text, rows) = boxplot_text(&hs, &ss);
    let rtx_h: f64 = http
        .iter()
        .map(|r| r.total_retransmissions as f64)
        .sum::<f64>()
        / opts.seeds as f64;
    let rtx_s: f64 = spdy
        .iter()
        .map(|r| r.total_retransmissions as f64)
        .sum::<f64>()
        / opts.seeds as f64;
    let mean = |runs: &[(u32, Vec<f64>)]| -> f64 {
        let all: Vec<f64> = runs.iter().flat_map(|(_, v)| v.iter().copied()).collect();
        spdyier_sim::stats::mean(&all)
    };
    text.push_str(&format!(
        "\nLTE means: HTTP {:.0} ms, SPDY {:.0} ms (both far below 3G)\n",
        mean(&hs),
        mean(&ss)
    ));
    text.push_str(&format!(
        "avg retransmissions per run: HTTP {rtx_h:.1}, SPDY {rtx_s:.1} (paper: 8.9 vs 7.5 — far below 3G's 117/63)\n"
    ));
    Report {
        id: "fig16",
        title: "Page load time over LTE (box plots)",
        paper_claim: "much faster than 3G; SPDY edges ahead after the first pages; rtx down to 8.9/7.5 per run",
        text,
        data: json!({ "sites": rows, "rtx_http": rtx_h, "rtx_spdy": rtx_s }),
    }
}

fn median(xs: &[f64]) -> f64 {
    spdyier_sim::stats::percentile(xs, 50.0)
}
