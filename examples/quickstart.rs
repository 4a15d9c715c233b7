//! Quickstart: run the paper's baseline — HTTP and SPDY over 3G on the
//! seed's Table 1 visit order — and print each site's page load time
//! beside the retransmissions and radio promotions behind them.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spdyier::experiments::run_cell;
use spdyier::scenario::Manifest;

fn main() {
    let mut manifest = Manifest::paper_baseline("quickstart");
    manifest.seeds.base = 7;
    println!("Loading the 20 Table 1 sites over 3G, HTTP then SPDY, in one shared order…\n");
    let runs: Vec<_> = manifest
        .cells()
        .iter()
        .map(|cell| {
            run_cell(&manifest, cell)
                .expect("within the event budget")
                .0
        })
        .collect();
    let [http, spdy] = &runs[..] else {
        unreachable!("the baseline is one HTTP/SPDY pair");
    };
    println!("  site   HTTP PLT   SPDY PLT");
    for (h, s) in http.visits.iter().zip(&spdy.visits) {
        let mark = |completed| if completed { " " } else { "*" };
        println!(
            "  {:>4} {:>8.0} ms{}{:>8.0} ms{}",
            h.site,
            h.plt_ms,
            mark(h.completed),
            s.plt_ms,
            mark(s.completed)
        );
    }
    for r in [http, spdy] {
        let (queue_drops, loss_drops) = r.downlink_drops;
        println!(
            "\n== {} over {} ==\n  retransmissions: {} ({} real downlink drops)\n  \
             RRC promotions: {}, radio energy: {:.0} mJ",
            r.protocol,
            r.network,
            r.total_retransmissions,
            queue_drops + loss_drops,
            r.promotions.len(),
            r.energy_mj
        );
    }
    println!(
        "\n(* = did not finish.) The paper's finding: over 3G the two protocols end up\n\
         comparable — the radio's promotion delay defeats TCP's RTT estimate for both."
    );
}
