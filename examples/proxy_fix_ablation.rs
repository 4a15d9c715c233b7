//! Sweep the paper's §6 mitigation proposals on the same 3G workload and
//! rank them.
//!
//! ```text
//! cargo run --release --example proxy_fix_ablation
//! ```

use spdyier::core::NetworkKind;
use spdyier::experiments::{run_cells, Executor};
use spdyier::scenario::{Manifest, ProtocolSpec};
use spdyier::tcp::CcAlgorithm;

/// SPDY over 3G on the Table 1 schedule, three seeds.
const BASELINE: &str = r#"{
    "schema_version": 1,
    "name": "proxy_fix_ablation",
    "network": { "kind": "3g" },
    "protocols": ["spdy"],
    "seeds": { "count": 3 }
}"#;

type Tweak = Box<dyn Fn(&mut Manifest)>;

fn protocol(compact: &str) -> Vec<ProtocolSpec> {
    vec![ProtocolSpec::parse(compact).expect("a valid protocol")]
}

fn main() {
    let variants: Vec<(&str, Tweak)> = vec![
        ("SPDY baseline", Box::new(|_| {})),
        (
            "reset RTT after idle (§6.2.1)",
            Box::new(|m| m.settings.rtt_reset_after_idle = true),
        ),
        (
            "no slow-start after idle (§6.2.2)",
            Box::new(|m| m.settings.slow_start_after_idle = false),
        ),
        (
            "TCP Reno (§6.2.3)",
            Box::new(|m| m.settings.cc = CcAlgorithm::Reno),
        ),
        (
            "no metrics cache (§6.2.4)",
            Box::new(|m| m.settings.metrics_cache = false),
        ),
        (
            "20 SPDY connections (§6.1)",
            Box::new(|m| m.protocols = protocol("spdy:20")),
        ),
        (
            "20 conns + late binding (§6.1)",
            Box::new(|m| m.protocols = protocol("spdy:20:late")),
        ),
        (
            "radio pinned in DCH (Fig. 14)",
            Box::new(|m| {
                m.network.kind = NetworkKind::Umts3GPinned;
                m.settings.keepalive_ping_s = Some(3.0);
            }),
        ),
    ];

    let baseline = Manifest::from_json(BASELINE).expect("the example manifest decodes");
    let seeds = baseline.seeds.count as f64;
    // One worker per core: the table is the same at any pool width.
    let exec = Executor::new(std::thread::available_parallelism().map_or(1, |n| n.get()));
    println!("Mitigation sweep over the 20 Table 1 sites, 3 seeds, SPDY on 3G:\n");
    let mut results = Vec::new();
    for (name, tweak) in &variants {
        let mut manifest = baseline.clone();
        tweak(&mut manifest);
        let runs = run_cells(&exec, &manifest);
        let plts: Vec<f64> = runs
            .iter()
            .flat_map(|(_, r)| r.visits.iter().map(|v| v.plt_ms))
            .collect();
        let plt = plts.iter().sum::<f64>() / plts.len().max(1) as f64;
        // Sum over seeds first, divide once: per-seed integer division
        // would floor each share away.
        let rtx: u64 = runs.iter().map(|(_, r)| r.total_retransmissions).sum();
        results.push((*name, plt, rtx as f64 / seeds));
    }
    let baseline_plt = results[0].1;
    results.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    println!(
        "{:<34} {:>12} {:>9} {:>9}",
        "variant", "mean PLT", "vs base", "rtx/run"
    );
    for (name, plt, rtx) in &results {
        println!(
            "{:<34} {:>9.0} ms {:>+8.1}% {:>9.1}",
            name,
            plt,
            (plt - baseline_plt) / baseline_plt * 100.0,
            rtx
        );
    }
    println!(
        "\nReading the sweep: pinning the radio in DCH dominates (no promotions at all);\n\
         resetting the RTT estimate (§6.2.1) cuts the retransmissions to about one a\n\
         run — the paper's stated goal — though not to zero; multiplying connections\n\
         multiplies the retransmissions with them."
    );
}
