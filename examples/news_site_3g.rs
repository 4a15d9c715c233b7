//! Load the paper's largest news site (site 15: 323 objects across ~85
//! domains) over 3G and dissect *where the time goes* per object — the
//! Fig. 5 breakdown — under HTTP's connection pool vs SPDY's multiplexing.
//!
//! ```text
//! cargo run --release --example news_site_3g
//! ```

use spdyier::browser::StepAverages;
use spdyier::experiments::run_cell;
use spdyier::scenario::Manifest;

const MANIFEST: &str = r#"{
    "schema_version": 1,
    "name": "news_site_3g",
    "network": { "kind": "3g" },
    "protocols": ["http", "spdy"],
    "workload": { "kind": "site", "site": 15 },
    "seeds": { "base": 3 }
}"#;

fn main() {
    println!("Site 15 (News): 323 objects, ~85 domains, 1.7 MB — the stress test.\n");
    let manifest = Manifest::from_json(MANIFEST).expect("the example manifest decodes");
    for cell in manifest.cells() {
        let (result, _) = run_cell(&manifest, &cell).expect("within the event budget");
        let v = &result.visits[0];
        let avg = StepAverages::from_timings(&v.object_timings);
        println!("== {} ==", result.protocol);
        println!(
            "  page load time: {:.1} s ({} objects)",
            v.plt_ms / 1e3,
            v.object_count
        );
        println!(
            "  avg object: init {:>5.0} ms | send {:>3.0} ms | wait {:>5.0} ms | recv {:>5.0} ms",
            avg.init_ms, avg.send_ms, avg.wait_ms, avg.recv_ms
        );
        // Discovery waves: when did requests go out?
        let mut req_ms: Vec<f64> = v
            .object_timings
            .iter()
            .filter_map(|t| t.requested)
            .map(|t| t.saturating_since(v.start).as_secs_f64() * 1e3)
            .collect();
        req_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let waves = 1 + req_ms.windows(2).filter(|w| w[1] - w[0] > 250.0).count();
        println!(
            "  {} requests issued across {} wave(s), last at {:.1} s",
            req_ms.len(),
            waves,
            req_ms.last().copied().unwrap_or(0.0) / 1e3
        );
        println!("  connections opened: {}\n", result.connections_opened);
    }
    println!(
        "Expected shape (paper Fig. 5): HTTP pays *init* (handshakes and pool waits);\n\
         SPDY pays *wait* (responses queue at the proxy behind one congestion window)."
    );
}
