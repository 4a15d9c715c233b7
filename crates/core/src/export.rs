//! Trace export: turn a [`RunResult`] into plotter-friendly column files
//! (gnuplot/pgfplots/pandas all read them) — the testbed's analogue of the
//! paper's tcpdump + `tcp_probe` post-processing scripts.

use crate::results::RunResult;
use serde::{Serialize, Writer};
use spdyier_sim::{SimDuration, SimTime};
use spdyier_trace::MetricsRegistry;
use std::fmt::Write as _;

/// One exported data file: a name and whitespace-separated columns with a
/// `#`-prefixed header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataFile {
    /// Suggested file name (`cwnd_spdy-0.dat`).
    pub name: String,
    /// File contents.
    pub contents: String,
}

impl DataFile {
    /// The JSON document `doc`, printed pretty, as the file `name`.
    pub(crate) fn pretty(name: String, doc: &impl Serialize) -> DataFile {
        let mut contents = String::new();
        doc.serialize(&mut Writer::new(&mut contents, true));
        DataFile { name, contents }
    }
}

/// Schema version stamped into `metrics_*.json` (bump on breaking
/// key-set changes; the golden-schema tests pin it). Version 2: each
/// histogram is a quantile sketch (`sub_bits`, `count`, `zeros`,
/// `rejected`, `min`, `max`, `sum_fp_hi`, `sum_fp_lo`, `buckets`), not
/// 65 power-of-two buckets.
pub const METRICS_SCHEMA_VERSION: u32 = 2;

/// The `metrics_*.json` document.
#[derive(Serialize)]
struct MetricsDoc<'a> {
    schema_version: u32,
    metrics: &'a MetricsRegistry,
}

/// Render a metrics registry as the schema-versioned `metrics_*.json`
/// artifact (`label` is the lowercase protocol, e.g. `"spdy"`).
pub fn metrics_file(label: &str, metrics: &MetricsRegistry) -> DataFile {
    let doc = MetricsDoc {
        schema_version: METRICS_SCHEMA_VERSION,
        metrics,
    };
    DataFile::pretty(format!("metrics_{label}.json"), &doc)
}

/// Export everything plottable from a run.
pub fn export_run(result: &RunResult) -> Vec<DataFile> {
    let mut files = vec![
        plt_file(result),
        downlink_file(result),
        inflight_file(result),
        retransmissions_file(result),
        promotions_file(result),
        proxy_records_file(result),
    ];
    for ct in &result.conn_traces {
        if let Some(trace) = &ct.trace {
            if !trace.cwnd_segments.is_empty() {
                files.push(cwnd_file(&ct.label, trace));
            }
        }
    }
    files
}

fn plt_file(result: &RunResult) -> DataFile {
    let mut s = String::from("# visit site start_s plt_ms completed objects bytes\n");
    for (i, v) in result.visits.iter().enumerate() {
        let _ = writeln!(
            s,
            "{} {} {:.3} {:.1} {} {} {}",
            i + 1,
            v.site,
            v.start.as_secs_f64(),
            v.plt_ms,
            u8::from(v.completed),
            v.object_count,
            v.total_bytes
        );
    }
    DataFile {
        name: format!("plt_{}.dat", result.protocol.to_lowercase()),
        contents: s,
    }
}

fn downlink_file(result: &RunResult) -> DataFile {
    let mut s = String::from("# second bytes\n");
    let bins = result
        .client_downlink_bytes
        .bin_sum(SimDuration::from_secs(1), SimTime::from_secs(21 * 60));
    for (i, b) in bins.iter().enumerate() {
        let _ = writeln!(s, "{i} {b:.0}");
    }
    DataFile {
        name: format!("downlink_{}.dat", result.protocol.to_lowercase()),
        contents: s,
    }
}

fn inflight_file(result: &RunResult) -> DataFile {
    let mut s = String::from("# t_s inflight_bytes\n");
    for (t, v) in result.inflight_bytes.iter() {
        let _ = writeln!(s, "{:.6} {v:.0}", t.as_secs_f64());
    }
    DataFile {
        name: format!("inflight_{}.dat", result.protocol.to_lowercase()),
        contents: s,
    }
}

fn retransmissions_file(result: &RunResult) -> DataFile {
    let mut s = String::from("# t_s\n");
    for t in result.retransmissions.times() {
        let _ = writeln!(s, "{:.6}", t.as_secs_f64());
    }
    DataFile {
        name: format!("rtx_{}.dat", result.protocol.to_lowercase()),
        contents: s,
    }
}

fn promotions_file(result: &RunResult) -> DataFile {
    let mut s = String::from("# start_s done_s kind\n");
    for p in &result.promotions {
        let _ = writeln!(
            s,
            "{:.6} {:.6} {:?}",
            p.start.as_secs_f64(),
            p.done.as_secs_f64(),
            p.kind
        );
    }
    DataFile {
        name: format!("promotions_{}.dat", result.protocol.to_lowercase()),
        contents: s,
    }
}

fn proxy_records_file(result: &RunResult) -> DataFile {
    let mut s =
        String::from("# fetch arrived_s origin_wait_ms origin_dl_ms client_transfer_ms domain\n");
    for r in &result.proxy_records {
        let ms = |d: Option<SimDuration>| d.map_or(-1.0, |d| d.as_secs_f64() * 1e3);
        let _ = writeln!(
            s,
            "{} {:.6} {:.1} {:.1} {:.1} {}",
            r.fetch.0,
            r.request_arrived.as_secs_f64(),
            ms(r.origin_wait()),
            ms(r.origin_download()),
            ms(r.client_transfer()),
            r.domain
        );
    }
    DataFile {
        name: format!("proxy_{}.dat", result.protocol.to_lowercase()),
        contents: s,
    }
}

fn cwnd_file(label: &str, trace: &spdyier_tcp::TcpTrace) -> DataFile {
    let mut s = String::from("# t_s cwnd_seg ssthresh_seg inflight_bytes\n");
    let ss: Vec<(SimTime, Option<f64>)> = trace.ssthresh_segments.iter().collect();
    let inflight: Vec<(SimTime, f64)> = trace.inflight_bytes.iter().collect();
    for (i, (t, cwnd)) in trace.cwnd_segments.iter().enumerate() {
        let ssthresh = ss.get(i).and_then(|&(_, v)| v).unwrap_or(f64::NAN);
        let infl = inflight.get(i).map_or(f64::NAN, |&(_, v)| v);
        let _ = writeln!(
            s,
            "{:.6} {cwnd:.2} {ssthresh:.2} {infl:.0}",
            t.as_secs_f64()
        );
    }
    let mut rtx = String::new();
    for t in trace.retransmits.times() {
        let _ = writeln!(rtx, "# rtx {:.6}", t.as_secs_f64());
    }
    s.push_str(&rtx);
    DataFile {
        name: format!("cwnd_{label}.dat"),
        contents: s,
    }
}

/// Write the files to `dir`, returning the paths written.
pub fn write_to_dir(
    files: &[DataFile],
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for f in files {
        let path = dir.join(&f.name);
        std::fs::write(&path, &f.contents)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, NetworkKind, ProtocolMode};
    use crate::driver::Testbed;
    use spdyier_workload::VisitSchedule;

    fn small_run(traces: bool) -> RunResult {
        let schedule = VisitSchedule::sequential(vec![9], SimDuration::from_secs(60));
        let mut cfg = ExperimentConfig::paper_3g(ProtocolMode::spdy(), 3, schedule);
        cfg.network = NetworkKind::Wifi;
        cfg.tcp.trace = traces;
        Testbed::new(cfg).run()
    }

    #[test]
    fn export_produces_all_base_files() {
        let r = small_run(false);
        let files = export_run(&r);
        let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"plt_spdy.dat"));
        assert!(names.contains(&"downlink_spdy.dat"));
        assert!(names.contains(&"inflight_spdy.dat"));
        assert!(names.contains(&"rtx_spdy.dat"));
        assert!(names.contains(&"promotions_spdy.dat"));
        assert!(names.contains(&"proxy_spdy.dat"));
    }

    #[test]
    fn traces_add_cwnd_files() {
        let r = small_run(true);
        let files = export_run(&r);
        assert!(
            files.iter().any(|f| f.name.starts_with("cwnd_spdy-")),
            "per-connection cwnd file present"
        );
    }

    #[test]
    fn files_have_headers_and_rows() {
        let r = small_run(false);
        for f in export_run(&r) {
            assert!(f.contents.starts_with('#'), "{} has a header", f.name);
        }
        let plt = export_run(&r)
            .into_iter()
            .find(|f| f.name.starts_with("plt_"))
            .unwrap();
        assert_eq!(plt.contents.lines().count(), 2, "header + one visit");
    }

    /// Golden pin for the export surface: exact file names, every `#`
    /// header line, and the column count of each header. Downstream
    /// plotting scripts parse these files by position — a renamed file
    /// or a reordered column is a silent breakage this test makes loud.
    #[test]
    fn export_surface_is_pinned() {
        let r = small_run(true);
        let files = export_run(&r);
        let mut surface: Vec<(String, String, usize)> = files
            .iter()
            .map(|f| {
                let header = f.contents.lines().next().unwrap_or_default().to_string();
                let cols = header.trim_start_matches('#').split_whitespace().count();
                (f.name.clone(), header, cols)
            })
            .collect();
        // Per-connection cwnd files share one schema; pin the set once.
        surface.retain(|(name, ..)| !name.starts_with("cwnd_spdy-") || name == "cwnd_spdy-0.dat");
        let expected = [
            (
                "plt_spdy.dat",
                "# visit site start_s plt_ms completed objects bytes",
                7,
            ),
            ("downlink_spdy.dat", "# second bytes", 2),
            ("inflight_spdy.dat", "# t_s inflight_bytes", 2),
            ("rtx_spdy.dat", "# t_s", 1),
            ("promotions_spdy.dat", "# start_s done_s kind", 3),
            (
                "proxy_spdy.dat",
                "# fetch arrived_s origin_wait_ms origin_dl_ms client_transfer_ms domain",
                6,
            ),
            (
                "cwnd_spdy-0.dat",
                "# t_s cwnd_seg ssthresh_seg inflight_bytes",
                4,
            ),
        ];
        assert_eq!(
            surface.len(),
            expected.len(),
            "file set changed: {surface:?}"
        );
        for (name, header, cols) in expected {
            let got = surface
                .iter()
                .find(|(n, ..)| n == name)
                .unwrap_or_else(|| panic!("missing exported file {name}"));
            assert_eq!(got.1, header, "{name} header changed");
            assert_eq!(got.2, cols, "{name} column count changed");
        }
    }

    #[test]
    fn write_to_dir_roundtrip() {
        let r = small_run(false);
        let files = export_run(&r);
        let dir = std::env::temp_dir().join("spdyier_export_test");
        let paths = write_to_dir(&files, &dir).expect("writable");
        assert_eq!(paths.len(), files.len());
        for p in &paths {
            assert!(p.exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
