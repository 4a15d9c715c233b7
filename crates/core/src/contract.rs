//! The versioned results contract: everything a scenario run promises to
//! machine consumers (CI pipelines, sweep fleets, third-party tooling).
//!
//! One schema-versioned `result.json` document per scenario run carries
//! the run metadata, per-cell metrics, assertion verdicts, and artifact
//! paths; a JUnit XML rendering of the same verdicts plugs into CI test
//! reporters; and a standardized exit code tells shells and CI jobs what
//! happened without parsing anything:
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | every assertion passed |
//! | 1 | at least one assertion failed |
//! | 2 | a limit was exceeded (event budget, total-event cap) |
//! | 3 | configuration error (malformed manifest, bad CLI value) |
//!
//! Machine-readable side outputs that predate the contract (the
//! paired-sweep JSONL dump, the `stalls_*.dat` table) keep their exact
//! bytes for golden compatibility and gain schema-versioned *sidecar*
//! manifests instead, built here. Every document is a typed value
//! deriving `Serialize`: the key order is the field order, and
//! `serde::Writer` prints it.

use crate::export::DataFile;
use crate::results::RunResult;
use serde::{Serialize, Value, Writer};

/// Schema version of the `result.json` document (bump on breaking
/// key-set changes; the golden-schema tests pin the key sets).
pub const RESULT_SCHEMA_VERSION: u32 = 1;

/// Schema version of the paired-sweep JSONL dump sidecar.
pub const PAIRED_DUMP_SCHEMA_VERSION: u32 = 1;

/// Schema version of the `stalls_*.dat` sidecar manifest.
pub const STALL_TABLE_SCHEMA_VERSION: u32 = 1;

/// Standardized scenario exit codes (LabWired-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScenarioExit {
    /// Every assertion passed (or there were none).
    Pass,
    /// At least one assertion failed.
    AssertionFailed,
    /// A declared limit was exceeded before the run finished.
    LimitExceeded,
    /// The manifest or CLI configuration was invalid.
    ConfigError,
}

impl ScenarioExit {
    /// The process exit code.
    pub fn code(self) -> i32 {
        match self {
            ScenarioExit::Pass => 0,
            ScenarioExit::AssertionFailed => 1,
            ScenarioExit::LimitExceeded => 2,
            ScenarioExit::ConfigError => 3,
        }
    }
}

/// Verdict of one manifest assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictStatus {
    /// The comparison held.
    Pass,
    /// The comparison did not hold.
    Fail,
    /// Not evaluated (e.g. its `on <network>` clause names another
    /// network than the manifest's).
    Skipped,
}

impl Serialize for VerdictStatus {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(match self {
            VerdictStatus::Pass => "pass",
            VerdictStatus::Fail => "fail",
            VerdictStatus::Skipped => "skipped",
        });
    }
}

/// One evaluated assertion, as recorded in `result.json` and JUnit XML.
#[derive(Debug, Clone, Serialize)]
pub struct AssertionVerdict {
    /// The assertion expression as written in the manifest.
    pub expr: String,
    /// Pass / fail / skipped.
    pub status: VerdictStatus,
    /// Evaluated left-hand side (absent when skipped).
    pub lhs: Option<f64>,
    /// Evaluated right-hand side (absent when skipped).
    pub rhs: Option<f64>,
    /// Human-readable one-liner (`"12845.2 > 9511.0"`, skip reason, …).
    pub detail: String,
}

/// Minimal XML text escaping for attribute and text positions.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Render assertion verdicts as JUnit XML (one `<testsuite>` per
/// scenario, one `<testcase>` per assertion). Deterministic: no
/// timestamps or hostnames, so the artifact is byte-stable per build.
pub fn junit_xml(scenario: &str, verdicts: &[AssertionVerdict]) -> String {
    use std::fmt::Write as _;
    let failures = verdicts
        .iter()
        .filter(|v| v.status == VerdictStatus::Fail)
        .count();
    let skipped = verdicts
        .iter()
        .filter(|v| v.status == VerdictStatus::Skipped)
        .count();
    let mut s = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    let _ = writeln!(
        s,
        "<testsuites name=\"spdyier-scenario\" tests=\"{}\" failures=\"{failures}\" skipped=\"{skipped}\">",
        verdicts.len()
    );
    let _ = writeln!(
        s,
        "  <testsuite name=\"{}\" tests=\"{}\" failures=\"{failures}\" skipped=\"{skipped}\">",
        xml_escape(scenario),
        verdicts.len()
    );
    for v in verdicts {
        let _ = write!(
            s,
            "    <testcase classname=\"scenario.{}\" name=\"{}\"",
            xml_escape(scenario),
            xml_escape(&v.expr)
        );
        match v.status {
            VerdictStatus::Pass => s.push_str("/>\n"),
            VerdictStatus::Fail => {
                let _ = writeln!(
                    s,
                    ">\n      <failure message=\"{}\"/>\n    </testcase>",
                    xml_escape(&v.detail)
                );
            }
            VerdictStatus::Skipped => {
                let _ = writeln!(
                    s,
                    ">\n      <skipped message=\"{}\"/>\n    </testcase>",
                    xml_escape(&v.detail)
                );
            }
        }
    }
    s.push_str("  </testsuite>\n</testsuites>\n");
    s
}

/// The `stalls_<label>.manifest.json` document.
#[derive(Serialize)]
struct StallManifest<'a> {
    schema_version: u32,
    kind: &'static str,
    file: &'a str,
    columns: Vec<&'a str>,
    rows: usize,
}

/// Sidecar manifest for a `stalls_<label>.dat` table: schema version,
/// column names (lifted from the table's own `#` header), and row count.
/// The `.dat` bytes themselves stay exactly as they always were.
pub fn stall_manifest_file(stalls: &DataFile) -> DataFile {
    let header = stalls.contents.lines().next().unwrap_or_default();
    let doc = StallManifest {
        schema_version: STALL_TABLE_SCHEMA_VERSION,
        kind: "stall_table",
        file: &stalls.name,
        columns: header.trim_start_matches('#').split_whitespace().collect(),
        rows: stalls.contents.lines().count().saturating_sub(1),
    };
    let name = format!("{}.manifest.json", stalls.name.trim_end_matches(".dat"));
    DataFile::pretty(name, &doc)
}

/// The `<dump>.meta.json` document.
#[derive(Serialize)]
struct PairedMeta<'a> {
    schema_version: u32,
    kind: &'static str,
    file: &'a str,
    network: &'a str,
    seeds: u64,
    lines_per_seed: u32,
    line_order: [&'static str; 2],
    run_result_keys: Vec<String>,
}

/// Sidecar header for a paired-sweep JSONL dump (`<dump>.meta.json`):
/// schema version, the sweep's identity, the line interleaving, and the
/// exact top-level key set of each `RunResult` line. The dump itself
/// stays headerless so historical `cmp`-based goldens keep passing.
pub fn paired_meta_file(dump_name: &str, network: &str, seeds: u64) -> DataFile {
    // The derived encoding writes every field of every run, so an empty
    // run's top-level keys are each line's.
    let Value::Object(entries) = RunResult::default().to_value() else {
        unreachable!("a RunResult prints as an object")
    };
    let doc = PairedMeta {
        schema_version: PAIRED_DUMP_SCHEMA_VERSION,
        kind: "paired_sweep",
        file: dump_name,
        network,
        seeds,
        lines_per_seed: 2,
        line_order: ["http", "spdy"],
        run_result_keys: entries.into_iter().map(|(k, _)| k).collect(),
    };
    DataFile::pretty(format!("{dump_name}.meta.json"), &doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdicts() -> Vec<AssertionVerdict> {
        vec![
            AssertionVerdict {
                expr: "spdy.rto_stall_ms > http.rto_stall_ms on 3g".into(),
                status: VerdictStatus::Pass,
                lhs: Some(100.0),
                rhs: Some(50.0),
                detail: "100.0 > 50.0".into(),
            },
            AssertionVerdict {
                expr: "plt_p50_ms < 9000".into(),
                status: VerdictStatus::Fail,
                lhs: Some(9500.0),
                rhs: Some(9000.0),
                detail: "9500.0 < 9000.0 is false".into(),
            },
            AssertionVerdict {
                expr: "plt_p50_ms < 1 on lte".into(),
                status: VerdictStatus::Skipped,
                lhs: None,
                rhs: None,
                detail: "network clause 'lte' does not match '3g'".into(),
            },
        ]
    }

    #[test]
    fn exit_codes_are_standardized() {
        assert_eq!(ScenarioExit::Pass.code(), 0);
        assert_eq!(ScenarioExit::AssertionFailed.code(), 1);
        assert_eq!(ScenarioExit::LimitExceeded.code(), 2);
        assert_eq!(ScenarioExit::ConfigError.code(), 3);
    }

    #[test]
    fn junit_counts_and_escapes() {
        let xml = junit_xml("matrix<3g>", &verdicts());
        assert!(xml.starts_with("<?xml version=\"1.0\""));
        assert!(xml.contains("tests=\"3\" failures=\"1\" skipped=\"1\""));
        assert!(xml.contains("name=\"matrix&lt;3g&gt;\""));
        assert!(xml.contains("spdy.rto_stall_ms &gt; http.rto_stall_ms"));
        assert!(xml.contains("<failure message=\"9500.0 &lt; 9000.0 is false\"/>"));
        assert!(xml.contains("<skipped message="));
    }

    #[test]
    fn verdict_serialization_is_lowercase() {
        let v = serde_json::to_string(&verdicts()[0]).unwrap();
        assert!(v.contains("\"status\":\"pass\""), "{v}");
        let v = serde_json::to_string(&verdicts()[2]).unwrap();
        assert!(v.contains("\"status\":\"skipped\""), "{v}");
        assert!(v.contains("\"lhs\":null"), "{v}");
    }

    #[test]
    fn stall_sidecar_pins_columns_and_rows() {
        let stalls = DataFile {
            name: "stalls_spdy.dat".into(),
            contents: "# visit site plt_ms\n1 9 100.0\n2 4 200.0\n".into(),
        };
        let side = stall_manifest_file(&stalls);
        assert_eq!(side.name, "stalls_spdy.manifest.json");
        let v = serde_json::from_str(&side.contents).unwrap();
        assert_eq!(v["schema_version"].as_u64(), Some(1));
        assert_eq!(v["rows"].as_u64(), Some(2));
        assert_eq!(v["columns"][0].as_str(), Some("visit"));
        assert_eq!(v["columns"][2].as_str(), Some("plt_ms"));
    }

    #[test]
    fn paired_meta_names_and_keys() {
        let side = paired_meta_file("paired_3g.jsonl", "3g", 3);
        assert_eq!(side.name, "paired_3g.jsonl.meta.json");
        let v = serde_json::from_str(&side.contents).unwrap();
        assert_eq!(v["kind"].as_str(), Some("paired_sweep"));
        assert_eq!(v["seeds"].as_u64(), Some(3));
        assert_eq!(v["run_result_keys"][0].as_str(), Some("protocol"));
        let line = serde_json::to_string(&RunResult::new("HTTP", "3G", 0)).unwrap();
        let serde_json::Value::Object(line) = serde_json::from_str(&line).unwrap() else {
            panic!("a RunResult line is an object");
        };
        let keys: Vec<&str> = line.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(v["run_result_keys"], keys.to_value());
    }
}
