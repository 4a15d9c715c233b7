//! `BENCHMARK.json` is the one declaration of what this benchmark
//! reports: metric names, units, directions and bounds are read from it,
//! never repeated in code, and everything printed is checked against it.

use serde_json::Value;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, section: &str) -> Result<Vec<Metric>, String> {
    let str_field = |m: &Value, field: &str| {
        m.get(field)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!(
                "BENCHMARK.json: {section}: entry without {field:?}"
            ))
    };
    doc.get(section)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json: no {section:?} array"))?
        .iter()
        .map(|m| {
            let better = str_field(m, "better")?;
            if better != "lower" && better != "higher" {
                return Err(format!("BENCHMARK.json: {section}: better is {better:?}"));
            }
            Ok(Metric {
                name: str_field(m, "name")?,
                unit: str_field(m, "unit")?,
                lower_is_better: better == "lower",
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Declared {
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: no \"workloads\" array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Declared {
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    pub fn load(path: &Path) -> Result<Declared, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Declared::parse(&text)
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Every declared name must be produced exactly once, nothing undeclared
/// may be produced, and every name must be well formed. Returns one line
/// per violation.
pub fn check_names(declared: &[Metric], produced: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    for name in produced {
        if !well_formed(name) {
            problems.push(format!(
                "metric name {name:?} is not [A-Za-z0-9_.-]{{1,64}}"
            ));
        }
        if !declared.iter().any(|m| m.name == *name) {
            problems.push(format!("metric {name:?} is not declared in BENCHMARK.json"));
        }
    }
    for metric in declared {
        match produced.iter().filter(|n| **n == metric.name).count() {
            1 => {}
            0 => problems.push(format!(
                "declared metric {:?} was not produced",
                metric.name
            )),
            n => problems.push(format!("metric {:?} was produced {n} times", metric.name)),
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.05},
            {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}
        ],
        "per_layer": [{"name": "tcp.bulk.ns_per_op", "unit": "ns", "better": "lower"}]
    }"#;

    #[test]
    fn declarations_are_read_from_benchmark_json() {
        let d = Declared::parse(DOC).expect("parses");
        assert_eq!(d.workloads, ["a", "b"]);
        assert_eq!(d.end_to_end[0].bound, Some(0.05));
        assert!(d.end_to_end[0].lower_is_better);
        assert!(!d.end_to_end[1].lower_is_better);
        assert_eq!(d.per_layer[0].unit, "ns");
        assert_eq!(d.per_layer[0].bound, None);
        assert!(Declared::parse(r#"{"workloads": []}"#).is_err());
    }

    #[test]
    fn names_must_match_the_declaration_exactly_once() {
        let d = Declared::parse(DOC).expect("parses");
        assert!(check_names(&d.end_to_end, &["wall_s", "cells_per_s"]).is_empty());
        let missing = check_names(&d.end_to_end, &["wall_s"]);
        assert_eq!(missing.len(), 1);
        assert!(missing[0].contains("was not produced"));
        let extra = check_names(&d.end_to_end, &["wall_s", "cells_per_s", "rss"]);
        assert!(extra[0].contains("not declared"));
        let twice = check_names(&d.end_to_end, &["wall_s", "wall_s", "cells_per_s"]);
        assert!(twice[0].contains("2 times"));
        let bad = check_names(&d.end_to_end, &["wall_s", "cells_per_s", "p99 ms"]);
        assert!(bad.iter().any(|p| p.contains("is not [A-Za-z0-9_.-]")));
    }

    #[test]
    fn the_committed_declaration_is_well_formed() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let d = Declared::load(&path).expect("BENCHMARK.json loads");
        let workloads: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(d.workloads, workloads);
        assert!(d
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(d
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(d.per_layer.len() <= 128);
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(well_formed(&m.name), "{}", m.name);
        }
    }
}
