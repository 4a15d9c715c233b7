//! Cross-run PLT diff attribution.
//!
//! Aligns two runs of the same workload by visit identity (index +
//! site), subtracts their per-kind critical-path sums visit by visit,
//! and rolls the deltas up. Because each run's edges conserve its PLT
//! exactly, the per-kind deltas sum to the PLT delta exactly — the diff
//! inherits the conservation guarantee instead of re-proving it.

use crate::path::{CriticalPath, EdgeKind, EDGE_KINDS};
use serde::Value;

/// Schema version of the `diff.json` document.
pub const DIFF_SCHEMA_VERSION: u32 = 1;

/// One aligned visit's edge-by-edge PLT delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitDiff {
    /// Visit index (same in both runs).
    pub visit: usize,
    /// Site index (same in both runs — alignment requires it).
    pub site: usize,
    /// Run A's PLT, µs.
    pub plt_a_us: u64,
    /// Run B's PLT, µs.
    pub plt_b_us: u64,
    /// Run A's per-kind sums, µs, [`EDGE_KINDS`] order.
    pub sums_a_us: [u64; EDGE_KINDS.len()],
    /// Run B's per-kind sums, µs, [`EDGE_KINDS`] order.
    pub sums_b_us: [u64; EDGE_KINDS.len()],
}

impl VisitDiff {
    /// B − A PLT delta, µs (signed).
    pub fn plt_delta_us(&self) -> i64 {
        self.plt_b_us as i64 - self.plt_a_us as i64
    }

    /// B − A per-kind deltas, µs; they sum to [`Self::plt_delta_us`].
    pub fn edge_deltas_us(&self) -> [i64; EDGE_KINDS.len()] {
        let mut d = [0i64; EDGE_KINDS.len()];
        for (i, (a, b)) in self.sums_a_us.iter().zip(&self.sums_b_us).enumerate() {
            d[i] = *b as i64 - *a as i64;
        }
        d
    }
}

/// The full cross-run attribution report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffReport {
    /// Label of run A (the baseline).
    pub a_label: String,
    /// Label of run B (the candidate).
    pub b_label: String,
    /// Aligned visits, in visit order.
    pub visits: Vec<VisitDiff>,
    /// Run-A visits with no aligned partner (index, site).
    pub unaligned_a: Vec<(usize, usize)>,
    /// Run-B visits with no aligned partner (index, site).
    pub unaligned_b: Vec<(usize, usize)>,
}

impl DiffReport {
    /// Total B − A PLT delta over the aligned visits, µs.
    pub fn plt_delta_us(&self) -> i64 {
        self.visits.iter().map(VisitDiff::plt_delta_us).sum()
    }

    /// Total per-kind deltas, µs; sum equals [`Self::plt_delta_us`].
    pub fn edge_deltas_us(&self) -> [i64; EDGE_KINDS.len()] {
        let mut totals = [0i64; EDGE_KINDS.len()];
        for v in &self.visits {
            for (t, d) in totals.iter_mut().zip(v.edge_deltas_us()) {
                *t += d;
            }
        }
        totals
    }

    /// The edge kind with the largest absolute total delta (earliest
    /// listed kind wins exact ties, so the answer is deterministic).
    pub fn dominant_edge(&self) -> EdgeKind {
        let deltas = self.edge_deltas_us();
        EDGE_KINDS
            .iter()
            .zip(deltas)
            .max_by_key(|&(k, d)| (d.unsigned_abs(), std::cmp::Reverse(k.index())))
            .map(|(&k, _)| k)
            .unwrap_or(EdgeKind::Parse)
    }
}

/// Align two runs' critical paths by (visit, site) identity and diff
/// them. Visits present in only one run — or whose sites differ, which
/// means the workloads weren't the same — land in the unaligned lists
/// rather than poisoning the totals.
pub fn diff_paths(
    a_label: &str,
    a: &[CriticalPath],
    b_label: &str,
    b: &[CriticalPath],
) -> DiffReport {
    let mut visits = Vec::new();
    let mut unaligned_a = Vec::new();
    let mut unaligned_b: Vec<(usize, usize)> = Vec::new();
    let mut b_used = vec![false; b.len()];
    for pa in a {
        match b
            .iter()
            .position(|pb| pb.visit == pa.visit && pb.site == pa.site)
        {
            Some(i) => {
                b_used[i] = true;
                let pb = &b[i];
                visits.push(VisitDiff {
                    visit: pa.visit,
                    site: pa.site,
                    plt_a_us: pa.plt_us(),
                    plt_b_us: pb.plt_us(),
                    sums_a_us: pa.sums_us(),
                    sums_b_us: pb.sums_us(),
                });
            }
            None => unaligned_a.push((pa.visit, pa.site)),
        }
    }
    for (pb, used) in b.iter().zip(&b_used) {
        if !used {
            unaligned_b.push((pb.visit, pb.site));
        }
    }
    DiffReport {
        a_label: a_label.to_string(),
        b_label: b_label.to_string(),
        visits,
        unaligned_a,
        unaligned_b,
    }
}

fn edge_triples(sums_a: &[u64; EDGE_KINDS.len()], sums_b: &[u64; EDGE_KINDS.len()]) -> Value {
    Value::Object(
        EDGE_KINDS
            .iter()
            .enumerate()
            .map(|(i, k)| {
                (
                    k.name().to_string(),
                    Value::Object(vec![
                        ("a_us".into(), Value::U64(sums_a[i])),
                        ("b_us".into(), Value::U64(sums_b[i])),
                        (
                            "delta_us".into(),
                            Value::I64(sums_b[i] as i64 - sums_a[i] as i64),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

fn pair_list(pairs: &[(usize, usize)]) -> Value {
    Value::Array(
        pairs
            .iter()
            .map(|&(visit, site)| {
                Value::Object(vec![
                    ("visit".into(), Value::U64(visit as u64)),
                    ("site".into(), Value::U64(site as u64)),
                ])
            })
            .collect(),
    )
}

impl DiffReport {
    /// The schema-versioned `diff.json` document.
    pub fn to_json(&self) -> String {
        let visits: Vec<Value> = self
            .visits
            .iter()
            .map(|v| {
                Value::Object(vec![
                    ("visit".into(), Value::U64(v.visit as u64)),
                    ("site".into(), Value::U64(v.site as u64)),
                    ("plt_a_us".into(), Value::U64(v.plt_a_us)),
                    ("plt_b_us".into(), Value::U64(v.plt_b_us)),
                    ("plt_delta_us".into(), Value::I64(v.plt_delta_us())),
                    ("edges".into(), edge_triples(&v.sums_a_us, &v.sums_b_us)),
                ])
            })
            .collect();
        let mut sums_a = [0u64; EDGE_KINDS.len()];
        let mut sums_b = [0u64; EDGE_KINDS.len()];
        for v in &self.visits {
            for i in 0..EDGE_KINDS.len() {
                sums_a[i] += v.sums_a_us[i];
                sums_b[i] += v.sums_b_us[i];
            }
        }
        let doc = Value::Object(vec![
            (
                "schema_version".into(),
                Value::U64(u64::from(DIFF_SCHEMA_VERSION)),
            ),
            ("kind".into(), Value::Str("critical_path_diff".into())),
            ("a".into(), Value::Str(self.a_label.clone())),
            ("b".into(), Value::Str(self.b_label.clone())),
            (
                "aligned_visits".into(),
                Value::U64(self.visits.len() as u64),
            ),
            ("plt_delta_us".into(), Value::I64(self.plt_delta_us())),
            (
                "dominant_edge".into(),
                Value::Str(self.dominant_edge().name().into()),
            ),
            ("totals".into(), edge_triples(&sums_a, &sums_b)),
            ("visits".into(), Value::Array(visits)),
            ("unaligned_a".into(), pair_list(&self.unaligned_a)),
            ("unaligned_b".into(), pair_list(&self.unaligned_b)),
        ]);
        let mut s = serde_json::to_string_pretty(&doc).expect("diff serializes");
        s.push('\n');
        s
    }

    /// Human-readable attribution table (ms, B − A).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let ms = |us: i64| us as f64 / 1e3;
        let mut s = format!(
            "PLT diff {} -> {}: {} aligned visit(s), total delta {:+.1} ms\n",
            self.a_label,
            self.b_label,
            self.visits.len(),
            ms(self.plt_delta_us())
        );
        let _ = writeln!(
            s,
            "dominant critical-path edge: {}",
            self.dominant_edge().name()
        );
        let deltas = self.edge_deltas_us();
        let _ = writeln!(
            s,
            "{:<14} {:>12} {:>12} {:>12}",
            "edge",
            format!("{} ms", self.a_label),
            format!("{} ms", self.b_label),
            "delta ms"
        );
        let mut sums_a = [0u64; EDGE_KINDS.len()];
        let mut sums_b = [0u64; EDGE_KINDS.len()];
        for v in &self.visits {
            for i in 0..EDGE_KINDS.len() {
                sums_a[i] += v.sums_a_us[i];
                sums_b[i] += v.sums_b_us[i];
            }
        }
        for (i, k) in EDGE_KINDS.iter().enumerate() {
            let _ = writeln!(
                s,
                "{:<14} {:>12.1} {:>12.1} {:>+12.1}",
                k.name(),
                sums_a[i] as f64 / 1e3,
                sums_b[i] as f64 / 1e3,
                ms(deltas[i])
            );
        }
        if !self.unaligned_a.is_empty() || !self.unaligned_b.is_empty() {
            let _ = writeln!(
                s,
                "unaligned visits: {} in {}, {} in {}",
                self.unaligned_a.len(),
                self.a_label,
                self.unaligned_b.len(),
                self.b_label
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathEdge;

    fn path(visit: usize, site: usize, edges: Vec<(u64, u64, EdgeKind)>) -> CriticalPath {
        let start = edges.first().map_or(0, |e| e.0);
        let end = edges.last().map_or(0, |e| e.1);
        CriticalPath {
            visit,
            site,
            completed: true,
            start_us: start,
            end_us: end,
            edges: edges
                .into_iter()
                .map(|(a, b, kind)| PathEdge {
                    start_us: a,
                    end_us: b,
                    kind,
                    object: None,
                    conn: None,
                })
                .collect(),
        }
    }

    #[test]
    fn deltas_conserve_the_plt_delta_exactly() {
        let a = vec![path(
            0,
            9,
            vec![
                (0, 1_000, EdgeKind::Parse),
                (1_000, 3_000, EdgeKind::Receive),
            ],
        )];
        let b = vec![path(
            0,
            9,
            vec![
                (0, 1_000, EdgeKind::Parse),
                (1_000, 5_000, EdgeKind::RtoRecovery),
                (5_000, 5_500, EdgeKind::Receive),
            ],
        )];
        let d = diff_paths("http", &a, "spdy", &b);
        assert_eq!(d.plt_delta_us(), 2_500);
        assert_eq!(d.edge_deltas_us().iter().sum::<i64>(), 2_500);
        assert_eq!(d.dominant_edge(), EdgeKind::RtoRecovery);
        assert!(d.unaligned_a.is_empty() && d.unaligned_b.is_empty());
    }

    #[test]
    fn site_mismatches_go_unaligned_not_subtracted() {
        let a = vec![path(0, 9, vec![(0, 1_000, EdgeKind::Parse)])];
        let b = vec![path(0, 4, vec![(0, 9_000, EdgeKind::Parse)])];
        let d = diff_paths("a", &a, "b", &b);
        assert!(d.visits.is_empty());
        assert_eq!(d.unaligned_a, vec![(0, 9)]);
        assert_eq!(d.unaligned_b, vec![(0, 4)]);
        assert_eq!(d.plt_delta_us(), 0);
    }

    #[test]
    fn diff_json_is_schema_versioned() {
        let a = vec![path(0, 9, vec![(0, 1_000, EdgeKind::Parse)])];
        let b = vec![path(0, 9, vec![(0, 3_000, EdgeKind::Promotion)])];
        let d = diff_paths("http", &a, "spdy", &b);
        let j = d.to_json();
        let v = serde_json::from_str(&j).expect("diff parses");
        assert_eq!(v["schema_version"].as_u64(), Some(1));
        assert_eq!(v["kind"].as_str(), Some("critical_path_diff"));
        assert_eq!(v["plt_delta_us"].as_f64(), Some(2_000.0));
        assert_eq!(v["dominant_edge"].as_str(), Some("promotion"));
        let text = d.to_text();
        assert!(
            text.contains("dominant critical-path edge: promotion"),
            "{text}"
        );
    }
}
