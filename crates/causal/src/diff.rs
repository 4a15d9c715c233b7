//! Cross-run PLT diff attribution.
//!
//! Aligns two runs of the same workload by visit identity (index +
//! site), subtracts their per-kind critical-path sums visit by visit,
//! and rolls the deltas up. Because each run's edges conserve its PLT
//! exactly, the per-kind deltas sum to the PLT delta exactly — the diff
//! inherits the conservation guarantee instead of re-proving it.

use crate::path::{ByEdge, CriticalPath, EdgeKind, EDGE_KINDS};
use serde::{Serialize, Writer};

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

/// A visit by its identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VisitId {
    /// Visit index in the schedule.
    pub visit: usize,
    /// Site index the visit loaded.
    pub site: usize,
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
    /// Run-A visits with no aligned partner.
    pub unaligned_a: Vec<VisitId>,
    /// Run-B visits with no aligned partner.
    pub unaligned_b: Vec<VisitId>,
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
    let mut unaligned_b = Vec::new();
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
            None => unaligned_a.push(VisitId {
                visit: pa.visit,
                site: pa.site,
            }),
        }
    }
    for (pb, used) in b.iter().zip(&b_used) {
        if !used {
            unaligned_b.push(VisitId {
                visit: pb.visit,
                site: pb.site,
            });
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

/// Run A's and run B's time on one edge kind, and B − A.
#[derive(Serialize)]
struct Triple {
    a_us: u64,
    b_us: u64,
    delta_us: i64,
}

fn triples(sums_a: &[u64; EDGE_KINDS.len()], sums_b: &[u64; EDGE_KINDS.len()]) -> ByEdge<Triple> {
    ByEdge(std::array::from_fn(|i| Triple {
        a_us: sums_a[i],
        b_us: sums_b[i],
        delta_us: sums_b[i] as i64 - sums_a[i] as i64,
    }))
}

/// An aligned visit prints as one visit of the `diff.json` document.
impl Serialize for VisitDiff {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        w.field("visit", &self.visit);
        w.field("site", &self.site);
        w.field("plt_a_us", &self.plt_a_us);
        w.field("plt_b_us", &self.plt_b_us);
        w.field("plt_delta_us", &self.plt_delta_us());
        w.field("edges", &triples(&self.sums_a_us, &self.sums_b_us));
        w.end_object();
    }
}

/// The `diff.json` document.
#[derive(Serialize)]
struct DiffDoc<'a> {
    schema_version: u32,
    kind: &'static str,
    a: &'a str,
    b: &'a str,
    aligned_visits: usize,
    plt_delta_us: i64,
    dominant_edge: EdgeKind,
    totals: ByEdge<Triple>,
    visits: &'a [VisitDiff],
    unaligned_a: &'a [VisitId],
    unaligned_b: &'a [VisitId],
}

impl DiffReport {
    /// Run A's and run B's per-kind sums over the aligned visits, µs.
    fn totals_us(&self) -> [[u64; EDGE_KINDS.len()]; 2] {
        let mut sums = [[0u64; EDGE_KINDS.len()]; 2];
        for v in &self.visits {
            for (side, run) in sums.iter_mut().zip([&v.sums_a_us, &v.sums_b_us]) {
                for (sum, us) in side.iter_mut().zip(run) {
                    *sum += us;
                }
            }
        }
        sums
    }

    /// The schema-versioned `diff.json` document.
    pub fn to_json(&self) -> String {
        let [sums_a, sums_b] = self.totals_us();
        let doc = DiffDoc {
            schema_version: DIFF_SCHEMA_VERSION,
            kind: "critical_path_diff",
            a: &self.a_label,
            b: &self.b_label,
            aligned_visits: self.visits.len(),
            plt_delta_us: self.plt_delta_us(),
            dominant_edge: self.dominant_edge(),
            totals: triples(&sums_a, &sums_b),
            visits: &self.visits,
            unaligned_a: &self.unaligned_a,
            unaligned_b: &self.unaligned_b,
        };
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
        let [sums_a, sums_b] = self.totals_us();
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
        assert_eq!(d.unaligned_a, [VisitId { visit: 0, site: 9 }]);
        assert_eq!(d.unaligned_b, [VisitId { visit: 0, site: 4 }]);
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
