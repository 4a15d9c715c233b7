//! The four workloads and the manifests that define their inputs.
//!
//! Sizes are constants of the benchmark, not flags: a number is only
//! comparable with the ledger if it was measured on the same input.
//! `--seed N` becomes `seeds.base = N`; the program under test receives
//! only the generated manifest.

/// Which `experiments` subcommand a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subcommand {
    Run,
    Sweep,
    Explain,
}

impl Subcommand {
    pub fn name(self) -> &'static str {
        match self {
            Subcommand::Run => "run",
            Subcommand::Sweep => "sweep",
            Subcommand::Explain => "explain",
        }
    }
}

/// The pages a workload's cells visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pages {
    /// The paper's 20-site Table 1 schedule.
    Table1,
    /// `visits` loads of one same-domain page of equal-size objects.
    Synthetic {
        objects: u32,
        object_bytes: u64,
        visits: u32,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub subcommand: Subcommand,
    network: &'static str,
    pages: Pages,
    assertions: &'static [&'static str],
    /// Seeds per end-to-end repetition (two cells each: HTTP and SPDY).
    seeds: u64,
    /// Seeds of the in-process traced pass.
    traced_seeds: u64,
    /// Seeds of either under `--smoke`.
    smoke_seeds: u64,
}

/// Which size of a workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    EndToEnd,
    Traced,
    Smoke,
}

// Each end-to-end repetition is sized to run 5.5–6.5 s on the reference
// machine: long enough that process start-up is under 0.1% of it, short
// enough that three fit in one `run_seconds` window.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "table1_3g",
        subcommand: Subcommand::Run,
        network: "3g",
        pages: Pages::Table1,
        assertions: &["completion_rate >= 0.9"],
        seeds: 6,
        traced_seeds: 3,
        smoke_seeds: 1,
    },
    Workload {
        name: "bulk_lte",
        subcommand: Subcommand::Run,
        network: "lte",
        pages: Pages::Synthetic {
            objects: 8,
            object_bytes: 1 << 20,
            visits: 40,
        },
        assertions: &["completion_rate >= 0.9"],
        seeds: 5,
        traced_seeds: 2,
        smoke_seeds: 1,
    },
    Workload {
        name: "population_wifi",
        subcommand: Subcommand::Sweep,
        network: "wifi",
        pages: Pages::Synthetic {
            objects: 6,
            object_bytes: 1200,
            visits: 2,
        },
        assertions: &["completion_rate >= 1.0", "plt_p50_ms < 9000"],
        seeds: 3500,
        traced_seeds: 500,
        smoke_seeds: 50,
    },
    Workload {
        name: "explain_3g",
        subcommand: Subcommand::Explain,
        network: "3g",
        pages: Pages::Table1,
        assertions: &["completion_rate >= 0.9"],
        seeds: 5,
        traced_seeds: 3,
        smoke_seeds: 1,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn seeds(&self, size: Size) -> u64 {
        match size {
            Size::EndToEnd => self.seeds,
            Size::Traced => self.traced_seeds,
            Size::Smoke => self.smoke_seeds,
        }
    }

    /// Cells a manifest of `size` expands to: HTTP and SPDY per seed.
    pub fn cells(&self, size: Size) -> u64 {
        self.seeds(size) * 2
    }

    pub fn visits_per_cell(&self) -> u64 {
        match self.pages {
            Pages::Table1 => 20,
            Pages::Synthetic { visits, .. } => u64::from(visits),
        }
    }

    /// The manifest for `seed` at `size`, as the JSON text the CLI reads.
    pub fn manifest_json(&self, seed: u64, size: Size) -> String {
        let workload = match self.pages {
            Pages::Table1 => r#"{ "kind": "table1" }"#.to_string(),
            Pages::Synthetic {
                objects,
                object_bytes,
                visits,
            } => format!(
                r#"{{ "kind": "synthetic", "objects": {objects}, "object_bytes": {object_bytes}, "same_domain": true, "visits": {visits}, "interval_s": 30 }}"#
            ),
        };
        let assertions: Vec<String> = self.assertions.iter().map(|a| format!("{a:?}")).collect();
        format!(
            r#"{{
  "schema_version": 1,
  "name": "{name}",
  "network": {{ "kind": "{network}" }},
  "workload": {workload},
  "protocols": ["http", "spdy"],
  "seeds": {{ "base": {seed}, "count": {count} }},
  "assertions": [{assertions}]
}}
"#,
            name = self.name,
            network = self.network,
            count = self.seeds(size),
            assertions = assertions.join(", "),
        )
    }
}

/// The one-cell, one-visit, one-object manifest whose launch time is
/// `setup_s`: everything an `experiments run` pays before and after the
/// simulation proper.
pub fn setup_probe_manifest_json() -> &'static str {
    r#"{
  "schema_version": 1,
  "name": "setup_probe",
  "network": { "kind": "wifi" },
  "workload": { "kind": "synthetic", "objects": 1, "object_bytes": 100, "same_domain": true, "visits": 1, "interval_s": 1 },
  "protocols": ["http"],
  "seeds": { "base": 0, "count": 1 }
}
"#
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_scenario::Manifest;

    #[test]
    fn generated_manifests_decode_to_the_declared_shape() {
        for seed in [0, 7] {
            for w in &WORKLOADS {
                for size in [Size::EndToEnd, Size::Traced, Size::Smoke] {
                    let m = Manifest::from_json(&w.manifest_json(seed, size))
                        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name));
                    assert_eq!(m.name, w.name);
                    assert_eq!(m.seeds.base, seed);
                    let cells = m.cells();
                    assert_eq!(cells.len() as u64, w.cells(size));
                    assert_eq!(cells[0].seed, seed);
                    let cfg = cells[0].build_config(&m);
                    assert_eq!(cfg.schedule.visits().count() as u64, w.visits_per_cell());
                    assert_eq!(m.assertions.len(), w.assertions.len());
                }
            }
        }
        let probe = Manifest::from_json(setup_probe_manifest_json()).expect("probe decodes");
        assert_eq!(probe.cells().len(), 1);
    }

    #[test]
    fn workload_names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert!(by_name("no_such_workload").is_none());
    }
}
