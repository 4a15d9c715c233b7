//! # spdyier-scenario
//!
//! Declarative scenario manifests: an experiment as *data* instead of a
//! Rust function. A JSON manifest declares the network, workload,
//! protocol sides, §6 mitigation knobs (the [`KNOBS`] table), an optional
//! knob matrix, seeds, trace level, limits, and assertions over the
//! [`METRICS`] table; [`Manifest::cells`] expands it into the
//! deterministic run cells and [`Cell::build_config`] produces the exact
//! [`spdyier_core::ExperimentConfig`] each cell runs — with defaults
//! that reproduce the paper baseline byte-for-byte.
//!
//! The runner half (parallel execution, `result.json` + JUnit XML
//! emission, exit codes) lives in `spdyier-experiments`; this crate is
//! pure data and evaluation so it stays trivially testable:
//!
//! ```
//! use spdyier_scenario::Manifest;
//!
//! let m = Manifest::from_json(r#"{
//!     "schema_version": 1,
//!     "name": "headline",
//!     "network": { "kind": "3g" },
//!     "protocols": ["http", "spdy"],
//!     "assertions": ["spdy.rto_stall_ms > http.rto_stall_ms on 3g"]
//! }"#).unwrap();
//! assert_eq!(m.cells().len(), 2);
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod assertions;
pub mod cells;
pub mod decode;
pub mod manifest;
pub mod metrics;

pub use assertions::{Assertion, CmpOp, MetricRef, Operand};
pub use cells::{table1_schedule_for_seed, Cell};
pub use decode::ManifestError;
pub use manifest::{
    Knob, KnobValue, Limits, Manifest, NetworkSection, Outputs, ProtocolSpec, Seeds, Settings,
    Workload, KNOBS, MANIFEST_SCHEMA_VERSION,
};
pub use metrics::{eval_metric, evaluate, CellMetrics, Summary, METRICS};
