//! # spdyier-causal
//!
//! The only reader of a flight-recorder stream: one pass — over a
//! retained log, or online as the recorder's sink ([`ModelBuilder`]) —
//! builds the [`EventModel`] of each page load (HTML parse → fetch issue →
//! connection grant → TCP send → link serialization → RRC promotion wait
//! → RTO recovery → response → dependent fetch), and one boundary
//! [`sweep`] projects it two ways — the per-visit **stall table**
//! ([`stall_sums_us`]: how much wall time each layer consumed) and exact
//! per-visit **critical-path extraction** (which of it gated the load) —
//! both conserving the PLT by construction. A **diff engine** aligns two
//! runs of the same workload and attributes their PLT delta edge by
//! edge.
//!
//! The paper's headline — SPDY's single connection magnifies TCP RTO
//! stalls under 3G RRC transitions — is a critical-path statement: a
//! stall only hurts PLT when it sits on the load's dependency chain.
//! The stall table decomposes wall time into layer buckets; the critical
//! path answers the sharper question of *which* stalls gated the load,
//! and, across two cells (HTTP vs SPDY, mitigation on vs off), *which
//! edges the PLT delta came from*.
//!
//! ```
//! use spdyier_causal::{critical_paths_from_records, diff_paths};
//! # let records: Vec<spdyier_trace::TraceRecord> = Vec::new();
//! let paths = critical_paths_from_records(&records);
//! for p in &paths {
//!     assert_eq!(p.sums_us().iter().sum::<u64>(), p.plt_us()); // exact
//! }
//! let d = diff_paths("http", &paths, "spdy", &paths);
//! assert_eq!(d.plt_delta_us(), 0);
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod diff;
pub mod model;
pub mod parse;
pub mod path;
pub mod sweep;

pub use diff::{diff_paths, DiffReport, VisitDiff, VisitId, DIFF_SCHEMA_VERSION};
pub use model::{ConnBinding, EventModel, Interval, ModelBuilder, ObjectInstants, VisitWindow};
pub use parse::parse_jsonl;
pub use path::{
    critical_paths, critical_paths_from_records, explain_json, explain_text, rollup_us,
    CriticalPath, EdgeKind, PathEdge, EDGE_KINDS, EXPLAIN_SCHEMA_VERSION,
};
pub use sweep::stall_sums_us;
