//! # spdyier-core
//!
//! The assembled testbed for *"Towards a SPDY'ier Mobile Web?"*: a
//! deterministic discrete-event driver that loads real synthesized pages
//! through real HTTP/1.1 or SPDY/3 protocol stacks, over real sans-IO TCP
//! connections, across an RRC-gated cellular (or WiFi) access path and a
//! wired cloud path to modelled origins — reproducing the paper's
//! measurement topology (its Fig. 2) end to end.
//!
//! A run is one [`ExperimentConfig`] handed to a [`Testbed`]. Outside
//! this crate's tests, configs come from a scenario manifest's cells
//! (`spdyier_scenario::Cell::build_config`), which pick the visit
//! schedule; this crate's own tests hand one to the constructor:
//!
//! ```no_run
//! use spdyier_core::{ExperimentConfig, ProtocolMode, Testbed};
//! use spdyier_sim::SimDuration;
//! use spdyier_workload::VisitSchedule;
//!
//! let schedule = VisitSchedule::sequential(vec![9], SimDuration::from_secs(60));
//! let cfg = ExperimentConfig::paper_3g(ProtocolMode::Http, /*seed*/ 1, schedule);
//! let result = Testbed::new(cfg).run();
//! println!("PLT: {:?} ms", result.plts_ms());
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod attribution;
pub mod config;
pub mod contract;
mod domains;
pub mod driver;
pub mod export;
pub mod results;
mod session;
mod visits;
pub mod waterfall;
mod world;

pub use attribution::{attribute_stalls, stall_file, stall_table, StallBreakdown};
pub use config::{ExperimentConfig, NetworkKind, ProtocolMode, NETWORK_NAMES};
pub use contract::{
    junit_xml, paired_meta_file, stall_manifest_file, AssertionVerdict, ScenarioExit,
    VerdictStatus, PAIRED_DUMP_SCHEMA_VERSION, RESULT_SCHEMA_VERSION, STALL_TABLE_SCHEMA_VERSION,
};
pub use driver::{RunError, Testbed};
pub use export::{export_run, metrics_file, write_to_dir, DataFile, METRICS_SCHEMA_VERSION};
pub use results::{ConnTraceResult, RunResult, VisitResult};
pub use spdyier_trace::{FlightLog, TraceLevel};
pub use waterfall::{waterfall, waterfall_json, Waterfall};
