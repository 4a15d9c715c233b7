//! Flight recorder for the SPDY'ier testbed.
//!
//! The paper's analysis (Erman et al., CoNEXT 2013) worked because the
//! authors could line up tcpdump captures, `tcp_probe` cwnd samples,
//! and RRC state inferences on one timeline. This crate gives the
//! simulated testbed the same power: a deterministic, sim-time-stamped,
//! typed event bus that every layer emits into, plus a metrics registry
//! of aggregate counters folded from that bus, behind a switch that
//! makes the whole thing free when off.
//!
//! - [`TraceEvent`] / [`TraceRecord`] — the cross-layer vocabulary.
//! - [`TraceLevel`] — `Off` or `Full`, set by a scenario manifest's
//!   `trace` field.
//! - [`TraceSink`] — where records go: [`NullSink`], [`MemorySink`], or
//!   a sink the caller lends (the causal engine's model builder).
//! - [`MetricsRegistry`] — named counters + quantile-sketch histograms,
//!   deterministically ordered, folded from the events the recorder
//!   takes.
//! - [`Tracer`] / [`FlightLog`] — the recorder the `World` carries and
//!   the artifact a finished run hands to consumers (the causal event
//!   model, waterfall export, JSONL dump).

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod event;
mod metrics;
mod recorder;
mod sink;

pub use event::{TraceEvent, TraceLevel, TraceRecord};
pub use metrics::{MetricsRegistry, COUNTERS};
pub use recorder::{FlightLog, Tracer};
pub use sink::{to_jsonl, MemorySink, NullSink, TraceSink};
