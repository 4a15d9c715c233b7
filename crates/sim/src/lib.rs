//! # spdyier-sim
//!
//! Deterministic discrete-event simulation (DES) engine underpinning the
//! *"Towards a SPDY'ier Mobile Web?"* reproduction testbed.
//!
//! This crate is deliberately tiny and dependency-light; everything above it
//! (links, TCP, RRC state machines, browsers, proxies) is built out of four
//! primitives:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated clock;
//! * [`EventQueue`] — chronological, FIFO-stable, cancellable event queue;
//! * [`DetRng`] — a forkable deterministic random stream so that protocol
//!   A/B comparisons see identical "network weather";
//! * [`stats`] / [`series`] — the reductions the paper's figures need
//!   (box plots, CDFs, confidence intervals, per-second bins, burst
//!   detection).
//!
//! ## Example
//!
//! ```
//! use spdyier_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(20), "timeout");
//! q.schedule(SimTime::from_millis(10), "packet");
//! let (t, what) = q.pop().unwrap();
//! assert_eq!((t, what), (SimTime::from_millis(10), "packet"));
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod queue;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use queue::{EventId, EventQueue, LANES};
pub use rng::DetRng;
pub use series::{EventMarks, OptionSeries, TimeSeries};
pub use stats::{BoxStats, Cdf, MeanCi, MergeError, QuantileSketch};
pub use time::{SimDuration, SimTime};
