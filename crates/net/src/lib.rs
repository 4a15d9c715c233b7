//! # spdyier-net
//!
//! Packet-level link substrate for the SPDY'ier reproduction testbed.
//!
//! Links are fluid-approximation transmission lines with drop-tail queues,
//! random loss, and per-packet jitter ([`Link`]); a [`DuplexPath`] pairs one
//! per direction. The cellular crate wraps these with the RRC state machine;
//! the wired/WiFi environments of the paper are the presets in
//! [`path::presets`].
//!
//! ```
//! use spdyier_net::{Link, LinkConfig, LinkVerdict};
//! use spdyier_sim::{DetRng, SimTime};
//!
//! let mut link = Link::new(LinkConfig::from_mbps(8.0, 50));
//! let mut rng = DetRng::new(0);
//! match link.send(SimTime::ZERO, 1500, &mut rng) {
//!     LinkVerdict::Deliver(at) => assert!(at > SimTime::from_millis(50)),
//!     LinkVerdict::Drop => unreachable!("empty queue, lossless link"),
//! }
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod jitter;
pub mod link;
pub mod loss;
pub mod path;

pub use jitter::JitterModel;
pub use link::{Link, LinkConfig, LinkStats, LinkVerdict};
pub use loss::{LossModel, LossState};
pub use path::{presets, Direction, DuplexPath};
