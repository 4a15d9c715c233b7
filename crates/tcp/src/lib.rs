//! # spdyier-tcp
//!
//! A sans-IO TCP implementation for the SPDY'ier reproduction testbed —
//! the layer whose interaction with the cellular RRC state machine is the
//! paper's central subject.
//!
//! Implemented behaviours (all 2013-era-Linux-shaped):
//!
//! * three-way handshake, reliable bidirectional byte streams, graceful
//!   close with FIN/TIME_WAIT;
//! * RFC 6298 RTT estimation and RTO with exponential backoff and Karn's
//!   rule; fast retransmit/NewReno-style recovery on triple duplicate ACKs;
//! * delayed ACKs (40 ms / every second segment), advertised-window flow
//!   control with zero-window persist probing;
//! * congestion control behind a trait: [`cc::Reno`] and [`cc::Cubic`];
//! * RFC 2861 `tcp_slow_start_after_idle` — cwnd collapses to the initial
//!   window after idle while **ssthresh and the RTT estimate survive**,
//!   the implementation flaw the paper identifies;
//! * the paper's §6.2.1 fix as a config flag
//!   ([`TcpConfig::reset_rtt_after_idle`]);
//! * a Linux-`tcp_metrics`-style destination cache ([`TcpMetricsCache`],
//!   §6.2.4);
//! * `tcp_probe`-equivalent tracing ([`TcpTrace`]) of cwnd/ssthresh/
//!   in-flight/retransmissions;
//! * a retransmission census: one [`RtxRecord`] per loss detection and
//!   per retransmitted segment, with its segment kind and trigger, which
//!   the connection's owner drains ([`TcpConnection::drain_census`]).
//!
//! [`TcpConnection`] holds the RFC 793 state, the handshake and the
//! close over two private halves, `sender` and `receiver`; each timer
//! belongs to exactly one of the three. The settings no run varies are
//! constants in [`config`].
//!
//! ```
//! use spdyier_tcp::{TcpConnection, TcpConfig};
//! use spdyier_sim::SimTime;
//! use spdyier_bytes::Payload;
//!
//! let mut client = TcpConnection::client(TcpConfig::default());
//! let mut server = TcpConnection::server(TcpConfig::default());
//! client.connect(SimTime::ZERO);
//! let syn = client.poll_transmit(SimTime::ZERO).unwrap();
//! server.on_segment(SimTime::from_millis(50), syn);
//! let syn_ack = server.poll_transmit(SimTime::from_millis(50)).unwrap();
//! client.on_segment(SimTime::from_millis(100), syn_ack);
//! assert!(client.is_established());
//! client.write(Payload::from("GET / HTTP/1.1\r\n\r\n"));
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod buffer;
pub mod cc;
pub mod config;
pub mod connection;
pub mod metrics_cache;
mod receiver;
pub mod rtt;
pub mod segment;
mod sender;
pub mod trace;

pub use cc::{CcAlgorithm, CongestionControl};
pub use config::TcpConfig;
pub use connection::{TcpConnection, TcpState};
pub use metrics_cache::{CachedMetrics, TcpMetricsCache};
pub use rtt::RttEstimator;
pub use segment::{SegFlags, Segment};
pub use trace::{RtxRecord, RtxTrigger, SegKind, TcpStats, TcpTrace};
