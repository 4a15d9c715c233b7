//! TCP tunables.
//!
//! Every Linux sysctl the paper experiments with is a field here:
//! `tcp_slow_start_after_idle` (§6.2.2, Fig. 15), the RTT-reset-after-idle
//! fix (§6.2.1), the congestion control variant (§6.2.3, Table 2), and the
//! destination metrics cache (§6.2.4). The stack's other timers and
//! thresholds are constants: no run varies them.

use crate::cc::CcAlgorithm;
use serde::Serialize;
use spdyier_sim::SimDuration;

/// RTO before any RTT sample (RFC 6298: 1 s).
pub const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);
/// Maximum RTO (Linux `TCP_RTO_MAX`: 120 s).
pub const MAX_RTO: SimDuration = SimDuration::from_secs(120);
/// RTO held after an idle-period RTT reset
/// ([`TcpConfig::reset_rtt_after_idle`]; the paper: "the initial default
/// value (of multiple seconds)").
pub const POST_IDLE_RTO: SimDuration = SimDuration::from_secs(3);
/// Delayed-ACK timer (Linux: 40 ms).
pub const DELAYED_ACK: SimDuration = SimDuration::from_millis(40);
/// Duplicate ACKs that trigger fast retransmit.
pub const DUPACK_THRESHOLD: u32 = 3;
/// TIME_WAIT hold before the connection object reports closed.
pub const TIME_WAIT: SimDuration = SimDuration::from_secs(30);

/// Per-connection TCP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TcpConfig {
    /// Maximum segment size, bytes.
    pub mss: u64,
    /// Initial congestion window, segments (the 2013-era Linux default of
    /// 10 that the paper quotes).
    pub initial_cwnd_segments: u64,
    /// Receive buffer capacity (advertised window ceiling), bytes.
    pub recv_buffer: u64,
    /// Send buffer capacity, bytes. The connection accepts writes beyond
    /// this, but well-behaved callers check
    /// [`crate::TcpConnection::send_space`] first — the backpressure that
    /// keeps application schedulers (e.g. SPDY priorities) meaningful.
    pub send_buffer: u64,
    /// Minimum RTO (Linux: 200 ms).
    pub min_rto: SimDuration,
    /// Congestion control algorithm.
    pub cc: CcAlgorithm,
    /// RFC 2861 `tcp_slow_start_after_idle`: collapse cwnd to the initial
    /// window after an idle period longer than one RTO.
    pub slow_start_after_idle: bool,
    /// The paper's §6.2.1 proposal: *also* reset the RTT estimate across
    /// an idle period, holding the RTO at [`POST_IDLE_RTO`] until a fresh
    /// sample arrives, so the first post-idle RTO comfortably covers the
    /// RRC promotion delay.
    pub reset_rtt_after_idle: bool,
    /// Record a full [`crate::trace::TcpTrace`] for this connection.
    pub trace: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1380,
            initial_cwnd_segments: 10,
            recv_buffer: 512 * 1024,
            send_buffer: 128 * 1024,
            min_rto: SimDuration::from_millis(200),
            cc: CcAlgorithm::Cubic,
            slow_start_after_idle: true,
            reset_rtt_after_idle: false,
            trace: false,
        }
    }
}

impl TcpConfig {
    /// Initial congestion window in bytes.
    pub fn initial_cwnd(&self) -> u64 {
        self.initial_cwnd_segments * self.mss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_era_linux() {
        let c = TcpConfig::default();
        assert_eq!(c.initial_cwnd_segments, 10);
        assert_eq!(c.cc, CcAlgorithm::Cubic);
        assert!(c.slow_start_after_idle);
        assert!(!c.reset_rtt_after_idle);
        assert_eq!(c.initial_cwnd(), 13_800);
        assert_eq!(c.min_rto, SimDuration::from_millis(200));
    }
}
