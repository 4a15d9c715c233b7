//! Per-connection instrumentation.
//!
//! Equivalent to the paper's `tcp_probe` kernel module plus tcpdump
//! post-processing: congestion window, slow-start threshold, bytes in
//! flight, retransmissions, timeouts, and idle restarts, all timestamped.

use serde::Serialize;
use spdyier_sim::{EventMarks, OptionSeries, SimTime, TimeSeries};

/// Cumulative per-connection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TcpStats {
    /// Segments put on the wire (including retransmissions).
    pub segs_sent: u64,
    /// Segments received.
    pub segs_rcvd: u64,
    /// Payload bytes sent (first transmissions only).
    pub bytes_sent: u64,
    /// Payload bytes received in order.
    pub bytes_rcvd: u64,
    /// Payload bytes retransmitted.
    pub bytes_retransmitted: u64,
    /// Retransmitted segments, whatever the trigger.
    pub retransmissions: u64,
    /// RTO firings.
    pub timeouts: u64,
    /// Fast retransmits started by a third duplicate ACK.
    pub fast_retransmits: u64,
    /// Duplicate ACKs received.
    pub dup_acks_in: u64,
    /// RFC 2861 idle restarts taken.
    pub idle_restarts: u64,
    /// Duplicate payload bytes seen by our receiver (peer retransmitted
    /// something we already had — the receiver-side spurious signature).
    pub dup_bytes_rcvd: u64,
    /// DSACK-driven undo events (spurious timeouts detected and reverted).
    pub spurious_undos: u64,
}

/// What the head of the retransmission queue carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SegKind {
    /// A SYN or a SYN-ACK.
    Syn,
    /// Payload (a FIN never rides on data here).
    Data,
    /// A FIN alone: connection teardown.
    PureFin,
}

/// What asked the sender to retransmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RtxTrigger {
    /// The retransmission timer fired.
    Rto,
    /// A third duplicate ACK.
    FastRetransmit,
    /// An ACK into a recovery episode that revealed the next hole.
    PartialAck,
}

/// One entry of a sender's retransmission census: a loss detection (an
/// RTO firing or a fast retransmit's start) or a retransmitted segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtxRecord {
    /// When the sender recorded it.
    pub at: SimTime,
    /// The head segment's kind.
    pub kind: SegKind,
    /// What triggered it.
    pub trigger: RtxTrigger,
    /// Payload bytes retransmitted; `None` for a detection.
    pub sent: Option<u64>,
}

impl RtxRecord {
    /// An RTO firing.
    pub fn is_timeout(&self) -> bool {
        self.sent.is_none() && self.trigger == RtxTrigger::Rto
    }
}

/// Timestamped series for one connection (the Fig. 10–12/17 raw material).
#[derive(Debug, Default, Serialize)]
pub struct TcpTrace {
    /// Congestion window, in segments, sampled on every change.
    pub cwnd_segments: TimeSeries,
    /// Slow-start threshold, in segments; `None` (serialized `null`)
    /// until the first loss sets a real threshold.
    pub ssthresh_segments: OptionSeries,
    /// Unacknowledged bytes in flight.
    pub inflight_bytes: TimeSeries,
    /// Retransmission instants, one per retransmitted segment.
    pub retransmits: EventMarks,
    /// RTO firing instants.
    pub timeouts: EventMarks,
    /// Idle-restart instants (cwnd collapse to the initial window).
    pub idle_restarts: EventMarks,
    /// Raw RTT samples, milliseconds.
    pub rtt_samples_ms: TimeSeries,
}

impl TcpTrace {
    /// Record the window state after any change. An `ssthresh` of
    /// `u64::MAX` means "not yet set" and is recorded as `None` rather
    /// than a sentinel magnitude a reader could mistake for real.
    pub fn record_window(
        &mut self,
        now: SimTime,
        cwnd: u64,
        ssthresh: u64,
        mss: u64,
        inflight: u64,
    ) {
        let mss = mss.max(1);
        self.cwnd_segments.push(now, cwnd as f64 / mss as f64);
        let ss = if ssthresh == u64::MAX {
            None
        } else {
            Some(ssthresh as f64 / mss as f64)
        };
        self.ssthresh_segments.push(now, ss);
        self.inflight_bytes.push(now, inflight as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_window_converts_units() {
        let mut t = TcpTrace::default();
        t.record_window(SimTime::from_millis(5), 13_800, u64::MAX, 1380, 2760);
        let (_, cwnd) = t.cwnd_segments.iter().next().unwrap();
        assert_eq!(cwnd, 10.0);
        let (_, ss) = t.ssthresh_segments.iter().next().unwrap();
        assert_eq!(ss, None, "unset ssthresh records as None, not a sentinel");
        let (_, inflight) = t.inflight_bytes.iter().next().unwrap();
        assert_eq!(inflight, 2760.0);
    }

    #[test]
    fn record_window_keeps_real_ssthresh() {
        let mut t = TcpTrace::default();
        t.record_window(SimTime::from_millis(5), 13_800, 6_900, 1380, 0);
        let (_, ss) = t.ssthresh_segments.iter().next().unwrap();
        assert_eq!(ss, Some(5.0));
    }

    #[test]
    fn stats_default_zero() {
        let s = TcpStats::default();
        assert_eq!(s.retransmissions, 0);
        assert_eq!(s.timeouts, 0);
    }
}
