//! The sans-IO TCP connection state machine.
//!
//! A [`TcpConnection`] never touches a socket or a clock of its own: the
//! driver feeds it segments ([`TcpConnection::on_segment`]) and timer
//! expirations ([`TcpConnection::on_timer`]), and drains segments to put on
//! the wire ([`TcpConnection::poll_transmit`]). [`TcpConnection::next_timer`]
//! tells the driver when to call back. This is the quinn-proto/smoltcp
//! idiom: the whole protocol is deterministic and unit-testable.
//!
//! The connection holds the RFC 793 state, the handshake and the close,
//! and combines its send half (`sender`) and receive half (`receiver`).

use crate::config::{TcpConfig, TIME_WAIT};
use crate::metrics_cache::CachedMetrics;
use crate::receiver::Receiver;
use crate::rtt::RttEstimator;
use crate::segment::Segment;
use crate::sender::Sender;
use crate::trace::{RtxRecord, TcpStats, TcpTrace};
use spdyier_bytes::Payload;
use spdyier_sim::{SimDuration, SimTime};

/// TCP connection states (RFC 793 subset relevant to the testbed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open, awaiting SYN.
    Listen,
    /// Active open, SYN sent.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data may flow.
    Established,
    /// We closed first; FIN sent.
    FinWait1,
    /// Our FIN acked; awaiting peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Both sides closed simultaneously.
    Closing,
    /// Peer closed, then we closed; awaiting final ACK.
    LastAck,
    /// Final 2MSL-style hold.
    TimeWait,
}

/// A full TCP endpoint for one connection.
pub struct TcpConnection {
    state: TcpState,
    /// Our SYN is due: a SYN-ACK once the peer's SYN has arrived.
    syn_pending: bool,
    fin_queued: bool,
    fin_sent: bool,
    time_wait_deadline: Option<SimTime>,
    segs_sent: u64,
    segs_rcvd: u64,
    tx: Sender,
    rx: Receiver,
}

impl std::fmt::Debug for TcpConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpConnection")
            .field("state", &self.state)
            .field("snd_una", &self.tx.snd_una())
            .field("snd_nxt", &self.tx.snd_nxt())
            .field("cwnd", &self.tx.cc.cwnd())
            .finish()
    }
}

impl TcpConnection {
    /// A client endpoint in `Closed`; call [`TcpConnection::connect`].
    pub fn client(cfg: TcpConfig) -> TcpConnection {
        Self::new(cfg, TcpState::Closed)
    }

    /// A passive (server) endpoint awaiting a SYN.
    pub fn server(cfg: TcpConfig) -> TcpConnection {
        Self::new(cfg, TcpState::Listen)
    }

    fn new(cfg: TcpConfig, state: TcpState) -> TcpConnection {
        TcpConnection {
            state,
            syn_pending: false,
            fin_queued: false,
            fin_sent: false,
            time_wait_deadline: None,
            segs_sent: 0,
            segs_rcvd: 0,
            tx: Sender::new(cfg),
            rx: Receiver::new(cfg.recv_buffer),
        }
    }

    /// Begin the active open (client side). The SYN leaves on the next
    /// [`TcpConnection::poll_transmit`].
    pub fn connect(&mut self, _now: SimTime) {
        assert_eq!(self.state, TcpState::Closed, "connect() from Closed only");
        self.state = TcpState::SynSent;
        self.syn_pending = true;
    }

    /// Seed congestion/RTT state from the host metrics cache
    /// (Linux `tcp_metrics` behaviour; see the paper's §6.2.4). The
    /// ssthresh seed applies immediately; the RTT seed applies once the
    /// handshake completes — the SYN itself always uses the fixed initial
    /// RTO, as in real stacks.
    pub fn apply_cached_metrics(&mut self, m: CachedMetrics) {
        self.tx.cc.set_ssthresh(m.ssthresh);
        self.tx.pending_rtt_seed = Some((m.srtt, m.rttvar));
    }

    /// Snapshot metrics for the cache at close. `None` until an RTT sample
    /// exists.
    pub fn snapshot_metrics(&self) -> Option<CachedMetrics> {
        let (cc, rtt) = (&self.tx.cc, &self.tx.rtt);
        rtt.srtt().map(|srtt| CachedMetrics {
            ssthresh: if cc.ssthresh() == u64::MAX {
                cc.cwnd()
            } else {
                cc.ssthresh()
            },
            srtt,
            rttvar: rtt.rttvar(),
        })
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Data may be written and read.
    pub fn is_established(&self) -> bool {
        matches!(self.state, TcpState::Established | TcpState::CloseWait)
    }

    /// Fully shut (including TIME_WAIT expiry).
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Cumulative counters.
    pub fn stats(&self) -> TcpStats {
        TcpStats {
            segs_sent: self.segs_sent,
            segs_rcvd: self.segs_rcvd,
            bytes_rcvd: self.rx.bytes_rcvd,
            dup_bytes_rcvd: self.rx.buf.as_ref().map_or(0, |b| b.dup_bytes()),
            ..self.tx.stats
        }
    }

    /// Take the retransmission census records written since the last
    /// call, oldest first: one per loss detection and one per
    /// retransmitted segment. Records nobody drains are kept.
    pub fn drain_census(&mut self) -> std::vec::Drain<'_, RtxRecord> {
        self.tx.census.drain(..)
    }

    /// Give back the spare capacity of buffers that are empty now (the
    /// retransmission queue, the undrained census). Nothing observable
    /// changes; a connection used again regrows them. For an owner that
    /// holds many idle connections open.
    pub fn release_spare_capacity(&mut self) {
        self.tx.release_spare_capacity();
    }

    /// The trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&TcpTrace> {
        self.tx.trace.as_deref()
    }

    /// Move the trace out (for results harvesting at end of run).
    pub fn take_trace(&mut self) -> Option<TcpTrace> {
        self.tx.trace.take().map(|b| *b)
    }

    /// Unacknowledged bytes in flight (sequence space).
    pub fn bytes_in_flight(&self) -> u64 {
        self.tx.bytes_in_flight()
    }

    /// Current congestion window, bytes.
    pub fn cwnd(&self) -> u64 {
        self.tx.cc.cwnd()
    }

    /// Current slow-start threshold, bytes.
    pub fn ssthresh(&self) -> u64 {
        self.tx.cc.ssthresh()
    }

    /// Current retransmission timeout: the estimate with backoff
    /// applied, capped at [`crate::config::MAX_RTO`] as Linux caps it at
    /// `TCP_RTO_MAX`.
    pub fn rto(&self) -> SimDuration {
        self.tx.rto()
    }

    /// The RTT estimator (read-only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.tx.rtt
    }

    /// Bytes queued but not yet transmitted.
    pub fn send_queue_len(&self) -> u64 {
        self.tx.send_buf.len()
    }

    /// Free space in the send buffer. Writes are never rejected, but
    /// callers that respect this keep their own schedulers in charge of
    /// ordering instead of dumping everything into TCP at once.
    pub fn send_space(&self) -> u64 {
        let Sender { cfg, send_buf, .. } = &self.tx;
        cfg.send_buffer.saturating_sub(send_buf.len())
    }

    /// Queue application data for transmission.
    pub fn write(&mut self, data: Payload) {
        debug_assert!(
            matches!(
                self.state,
                TcpState::SynSent | TcpState::SynRcvd | TcpState::Established | TcpState::CloseWait
            ),
            "write in state {:?}",
            self.state
        );
        self.tx.send_buf.write(data);
    }

    /// Read the next chunk of in-order received data.
    pub fn read(&mut self) -> Option<Payload> {
        self.rx.buf.as_mut()?.read()
    }

    /// In-order bytes available to read.
    pub fn readable(&self) -> u64 {
        self.rx.buf.as_ref().map_or(0, |b| b.readable())
    }

    /// True once the peer's FIN has been consumed (EOF after draining reads).
    pub fn peer_closed(&self) -> bool {
        self.rx.peer_closed()
    }

    /// Close the send side (queue a FIN after pending data).
    pub fn close(&mut self, _now: SimTime) {
        if matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynRcvd
        ) {
            self.fin_queued = true;
        }
    }

    /// Feed one segment that arrived from the network at `now`.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) {
        self.segs_rcvd += 1;
        match self.state {
            TcpState::Listen if seg.flags.syn && !seg.flags.ack => {
                self.rx.open(seg.seq);
                // A SYN acknowledges nothing; this learns its window.
                self.tx.on_ack(now, &seg);
                self.state = TcpState::SynRcvd;
                self.syn_pending = true;
            }
            TcpState::SynSent if seg.flags.syn && seg.flags.ack && seg.ack == self.tx.snd_nxt() => {
                self.rx.open(seg.seq);
                self.tx.on_ack(now, &seg);
                self.establish();
                self.rx.owe_ack();
            }
            TcpState::Closed | TcpState::Listen | TcpState::SynSent => {}
            _ => self.on_segment_synchronized(now, &seg),
        }
    }

    fn on_segment_synchronized(&mut self, now: SimTime, seg: &Segment) {
        // ACK processing first (may complete the handshake in SynRcvd).
        if seg.flags.ack && self.tx.on_ack(now, seg) {
            if self.state == TcpState::SynRcvd {
                self.establish();
            }
            self.maybe_complete_close(now);
        }
        if !seg.payload.is_empty() {
            self.rx.on_data(now, seg);
        }
        if seg.flags.fin && self.rx.on_fin(seg.seq + seg.len()) {
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                // Our FIN not yet acked: simultaneous close.
                TcpState::FinWait1 => self.state = TcpState::Closing,
                TcpState::FinWait2 => self.enter_time_wait(now),
                _ => {}
            }
        }
    }

    fn establish(&mut self) {
        self.state = TcpState::Established;
        self.tx.established();
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.time_wait_deadline = Some(now + TIME_WAIT);
    }

    fn maybe_complete_close(&mut self, now: SimTime) {
        if !self.fin_sent || self.tx.bytes_in_flight() > 0 {
            return;
        }
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::Closing => self.enter_time_wait(now),
            TcpState::LastAck => self.state = TcpState::Closed,
            _ => {}
        }
    }

    /// Produce the next segment to put on the wire, if any. Call until it
    /// returns `None`.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Segment> {
        let mut seg = std::mem::take(&mut self.syn_pending)
            .then(|| self.tx.emit(now, Payload::new(), true, false))
            .or_else(|| self.tx.poll_retransmit(now))
            .or_else(|| self.poll_data(now))
            .or_else(|| self.poll_fin(now))
            .or_else(|| self.rx.take_owed_ack().then(|| self.tx.pure_ack()))?;
        self.segs_sent += 1;
        self.rx.stamp(&mut seg);
        Some(seg)
    }

    fn poll_data(&mut self, now: SimTime) -> Option<Segment> {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::Closing
        ) {
            return None;
        }
        self.tx.poll_data(now)
    }

    fn poll_fin(&mut self, now: SimTime) -> Option<Segment> {
        if !self.fin_queued || self.fin_sent || !self.tx.send_buf.is_empty() {
            return None;
        }
        self.state = match self.state {
            TcpState::CloseWait => TcpState::LastAck,
            TcpState::Established | TcpState::SynRcvd => TcpState::FinWait1,
            _ => return None,
        };
        self.fin_sent = true;
        Some(self.tx.emit(now, Payload::new(), false, true))
    }

    /// The earliest instant at which [`TcpConnection::on_timer`] must run.
    pub fn next_timer(&self) -> Option<SimTime> {
        [
            self.tx.next_timer(),
            self.rx.next_timer(),
            self.time_wait_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Fire all timers that have expired by `now`.
    pub fn on_timer(&mut self, now: SimTime) {
        self.rx.on_timer(now);
        if self.time_wait_deadline.is_some_and(|d| d <= now) {
            self.time_wait_deadline = None;
            self.state = TcpState::Closed;
        }
        self.tx.on_timer(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgorithm;

    fn cfg() -> TcpConfig {
        TcpConfig {
            trace: true,
            ..TcpConfig::default()
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drive two connections against each other over a perfect,
    /// fixed-latency pipe, reading both applications promptly. Returns the
    /// clock at quiescence plus the bytes each side received.
    fn converse_rx(
        a: &mut TcpConnection,
        b: &mut TcpConnection,
        start: SimTime,
        latency: SimDuration,
    ) -> (SimTime, Vec<u8>, Vec<u8>) {
        let mut now = start;
        let mut a_rx = Vec::new();
        let mut b_rx = Vec::new();
        // (deliver_at, to_a?, segment)
        let mut wire: Vec<(SimTime, bool, Segment)> = Vec::new();
        for _ in 0..100_000 {
            // Drain both endpoints (segments and application reads).
            while let Some(seg) = a.poll_transmit(now) {
                wire.push((now + latency, false, seg));
            }
            while let Some(seg) = b.poll_transmit(now) {
                wire.push((now + latency, true, seg));
            }
            while let Some(chunk) = a.read() {
                a_rx.extend(chunk.to_vec());
            }
            while let Some(chunk) = b.read() {
                b_rx.extend(chunk.to_vec());
            }
            // Next event: wire delivery or timer.
            let next_wire = wire.iter().map(|(at, _, _)| *at).min();
            let next_timer = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
            let next = match (next_wire, next_timer) {
                (Some(w), Some(tm)) => w.min(tm),
                (Some(w), None) => w,
                (None, Some(tm)) => tm,
                (None, None) => return (now, a_rx, b_rx),
            };
            now = next.max(now);
            // Deliver due segments.
            let mut i = 0;
            while i < wire.len() {
                if wire[i].0 <= now {
                    let (_, to_a, seg) = wire.remove(i);
                    if to_a {
                        a.on_segment(now, seg);
                    } else {
                        b.on_segment(now, seg);
                    }
                } else {
                    i += 1;
                }
            }
            a.on_timer(now);
            b.on_timer(now);
        }
        panic!("conversation did not quiesce");
    }

    /// `converse_rx` discarding received data.
    fn converse(
        a: &mut TcpConnection,
        b: &mut TcpConnection,
        start: SimTime,
        latency: SimDuration,
    ) -> SimTime {
        converse_rx(a, b, start, latency).0
    }

    fn handshake() -> (TcpConnection, TcpConnection, SimTime) {
        let mut c = TcpConnection::client(cfg());
        let mut s = TcpConnection::server(cfg());
        c.connect(SimTime::ZERO);
        let now = converse(&mut c, &mut s, SimTime::ZERO, SimDuration::from_millis(50));
        assert!(c.is_established());
        (c, s, now)
    }

    #[test]
    fn three_way_handshake() {
        let (c, s, now) = handshake();
        assert_eq!(c.state(), TcpState::Established);
        assert_eq!(s.state(), TcpState::Established);
        // One RTT sample from the handshake on the client.
        assert!(c.rtt().srtt().is_some());
        assert!(now >= t(100), "two 50 ms hops");
    }

    #[test]
    fn data_transfer_small() {
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from("hello, tcp!"));
        let (_, _, got) = converse_rx(&mut c, &mut s, now, SimDuration::from_millis(50));
        assert_eq!(&got[..], b"hello, tcp!");
        assert!(s.read().is_none());
    }

    #[test]
    fn bulk_transfer_segments_at_mss() {
        let (mut c, mut s, now) = handshake();
        let payload = vec![0xAB_u8; 100_000];
        c.write(Payload::from(payload.clone()));
        let (_, _, got) = converse_rx(&mut c, &mut s, now, SimDuration::from_millis(50));
        assert_eq!(got, payload);
        assert_eq!(c.stats().retransmissions, 0, "lossless pipe");
        // All payload-bearing segments were MSS-bounded.
        assert!(c.stats().segs_sent >= 100_000 / 1380);
    }

    #[test]
    fn bidirectional_transfer() {
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from(vec![1u8; 30_000]));
        s.write(Payload::from(vec![2u8; 30_000]));
        let (_, c_rx, s_rx) = converse_rx(&mut c, &mut s, now, SimDuration::from_millis(50));
        assert_eq!(s_rx.len(), 30_000);
        assert_eq!(c_rx.len(), 30_000);
        assert!(s_rx.iter().all(|&b| b == 1));
        assert!(c_rx.iter().all(|&b| b == 2));
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from("bye"));
        c.close(now);
        let (now, _, s_rx) = converse_rx(&mut c, &mut s, now, SimDuration::from_millis(50));
        assert!(s.peer_closed());
        assert_eq!(&s_rx[..], b"bye");
        s.close(now);
        converse(&mut c, &mut s, now, SimDuration::from_millis(50));
        assert!(matches!(c.state(), TcpState::TimeWait | TcpState::Closed));
        assert_eq!(s.state(), TcpState::Closed);
    }

    #[test]
    fn cwnd_grows_during_bulk_transfer() {
        let (mut c, mut s, now) = handshake();
        let initial = c.cwnd();
        c.write(Payload::from(vec![0u8; 500_000]));
        converse(&mut c, &mut s, now, SimDuration::from_millis(50));
        assert!(c.cwnd() > initial, "slow start grew the window");
    }

    #[test]
    fn rto_fires_when_peer_vanishes() {
        let (mut c, _s, now) = handshake();
        c.write(Payload::from(vec![0u8; 1380]));
        let seg = c.poll_transmit(now).expect("one segment");
        assert!(!seg.retransmit);
        // Peer never answers. Walk the timers.
        let mut now;
        let mut rtx_seen = 0;
        for _ in 0..6 {
            let deadline = c.next_timer().expect("rto armed");
            now = deadline;
            c.on_timer(now);
            if let Some(seg) = c.poll_transmit(now) {
                if seg.retransmit {
                    rtx_seen += 1;
                }
            }
        }
        assert!(
            rtx_seen >= 3,
            "retransmissions under total loss, saw {rtx_seen}"
        );
        assert!(c.stats().timeouts >= 3);
        assert!(c.rto() > SimDuration::from_secs(1), "exponential backoff");
        assert_eq!(c.cwnd(), 1380, "collapsed to one segment");
    }

    #[test]
    fn fast_retransmit_on_triple_dupack() {
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from(vec![7u8; 1380 * 8]));
        // Pull all segments; drop the first, deliver the rest.
        let mut segs = Vec::new();
        while let Some(seg) = c.poll_transmit(now) {
            segs.push(seg);
        }
        assert!(
            segs.len() >= 4,
            "need at least 4 segments, got {}",
            segs.len()
        );
        for seg in segs.iter().skip(1) {
            s.on_segment(now, seg.clone());
        }
        // Collect the duplicate ACKs the receiver generated.
        let mut acks = Vec::new();
        while let Some(a) = s.poll_transmit(now) {
            acks.push(a);
        }
        assert!(acks.len() >= 3, "dupacks expected, got {}", acks.len());
        let cwnd_before = c.cwnd();
        for a in acks {
            c.on_segment(now, a);
        }
        // Fast retransmit of the dropped head segment.
        let rtx = c.poll_transmit(now).expect("fast retransmit");
        assert!(rtx.retransmit);
        assert_eq!(rtx.seq, segs[0].seq);
        assert!(c.cwnd() < cwnd_before, "multiplicative decrease");
        assert_eq!(c.stats().fast_retransmits, 1);
        assert_eq!(c.stats().timeouts, 0, "no RTO needed");
        // Deliver it; receiver assembles everything.
        s.on_segment(now, rtx);
        let total: u64 = std::iter::from_fn(|| s.read()).map(|b| b.len()).sum();
        assert_eq!(total, 1380 * 8);
    }

    #[test]
    fn idle_restart_collapses_cwnd_but_keeps_rto_tight() {
        // The paper's core pathology, §5.5.1.
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from(vec![0u8; 300_000]));
        let now = converse(&mut c, &mut s, now, SimDuration::from_millis(50));
        let grown = c.cwnd();
        assert!(grown > cfg().initial_cwnd());
        let tight_rto = c.rto();
        assert!(tight_rto < SimDuration::from_millis(600));
        // Go idle for 10 s, then send again.
        let later = now + SimDuration::from_secs(10);
        c.write(Payload::from(vec![0u8; 1380]));
        let _seg = c.poll_transmit(later).expect("post-idle segment");
        assert_eq!(c.cwnd(), cfg().initial_cwnd(), "cwnd collapsed to IW");
        assert_eq!(c.stats().idle_restarts, 1);
        // The flaw: the RTO is still the tight active-period estimate.
        assert_eq!(c.rto(), tight_rto, "RTT estimate survived the idle period");
    }

    #[test]
    fn reset_rtt_after_idle_holds_the_rto_at_three_seconds() {
        // The paper's §6.2.1 proposal.
        let mut config = cfg();
        config.reset_rtt_after_idle = true;
        let mut c = TcpConnection::client(config);
        let mut s = TcpConnection::server(cfg());
        c.connect(SimTime::ZERO);
        let now = converse(&mut c, &mut s, SimTime::ZERO, SimDuration::from_millis(50));
        c.write(Payload::from(vec![0u8; 100_000]));
        let now = converse(&mut c, &mut s, now, SimDuration::from_millis(50));
        assert!(c.rto() < SimDuration::from_millis(600));
        let later = now + SimDuration::from_secs(10);
        c.write(Payload::from(vec![0u8; 1380]));
        let _ = c.poll_transmit(later);
        assert_eq!(
            c.rto(),
            SimDuration::from_secs(3),
            "RTO at the multi-second post-idle value, covering any promotion delay"
        );
    }

    #[test]
    fn slow_start_after_idle_disabled_keeps_cwnd() {
        // Fig. 15's toggle.
        let mut config = cfg();
        config.slow_start_after_idle = false;
        let mut c = TcpConnection::client(config);
        let mut s = TcpConnection::server(cfg());
        c.connect(SimTime::ZERO);
        let now = converse(&mut c, &mut s, SimTime::ZERO, SimDuration::from_millis(50));
        c.write(Payload::from(vec![0u8; 300_000]));
        let now = converse(&mut c, &mut s, now, SimDuration::from_millis(50));
        let grown = c.cwnd();
        let later = now + SimDuration::from_secs(10);
        c.write(Payload::from(vec![0u8; 1380]));
        let _ = c.poll_transmit(later);
        assert_eq!(c.cwnd(), grown, "window preserved across idle");
        assert_eq!(c.stats().idle_restarts, 0);
    }

    #[test]
    fn spurious_timeout_when_acks_stall_longer_than_rto() {
        // Reproduce the promotion-delay pathology at the unit level: the
        // peer receives everything, but its ACKs arrive after our RTO.
        let (mut c, mut s, now) = handshake();
        // Converge the RTT estimate.
        c.write(Payload::from(vec![0u8; 100_000]));
        let now = converse(&mut c, &mut s, now, SimDuration::from_millis(50));
        // Idle 10 s (device demotes to IDLE in the real network).
        let later = now + SimDuration::from_secs(10);
        c.write(Payload::from(vec![0u8; 1380 * 2]));
        let mut inflight = Vec::new();
        while let Some(seg) = c.poll_transmit(later) {
            inflight.push(seg);
        }
        // A 2 s promotion delays delivery beyond the tight RTO.
        let rto_deadline = c.next_timer().expect("armed");
        assert!(
            rto_deadline < later + SimDuration::from_millis(2_000),
            "tight RTO fires before the 2 s promotion completes"
        );
        c.on_timer(rto_deadline);
        let rtx = c
            .poll_transmit(rto_deadline)
            .expect("spurious retransmission");
        assert!(rtx.retransmit);
        assert_eq!(c.stats().timeouts, 1);
        // Deliver originals + retransmission after the promotion.
        let delivery = later + SimDuration::from_millis(2_050);
        for seg in inflight {
            s.on_segment(delivery, seg.clone());
        }
        s.on_segment(delivery, rtx);
        // The receiver saw duplicate payload — the spurious signature.
        assert!(
            s.stats().dup_bytes_rcvd > 0,
            "receiver-observed duplicate bytes"
        );
    }

    #[test]
    fn delayed_ack_fires_on_timer() {
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from(vec![0u8; 100]));
        let seg = c.poll_transmit(now).unwrap();
        s.on_segment(now, seg);
        // One small segment: no immediate ACK...
        assert!(s.poll_transmit(now).is_none(), "delayed ACK holds");
        let deadline = s.next_timer().expect("delack armed");
        assert_eq!(deadline, now + SimDuration::from_millis(40));
        s.on_timer(deadline);
        let ack = s.poll_transmit(deadline).expect("delayed ACK out");
        assert!(ack.is_empty() && ack.flags.ack);
    }

    #[test]
    fn second_segment_acks_immediately() {
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from(vec![0u8; 1380 * 2]));
        let s1 = c.poll_transmit(now).unwrap();
        let s2 = c.poll_transmit(now).unwrap();
        let expected_ack = s2.seq + s2.len();
        s.on_segment(now, s1);
        s.on_segment(now, s2);
        let ack = s.poll_transmit(now).expect("RFC 5681 ack-every-2");
        assert_eq!(ack.ack, expected_ack);
    }

    #[test]
    fn receive_window_limits_sender() {
        let mut small = cfg();
        small.recv_buffer = 4096;
        let mut c = TcpConnection::client(cfg());
        let mut s = TcpConnection::server(small);
        c.connect(SimTime::ZERO);
        let now = converse(&mut c, &mut s, SimTime::ZERO, SimDuration::from_millis(50));
        c.write(Payload::from(vec![0u8; 100_000]));
        // Drive manually without reading at the server: sender must stall.
        let mut wire: Vec<Segment> = Vec::new();
        let mut moved = 0u64;
        for step in 0..200 {
            let tnow = now + SimDuration::from_millis(step * 10);
            while let Some(seg) = c.poll_transmit(tnow) {
                wire.push(seg);
            }
            for seg in wire.drain(..) {
                moved += seg.len();
                s.on_segment(tnow, seg);
            }
            while let Some(a) = s.poll_transmit(tnow) {
                c.on_segment(tnow, a);
            }
            c.on_timer(tnow);
            s.on_timer(tnow);
        }
        assert!(
            moved <= 4096 + 2 * 1380,
            "sender respected the 4 KiB advertised window, moved {moved}"
        );
        // A handful of 1-byte zero-window probes may land past capacity.
        assert!(s.readable() <= 4096 + 64, "readable {}", s.readable());
    }

    #[test]
    fn trace_records_window_dynamics() {
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from(vec![0u8; 200_000]));
        converse(&mut c, &mut s, now, SimDuration::from_millis(50));
        let trace = c.trace().expect("tracing enabled");
        assert!(!trace.cwnd_segments.is_empty());
        assert!(trace.cwnd_segments.max_value().unwrap() > 10.0);
        assert!(!trace.inflight_bytes.is_empty());
    }

    #[test]
    fn metrics_snapshot_roundtrip() {
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from(vec![0u8; 50_000]));
        converse(&mut c, &mut s, now, SimDuration::from_millis(50));
        let m = c.snapshot_metrics().expect("sampled RTT");
        assert!(m.srtt >= SimDuration::from_millis(90));
        let mut fresh = TcpConnection::client(TcpConfig {
            cc: CcAlgorithm::Reno,
            ..cfg()
        });
        fresh.apply_cached_metrics(m);
        assert_eq!(fresh.ssthresh(), m.ssthresh.max(2 * 1380));
        // The RTT seed is deferred past the handshake: the SYN must use the
        // fixed initial RTO (real stacks never seed the SYN timer).
        assert_eq!(fresh.rtt().srtt(), None);
        assert_eq!(fresh.rto(), SimDuration::from_secs(1));
        let mut peer = TcpConnection::server(cfg());
        fresh.connect(SimTime::ZERO);
        converse(
            &mut fresh,
            &mut peer,
            SimTime::ZERO,
            SimDuration::from_millis(10),
        );
        assert!(fresh.is_established());
        // The handshake itself samples the RTT, which beats the stale seed.
        assert!(
            fresh.rtt().srtt().is_some(),
            "estimate present after establishment"
        );
    }

    #[test]
    fn nodelay_default_sends_tinygrams_back_to_back() {
        let (mut c, _s, now) = handshake();
        c.write(Payload::from("a"));
        assert!(c.poll_transmit(now).is_some());
        c.write(Payload::from("b"));
        assert!(
            c.poll_transmit(now).is_some(),
            "TCP_NODELAY (the browser default) sends immediately"
        );
    }

    #[test]
    fn reno_and_cubic_both_complete_transfers() {
        for algo in [CcAlgorithm::Reno, CcAlgorithm::Cubic] {
            let mut c = TcpConnection::client(TcpConfig { cc: algo, ..cfg() });
            let mut s = TcpConnection::server(cfg());
            c.connect(SimTime::ZERO);
            let now = converse(&mut c, &mut s, SimTime::ZERO, SimDuration::from_millis(30));
            c.write(Payload::from(vec![9u8; 250_000]));
            let (_, _, s_rx) = converse_rx(&mut c, &mut s, now, SimDuration::from_millis(30));
            assert_eq!(s_rx.len(), 250_000, "{algo:?}");
        }
    }

    /// Converge a sender, idle it, fire `n` RTOs against a silent network,
    /// then deliver everything (originals + spurious copies) and the
    /// resulting DSACK-bearing ACKs. Returns the connection afterwards
    /// plus its pre-collapse window state.
    fn spurious_episode(rto_fires: usize) -> (TcpConnection, u64, u64) {
        let (mut c, mut s, now) = handshake();
        c.write(Payload::from(vec![0u8; 200_000]));
        let now = converse(&mut c, &mut s, now, SimDuration::from_millis(50));
        // Give the episode a finite prior ssthresh (as a connection that
        // has seen loss, or was cache-seeded, would have).
        c.apply_cached_metrics(CachedMetrics {
            ssthresh: 80 * 1380,
            srtt: SimDuration::from_millis(100),
            rttvar: SimDuration::from_millis(20),
        });
        let grown_cwnd = c.cwnd();
        let grown_ssthresh = c.ssthresh();
        assert_eq!(grown_ssthresh, 80 * 1380);
        let later = now + SimDuration::from_secs(10);
        c.write(Payload::from(vec![0u8; 1380 * 2]));
        let mut inflight = Vec::new();
        while let Some(seg) = c.poll_transmit(later) {
            inflight.push(seg);
        }
        let mut rtxs = Vec::new();
        for _ in 0..rto_fires {
            let t = c.next_timer().expect("rto armed");
            c.on_timer(t);
            while let Some(seg) = c.poll_transmit(t) {
                if seg.retransmit {
                    rtxs.push(seg);
                }
            }
        }
        assert!(c.stats().timeouts >= rto_fires as u64);
        assert!(c.cwnd() < grown_cwnd, "collapsed");
        let arrive = later + SimDuration::from_secs(9);
        for seg in inflight.into_iter().chain(rtxs) {
            s.on_segment(arrive, seg);
        }
        let mut acks = Vec::new();
        while let Some(a) = s.poll_transmit(arrive) {
            acks.push(a);
        }
        assert!(
            acks.iter().any(|a| a.dsack),
            "a DSACK-bearing ACK must exist"
        );
        for a in acks {
            c.on_segment(arrive + SimDuration::from_millis(100), a);
        }
        (c, grown_cwnd, grown_ssthresh)
    }

    #[test]
    fn single_rto_episode_is_fully_undone() {
        let (c, grown_cwnd, grown_ssthresh) = spurious_episode(1);
        assert_eq!(c.stats().spurious_undos, 1, "undo fired");
        assert!(
            c.cwnd() >= grown_cwnd.min(13_800),
            "window restored, got {}",
            c.cwnd()
        );
        assert!(
            c.ssthresh() >= grown_ssthresh / 2,
            "ssthresh at least half-restored, got {}",
            c.ssthresh()
        );
    }

    #[test]
    fn multi_rto_episode_is_also_undone() {
        // Promotion-length stalls back off through several RTOs; once the
        // receiver's duplicate reports arrive, the whole reduction is
        // reverted (cwnd and ssthresh), matching the ssthresh recoveries
        // visible in the paper's Fig. 11 between collapses.
        let (c, grown_cwnd, grown_ssthresh) = spurious_episode(4);
        assert_eq!(c.stats().spurious_undos, 1, "undo fires");
        assert!(
            c.cwnd() >= grown_cwnd.min(13_800),
            "cwnd restored, got {}",
            c.cwnd()
        );
        assert!(
            c.ssthresh() >= grown_ssthresh / 2,
            "threshold restored: {} vs prior {}",
            c.ssthresh(),
            grown_ssthresh
        );
    }
}
