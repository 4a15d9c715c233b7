//! The sans-IO TCP connection state machine.
//!
//! A [`TcpConnection`] never touches a socket or a clock of its own: the
//! driver feeds it segments ([`TcpConnection::on_segment`]) and timer
//! expirations ([`TcpConnection::on_timer`]), and drains segments to put on
//! the wire ([`TcpConnection::poll_transmit`]). [`TcpConnection::next_timer`]
//! tells the driver when to call back. This is the quinn-proto/smoltcp
//! idiom: the whole protocol is deterministic and unit-testable.

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::cc::CongestionControl;
use crate::config::TcpConfig;
use crate::metrics_cache::CachedMetrics;
use crate::rtt::RttEstimator;
use crate::segment::{SegFlags, Segment};
use crate::trace::{TcpStats, TcpTrace};
use spdyier_bytes::Payload;
use spdyier_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

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

/// An entry in the retransmission queue.
#[derive(Debug, Clone)]
struct SentSegment {
    seq: u64,
    payload: Payload,
    syn: bool,
    fin: bool,
    time_sent: SimTime,
    retransmitted: bool,
}

impl SentSegment {
    fn seq_space(&self) -> u64 {
        self.payload.len() + u64::from(self.syn) + u64::from(self.fin)
    }
    fn seq_end(&self) -> u64 {
        self.seq + self.seq_space()
    }
}

/// A full TCP endpoint for one connection.
pub struct TcpConnection {
    cfg: TcpConfig,
    state: TcpState,
    // --- send side ---
    snd_una: u64,
    snd_nxt: u64,
    peer_wnd: u64,
    send_buf: SendBuffer,
    rtx_queue: VecDeque<SentSegment>,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    rto_deadline: Option<SimTime>,
    rto_backoff: u32,
    dup_acks: u32,
    /// `snd_nxt` at loss-recovery entry (fast retransmit or RTO); recovery
    /// ends when acked past it. While set, partial ACKs retransmit the
    /// next hole immediately (NewReno-style go-back-N continuation).
    recover: Option<u64>,
    /// The active recovery episode began with an RTO (cwnd regrows in slow
    /// start during it, unlike dupack-triggered recovery).
    rto_recovery: bool,
    /// Index-0 retransmission pending (fast retransmit or RTO).
    rtx_pending: bool,
    /// `seq_end` of the most recently retransmitted segment. A partial ACK
    /// that advances *past* this boundary means later data was already
    /// received (the stall was spurious) — no further retransmission; an
    /// ACK stalling at it reveals the next genuine hole (what a SACK
    /// scoreboard would tell a 2013 Linux sender).
    last_rtx_end: Option<u64>,
    /// Last instant we put data on the wire (for RFC 2861 idle detection).
    last_send_activity: SimTime,
    /// Persist-timer deadline for zero-window probing.
    persist_deadline: Option<SimTime>,
    /// Window state captured at the last RTO, for DSACK-driven undo:
    /// `(prior_cwnd, prior_ssthresh, expires_at, rto_fires)`. The expiry
    /// bounds how stale a restore can be (the originals' ACKs arrive
    /// before the duplicate report, so clearing on full-ACK would defeat
    /// the undo). `rto_fires` counts timeouts in the episode: undo only
    /// succeeds for single-RTO episodes — with multiple backed-off copies
    /// in flight, Linux's `undo_retrans` bookkeeping rarely reaches zero,
    /// which is why the paper's promotion-length stalls show *persistent*
    /// window collapse.
    undo_state: Option<(u64, u64, SimTime, u32)>,
    /// We received duplicate payload; the next ACK we emit reports it.
    dsack_pending: bool,
    /// Cached RTT metrics to seed once established (never for the SYN).
    pending_rtt_seed: Option<(SimDuration, SimDuration)>,
    need_syn: bool,
    need_syn_ack: bool,
    fin_queued: bool,
    fin_sent: bool,
    // --- receive side ---
    recv: Option<RecvBuffer>,
    /// Sequence of the peer's FIN, once seen.
    fin_rcvd: Option<u64>,
    /// In-order segments received since the last ACK we sent.
    ack_pending: u32,
    /// Pure ACKs owed right now (out-of-order arrivals owe one each, so a
    /// burst of holes produces the duplicate-ACK train fast retransmit
    /// depends on).
    acks_owed: u32,
    delack_deadline: Option<SimTime>,
    time_wait_deadline: Option<SimTime>,
    // --- diagnostics ---
    stats: TcpStats,
    trace: Option<Box<TcpTrace>>,
}

impl std::fmt::Debug for TcpConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpConnection")
            .field("state", &self.state)
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("cwnd", &self.cc.cwnd())
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
            snd_una: 0,
            snd_nxt: 0,
            peer_wnd: cfg.mss, // conservatively one segment until learned
            send_buf: SendBuffer::new(),
            rtx_queue: VecDeque::new(),
            cc: cfg.cc.build(cfg.mss, cfg.initial_cwnd()),
            rtt: RttEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto),
            rto_deadline: None,
            rto_backoff: 1,
            dup_acks: 0,
            recover: None,
            rto_recovery: false,
            rtx_pending: false,
            last_rtx_end: None,
            last_send_activity: SimTime::ZERO,
            persist_deadline: None,
            undo_state: None,
            dsack_pending: false,
            pending_rtt_seed: None,
            need_syn: false,
            need_syn_ack: false,
            fin_queued: false,
            fin_sent: false,
            recv: None,
            fin_rcvd: None,
            ack_pending: 0,
            acks_owed: 0,
            delack_deadline: None,
            time_wait_deadline: None,
            stats: TcpStats::default(),
            trace: if cfg.trace {
                Some(Box::default())
            } else {
                None
            },
            cfg,
        }
    }

    /// Begin the active open (client side).
    pub fn connect(&mut self, now: SimTime) {
        assert_eq!(self.state, TcpState::Closed, "connect() from Closed only");
        self.state = TcpState::SynSent;
        self.need_syn = true;
        self.last_send_activity = now;
    }

    /// Seed congestion/RTT state from the host metrics cache
    /// (Linux `tcp_metrics` behaviour; see the paper's §6.2.4). The
    /// ssthresh seed applies immediately; the RTT seed applies once the
    /// handshake completes — the SYN itself always uses the fixed initial
    /// RTO, as in real stacks.
    pub fn apply_cached_metrics(&mut self, m: CachedMetrics) {
        self.cc.set_ssthresh(m.ssthresh);
        self.pending_rtt_seed = Some((m.srtt, m.rttvar));
    }

    fn apply_pending_rtt_seed(&mut self) {
        if let Some((srtt, rttvar)) = self.pending_rtt_seed.take() {
            // Only seed if the handshake itself produced no better sample.
            if self.rtt.samples_taken() == 0 {
                self.rtt.seed(srtt, rttvar);
            }
        }
    }

    /// Snapshot metrics for the cache at close. `None` until an RTT sample
    /// exists.
    pub fn snapshot_metrics(&self) -> Option<CachedMetrics> {
        self.rtt.srtt().map(|srtt| CachedMetrics {
            ssthresh: if self.cc.ssthresh() == u64::MAX {
                self.cc.cwnd()
            } else {
                self.cc.ssthresh()
            },
            srtt,
            rttvar: self.rtt.rttvar(),
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
        self.state == TcpState::Closed && !self.need_syn
    }

    /// Cumulative counters.
    pub fn stats(&self) -> TcpStats {
        let mut s = self.stats;
        if let Some(recv) = &self.recv {
            s.dup_bytes_rcvd = recv.dup_bytes();
        }
        s
    }

    /// The trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&TcpTrace> {
        self.trace.as_deref()
    }

    /// Move the trace out (for results harvesting at end of run).
    pub fn take_trace(&mut self) -> Option<TcpTrace> {
        self.trace.take().map(|b| *b)
    }

    /// Unacknowledged bytes in flight (sequence space).
    pub fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window, bytes.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// Current slow-start threshold, bytes.
    pub fn ssthresh(&self) -> u64 {
        self.cc.ssthresh()
    }

    /// Current retransmission timeout: the estimate with backoff
    /// applied, capped at `max_rto` as Linux caps it at `TCP_RTO_MAX`.
    pub fn rto(&self) -> SimDuration {
        self.rtt
            .rto()
            .saturating_mul(u64::from(self.rto_backoff))
            .min(self.cfg.max_rto)
    }

    /// The RTT estimator (read-only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Bytes queued but not yet transmitted.
    pub fn send_queue_len(&self) -> u64 {
        self.send_buf.len()
    }

    /// Free space in the send buffer. Writes are never rejected, but
    /// callers that respect this keep their own schedulers in charge of
    /// ordering instead of dumping everything into TCP at once.
    pub fn send_space(&self) -> u64 {
        self.cfg.send_buffer.saturating_sub(self.send_buf.len())
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
        self.send_buf.write(data);
    }

    /// Read the next chunk of in-order received data.
    pub fn read(&mut self) -> Option<Payload> {
        self.recv.as_mut()?.read()
    }

    /// In-order bytes available to read.
    pub fn readable(&self) -> u64 {
        self.recv.as_ref().map_or(0, |r| r.readable())
    }

    /// True once the peer's FIN has been consumed (EOF after draining reads).
    pub fn peer_closed(&self) -> bool {
        match (&self.fin_rcvd, &self.recv) {
            (Some(fin_seq), Some(recv)) => recv.rcv_nxt() >= *fin_seq,
            _ => false,
        }
    }

    /// Close the send side (queue a FIN after pending data).
    pub fn close(&mut self, _now: SimTime) {
        if !self.fin_queued
            && matches!(
                self.state,
                TcpState::Established | TcpState::CloseWait | TcpState::SynSent | TcpState::SynRcvd
            )
        {
            self.fin_queued = true;
        }
    }

    /// The cumulative acknowledgment we should advertise.
    fn ack_value(&self) -> u64 {
        match &self.recv {
            None => 0,
            Some(recv) => {
                let mut ack = recv.rcv_nxt();
                if let Some(fin_seq) = self.fin_rcvd {
                    if recv.rcv_nxt() >= fin_seq {
                        ack = fin_seq + 1;
                    }
                }
                ack
            }
        }
    }

    fn recv_window(&self) -> u64 {
        self.recv
            .as_ref()
            .map_or(self.cfg.recv_buffer, |r| r.window())
    }

    fn record_window_trace(&mut self, now: SimTime) {
        let inflight = self.bytes_in_flight();
        let (cwnd, ssthresh, mss) = (self.cc.cwnd(), self.cc.ssthresh(), self.cfg.mss);
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.record_window(now, cwnd, ssthresh, mss, inflight);
        }
    }

    // ------------------------------------------------------------------
    // Segment ingestion
    // ------------------------------------------------------------------

    /// Feed one segment that arrived from the network at `now`.
    pub fn on_segment(&mut self, now: SimTime, seg: Segment) {
        self.stats.segs_rcvd += 1;
        if seg.flags.rst {
            self.state = TcpState::Closed;
            return;
        }
        match self.state {
            TcpState::Closed => {}
            TcpState::Listen => self.on_segment_listen(now, seg),
            TcpState::SynSent => self.on_segment_syn_sent(now, seg),
            _ => self.on_segment_synchronized(now, seg),
        }
    }

    fn on_segment_listen(&mut self, now: SimTime, seg: Segment) {
        if seg.flags.syn && !seg.flags.ack {
            self.recv = Some(RecvBuffer::new(seg.seq + 1, self.cfg.recv_buffer));
            self.peer_wnd = seg.wnd;
            self.state = TcpState::SynRcvd;
            self.need_syn_ack = true;
            self.last_send_activity = now;
        }
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, seg: Segment) {
        if seg.flags.syn && seg.flags.ack && seg.ack == self.snd_nxt {
            self.recv = Some(RecvBuffer::new(seg.seq + 1, self.cfg.recv_buffer));
            self.peer_wnd = seg.wnd;
            self.accept_ack(now, seg.ack);
            self.state = TcpState::Established;
            self.apply_pending_rtt_seed();
            self.acks_owed = self.acks_owed.max(1);
        }
    }

    fn on_segment_synchronized(&mut self, now: SimTime, seg: Segment) {
        // ACK processing first (may complete the handshake in SynRcvd).
        if seg.flags.ack {
            self.process_ack(now, &seg);
        }
        // Payload.
        if !seg.payload.is_empty() {
            self.process_data(now, &seg);
        }
        // FIN.
        if seg.flags.fin {
            self.process_fin(now, &seg);
        }
    }

    fn process_ack(&mut self, now: SimTime, seg: &Segment) {
        self.peer_wnd = seg.wnd;
        if seg.dsack {
            self.apply_undo(now);
        }
        if self.peer_wnd > 0 {
            self.persist_deadline = None;
        }
        if seg.ack > self.snd_nxt {
            return; // acks data we never sent; ignore
        }
        if seg.ack > self.snd_una {
            self.accept_ack(now, seg.ack);
            if self.state == TcpState::SynRcvd {
                self.state = TcpState::Established;
                self.apply_pending_rtt_seed();
            }
            self.maybe_complete_close(now);
        } else if seg.ack == self.snd_una
            && seg.payload.is_empty()
            && !seg.flags.fin
            && !seg.flags.syn
            && !self.rtx_queue.is_empty()
        {
            // Duplicate ACK.
            self.dup_acks += 1;
            self.stats.dup_acks_in += 1;
            if self.dup_acks == self.cfg.dupack_threshold && self.recover.is_none() {
                self.enter_fast_retransmit(now);
            }
        }
    }

    /// Handle `ack` advancing `snd_una`.
    fn accept_ack(&mut self, now: SimTime, ack: u64) {
        // cwnd validation (RFC 2861 §3 / Linux `tcp_is_cwnd_limited`):
        // the window only grows when the sender was actually using it.
        let inflight_before = self.snd_nxt - self.snd_una;
        let cwnd_limited = inflight_before.saturating_mul(2) >= self.cc.cwnd();
        let newly_acked = ack - self.snd_una;
        self.snd_una = ack;
        self.dup_acks = 0;
        self.rto_backoff = 1;
        // Expire stale undo candidates: if no DSACK arrived within the
        // window, the retransmission filled a genuine hole.
        if let Some((_, _, expires_at, _)) = self.undo_state {
            if now > expires_at {
                self.undo_state = None;
            }
        }

        // Retire fully acked retransmission-queue entries; sample RTT per
        // Karn's rule (only never-retransmitted segments).
        let mut rtt_sample: Option<SimDuration> = None;
        while let Some(front) = self.rtx_queue.front() {
            if front.seq_end() <= ack {
                let e = self.rtx_queue.pop_front().expect("peeked");
                if !e.retransmitted {
                    rtt_sample = now.checked_since(e.time_sent);
                }
            } else {
                break;
            }
        }
        // Partial ACK into the middle of the front segment: trim it.
        if let Some(front) = self.rtx_queue.front_mut() {
            if front.seq < ack {
                let trim = ack - front.seq;
                if trim <= front.payload.len() {
                    front.payload.advance(trim);
                    front.seq = ack;
                }
            }
        }
        if let Some(rtt) = rtt_sample {
            self.rtt.sample(rtt);
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.rtt_samples_ms.push(now, rtt.as_secs_f64() * 1e3);
            }
        }

        // Recovery bookkeeping (NewReno + SACK-informed hole detection).
        match self.recover {
            Some(recover_point)
                if ack < recover_point
                // Partial ACK: retransmit the next hole — but only when the
                // ACK stalls at (or before) the last retransmission's
                // boundary. An ACK sailing past it means the receiver
                // already holds the following data: the timeout was
                // spurious and nothing else is missing yet.
                && self.last_rtx_end.is_none_or(|end| ack <= end) =>
            {
                self.rtx_pending = true;
            }
            Some(_) => {
                self.recover = None;
                self.rto_recovery = false;
                self.last_rtx_end = None;
            }
            None => {}
        }

        // cwnd grows on ACKs outside recovery, and also during RTO
        // recovery (slow-start regrowth, as in Linux); dupack-triggered
        // fast recovery holds the window at the reduced value. Growth
        // requires the sender to have been cwnd-limited.
        if cwnd_limited && (self.recover.is_none() || self.rto_recovery) {
            self.cc.on_ack(now, newly_acked, self.rtt.srtt());
        }

        // Restart or disarm the RTO.
        if self.rtx_queue.is_empty() {
            self.rto_deadline = None;
        } else {
            self.rto_deadline = Some(now + self.rto());
        }
        self.record_window_trace(now);
    }

    /// Linux's Eifel/DSACK undo: the peer saw duplicate data, so the RTO
    /// that caused the last collapse was spurious — restore the window.
    fn apply_undo(&mut self, now: SimTime) {
        if let Some((cwnd0, ssthresh0, _, _fires)) = self.undo_state.take() {
            self.cc.undo(cwnd0, ssthresh0);
            self.rto_backoff = 1;
            self.recover = None;
            self.rto_recovery = false;
            self.stats.spurious_undos += 1;
            self.record_window_trace(now);
        }
    }

    fn enter_fast_retransmit(&mut self, now: SimTime) {
        self.recover = Some(self.snd_nxt);
        self.cc.on_loss_event(now);
        self.rtx_pending = true;
        self.stats.fast_retransmits += 1;
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.retransmits.mark(now);
        }
        self.record_window_trace(now);
    }

    fn process_data(&mut self, now: SimTime, seg: &Segment) {
        let Some(recv) = self.recv.as_mut() else {
            return;
        };
        let dup_before = recv.dup_bytes();
        let advanced = recv.ingest(seg.seq, seg.payload.clone());
        if recv.dup_bytes() > dup_before {
            // Duplicate payload received: report it (RFC 2883 DSACK).
            self.dsack_pending = true;
        }
        if advanced {
            self.stats.bytes_rcvd += seg.payload.len(); // approximation: counts the advancing segment
        }
        if !advanced || recv.has_ooo() {
            // Out-of-order or duplicate: owe one immediate (duplicate) ACK
            // per arrival — the duplicate-ACK train fast retransmit needs.
            self.acks_owed += 1;
            self.ack_pending = 0;
            self.delack_deadline = None;
        } else {
            self.ack_pending += 1;
            if self.ack_pending >= 2 {
                // Ack every second in-order segment per RFC 5681.
                self.acks_owed = self.acks_owed.max(1);
                self.ack_pending = 0;
                self.delack_deadline = None;
            } else if self.delack_deadline.is_none() {
                self.delack_deadline = Some(now + self.cfg.delayed_ack);
            }
        }
    }

    fn process_fin(&mut self, now: SimTime, seg: &Segment) {
        let fin_seq = seg.seq + seg.len();
        if self.fin_rcvd.is_none() {
            self.fin_rcvd = Some(fin_seq);
        }
        let consumed = self.recv.as_ref().is_some_and(|r| r.rcv_nxt() >= fin_seq);
        if consumed {
            self.acks_owed = self.acks_owed.max(1);
            self.delack_deadline = None;
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                TcpState::FinWait1 => {
                    // Our FIN not yet acked: simultaneous close.
                    self.state = TcpState::Closing;
                }
                TcpState::FinWait2 => {
                    self.state = TcpState::TimeWait;
                    self.time_wait_deadline = Some(now + self.cfg.time_wait);
                }
                _ => {}
            }
        }
    }

    fn maybe_complete_close(&mut self, now: SimTime) {
        let fin_acked = self.fin_sent && self.snd_una == self.snd_nxt;
        if !fin_acked {
            return;
        }
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::Closing => {
                self.state = TcpState::TimeWait;
                self.time_wait_deadline = Some(now + self.cfg.time_wait);
            }
            TcpState::LastAck => self.state = TcpState::Closed,
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Transmission
    // ------------------------------------------------------------------

    /// Produce the next segment to put on the wire, if any. Call until it
    /// returns `None`.
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Segment> {
        if let Some(seg) = self.poll_handshake(now) {
            return Some(self.finish_emit(now, seg));
        }
        if self.rtx_pending {
            if let Some(seg) = self.emit_retransmit(now) {
                return Some(self.finish_emit(now, seg));
            }
        }
        if let Some(seg) = self.poll_data(now) {
            return Some(self.finish_emit(now, seg));
        }
        if let Some(seg) = self.poll_fin(now) {
            return Some(self.finish_emit(now, seg));
        }
        if self.acks_owed > 0 && self.recv.is_some() {
            self.acks_owed -= 1;
            let seg = self.pure_ack();
            return Some(self.finish_emit_ack_only(seg));
        }
        None
    }

    /// Book-keeping for a pure ACK: it does not clear further owed ACKs
    /// (a duplicate-ACK train must come out one per owed arrival).
    fn finish_emit_ack_only(&mut self, mut seg: Segment) -> Segment {
        self.stats.segs_sent += 1;
        self.ack_pending = 0;
        self.delack_deadline = None;
        if self.dsack_pending {
            seg.dsack = true;
            self.dsack_pending = false;
        }
        seg
    }

    fn finish_emit(&mut self, now: SimTime, mut seg: Segment) -> Segment {
        self.stats.segs_sent += 1;
        // Any data/flag-bearing segment carries the latest cumulative ACK,
        // satisfying every pending-ACK obligation at once.
        if seg.flags.ack {
            self.ack_pending = 0;
            self.acks_owed = 0;
            self.delack_deadline = None;
            if self.dsack_pending {
                seg.dsack = true;
                self.dsack_pending = false;
            }
        }
        if !seg.payload.is_empty() || seg.flags.syn || seg.flags.fin {
            self.last_send_activity = now;
            if self.rto_deadline.is_none() {
                self.rto_deadline = Some(now + self.rto());
            }
        }
        seg
    }

    fn poll_handshake(&mut self, now: SimTime) -> Option<Segment> {
        if self.need_syn {
            self.need_syn = false;
            self.snd_nxt = 1;
            self.rtx_queue.push_back(SentSegment {
                seq: 0,
                payload: Payload::new(),
                syn: true,
                fin: false,
                time_sent: now,
                retransmitted: false,
            });
            return Some(Segment {
                seq: 0,
                ack: 0,
                flags: SegFlags::SYN,
                wnd: self.cfg.recv_buffer,
                payload: Payload::new(),
                retransmit: false,
                dsack: false,
            });
        }
        if self.need_syn_ack {
            self.need_syn_ack = false;
            self.snd_nxt = 1;
            self.rtx_queue.push_back(SentSegment {
                seq: 0,
                payload: Payload::new(),
                syn: true,
                fin: false,
                time_sent: now,
                retransmitted: false,
            });
            return Some(Segment {
                seq: 0,
                ack: self.ack_value(),
                flags: SegFlags::SYN_ACK,
                wnd: self.recv_window(),
                payload: Payload::new(),
                retransmit: false,
                dsack: false,
            });
        }
        None
    }

    fn emit_retransmit(&mut self, now: SimTime) -> Option<Segment> {
        self.rtx_pending = false;
        let ack_value = self.ack_value();
        let wnd = self.recv_window();
        let entry = self.rtx_queue.front_mut()?;
        entry.retransmitted = true;
        entry.time_sent = now;
        self.last_rtx_end = Some(entry.seq_end());
        self.stats.retransmissions += 1;
        self.stats.bytes_retransmitted += entry.payload.len();
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.retransmits.mark(now);
        }
        let entry = self.rtx_queue.front().expect("still there");
        Some(Segment {
            seq: entry.seq,
            ack: ack_value,
            flags: SegFlags {
                syn: entry.syn,
                ack: !entry.syn || entry.seq > 0 || self.recv.is_some(),
                fin: entry.fin,
                rst: false,
            },
            wnd,
            payload: entry.payload.clone(),
            retransmit: true,
            dsack: false,
        })
    }

    fn usable_window(&self) -> u64 {
        self.cc.cwnd().min(self.peer_wnd)
    }

    /// RFC 2861: before sending new data after an idle period longer than
    /// one RTO, collapse cwnd back to the initial window. The paper's fix
    /// additionally resets the RTT estimate.
    fn maybe_idle_restart(&mut self, now: SimTime) {
        if self.bytes_in_flight() > 0 {
            return;
        }
        let idle = now.saturating_since(self.last_send_activity);
        if idle <= self.rtt.rto() {
            return;
        }
        if self.cfg.slow_start_after_idle {
            self.cc.on_idle_restart(now);
            self.stats.idle_restarts += 1;
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.idle_restarts.mark(now);
            }
            self.record_window_trace(now);
        }
        if self.cfg.reset_rtt_after_idle {
            self.rtt.reset_to(self.cfg.post_idle_rto);
        }
    }

    fn poll_data(&mut self, now: SimTime) -> Option<Segment> {
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::Closing
        ) {
            return None;
        }
        if self.send_buf.is_empty() {
            return None;
        }
        self.maybe_idle_restart(now);
        let in_flight = self.bytes_in_flight();
        let usable = self.usable_window();
        if self.peer_wnd == 0 {
            // Zero-window: arm the persist timer; probes are sent from
            // `on_timer`.
            if self.persist_deadline.is_none() && in_flight == 0 {
                self.persist_deadline = Some(now + self.rto());
            }
            return None;
        }
        if in_flight >= usable {
            return None;
        }
        let room = usable - in_flight;
        let chunk = self.cfg.mss.min(room).min(self.send_buf.len());
        if chunk == 0 {
            return None;
        }
        Some(self.emit_data_segment(now, chunk))
    }

    fn emit_data_segment(&mut self, now: SimTime, chunk: u64) -> Segment {
        let payload = self.send_buf.pull(chunk);
        let seq = self.snd_nxt;
        self.snd_nxt += payload.len();
        self.stats.bytes_sent += payload.len();
        self.rtx_queue.push_back(SentSegment {
            seq,
            payload: payload.clone(),
            syn: false,
            fin: false,
            time_sent: now,
            retransmitted: false,
        });
        self.record_window_trace(now);
        Segment {
            seq,
            ack: self.ack_value(),
            flags: SegFlags::ACK,
            wnd: self.recv_window(),
            payload,
            retransmit: false,
            dsack: false,
        }
    }

    fn poll_fin(&mut self, now: SimTime) -> Option<Segment> {
        if !self.fin_queued || self.fin_sent || !self.send_buf.is_empty() {
            return None;
        }
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::SynRcvd
        ) {
            return None;
        }
        let seq = self.snd_nxt;
        self.snd_nxt += 1;
        self.fin_sent = true;
        self.state = match self.state {
            TcpState::CloseWait => TcpState::LastAck,
            _ => TcpState::FinWait1,
        };
        self.rtx_queue.push_back(SentSegment {
            seq,
            payload: Payload::new(),
            syn: false,
            fin: true,
            time_sent: now,
            retransmitted: false,
        });
        Some(Segment {
            seq,
            ack: self.ack_value(),
            flags: SegFlags::FIN_ACK,
            wnd: self.recv_window(),
            payload: Payload::new(),
            retransmit: false,
            dsack: false,
        })
    }

    fn pure_ack(&self) -> Segment {
        Segment {
            seq: self.snd_nxt,
            ack: self.ack_value(),
            flags: SegFlags::ACK,
            wnd: self.recv_window(),
            payload: Payload::new(),
            retransmit: false,
            dsack: false,
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// The earliest instant at which [`TcpConnection::on_timer`] must run.
    pub fn next_timer(&self) -> Option<SimTime> {
        [
            self.rto_deadline,
            self.delack_deadline,
            self.persist_deadline,
            self.time_wait_deadline,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Fire all timers that have expired by `now`.
    pub fn on_timer(&mut self, now: SimTime) {
        if let Some(d) = self.delack_deadline {
            if d <= now {
                self.delack_deadline = None;
                if self.ack_pending > 0 {
                    self.acks_owed = self.acks_owed.max(1);
                }
            }
        }
        if let Some(d) = self.time_wait_deadline {
            if d <= now {
                self.time_wait_deadline = None;
                self.state = TcpState::Closed;
            }
        }
        if let Some(d) = self.persist_deadline {
            if d <= now {
                self.persist_deadline = None;
                if self.peer_wnd == 0 && !self.send_buf.is_empty() {
                    // Zero-window probe: force out one byte.
                    self.peer_wnd = 1;
                    // Next poll_transmit will send a 1-byte segment; the
                    // peer's next ACK restores the true window.
                }
            }
        }
        if let Some(d) = self.rto_deadline {
            if d <= now {
                self.on_rto_fired(now);
            }
        }
    }

    fn on_rto_fired(&mut self, now: SimTime) {
        if self.rtx_queue.is_empty() {
            self.rto_deadline = None;
            return;
        }
        self.stats.timeouts += 1;
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.timeouts.mark(now);
        }
        // Capture pre-collapse state once per loss episode so a DSACK from
        // the receiver (spurious-timeout evidence) can undo the damage.
        match &mut self.undo_state {
            Some((_, _, exp, fires)) if now <= *exp => *fires += 1,
            _ => {
                self.undo_state = Some((
                    self.cc.cwnd(),
                    self.cc.ssthresh(),
                    now + SimDuration::from_secs(10),
                    1,
                ));
            }
        }
        self.cc.on_rto(now);
        // Enter RTO loss recovery: everything outstanding may be lost, and
        // each partial ACK must pull the next segment out immediately.
        self.recover = Some(self.snd_nxt);
        self.rto_recovery = true;
        self.dup_acks = 0;
        self.rto_backoff = self.rto_backoff.saturating_mul(2).min(64);
        self.rtx_pending = true;
        self.rto_deadline = Some(now + self.rto());
        self.record_window_trace(now);
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

    /// A backed-off RTO never exceeds `max_rto`, even when the estimate
    /// alone already sits at the cap.
    #[test]
    fn backed_off_rto_is_capped_at_max_rto() {
        let mut c = TcpConnection::client(cfg());
        c.rtt.sample(SimDuration::from_secs(40));
        assert_eq!(c.rto(), c.cfg.max_rto, "the estimate clamps to the cap");
        c.connect(SimTime::ZERO);
        c.poll_transmit(SimTime::ZERO).expect("the SYN");
        let deadline = c.next_timer().expect("rto armed");
        c.on_timer(deadline);
        assert_eq!(c.stats().timeouts, 1);
        assert_eq!(c.rto(), c.cfg.max_rto, "backoff stays at the cap");
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
        assert!(grown > c.cfg.initial_cwnd());
        let tight_rto = c.rto();
        assert!(tight_rto < SimDuration::from_millis(600));
        // Go idle for 10 s, then send again.
        let later = now + SimDuration::from_secs(10);
        c.write(Payload::from(vec![0u8; 1380]));
        let _seg = c.poll_transmit(later).expect("post-idle segment");
        assert_eq!(c.cwnd(), c.cfg.initial_cwnd(), "cwnd collapsed to IW");
        assert_eq!(c.stats().idle_restarts, 1);
        // The flaw: the RTO is still the tight active-period estimate.
        assert_eq!(c.rto(), tight_rto, "RTT estimate survived the idle period");
    }

    #[test]
    fn reset_rtt_after_idle_fix_restores_initial_rto() {
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
}

#[cfg(test)]
mod undo_tests {
    use super::tests_support::*;
    use super::*;
    use crate::metrics_cache::CachedMetrics;

    /// Converge a sender, idle it, fire `n` RTOs against a silent network,
    /// then deliver everything (originals + spurious copies) and the
    /// resulting DSACK-bearing ACKs. Returns the connection afterwards
    /// plus its pre-collapse window state.
    fn spurious_episode(rto_fires: usize) -> (TcpConnection, u64, u64) {
        let (mut c, mut s, now) = handshake_pair();
        c.write(Payload::from(vec![0u8; 200_000]));
        let now = converse_pair(&mut c, &mut s, now, SimDuration::from_millis(50));
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

#[cfg(test)]
mod tests_support {
    use super::*;
    use crate::config::TcpConfig;

    pub fn cfg_t() -> TcpConfig {
        TcpConfig {
            trace: true,
            ..TcpConfig::default()
        }
    }

    pub fn handshake_pair() -> (TcpConnection, TcpConnection, SimTime) {
        let mut c = TcpConnection::client(cfg_t());
        let mut s = TcpConnection::server(cfg_t());
        c.connect(SimTime::ZERO);
        let now = converse_pair(&mut c, &mut s, SimTime::ZERO, SimDuration::from_millis(50));
        assert!(c.is_established());
        (c, s, now)
    }

    /// Minimal lossless-pipe driver with prompt reads.
    pub fn converse_pair(
        a: &mut TcpConnection,
        b: &mut TcpConnection,
        start: SimTime,
        latency: SimDuration,
    ) -> SimTime {
        let mut now = start;
        let mut wire: Vec<(SimTime, bool, Segment)> = Vec::new();
        for _ in 0..100_000 {
            while let Some(seg) = a.poll_transmit(now) {
                wire.push((now + latency, false, seg));
            }
            while let Some(seg) = b.poll_transmit(now) {
                wire.push((now + latency, true, seg));
            }
            while a.read().is_some() {}
            while b.read().is_some() {}
            let next_wire = wire.iter().map(|(at, _, _)| *at).min();
            let next_timer = [a.next_timer(), b.next_timer()].into_iter().flatten().min();
            let next = match (next_wire, next_timer) {
                (Some(w), Some(t)) => w.min(t),
                (Some(w), None) => w,
                (None, Some(t)) => t,
                (None, None) => return now,
            };
            now = next.max(now);
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
        panic!("did not quiesce");
    }
}
