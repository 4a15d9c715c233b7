//! The send half of a [`TcpConnection`](crate::TcpConnection): sequence
//! space, the retransmission queue, congestion control, the RTT estimate,
//! the RTO and persist timers, loss recovery and its DSACK undo.
//!
//! A [`Sender`] is driven by the ACKs that reach it ([`Sender::on_ack`])
//! and by its own timers ([`Sender::on_timer`]); it never looks at the
//! payload its peer sends. The segments it builds carry no
//! acknowledgment: the connection's receive half stamps `ack`, `wnd` and
//! the ACK flag on every segment before it leaves.
//!
//! Two places write the retransmission census: `enter_recovery` (each
//! loss detection) and `poll_retransmit` (each retransmitted segment).

use crate::buffer::SendBuffer;
use crate::cc::CongestionControl;
use crate::config::{TcpConfig, DUPACK_THRESHOLD, INITIAL_RTO, MAX_RTO, POST_IDLE_RTO};
use crate::rtt::RttEstimator;
use crate::segment::{SegFlags, Segment};
use crate::trace::{RtxRecord, RtxTrigger, SegKind, TcpStats, TcpTrace};
use spdyier_bytes::Payload;
use spdyier_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

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
    fn seq_end(&self) -> u64 {
        self.seq + self.payload.len() + u64::from(self.syn) + u64::from(self.fin)
    }

    fn kind(&self) -> SegKind {
        match (self.syn, self.payload.is_empty()) {
            (true, _) => SegKind::Syn,
            (false, true) => SegKind::PureFin,
            (false, false) => SegKind::Data,
        }
    }

    fn segment(&self, retransmit: bool) -> Segment {
        segment(
            self.seq,
            self.syn,
            self.fin,
            self.payload.clone(),
            retransmit,
        )
    }
}

/// A segment as the send half builds it, before the receive half stamps
/// its `ack`, `wnd` and ACK flag.
fn segment(seq: u64, syn: bool, fin: bool, payload: Payload, retransmit: bool) -> Segment {
    Segment {
        seq,
        ack: 0,
        flags: SegFlags {
            syn,
            ack: false,
            fin,
        },
        wnd: 0,
        payload,
        retransmit,
        dsack: false,
    }
}

/// A loss-recovery episode: fast retransmit or RTO.
#[derive(Debug, Clone, Copy)]
struct Recovery {
    /// `snd_nxt` at entry; the episode ends when acked past it. Until
    /// then, partial ACKs retransmit the next hole immediately
    /// (NewReno-style go-back-N continuation).
    point: u64,
    /// The episode began with an RTO, so cwnd regrows in slow start
    /// during it (unlike dupack-triggered recovery).
    after_rto: bool,
}

/// Window state captured at an RTO, for DSACK-driven undo.
#[derive(Debug, Clone, Copy)]
struct Undo {
    cwnd: u64,
    ssthresh: u64,
    /// Bounds how stale a restore can be (the originals' ACKs arrive
    /// before the duplicate report, so clearing on full-ACK would defeat
    /// the undo).
    expires_at: SimTime,
}

/// The send half of one connection. Its `pub(crate)` fields back the
/// connection's public accessors.
pub(crate) struct Sender {
    pub(crate) cfg: TcpConfig,
    snd_una: u64,
    snd_nxt: u64,
    peer_wnd: u64,
    pub(crate) send_buf: SendBuffer,
    rtx_queue: VecDeque<SentSegment>,
    pub(crate) cc: Box<dyn CongestionControl>,
    pub(crate) rtt: RttEstimator,
    rto_deadline: Option<SimTime>,
    rto_backoff: u32,
    dup_acks: u32,
    recovery: Option<Recovery>,
    /// Index-0 retransmission pending, and what asked for it.
    rtx_pending: Option<RtxTrigger>,
    /// `seq_end` of the most recently retransmitted segment. A partial ACK
    /// that advances *past* this boundary means later data was already
    /// received (the stall was spurious) — no further retransmission; an
    /// ACK stalling at it reveals the next genuine hole (what a SACK
    /// scoreboard would tell a 2013 Linux sender). It lives outside
    /// [`Recovery`] because an undo ends the episode but leaves it set.
    last_rtx_end: Option<u64>,
    /// Last instant we put data on the wire (for RFC 2861 idle detection).
    last_send_activity: SimTime,
    /// Persist-timer deadline for zero-window probing.
    persist_deadline: Option<SimTime>,
    undo: Option<Undo>,
    /// Cached RTT metrics to seed once established (never for the SYN).
    pub(crate) pending_rtt_seed: Option<(SimDuration, SimDuration)>,
    /// The send-side counters; the connection fills in the rest.
    pub(crate) stats: TcpStats,
    /// Census records not yet drained by the connection's owner.
    pub(crate) census: Vec<RtxRecord>,
    pub(crate) trace: Option<Box<TcpTrace>>,
}

impl Sender {
    pub fn new(cfg: TcpConfig) -> Sender {
        Sender {
            snd_una: 0,
            snd_nxt: 0,
            peer_wnd: cfg.mss, // conservatively one segment until learned
            send_buf: SendBuffer::new(),
            rtx_queue: VecDeque::new(),
            cc: cfg.cc.build(cfg.mss, cfg.initial_cwnd()),
            rtt: RttEstimator::new(INITIAL_RTO, cfg.min_rto, MAX_RTO),
            rto_deadline: None,
            rto_backoff: 1,
            dup_acks: 0,
            recovery: None,
            rtx_pending: None,
            last_rtx_end: None,
            last_send_activity: SimTime::ZERO,
            persist_deadline: None,
            undo: None,
            pending_rtt_seed: None,
            stats: TcpStats::default(),
            census: Vec::new(),
            trace: cfg.trace.then(Box::default),
            cfg,
        }
    }

    /// Give back the capacity of the retransmission queue and the census
    /// when they are empty; a non-empty one keeps what it holds.
    pub fn release_spare_capacity(&mut self) {
        if self.rtx_queue.is_empty() {
            self.rtx_queue.shrink_to_fit();
        }
        if self.census.is_empty() {
            self.census.shrink_to_fit();
        }
    }

    /// The handshake completed: apply a cached RTT seed, unless the
    /// handshake itself produced a better sample.
    pub fn established(&mut self) {
        if let Some((srtt, rttvar)) = self.pending_rtt_seed.take() {
            if self.rtt.samples_taken() == 0 {
                self.rtt.seed(srtt, rttvar);
            }
        }
    }

    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    pub fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// The estimate with backoff applied, capped at [`MAX_RTO`] as Linux
    /// caps it at `TCP_RTO_MAX`.
    pub fn rto(&self) -> SimDuration {
        self.rtt
            .rto()
            .saturating_mul(u64::from(self.rto_backoff))
            .min(MAX_RTO)
    }

    fn record_window_trace(&mut self, now: SimTime) {
        let inflight = self.bytes_in_flight();
        let (cwnd, ssthresh, mss) = (self.cc.cwnd(), self.cc.ssthresh(), self.cfg.mss);
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.record_window(now, cwnd, ssthresh, mss, inflight);
        }
    }

    /// Process the acknowledgment, window and DSACK report `seg` carries.
    /// True when it advanced `snd_una`.
    pub fn on_ack(&mut self, now: SimTime, seg: &Segment) -> bool {
        self.peer_wnd = seg.wnd;
        if seg.dsack {
            self.apply_undo(now);
        }
        if self.peer_wnd > 0 {
            self.persist_deadline = None;
        }
        if seg.ack > self.snd_nxt {
            return false; // acks data we never sent; ignore
        }
        if seg.ack > self.snd_una {
            self.accept_ack(now, seg.ack);
            return true;
        }
        if seg.ack == self.snd_una && seg.seq_space() == 0 && !self.rtx_queue.is_empty() {
            // Duplicate ACK.
            self.dup_acks += 1;
            self.stats.dup_acks_in += 1;
            if self.dup_acks == DUPACK_THRESHOLD && self.recovery.is_none() {
                self.cc.on_loss_event(now);
                self.enter_recovery(now, RtxTrigger::FastRetransmit);
                self.record_window_trace(now);
            }
        }
        false
    }

    /// Handle `ack` advancing `snd_una`.
    fn accept_ack(&mut self, now: SimTime, ack: u64) {
        // cwnd validation (RFC 2861 §3 / Linux `tcp_is_cwnd_limited`):
        // the window only grows when the sender was actually using it.
        let cwnd_limited = self.bytes_in_flight().saturating_mul(2) >= self.cc.cwnd();
        let newly_acked = ack - self.snd_una;
        self.snd_una = ack;
        self.dup_acks = 0;
        self.rto_backoff = 1;
        // Expire stale undo candidates: if no DSACK arrived within the
        // window, the retransmission filled a genuine hole.
        if self.undo.is_some_and(|u| now > u.expires_at) {
            self.undo = None;
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
        match self.recovery {
            Some(r)
                if ack < r.point
                // Partial ACK: retransmit the next hole — but only when the
                // ACK stalls at (or before) the last retransmission's
                // boundary. An ACK sailing past it means the receiver
                // already holds the following data: the timeout was
                // spurious and nothing else is missing yet.
                && self.last_rtx_end.is_none_or(|end| ack <= end) =>
            {
                self.rtx_pending = Some(RtxTrigger::PartialAck);
            }
            Some(_) => {
                self.recovery = None;
                self.last_rtx_end = None;
            }
            None => {}
        }

        // cwnd grows on ACKs outside recovery, and also during RTO
        // recovery (slow-start regrowth, as in Linux); dupack-triggered
        // fast recovery holds the window at the reduced value. Growth
        // requires the sender to have been cwnd-limited.
        if cwnd_limited && self.recovery.is_none_or(|r| r.after_rto) {
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
        if let Some(u) = self.undo.take() {
            self.cc.undo(u.cwnd, u.ssthresh);
            self.rto_backoff = 1;
            self.recovery = None;
            self.stats.spurious_undos += 1;
            self.record_window_trace(now);
        }
    }

    /// Loss detected by `trigger`: open a recovery episode whose first act
    /// is retransmitting the head of the queue, and record the detection.
    fn enter_recovery(&mut self, now: SimTime, trigger: RtxTrigger) {
        self.recovery = Some(Recovery {
            point: self.snd_nxt,
            after_rto: trigger == RtxTrigger::Rto,
        });
        self.rtx_pending = Some(trigger);
        self.record(now, trigger, None);
    }

    /// Append a record of the head of the queue to the census (`sent`:
    /// the payload bytes retransmitted, `None` for a detection), folding
    /// it into the counters and the trace's marks.
    fn record(&mut self, at: SimTime, trigger: RtxTrigger, sent: Option<u64>) {
        let rec = RtxRecord {
            at,
            kind: self.rtx_queue[0].kind(),
            trigger,
            sent,
        };
        let (stats, trace) = (&mut self.stats, self.trace.as_deref_mut());
        match rec.sent {
            Some(bytes) => {
                stats.retransmissions += 1;
                stats.bytes_retransmitted += bytes;
                if let Some(tr) = trace {
                    tr.retransmits.mark(rec.at);
                }
            }
            None if rec.is_timeout() => {
                stats.timeouts += 1;
                if let Some(tr) = trace {
                    tr.timeouts.mark(rec.at);
                }
            }
            None => stats.fast_retransmits += 1,
        }
        self.census.push(rec);
    }

    /// A segment that occupies sequence space left at `now`.
    fn sent(&mut self, now: SimTime) {
        self.last_send_activity = now;
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto());
        }
    }

    /// Send new sequence space: `payload`, plus a SYN or a FIN.
    pub fn emit(&mut self, now: SimTime, payload: Payload, syn: bool, fin: bool) -> Segment {
        let entry = SentSegment {
            seq: self.snd_nxt,
            payload,
            syn,
            fin,
            time_sent: now,
            retransmitted: false,
        };
        self.snd_nxt = entry.seq_end();
        let seg = entry.segment(false);
        self.rtx_queue.push_back(entry);
        self.sent(now);
        seg
    }

    /// Retransmit the head of the queue, if a loss detection or a partial
    /// ACK asked for it.
    pub fn poll_retransmit(&mut self, now: SimTime) -> Option<Segment> {
        let trigger = self.rtx_pending.take()?;
        let entry = self.rtx_queue.front_mut()?;
        entry.retransmitted = true;
        entry.time_sent = now;
        self.last_rtx_end = Some(entry.seq_end());
        let (seg, bytes) = (entry.segment(true), entry.payload.len());
        self.record(now, trigger, Some(bytes));
        self.sent(now);
        Some(seg)
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
            self.rtt.reset_to(POST_IDLE_RTO);
        }
    }

    /// Send the next MSS-bounded piece of queued data, if the congestion
    /// and peer windows allow it.
    pub fn poll_data(&mut self, now: SimTime) -> Option<Segment> {
        if self.send_buf.is_empty() {
            return None;
        }
        self.maybe_idle_restart(now);
        let in_flight = self.bytes_in_flight();
        if self.peer_wnd == 0 {
            // Zero-window: arm the persist timer; probes are sent from
            // `on_timer`.
            if self.persist_deadline.is_none() && in_flight == 0 {
                self.persist_deadline = Some(now + self.rto());
            }
            return None;
        }
        let usable = self.cc.cwnd().min(self.peer_wnd);
        if in_flight >= usable {
            return None;
        }
        let chunk = self.cfg.mss.min(usable - in_flight);
        let payload = self.send_buf.pull(chunk);
        self.stats.bytes_sent += payload.len();
        let seg = self.emit(now, payload, false, false);
        self.record_window_trace(now);
        Some(seg)
    }

    /// A pure ACK, at the next sequence number.
    pub fn pure_ack(&self) -> Segment {
        segment(self.snd_nxt, false, false, Payload::new(), false)
    }

    /// The RTO or persist deadline, whichever is earlier.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.rto_deadline
            .into_iter()
            .chain(self.persist_deadline)
            .min()
    }

    /// Fire the persist and RTO timers if they have expired by `now`.
    pub fn on_timer(&mut self, now: SimTime) {
        if self.persist_deadline.is_some_and(|d| d <= now) {
            self.persist_deadline = None;
            if self.peer_wnd == 0 && !self.send_buf.is_empty() {
                // Zero-window probe: the next poll sends a 1-byte
                // segment; the peer's next ACK restores the true window.
                self.peer_wnd = 1;
            }
        }
        if self.rto_deadline.is_some_and(|d| d <= now) {
            self.on_rto_fired(now);
        }
    }

    fn on_rto_fired(&mut self, now: SimTime) {
        if self.rtx_queue.is_empty() {
            self.rto_deadline = None;
            return;
        }
        // Capture pre-collapse state once per loss episode so a DSACK from
        // the receiver (spurious-timeout evidence) can undo the damage.
        if self.undo.is_none_or(|u| now > u.expires_at) {
            self.undo = Some(Undo {
                cwnd: self.cc.cwnd(),
                ssthresh: self.cc.ssthresh(),
                expires_at: now + SimDuration::from_secs(10),
            });
        }
        self.cc.on_rto(now);
        // Enter RTO loss recovery: everything outstanding may be lost, and
        // each partial ACK must pull the next segment out immediately.
        self.enter_recovery(now, RtxTrigger::Rto);
        self.dup_acks = 0;
        self.rto_backoff = self.rto_backoff.saturating_mul(2).min(64);
        self.rto_deadline = Some(now + self.rto());
        self.record_window_trace(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backed-off RTO never exceeds [`MAX_RTO`], even when the estimate
    /// alone already sits at the cap.
    #[test]
    fn backed_off_rto_is_capped_at_max_rto() {
        let mut tx = Sender::new(TcpConfig::default());
        tx.rtt.sample(SimDuration::from_secs(40));
        assert_eq!(tx.rto(), MAX_RTO, "the estimate clamps to the cap");
        tx.emit(SimTime::ZERO, Payload::new(), true, false);
        let deadline = tx.next_timer().expect("rto armed");
        tx.on_timer(deadline);
        assert_eq!(tx.stats.timeouts, 1);
        assert_eq!(tx.rto(), MAX_RTO, "backoff stays at the cap");
    }

    /// A pure ACK of everything below `ack`, advertising `wnd`.
    fn ack(ack: u64, wnd: u64) -> Segment {
        let mut seg = segment(1, false, false, Payload::new(), false);
        (seg.ack, seg.wnd, seg.flags.ack) = (ack, wnd, true);
        seg
    }

    /// A sender whose SYN was acked at 100 ms and which then sent
    /// `segments` full segments, starting at sequence 1.
    fn sending(segments: u64) -> Sender {
        let t = SimTime::from_millis;
        let mut tx = Sender::new(TcpConfig::default());
        tx.emit(t(0), Payload::new(), true, false);
        assert!(tx.on_ack(t(100), &ack(1, 65_535)), "the SYN is acked");
        tx.send_buf.write(Payload::synthetic(segments * 1380));
        let sent = std::iter::from_fn(|| tx.poll_data(t(100))).count();
        assert_eq!(sent as u64, segments);
        tx
    }

    /// Driven by ACKs alone: the third duplicate ACK retransmits the
    /// head of the queue at once, without waiting for the RTO.
    #[test]
    fn third_duplicate_ack_retransmits_the_head() {
        let t = SimTime::from_millis;
        let mut tx = sending(4);
        for _ in 0..3 {
            assert!(!tx.on_ack(t(200), &ack(1, 65_535)));
        }
        let rtx = tx.poll_retransmit(t(200)).expect("fast retransmit");
        assert_eq!((rtx.seq, rtx.len(), rtx.retransmit), (1, 1380, true));
        assert_eq!((tx.stats.fast_retransmits, tx.stats.timeouts), (1, 0));
        let census: Vec<_> = tx
            .census
            .iter()
            .map(|r| (r.kind, r.trigger, r.sent))
            .collect();
        let fast = (SegKind::Data, RtxTrigger::FastRetransmit);
        assert_eq!(
            census,
            [(fast.0, fast.1, None), (fast.0, fast.1, Some(1380))]
        );
    }

    /// A fast retransmit is one retransmission: the trace marks it once,
    /// when the segment leaves, as the counter counts it.
    #[test]
    fn fast_retransmit_is_marked_once() {
        let t = SimTime::from_millis;
        let mut tx = sending(4);
        tx.trace = Some(Box::default());
        for _ in 0..3 {
            tx.on_ack(t(200), &ack(1, 65_535));
        }
        tx.poll_retransmit(t(200)).expect("fast retransmit");
        let marks = tx.trace.as_ref().expect("traced").retransmits.count();
        assert_eq!((marks, tx.stats.retransmissions), (1, 1));
    }

    /// An undo ends its episode but leaves `last_rtx_end` set. A partial
    /// ACK that lands past that stale boundary in the next RTO episode,
    /// before the episode's first retransmission, ends the new episode
    /// too, so three duplicate ACKs then start a fast retransmit. This
    /// pins today's behaviour; whether it is right is open.
    #[test]
    fn partial_ack_past_a_stale_boundary_ends_the_next_episode() {
        let mut tx = sending(3);
        let rto = tx.next_timer().expect("rto armed");
        tx.on_timer(rto);
        let rtx = tx.poll_retransmit(rto).expect("the RTO retransmits");
        assert_eq!(rtx.seq_end(), 1381);
        let mut dsack = ack(1, 65_535);
        dsack.dsack = true;
        tx.on_ack(rto, &dsack);
        assert_eq!(tx.stats.spurious_undos, 1);
        let rto = tx.next_timer().expect("rto still armed");
        tx.on_timer(rto);
        assert_eq!(tx.stats.timeouts, 2);
        assert!(tx.on_ack(rto, &ack(2761, 65_535)), "past the stale 1381");
        let rtx = tx
            .poll_retransmit(rto)
            .expect("the second RTO's retransmission");
        assert_eq!(rtx.seq, 2761);
        for _ in 0..3 {
            tx.on_ack(rto, &ack(2761, 65_535));
        }
        assert_eq!(tx.stats.fast_retransmits, 1, "no episode was open");
    }
}
