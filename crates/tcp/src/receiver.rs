//! The receive half of a [`TcpConnection`](crate::TcpConnection):
//! reassembly, the peer's FIN, and the ACKs this side owes.
//!
//! Every segment the connection sends leaves through
//! [`Receiver::stamp`], which writes the cumulative acknowledgment, the
//! advertised window and the ACK flag, and counts the segment against
//! what this side owes.

use crate::buffer::RecvBuffer;
use crate::config::DELAYED_ACK;
use crate::segment::Segment;
use spdyier_sim::SimTime;

/// The receive half of one connection. Its `pub(crate)` fields back the
/// connection's public accessors.
#[derive(Debug, Default)]
pub(crate) struct Receiver {
    /// Receive buffer capacity: the window advertised before the peer's
    /// SYN opens the buffer.
    capacity: u64,
    /// `None` until the peer's SYN arrives.
    pub(crate) buf: Option<RecvBuffer>,
    /// Sequence of the peer's FIN, once seen.
    fin_rcvd: Option<u64>,
    /// In-order segments received since the last ACK we sent.
    ack_pending: u32,
    /// Pure ACKs owed right now (out-of-order arrivals owe one each, so a
    /// burst of holes produces the duplicate-ACK train fast retransmit
    /// depends on).
    acks_owed: u32,
    delack_deadline: Option<SimTime>,
    /// We received duplicate payload; the next ACK we emit reports it.
    dsack_pending: bool,
    /// Payload bytes of the segments that advanced `rcv_nxt`.
    pub(crate) bytes_rcvd: u64,
}

impl Receiver {
    pub fn new(capacity: u64) -> Receiver {
        Receiver {
            capacity,
            ..Receiver::default()
        }
    }

    /// The peer's SYN occupied `syn_seq`: expect data from the next byte.
    pub fn open(&mut self, syn_seq: u64) {
        self.buf = Some(RecvBuffer::new(syn_seq + 1, self.capacity));
    }

    /// Owe the peer an ACK now.
    pub fn owe_ack(&mut self) {
        self.acks_owed = self.acks_owed.max(1);
    }

    /// True once every byte before the peer's FIN has arrived.
    pub fn peer_closed(&self) -> bool {
        self.fin_rcvd
            .zip(self.buf.as_ref())
            .is_some_and(|(fin_seq, buf)| buf.rcv_nxt() >= fin_seq)
    }

    pub fn on_data(&mut self, now: SimTime, seg: &Segment) {
        let Some(buf) = self.buf.as_mut() else {
            return;
        };
        let dup_before = buf.dup_bytes();
        let advanced = buf.ingest(seg.seq, seg.payload.clone());
        if buf.dup_bytes() > dup_before {
            // Duplicate payload received: report it (RFC 2883 DSACK).
            self.dsack_pending = true;
        }
        if advanced {
            self.bytes_rcvd += seg.payload.len(); // approximation: counts the advancing segment
        }
        if !advanced || buf.has_ooo() {
            // Out-of-order or duplicate: owe one immediate (duplicate) ACK
            // per arrival — the duplicate-ACK train fast retransmit needs.
            self.acks_owed += 1;
            self.ack_pending = 0;
            self.delack_deadline = None;
        } else {
            self.ack_pending += 1;
            if self.ack_pending >= 2 {
                // Ack every second in-order segment per RFC 5681.
                self.owe_ack();
                self.ack_pending = 0;
                self.delack_deadline = None;
            } else if self.delack_deadline.is_none() {
                self.delack_deadline = Some(now + DELAYED_ACK);
            }
        }
    }

    /// The peer's FIN at `fin_seq`. True when every byte before it has
    /// arrived: the FIN is consumed and owed an ACK now.
    pub fn on_fin(&mut self, fin_seq: u64) -> bool {
        if self.fin_rcvd.is_none() {
            self.fin_rcvd = Some(fin_seq);
        }
        let consumed = self.buf.as_ref().is_some_and(|b| b.rcv_nxt() >= fin_seq);
        if consumed {
            self.owe_ack();
            self.delack_deadline = None;
        }
        consumed
    }

    /// The cumulative acknowledgment we advertise.
    fn ack_value(&self) -> u64 {
        let Some(buf) = &self.buf else {
            return 0;
        };
        match self.fin_rcvd {
            Some(fin_seq) if buf.rcv_nxt() >= fin_seq => fin_seq + 1,
            _ => buf.rcv_nxt(),
        }
    }

    /// Take one owed pure ACK, if any.
    pub fn take_owed_ack(&mut self) -> bool {
        if self.acks_owed == 0 {
            return false;
        }
        self.acks_owed -= 1;
        true
    }

    /// Write our acknowledgment, window and ACK flag into an outgoing
    /// segment. Only a SYN sent before the peer's SYN arrived goes without
    /// an ACK. A segment that occupies sequence space carries the latest
    /// cumulative ACK and pays every ACK owed; a pure ACK pays only the one
    /// it was sent for (a duplicate-ACK train must come out one per owed
    /// arrival).
    pub fn stamp(&mut self, seg: &mut Segment) {
        seg.ack = self.ack_value();
        seg.wnd = self.buf.as_ref().map_or(self.capacity, RecvBuffer::window);
        seg.flags.ack = self.buf.is_some();
        if seg.flags.ack {
            if seg.seq_space() > 0 {
                self.acks_owed = 0;
            }
            self.ack_pending = 0;
            self.delack_deadline = None;
            seg.dsack = std::mem::take(&mut self.dsack_pending);
        }
    }

    /// The delayed-ACK deadline.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.delack_deadline
    }

    /// Fire the delayed-ACK timer if it has expired by `now`.
    pub fn on_timer(&mut self, now: SimTime) {
        if self.delack_deadline.is_some_and(|d| d <= now) {
            self.delack_deadline = None;
            if self.ack_pending > 0 {
                self.owe_ack();
            }
        }
    }
}
