//! TCP segments as they travel across the simulated network.

use spdyier_bytes::Payload;

/// TCP header flags (the subset the testbed uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegFlags {
    /// Synchronise sequence numbers (connection setup).
    pub syn: bool,
    /// Acknowledgment field is valid.
    pub ack: bool,
    /// No more data from sender (connection teardown).
    pub fin: bool,
}

impl SegFlags {
    /// A pure ACK.
    pub const ACK: SegFlags = SegFlags {
        syn: false,
        ack: true,
        fin: false,
    };
    /// A SYN (client handshake opener).
    pub const SYN: SegFlags = SegFlags {
        syn: true,
        ack: false,
        fin: false,
    };
    /// A SYN-ACK (server handshake reply).
    pub const SYN_ACK: SegFlags = SegFlags {
        syn: true,
        ack: true,
        fin: false,
    };
    /// A FIN-ACK (sender-side close).
    pub const FIN_ACK: SegFlags = SegFlags {
        syn: false,
        ack: true,
        fin: true,
    };
}

/// One TCP segment. Sequence numbers are absolute 64-bit offsets (the
/// simulation never wraps), with SYN and FIN each occupying one unit of
/// sequence space as in real TCP.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u64,
    /// Cumulative acknowledgment: all bytes `< ack` received.
    pub ack: u64,
    /// Header flags.
    pub flags: SegFlags,
    /// Advertised receive window, bytes.
    pub wnd: u64,
    /// Payload.
    pub payload: Payload,
    /// True if this segment is a retransmission (diagnostic only — real
    /// TCP infers this; the testbed records it for its retransmission counts).
    pub retransmit: bool,
    /// Duplicate-SACK signal: the sender of this ACK received duplicate
    /// payload (a spurious-retransmission report, RFC 2883). Drives the
    /// receiver-side half of Linux's cwnd/ssthresh undo.
    pub dsack: bool,
}

impl Segment {
    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        self.payload.len()
    }

    /// True when the segment carries no payload.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Units of sequence space this segment occupies (payload + SYN + FIN).
    pub fn seq_space(&self) -> u64 {
        self.len() + u64::from(self.flags.syn) + u64::from(self.flags.fin)
    }

    /// The sequence number just past this segment.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.seq_space()
    }

    /// Bytes this segment occupies on the wire (payload + 40 B of
    /// TCP/IP headers).
    pub fn wire_size(&self) -> u64 {
        self.len() + 40
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: u64, n: u64) -> Segment {
        Segment {
            seq,
            ack: 0,
            flags: SegFlags::ACK,
            wnd: 65535,
            payload: Payload::synthetic(n),
            retransmit: false,
            dsack: false,
        }
    }

    #[test]
    fn seq_space_counts_payload() {
        let s = data(100, 1380);
        assert_eq!(s.seq_space(), 1380);
        assert_eq!(s.seq_end(), 1480);
        assert_eq!(s.wire_size(), 1420);
    }

    #[test]
    fn syn_and_fin_occupy_sequence_space() {
        let syn = Segment {
            seq: 0,
            ack: 0,
            flags: SegFlags::SYN,
            wnd: 65535,
            payload: Payload::new(),
            retransmit: false,
            dsack: false,
        };
        assert_eq!(syn.seq_space(), 1);
        assert!(syn.is_empty());
        let fin = Segment {
            flags: SegFlags::FIN_ACK,
            ..syn.clone()
        };
        assert_eq!(fin.seq_space(), 1);
    }

    #[test]
    fn pure_ack_occupies_nothing() {
        let a = data(5, 0);
        assert_eq!(a.seq_space(), 0);
        assert_eq!(a.wire_size(), 40);
    }
}
