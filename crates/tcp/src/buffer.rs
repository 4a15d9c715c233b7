//! Send-side byte queue and receive-side reassembly.
//!
//! Both sides hold [`Payload`] ropes: pulling MSS-sized slices off the
//! send queue and stitching segments back together on receive are chunk
//! bookkeeping — no byte is copied on either path.

use spdyier_bytes::Payload;
use std::collections::BTreeMap;

/// The un-sent portion of the application's byte stream.
///
/// Chunks written by the application are queued and pulled off in
/// MSS-or-smaller slices by the sender. A pull that crosses chunk
/// boundaries returns a multi-chunk rope rather than coalescing.
#[derive(Debug, Default)]
pub struct SendBuffer {
    queue: Payload,
}

impl SendBuffer {
    /// An empty buffer.
    pub fn new() -> SendBuffer {
        SendBuffer::default()
    }

    /// Queue application data.
    pub fn write(&mut self, data: Payload) {
        self.queue.append(data);
    }

    /// Unsent bytes remaining.
    pub fn len(&self) -> u64 {
        self.queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Remove and return up to `max` bytes.
    pub fn pull(&mut self, max: u64) -> Payload {
        self.queue.split_to(max.min(self.queue.len()))
    }
}

/// Receive-side reassembly: buffers out-of-order segments and exposes the
/// in-order byte stream to the application.
#[derive(Debug)]
pub struct RecvBuffer {
    /// Next in-order sequence number expected.
    rcv_nxt: u64,
    /// Out-of-order segments keyed by their start sequence.
    ooo: BTreeMap<u64, Payload>,
    /// In-order data awaiting application reads.
    assembled: Payload,
    /// Total capacity governing the advertised window.
    capacity: u64,
    /// Count of exact or partial duplicate payload bytes seen (a signature
    /// of spurious retransmission at the receiver).
    dup_bytes: u64,
}

impl RecvBuffer {
    /// A buffer expecting sequence `rcv_nxt` first, with `capacity` bytes
    /// of advertised window.
    pub fn new(rcv_nxt: u64, capacity: u64) -> RecvBuffer {
        RecvBuffer {
            rcv_nxt,
            ooo: BTreeMap::new(),
            assembled: Payload::new(),
            capacity,
            dup_bytes: 0,
        }
    }

    /// Next expected sequence number (the ACK we should send).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Bytes of window to advertise: capacity minus data the application
    /// has not yet consumed (including buffered out-of-order data).
    pub fn window(&self) -> u64 {
        let buffered = self.assembled.len() + self.ooo.values().map(|b| b.len()).sum::<u64>();
        self.capacity.saturating_sub(buffered)
    }

    /// Duplicate payload bytes observed (spurious-retransmission signature).
    pub fn dup_bytes(&self) -> u64 {
        self.dup_bytes
    }

    /// True if any out-of-order data is parked (we should send an
    /// immediate duplicate ACK while this holds).
    pub fn has_ooo(&self) -> bool {
        !self.ooo.is_empty()
    }

    /// Ingest a data segment. Returns `true` if `rcv_nxt` advanced (new
    /// in-order data became available).
    pub fn ingest(&mut self, seq: u64, mut payload: Payload) -> bool {
        if payload.is_empty() {
            return false;
        }
        let end = seq + payload.len();
        // Entirely old? Pure duplicate.
        if end <= self.rcv_nxt {
            self.dup_bytes += payload.len();
            return false;
        }
        // Trim the already-received prefix.
        let mut seq = seq;
        if seq < self.rcv_nxt {
            let trim = self.rcv_nxt - seq;
            self.dup_bytes += trim;
            payload.advance(trim);
            seq = self.rcv_nxt;
        }
        // The common case by far: the next in-order segment with nothing
        // parked. What follows would insert it into `ooo` and take it
        // straight back out.
        if self.ooo.is_empty() && seq == self.rcv_nxt {
            self.rcv_nxt += payload.len();
            self.assembled.append(payload);
            return true;
        }
        // Trim against overlapping out-of-order holdings (exact duplicates
        // of retransmitted segments are the common case).
        if let Some((&exist_seq, exist)) = self.ooo.range(..=seq).next_back() {
            let exist_end = exist_seq + exist.len();
            if exist_end >= seq + payload.len() {
                self.dup_bytes += payload.len();
                return false; // fully contained in an existing segment
            }
            if exist_end > seq {
                let trim = exist_end - seq;
                self.dup_bytes += trim;
                payload.advance(trim);
                seq = exist_end;
            }
        }
        // Trim the tail against the next segment above us.
        if let Some((&above_seq, _)) = self.ooo.range(seq..).next() {
            let our_end = seq + payload.len();
            if above_seq < our_end {
                let keep = above_seq - seq;
                self.dup_bytes += payload.len() - keep;
                payload.truncate(keep);
            }
        }
        if payload.is_empty() {
            return false;
        }
        self.ooo.insert(seq, payload);
        // Advance rcv_nxt through any now-contiguous run.
        let mut advanced = false;
        while let Some(entry) = self.ooo.remove(&self.rcv_nxt) {
            self.rcv_nxt += entry.len();
            self.assembled.append(entry);
            advanced = true;
        }
        advanced
    }

    /// Read everything assembled so far as one rope (chunk handoff, no
    /// coalescing copy), or `None` when nothing is pending.
    pub fn read(&mut self) -> Option<Payload> {
        if self.assembled.is_empty() {
            return None;
        }
        Some(self.assembled.take())
    }

    /// In-order bytes available to read.
    pub fn readable(&self) -> u64 {
        self.assembled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_bytes::testsupport::bytes_of;

    fn payload_of(n: usize, fill: u8) -> Payload {
        Payload::real(bytes_of(n, fill))
    }

    #[test]
    fn send_buffer_fifo_and_len() {
        let mut b = SendBuffer::new();
        b.write(Payload::from("hello "));
        b.write(Payload::from("world"));
        assert_eq!(b.len(), 11);
        assert_eq!(b.pull(6).to_vec(), b"hello ");
        assert_eq!(b.pull(100).to_vec(), b"world");
        assert!(b.is_empty());
        assert!(b.pull(5).is_empty());
    }

    #[test]
    fn send_buffer_pull_crosses_chunks_without_copying() {
        let mut b = SendBuffer::new();
        b.write(Payload::from("ab"));
        b.write(Payload::from("cd"));
        b.write(Payload::from("ef"));
        let out = b.pull(5);
        assert_eq!(out.to_vec(), b"abcde");
        assert_eq!(b.len(), 1);
        assert_eq!(b.pull(1).to_vec(), b"f");
    }

    #[test]
    fn send_buffer_ignores_empty_writes() {
        let mut b = SendBuffer::new();
        b.write(Payload::new());
        assert!(b.is_empty());
    }

    #[test]
    fn send_buffer_synthetic_stays_synthetic() {
        let mut b = SendBuffer::new();
        b.write(Payload::synthetic(3000));
        let seg = b.pull(1460);
        assert_eq!(seg.len(), 1460);
        assert_eq!(seg.chunk_count(), 1, "no materialization on pull");
        assert_eq!(b.len(), 1540);
    }

    #[test]
    fn recv_in_order() {
        let mut r = RecvBuffer::new(0, 1024);
        assert!(r.ingest(0, payload_of(10, b'a')));
        assert_eq!(r.rcv_nxt(), 10);
        assert_eq!(r.readable(), 10);
        assert_eq!(r.read().unwrap().len(), 10);
        assert_eq!(r.readable(), 0);
    }

    #[test]
    fn recv_out_of_order_reassembles() {
        let mut r = RecvBuffer::new(0, 1024);
        assert!(
            !r.ingest(10, payload_of(10, b'b')),
            "hole: nothing advances"
        );
        assert!(r.has_ooo());
        assert_eq!(r.rcv_nxt(), 0);
        assert!(r.ingest(0, payload_of(10, b'a')), "hole filled");
        assert_eq!(r.rcv_nxt(), 20);
        assert!(!r.has_ooo());
        assert_eq!(r.readable(), 20);
    }

    #[test]
    fn recv_pure_duplicate_counts_dup_bytes() {
        let mut r = RecvBuffer::new(0, 1024);
        r.ingest(0, payload_of(10, b'a'));
        assert!(!r.ingest(0, payload_of(10, b'a')), "full duplicate");
        assert_eq!(r.dup_bytes(), 10);
        assert_eq!(r.rcv_nxt(), 10);
    }

    #[test]
    fn recv_partial_overlap_trims_prefix() {
        let mut r = RecvBuffer::new(0, 1024);
        r.ingest(0, payload_of(10, b'a'));
        // Bytes 5..15: first 5 are duplicates.
        assert!(r.ingest(5, payload_of(10, b'b')));
        assert_eq!(r.rcv_nxt(), 15);
        assert_eq!(r.dup_bytes(), 5);
    }

    #[test]
    fn recv_duplicate_of_parked_ooo_segment() {
        let mut r = RecvBuffer::new(0, 1024);
        r.ingest(10, payload_of(10, b'b'));
        assert!(
            !r.ingest(10, payload_of(10, b'b')),
            "duplicate of parked segment"
        );
        assert_eq!(r.dup_bytes(), 10);
        r.ingest(0, payload_of(10, b'a'));
        assert_eq!(r.rcv_nxt(), 20, "stream assembles exactly once");
        let total: u64 = std::iter::from_fn(|| r.read()).map(|b| b.len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn recv_overlap_with_segment_above() {
        let mut r = RecvBuffer::new(0, 1024);
        r.ingest(10, payload_of(10, b'c')); // [10, 20)
        r.ingest(5, payload_of(10, b'b')); // [5, 15) → keep [5, 10)
        assert_eq!(r.dup_bytes(), 5);
        r.ingest(0, payload_of(5, b'a')); // [0, 5)
        assert_eq!(r.rcv_nxt(), 20);
    }

    #[test]
    fn window_shrinks_with_unread_data() {
        let mut r = RecvBuffer::new(0, 100);
        assert_eq!(r.window(), 100);
        r.ingest(0, payload_of(30, b'a'));
        assert_eq!(r.window(), 70);
        r.ingest(50, payload_of(20, b'c'));
        assert_eq!(r.window(), 50, "ooo data also occupies the buffer");
        r.read();
        assert_eq!(r.window(), 80);
    }

    #[test]
    fn empty_payload_is_noop() {
        let mut r = RecvBuffer::new(0, 100);
        assert!(!r.ingest(0, Payload::new()));
        assert_eq!(r.rcv_nxt(), 0);
    }

    #[test]
    fn nonzero_initial_sequence() {
        let mut r = RecvBuffer::new(1000, 1024);
        assert!(r.ingest(1000, payload_of(10, b'x')));
        assert_eq!(r.rcv_nxt(), 1010);
        assert!(
            !r.ingest(500, payload_of(10, b'y')),
            "ancient data is a duplicate"
        );
    }

    /// Satellite regression: the application-visible byte stream is the
    /// same whether data arrived as one contiguous segment or as many
    /// small (even reordered) ones — reads differ only in chunking.
    #[test]
    fn chunked_and_contiguous_delivery_read_identically() {
        let mut stream = Payload::new();
        stream.push_bytes(bytes_of(40, b'h'));
        stream.push_synthetic(500);
        stream.push_bytes(bytes_of(7, b't'));

        // Contiguous: one segment carrying the whole stream.
        let mut contiguous = RecvBuffer::new(0, 4096);
        contiguous.ingest(0, stream.clone());
        let got_contiguous = contiguous.read().unwrap();

        // Chunked: odd-sized segments delivered back to front.
        let mut chunked = RecvBuffer::new(0, 4096);
        let sizes = [13u64, 64, 200, 1, 150, 119];
        let mut segs = Vec::new();
        let mut rest = stream.clone();
        let mut seq = 0u64;
        for s in sizes {
            let part = rest.split_to(s.min(rest.len()));
            let plen = part.len();
            segs.push((seq, part));
            seq += plen;
        }
        segs.push((seq, rest));
        for (seq, part) in segs.into_iter().rev() {
            chunked.ingest(seq, part);
        }
        let got_chunked = chunked.read().unwrap();

        assert_eq!(got_contiguous, stream);
        assert_eq!(got_chunked, stream);
        assert_eq!(got_chunked, got_contiguous);
    }
}
