//! Property test pitting [`RecvBuffer`] against a reference that has no
//! in-order fast path: every segment, however it arrives, is trimmed
//! against the out-of-order map, inserted into it, and drained from it.
//! The two must agree on `rcv_nxt`, `dup_bytes`, `window`, `has_ooo`,
//! `readable` and the bytes read after every step of one segment
//! sequence — in-order runs, holes, overlaps, duplicates.

use proptest::prelude::*;
use spdyier_bytes::Payload;
use spdyier_tcp::buffer::RecvBuffer;
use std::collections::BTreeMap;

/// `RecvBuffer` as it was before the fast path, kept here as the oracle.
struct ReferenceRecvBuffer {
    rcv_nxt: u64,
    ooo: BTreeMap<u64, Payload>,
    assembled: Payload,
    capacity: u64,
    dup_bytes: u64,
}

impl ReferenceRecvBuffer {
    fn new(rcv_nxt: u64, capacity: u64) -> Self {
        ReferenceRecvBuffer {
            rcv_nxt,
            ooo: BTreeMap::new(),
            assembled: Payload::new(),
            capacity,
            dup_bytes: 0,
        }
    }

    fn window(&self) -> u64 {
        let buffered = self.assembled.len() + self.ooo.values().map(|b| b.len()).sum::<u64>();
        self.capacity.saturating_sub(buffered)
    }

    fn ingest(&mut self, seq: u64, mut payload: Payload) -> bool {
        if payload.is_empty() {
            return false;
        }
        let end = seq + payload.len();
        if end <= self.rcv_nxt {
            self.dup_bytes += payload.len();
            return false;
        }
        let mut seq = seq;
        if seq < self.rcv_nxt {
            let trim = self.rcv_nxt - seq;
            self.dup_bytes += trim;
            payload.advance(trim);
            seq = self.rcv_nxt;
        }
        if let Some((&exist_seq, exist)) = self.ooo.range(..=seq).next_back() {
            let exist_end = exist_seq + exist.len();
            if exist_end >= seq + payload.len() {
                self.dup_bytes += payload.len();
                return false;
            }
            if exist_end > seq {
                let trim = exist_end - seq;
                self.dup_bytes += trim;
                payload.advance(trim);
                seq = exist_end;
            }
        }
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
        let mut advanced = false;
        while let Some(entry) = self.ooo.remove(&self.rcv_nxt) {
            self.rcv_nxt += entry.len();
            self.assembled.append(entry);
            advanced = true;
        }
        advanced
    }

    fn read(&mut self) -> Option<Payload> {
        if self.assembled.is_empty() {
            return None;
        }
        Some(self.assembled.take())
    }
}

/// The stream's bytes `[seq, seq + len)`: content is a function of the
/// offset, so any two segments agree wherever they overlap.
fn segment(seq: u64, len: u64) -> Payload {
    Payload::from(
        (seq..seq + len)
            .map(|i| (i.wrapping_mul(31) % 251) as u8)
            .collect::<Vec<u8>>(),
    )
}

const ISN: u64 = 1000;

// Steps are drawn as `(kind, len, back)`; `cursor` is the highest
// sequence sent so far:
//   0..5  the next segment at `cursor` (an in-order run while no hole is open)
//   5     skip `back` bytes, then send: opens a hole
//   6     start `back` bytes before `cursor`: overlaps what was sent
//   7     resend an earlier segment verbatim
//   8     send at `rcv_nxt`: fills (part of) the lowest hole
//   9     read
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fast_path_matches_the_always_ooo_reference(
        steps in prop::collection::vec((0u8..10, 1u64..1461, 0u64..3000), 1..120)
    ) {
        let mut fast = RecvBuffer::new(ISN, 64 * 1024);
        let mut reference = ReferenceRecvBuffer::new(ISN, 64 * 1024);
        let mut cursor = ISN;
        let mut sent: Vec<(u64, u64)> = Vec::new();
        let mut stream = Vec::new();

        for (kind, len, back) in steps {
            let send = match kind {
                0..=4 => Some((cursor, len)),
                5 => Some((cursor + back, len)),
                6 => Some((cursor.saturating_sub(back), len)),
                7 => sent.get(back as usize % sent.len().max(1)).copied(),
                8 => Some((reference.rcv_nxt, len)),
                _ => None,
            };
            if let Some((seq, len)) = send {
                let a = fast.ingest(seq, segment(seq, len));
                let b = reference.ingest(seq, segment(seq, len));
                prop_assert_eq!(a, b, "ingest({}, {}) advanced differently", seq, len);
                sent.push((seq, len));
                cursor = cursor.max(seq + len);
            } else {
                let a = fast.read().map(|p| p.to_vec());
                let b = reference.read().map(|p| p.to_vec());
                prop_assert_eq!(&a, &b, "read diverged");
                stream.extend(a.unwrap_or_default());
            }
            prop_assert_eq!(fast.rcv_nxt(), reference.rcv_nxt);
            prop_assert_eq!(fast.dup_bytes(), reference.dup_bytes);
            prop_assert_eq!(fast.window(), reference.window());
            prop_assert_eq!(fast.has_ooo(), !reference.ooo.is_empty());
            prop_assert_eq!(fast.readable(), reference.assembled.len());
        }

        // What is left to read agrees too, and everything read is the
        // stream itself, each byte exactly once.
        let a = fast.read().unwrap_or_default().to_vec();
        let b = reference.read().unwrap_or_default().to_vec();
        prop_assert_eq!(&a, &b);
        stream.extend(a);
        prop_assert_eq!(stream, segment(ISN, fast.rcv_nxt() - ISN).to_vec());
    }
}
