//! Property test pitting the slab-backed [`EventQueue`] against the
//! original `BinaryHeap + HashMap` lazy-cancellation implementation as
//! an oracle: any interleaving of schedule/cancel/pop must produce the
//! identical `(time, event)` sequence — including pushes onto the FIFO
//! lanes (a plain `schedule` to the oracle) and in-place `reschedule`
//! (`cancel` + `schedule` to the oracle). Same-instant FIFO order — part
//! of the determinism contract every golden artifact depends on — is
//! pinned by generating many same-time schedules (delta is drawn from
//! 0..4 ms so collisions are the common case, not the corner case).

use proptest::prelude::*;
use spdyier_sim::{EventQueue, SimDuration, SimTime, LANES};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// The pre-slab queue, verbatim in behaviour: a min-heap of
/// `(time, seq)` entries plus a `seq -> event` map, with cancelled
/// entries skipped lazily at the head.
struct OracleQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    live: HashMap<u64, E>,
    next_seq: u64,
}

impl<E> OracleQueue<E> {
    fn new() -> Self {
        OracleQueue {
            heap: BinaryHeap::new(),
            live: HashMap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq)));
        self.live.insert(seq, event);
        seq
    }

    fn cancel(&mut self, seq: u64) -> Option<E> {
        self.live.remove(&seq)
    }

    fn is_pending(&self, seq: u64) -> bool {
        self.live.contains_key(&seq)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|Reverse((t, _))| *t)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let Reverse((time, seq)) = self.heap.pop()?;
        let event = self.live.remove(&seq).expect("head is live");
        Some((time, event))
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn skip_cancelled(&mut self) {
        while let Some(Reverse((_, seq))) = self.heap.peek() {
            if self.live.contains_key(seq) {
                break;
            }
            self.heap.pop();
        }
    }
}

// Ops are drawn as `(kind, delta, nth)` tuples (the vendored proptest
// stub has no `prop_oneof`):
//   0..4   schedule at `now + delta` ms
//   4..7   schedule_fifo on lane `nth % LANES`, no earlier than that
//          lane's newest (the monotone stream a link produces)
//   7      schedule_fifo at `now + delta` whatever the lane holds
//          (deliberately non-monotone: exercises the heap fallback)
//   8..10  cancel the `nth` issued handle
//   10..12 reschedule the `nth` issued handle to `now + delta` — pending,
//          fired, cancelled and recycled-slot handles alike, since the
//          book keeps every handle ever issued
//   12..15 pop
//   15     peek_time
// The oracle knows neither lanes nor in-place moves: a lane push is a
// plain `schedule`, a reschedule is `cancel` + `schedule`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_queue_matches_heap_map_oracle(
        ops in prop::collection::vec((0u8..16, 0u64..4, 0usize..64), 1..200)
    ) {
        let mut slab: EventQueue<u32> = EventQueue::new();
        let mut oracle: OracleQueue<u32> = OracleQueue::new();
        // Parallel id books: the nth schedule's handle in each world.
        let mut slab_ids = Vec::new();
        let mut oracle_ids = Vec::new();
        let mut lane_newest = [SimTime::ZERO; LANES];
        // Most handles ever pending at once: with the fallbacks, the only
        // events that may occupy a slab slot.
        let mut peak_pending = 0;
        let mut now = SimTime::ZERO;
        let mut payload = 0u32;

        for (kind, delta_ms, nth) in ops {
            let at = now + SimDuration::from_millis(delta_ms);
            match kind {
                0..=3 => {
                    slab_ids.push(slab.schedule(at, payload));
                    oracle_ids.push(oracle.schedule(at, payload));
                    payload += 1;
                }
                4..=7 => {
                    let lane = nth % LANES;
                    let at = if kind == 7 { at } else { at.max(lane_newest[lane]) };
                    let fallbacks = slab.fifo_fallbacks();
                    slab.schedule_fifo(lane, at, payload);
                    oracle.schedule(at, payload);
                    payload += 1;
                    prop_assert_eq!(
                        slab.fifo_fallbacks() - fallbacks,
                        u64::from(at < lane_newest[lane]),
                        "fallback taken iff the push is earlier than the lane's newest"
                    );
                    if at >= lane_newest[lane] {
                        lane_newest[lane] = at;
                    }
                }
                8..=9 => {
                    if slab_ids.is_empty() {
                        continue;
                    }
                    let nth = nth % slab_ids.len();
                    let a = slab.cancel(slab_ids[nth]);
                    let b = oracle.cancel(oracle_ids[nth]);
                    prop_assert_eq!(a, b, "cancel({}) diverged", nth);
                }
                10..=11 => {
                    if slab_ids.is_empty() {
                        continue;
                    }
                    let nth = nth % slab_ids.len();
                    let moved = slab.reschedule(slab_ids[nth], at);
                    let event = oracle.cancel(oracle_ids[nth]);
                    prop_assert_eq!(moved, event.is_some(), "reschedule({}) diverged", nth);
                    if let Some(event) = event {
                        oracle_ids[nth] = oracle.schedule(at, event);
                    }
                }
                12..=14 => {
                    let a = slab.pop();
                    let b = oracle.pop();
                    prop_assert_eq!(a, b, "pop diverged");
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
                _ => {
                    prop_assert_eq!(slab.peek_time(), oracle.peek_time());
                }
            }
            prop_assert_eq!(slab.len(), oracle.len());
            prop_assert_eq!(slab.is_empty(), oracle.len() == 0);
            let mut pending = 0;
            for (s, o) in slab_ids.iter().zip(&oracle_ids) {
                prop_assert_eq!(slab.is_pending(*s), oracle.is_pending(*o));
                pending += usize::from(slab.is_pending(*s));
            }
            peak_pending = peak_pending.max(pending);
            prop_assert!(
                slab.slot_capacity() as u64 <= peak_pending as u64 + slab.fifo_fallbacks(),
                "slab holds {} slots for at most {} handles + {} fallbacks",
                slab.slot_capacity(), peak_pending, slab.fifo_fallbacks()
            );
        }

        // Drain both queues to the end: the tails must agree too.
        loop {
            let a = slab.pop();
            let b = oracle.pop();
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    /// Under churn the slab never outgrows peak liveness, while the
    /// oracle's heap retains every cancelled entry below the head.
    /// Re-arming in place and cancel-then-schedule are interchangeable.
    #[test]
    fn slab_capacity_tracks_liveness_not_churn(rounds in 100usize..2000) {
        let mut q: EventQueue<u8> = EventQueue::new();
        let mut id = q.schedule(SimTime::from_millis(10), 0);
        for r in 0..rounds {
            let at = SimTime::from_millis(10 + (r as u64 % 5));
            if r % 3 == 0 {
                prop_assert!(q.reschedule(id, at));
            } else {
                prop_assert!(q.cancel(id).is_some());
                id = q.schedule(at, 0);
            }
        }
        prop_assert_eq!(q.len(), 1);
        prop_assert_eq!(q.slot_capacity(), 1);
    }
}
