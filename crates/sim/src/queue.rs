//! The discrete-event queue.
//!
//! A priority queue of `(SimTime, E)` pairs with stable FIFO ordering for
//! events scheduled at the same instant, plus O(log n) *in-place*
//! cancellation and re-arming — the combination every protocol timer
//! implementation needs. Cancellable events live in a free-list slab and
//! the heap stores `(time, seq, slot)` keys with back-pointers, so a
//! connection that re-arms its RTO timer millions of times reuses the
//! same handful of slots instead of growing the heap without bound (the
//! failure mode of the earlier lazy-cancellation design, where a
//! cancelled entry was only reclaimed once it surfaced at the head).
//!
//! Beside the heap sit [`LANES`] FIFO lanes for event sources that are
//! already sorted — a link delivers in order, so its deliveries need a
//! push and a pop, not two sifts. [`EventQueue::pop`] merges the heap top
//! with the lane fronts by `(time, seq)`, so the global order is the one
//! a single heap would produce.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// The handle is a generation-tagged slot index: the low 32 bits name a
/// slab slot, the high 32 bits carry the generation the slot had when
/// the event was scheduled. Slots are recycled, generations are not —
/// a stale handle (its event fired or was cancelled, and the slot has
/// since been reused) fails the generation check and behaves exactly
/// like a cancelled id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(slot: u32, gen: u32) -> EventId {
        EventId((u64::from(gen) << 32) | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Number of FIFO lanes beside the heap (see
/// [`EventQueue::schedule_fifo`]): one per link direction of the testbed
/// — access up/down, wired up/down.
pub const LANES: usize = 4;

/// Free-list terminator for [`Slot::pos_or_next`].
const NIL: u32 = u32::MAX;

/// One slab slot. Live slots hold the event plus its heap position;
/// free slots chain into the free list through `pos_or_next`.
struct Slot<E> {
    /// Bumped every time the slot is released, invalidating old handles.
    gen: u32,
    /// Live: index of this slot's entry in `heap`. Free: next free slot
    /// (or [`NIL`]).
    pos_or_next: u32,
    /// `Some` while live, `None` while free.
    event: Option<E>,
}

/// One heap entry. The ordering key travels with the entry so a sift
/// compares within the heap array; the slab is touched only to update
/// the back-pointer of an entry that moves.
#[derive(Clone, Copy)]
struct HeapEntry {
    /// Scheduled instant.
    time: SimTime,
    /// Insertion order, the same-instant FIFO tiebreaker.
    seq: u64,
    /// The slab slot holding the event.
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A deterministic discrete-event queue.
///
/// Events of type `E` are scheduled for a [`SimTime`] and popped in
/// chronological order; events scheduled at the same instant pop in the
/// order they were scheduled. Scheduling returns an [`EventId`] that can
/// cancel or re-arm the event later; cancellation removes the heap entry
/// in place and returns the slot to the free list, so internal capacity
/// tracks the *live* event count, not the schedule/cancel churn.
pub struct EventQueue<E> {
    /// Slot slab; never shrinks, but never grows past peak liveness.
    slots: Vec<Slot<E>>,
    /// Head of the free-slot list ([`NIL`] when all slots are live).
    free_head: u32,
    /// Min-heap ordered by `(time, seq)`.
    heap: Vec<HeapEntry>,
    /// Pre-sorted event streams, each ascending in `(time, seq)`.
    lanes: [VecDeque<(SimTime, u64, E)>; LANES],
    /// [`EventQueue::schedule_fifo`] calls that went to the heap instead.
    fifo_fallbacks: u64,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free_head: NIL,
            heap: Vec::new(),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            fifo_fallbacks: 0,
            next_seq: 0,
        }
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` to fire at `time`. Returns a handle for cancellation.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.take_seq();
        let pos = self.heap.len() as u32;
        let slot = if self.free_head != NIL {
            let slot = self.free_head as usize;
            let s = &mut self.slots[slot];
            self.free_head = s.pos_or_next;
            s.pos_or_next = pos;
            s.event = Some(event);
            slot
        } else {
            assert!(self.slots.len() < NIL as usize, "event slab exhausted");
            self.slots.push(Slot {
                gen: 0,
                pos_or_next: pos,
                event: Some(event),
            });
            self.slots.len() - 1
        };
        self.heap.push(HeapEntry {
            time,
            seq,
            slot: slot as u32,
        });
        self.sift_up(pos as usize);
        EventId::new(slot as u32, self.slots[slot].gen)
    }

    /// Schedule `event` on FIFO lane `lane` (`< LANES`), for a source
    /// whose events are already in time order: a push and a pop instead
    /// of two heap sifts. There is no handle — lane events cannot be
    /// cancelled.
    ///
    /// The lane is a hint, not a contract: an event earlier than the
    /// lane's newest goes to the heap instead (counted by
    /// [`EventQueue::fifo_fallbacks`]), so pop order is `(time, schedule
    /// order)` whatever the caller does.
    pub fn schedule_fifo(&mut self, lane: usize, time: SimTime, event: E) {
        if self.lanes[lane].back().is_some_and(|back| time < back.0) {
            self.fifo_fallbacks += 1;
            self.schedule(time, event);
            return;
        }
        let seq = self.take_seq();
        self.lanes[lane].push_back((time, seq, event));
    }

    /// How many [`EventQueue::schedule_fifo`] calls arrived out of order
    /// and were routed through the heap.
    pub fn fifo_fallbacks(&self) -> u64 {
        self.fifo_fallbacks
    }

    /// Cancel a previously scheduled event. Returns the event if it had not
    /// yet fired (or been cancelled).
    pub fn cancel(&mut self, id: EventId) -> Option<E> {
        if !self.is_pending(id) {
            return None;
        }
        let slot = id.slot();
        let pos = self.slots[slot].pos_or_next as usize;
        self.remove_heap_entry(pos);
        Some(self.release(slot))
    }

    /// Move a pending event to `time`, keeping its handle. Returns `false`
    /// (and does nothing) if the event already fired or was cancelled.
    ///
    /// The event is re-ranked as if newly scheduled: among events at the
    /// same instant it now pops last, exactly the order `cancel` followed
    /// by `schedule` produces — even when `time` is its current deadline.
    pub fn reschedule(&mut self, id: EventId, time: SimTime) -> bool {
        if !self.is_pending(id) {
            return false;
        }
        let pos = self.slots[id.slot()].pos_or_next as usize;
        let seq = self.take_seq();
        let entry = &mut self.heap[pos];
        entry.time = time;
        entry.seq = seq;
        if !self.sift_up(pos) {
            self.sift_down(pos);
        }
        true
    }

    /// True if the event is still pending.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot())
            .is_some_and(|s| s.gen == id.gen() && s.event.is_some())
    }

    /// `(time, seq)` of the earliest event and where it sits: `None` for
    /// the heap top, `Some(lane)` for a lane front.
    fn earliest(&self) -> Option<((SimTime, u64), Option<usize>)> {
        let mut best = self.heap.first().map(|e| (e.key(), None));
        for (lane, events) in self.lanes.iter().enumerate() {
            if let Some(front) = events.front() {
                let key = (front.0, front.1);
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, Some(lane)));
                }
            }
        }
        best
    }

    /// The time of the next live event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.earliest().map(|((time, _), _)| time)
    }

    /// Pop the next live event in chronological (then FIFO) order.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ((time, _), source) = self.earliest()?;
        let event = match source {
            Some(lane) => self.lanes[lane].pop_front().expect("front was peeked").2,
            None => {
                let slot = self.heap[0].slot as usize;
                self.remove_heap_entry(0);
                self.release(slot)
            }
        };
        Some((time, event))
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// How many slab slots the queue has ever allocated. Tracks *peak*
    /// concurrent liveness of heap events, not schedule/cancel churn —
    /// the regression surface for the unbounded-growth bug the slab
    /// design fixes. Lane events never take a slot.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Take the event out of `slot` and push the slot onto the free list.
    fn release(&mut self, slot: usize) -> E {
        let s = &mut self.slots[slot];
        let event = s.event.take().expect("releasing a free slot");
        s.gen = s.gen.wrapping_add(1);
        s.pos_or_next = self.free_head;
        self.free_head = slot as u32;
        event
    }

    /// Remove the heap entry at `pos`: swap-with-last, then restore the
    /// heap property from `pos` in whichever direction is violated.
    fn remove_heap_entry(&mut self, pos: usize) {
        self.heap.swap_remove(pos);
        if pos < self.heap.len() {
            self.slots[self.heap[pos].slot as usize].pos_or_next = pos as u32;
            // The moved entry may be out of order either way relative to
            // its new neighbourhood; only one of these will act.
            if !self.sift_up(pos) {
                self.sift_down(pos);
            }
        }
    }

    /// Write `entry` at `pos` and point its slot back at it.
    #[inline]
    fn place(&mut self, pos: usize, entry: HeapEntry) {
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].pos_or_next = pos as u32;
    }

    /// Bubble the entry at `pos` towards the root. Returns whether it moved.
    fn sift_up(&mut self, mut pos: usize) -> bool {
        let entry = self.heap[pos];
        let start = pos;
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if entry.key() >= above.key() {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        if pos != start {
            self.place(pos, entry);
        }
        pos != start
    }

    /// Push the entry at `pos` towards the leaves.
    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        let start = pos;
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut child = left;
            if right < len && self.heap[right].key() < self.heap[left].key() {
                child = right;
            }
            let below = self.heap[child];
            if entry.key() <= below.key() {
                break;
            }
            self.place(pos, below);
            pos = child;
        }
        if pos != start {
            self.place(pos, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        let b = q.schedule(t(2), "b");
        assert!(q.is_pending(a));
        assert_eq!(q.cancel(a), Some("a"));
        assert!(!q.is_pending(a));
        assert_eq!(q.cancel(a), None, "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        let _ = b;
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn empty_and_len_track_live_events() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        let id = q.schedule(t(1), 7);
        assert_eq!(q.len(), 1);
        q.cancel(id);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(5), 2);
        q.schedule(t(7), 3);
        assert_eq!(q.pop(), Some((t(5), 2)));
        q.schedule(t(6), 4);
        assert_eq!(q.pop(), Some((t(6), 4)));
        assert_eq!(q.pop(), Some((t(7), 3)));
    }

    #[test]
    fn stale_handle_fails_generation_check() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.cancel(a), Some("a"));
        // The freed slot is reused immediately; the old handle must not
        // alias the new occupant.
        let b = q.schedule(t(2), "b");
        assert!(!q.is_pending(a));
        assert!(q.is_pending(b));
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn popped_handle_goes_stale() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.is_pending(a));
        assert_eq!(q.cancel(a), None);
    }

    #[test]
    fn cancel_middle_preserves_order() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..64u32).map(|i| q.schedule(t(u64::from(i)), i)).collect();
        // Cancel every third event, including interior heap nodes.
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 1 {
                assert_eq!(q.cancel(*id), Some(i as u32));
            }
        }
        let mut last = None;
        while let Some((time, v)) = q.pop() {
            assert_ne!(v % 3, 1, "cancelled event fired");
            assert!(last.is_none_or(|l| l <= time), "pops out of order");
            last = Some(time);
        }
    }

    #[test]
    fn same_instant_is_fifo_across_lanes_and_heap() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 0);
        q.schedule_fifo(0, t(5), 1);
        q.schedule_fifo(3, t(5), 2);
        q.schedule(t(5), 3);
        q.schedule_fifo(0, t(5), 4);
        q.schedule_fifo(1, t(4), 5);
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(t(4)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, [5, 0, 1, 2, 3, 4]);
        assert!(q.is_empty());
        assert_eq!(q.fifo_fallbacks(), 0);
        assert_eq!(q.slot_capacity(), 2, "lane events take no slab slot");
    }

    #[test]
    fn non_monotone_lane_push_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_fifo(2, t(10), "late");
        q.schedule_fifo(2, t(3), "early");
        q.schedule_fifo(2, t(10), "late too");
        assert_eq!(q.fifo_fallbacks(), 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(q.pop(), Some((t(3), "early")));
        assert_eq!(q.pop(), Some((t(10), "late")));
        assert_eq!(q.pop(), Some((t(10), "late too")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn reschedule_moves_in_place_and_re_ranks() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(5), "a");
        q.schedule(t(5), "b");
        q.schedule(t(9), "c");
        // Same deadline, fresh rank: "a" now pops after "b".
        assert!(q.reschedule(a, t(5)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.slot_capacity(), 3);
        assert_eq!(q.pop(), Some((t(5), "b")));
        // Later, then earlier than everything else pending.
        assert!(q.reschedule(a, t(20)));
        assert_eq!(q.peek_time(), Some(t(9)));
        assert!(q.reschedule(a, t(1)));
        assert!(q.is_pending(a));
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(9), "c")));
    }

    #[test]
    fn reschedule_of_a_stale_id_disturbs_nothing() {
        let mut q = EventQueue::new();
        let fired = q.schedule(t(1), "fired");
        let cancelled = q.schedule(t(2), "cancelled");
        assert_eq!(q.pop(), Some((t(1), "fired")));
        assert_eq!(q.cancel(cancelled), Some("cancelled"));
        // Both slots are recycled by newer events.
        let x = q.schedule(t(7), "x");
        let y = q.schedule(t(8), "y");
        assert!(!q.reschedule(fired, t(100)));
        assert!(!q.reschedule(cancelled, t(0)));
        assert!(q.is_pending(x) && q.is_pending(y));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(7), "x")));
        assert_eq!(q.pop(), Some((t(8), "y")));
    }

    /// Regression: the pre-slab queue leaked one heap entry per
    /// cancel/reschedule round until the entry drifted to the head. A
    /// timer that churns (the RTO pattern) must not grow the queue.
    #[test]
    fn cancel_reschedule_churn_keeps_capacity_bounded() {
        let mut q = EventQueue::new();
        // A backdrop of live timers so the churned entry has interior
        // heap positions to land in.
        let backdrop: Vec<_> = (0..16u64).map(|i| q.schedule(t(1000 + i), 0u64)).collect();
        let mut rto = q.schedule(t(500), 1);
        for round in 0..100_000u64 {
            assert_eq!(q.cancel(rto), Some(1));
            rto = q.schedule(t(500 + round % 7), 1);
        }
        assert_eq!(q.len(), 17);
        assert!(
            q.slot_capacity() <= 18,
            "capacity {} grew with churn, not liveness",
            q.slot_capacity()
        );
        drop(backdrop);
    }
}
