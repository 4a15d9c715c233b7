//! The page-load state machine.
//!
//! Drives one page through discovery → request → download → evaluation,
//! with the two browser behaviours §5.2 shows to matter:
//!
//! 1. an object becomes *requestable* only after the object referencing it
//!    has been downloaded **and evaluated**, and
//! 2. evaluation (HTML parse, script execution) is **sequential** — one
//!    evaluator, a queue — since scripts can mutate the page.
//!
//! The machine is sans-IO: the protocol driver pops ready objects, issues
//! requests its own way (6-connection HTTP pool or one SPDY session), and
//! reports the transfer boundaries back.

use crate::timing::ObjectTiming;
use spdyier_sim::SimTime;
use spdyier_workload::{ObjectId, WebPage};
use std::collections::VecDeque;
use std::sync::Arc;

/// Lifecycle phase of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Referenced by an object that has not been evaluated yet.
    Hidden,
    /// Known to the browser, not yet requested.
    Ready,
    /// Request issued, transfer in progress.
    InFlight,
    /// Fully downloaded (and queued for / undergoing evaluation if it is
    /// an evaluated kind).
    Downloaded,
    /// Downloaded and (if applicable) evaluated.
    Done,
}

/// One page load in progress.
///
/// The page is held behind an [`Arc`] so the driver can share it with
/// its own per-visit state without cloning the object table, and the
/// per-object bookkeeping vectors can be recycled across visits via
/// [`PageLoad::reset`] — a sweep cell loads thousands of pages, and
/// re-allocating phase/timing tables per visit dominated the
/// control-plane allocation profile.
#[derive(Debug)]
pub struct PageLoad {
    page: Arc<WebPage>,
    start: SimTime,
    phases: Vec<Phase>,
    timings: Vec<ObjectTiming>,
    /// Objects discovered but not yet requested, in discovery order.
    ready: VecDeque<ObjectId>,
    /// Downloaded evaluated-kind objects awaiting the single evaluator.
    eval_queue: VecDeque<ObjectId>,
    /// `(object, finish_time)` of the evaluation in progress.
    evaluating: Option<(ObjectId, SimTime)>,
    onload: Option<SimTime>,
}

impl PageLoad {
    /// Begin loading `page` at `now`; the root document is immediately
    /// ready to request.
    pub fn new(page: impl Into<Arc<WebPage>>, now: SimTime) -> PageLoad {
        let page = page.into();
        let n = page.object_count();
        let mut load = PageLoad {
            page,
            start: now,
            phases: vec![Phase::Hidden; n],
            timings: vec![ObjectTiming::default(); n],
            ready: VecDeque::new(),
            eval_queue: VecDeque::new(),
            evaluating: None,
            onload: None,
        };
        load.discover(ObjectId(0), now);
        load
    }

    /// Rebind this load to a fresh `page` starting at `now`, reusing the
    /// already-allocated phase/timing/queue buffers. Equivalent to
    /// [`PageLoad::new`] in every observable way.
    pub fn reset(&mut self, page: impl Into<Arc<WebPage>>, now: SimTime) {
        self.page = page.into();
        let n = self.page.object_count();
        self.start = now;
        self.phases.clear();
        self.phases.resize(n, Phase::Hidden);
        self.timings.clear();
        self.timings.resize(n, ObjectTiming::default());
        self.ready.clear();
        self.eval_queue.clear();
        self.evaluating = None;
        self.onload = None;
        self.discover(ObjectId(0), now);
    }

    /// The page being loaded.
    pub fn page(&self) -> &WebPage {
        &self.page
    }

    /// Load start instant.
    pub fn start_time(&self) -> SimTime {
        self.start
    }

    /// Objects currently requestable, in discovery order.
    pub fn ready_objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.ready.iter().copied()
    }

    /// Number of requestable objects.
    pub fn ready_count(&self) -> usize {
        self.ready.len()
    }

    /// Phase of an object.
    pub fn phase(&self, id: ObjectId) -> Phase {
        self.phases[id.0 as usize]
    }

    /// Reserve a ready object for a fetcher without issuing its request
    /// yet (e.g. while a fresh connection completes its handshake). The
    /// object leaves the ready queue but stays in phase `Ready` so
    /// [`PageLoad::note_requested`] still applies when the request goes
    /// out.
    pub fn take_ready(&mut self, id: ObjectId) {
        self.ready.retain(|&r| r != id);
    }

    /// The driver issued the request for `id` at `now` (after any pool
    /// wait / handshake). Also records the send completion at the same
    /// instant unless [`PageLoad::note_sent`] refines it.
    pub fn note_requested(&mut self, id: ObjectId, now: SimTime) {
        let i = id.0 as usize;
        debug_assert_eq!(
            self.phases[i],
            Phase::Ready,
            "request of non-ready object {id:?}"
        );
        self.phases[i] = Phase::InFlight;
        self.ready.retain(|&r| r != id);
        self.timings[i].requested = Some(now);
        self.timings[i].sent = Some(now);
    }

    /// Refine the instant the request was fully written to the transport.
    pub fn note_sent(&mut self, id: ObjectId, now: SimTime) {
        self.timings[id.0 as usize].sent = Some(now);
    }

    /// First response byte for `id` arrived.
    pub fn note_first_byte(&mut self, id: ObjectId, now: SimTime) {
        let t = &mut self.timings[id.0 as usize];
        if t.first_byte.is_none() {
            t.first_byte = Some(now);
        }
    }

    /// The object fully downloaded at `now`. Evaluated kinds enter the
    /// (sequential) evaluation queue; others are immediately done.
    pub fn note_complete(&mut self, id: ObjectId, now: SimTime) {
        let i = id.0 as usize;
        if self.phases[i] != Phase::InFlight {
            return; // duplicate completion
        }
        self.timings[i].complete = Some(now);
        if self.timings[i].first_byte.is_none() {
            self.timings[i].first_byte = Some(now);
        }
        if self.page.objects[i].kind.is_evaluated() {
            self.phases[i] = Phase::Downloaded;
            self.eval_queue.push_back(id);
            self.maybe_start_eval(now);
        } else {
            self.phases[i] = Phase::Done;
            self.maybe_onload(now);
        }
    }

    /// The next instant the evaluator needs a callback, if any.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.evaluating.map(|(_, finish)| finish)
    }

    /// Run the evaluator up to `now`. Returns objects newly discovered by
    /// completed evaluations.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<ObjectId> {
        let mut discovered = Vec::new();
        while let Some((id, finish)) = self.evaluating {
            if finish > now {
                break;
            }
            self.evaluating = None;
            self.phases[id.0 as usize] = Phase::Done;
            // Cheap handle clone so the child walk can run while
            // `discover` mutates the bookkeeping (no per-call id Vec).
            let page = Arc::clone(&self.page);
            for child in page.children_iter(id) {
                if self.phases[child.0 as usize] == Phase::Hidden {
                    self.discover(child, finish);
                    discovered.push(child);
                }
            }
            self.maybe_start_eval(finish);
            self.maybe_onload(finish);
        }
        discovered
    }

    /// True once every object is done and the evaluator is idle.
    pub fn is_complete(&self) -> bool {
        self.onload.is_some()
    }

    /// The onLoad instant, once fired.
    pub fn onload_time(&self) -> Option<SimTime> {
        self.onload
    }

    /// Per-object timing records (index = object id).
    pub fn timings(&self) -> &[ObjectTiming] {
        &self.timings
    }

    /// Objects still not `Done` (diagnostics for stalled loads).
    pub fn unfinished(&self) -> Vec<ObjectId> {
        self.phases
            .iter()
            .enumerate()
            .filter(|(_, &p)| p != Phase::Done)
            .map(|(i, _)| ObjectId(i as u32))
            .collect()
    }

    fn discover(&mut self, id: ObjectId, now: SimTime) {
        let i = id.0 as usize;
        self.phases[i] = Phase::Ready;
        self.timings[i].discovered = Some(now);
        self.ready.push_back(id);
    }

    fn maybe_start_eval(&mut self, now: SimTime) {
        if self.evaluating.is_none() {
            if let Some(id) = self.eval_queue.pop_front() {
                let eval = self.page.objects[id.0 as usize].eval_time;
                self.evaluating = Some((id, now + eval));
            }
        }
    }

    fn maybe_onload(&mut self, now: SimTime) {
        if self.onload.is_some() {
            return;
        }
        let all_done = self.phases.iter().all(|&p| p == Phase::Done);
        if all_done && self.evaluating.is_none() && self.eval_queue.is_empty() {
            self.onload = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_sim::{DetRng, SimDuration};
    use spdyier_workload::{synthesize, test_page, ObjectKind, SiteSpec};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Drive a load to completion with a fixed per-object fetch latency.
    fn drive(mut load: PageLoad, fetch_ms: u64) -> PageLoad {
        let mut now = load.start_time();
        let mut guard = 0;
        while !load.is_complete() {
            guard += 1;
            assert!(
                guard < 100_000,
                "load stuck; unfinished: {:?}",
                load.unfinished()
            );
            let ready: Vec<ObjectId> = load.ready_objects().collect();
            for id in ready {
                load.note_requested(id, now);
                load.note_first_byte(id, now + SimDuration::from_millis(fetch_ms / 2));
                load.note_complete(id, now + SimDuration::from_millis(fetch_ms));
            }
            now = match load.next_timer() {
                Some(timer) => timer.max(now + SimDuration::from_millis(fetch_ms)),
                None => now + SimDuration::from_millis(fetch_ms),
            };
            load.on_timer(now);
        }
        load
    }

    #[test]
    fn root_is_immediately_ready() {
        let page = test_page(5, 1000, true);
        let load = PageLoad::new(page, t(0));
        let ready: Vec<ObjectId> = load.ready_objects().collect();
        assert_eq!(ready, vec![ObjectId(0)]);
        assert_eq!(load.phase(ObjectId(0)), Phase::Ready);
        assert_eq!(load.phase(ObjectId(1)), Phase::Hidden);
    }

    #[test]
    fn images_appear_after_root_evaluation() {
        let page = test_page(3, 1000, true);
        let mut load = PageLoad::new(page, t(0));
        load.note_requested(ObjectId(0), t(10));
        load.note_first_byte(ObjectId(0), t(100));
        load.note_complete(ObjectId(0), t(150));
        // Root parse takes 20 ms → children hidden until t=170.
        assert_eq!(load.ready_count(), 0);
        let timer = load.next_timer().expect("evaluator running");
        assert_eq!(timer, t(170));
        let discovered = load.on_timer(timer);
        assert_eq!(discovered.len(), 3);
        assert_eq!(load.ready_count(), 3);
    }

    #[test]
    fn full_load_of_test_page() {
        let page = test_page(10, 1000, true);
        let load = drive(PageLoad::new(page, t(0)), 100);
        assert!(load.is_complete());
        let plt = load.onload_time().unwrap().saturating_since(t(0));
        // Root fetch (100) + parse (20) + images fetch (100) ≈ 220 ms.
        assert!(plt >= SimDuration::from_millis(200));
        assert!(plt < SimDuration::from_millis(400), "plt {plt}");
    }

    #[test]
    fn evaluation_is_sequential() {
        // Two scripts completing together evaluate one after the other.
        let spec = SiteSpec::by_index(14).unwrap(); // 94 JS/CSS objects
        let page = synthesize(spec, &mut DetRng::new(2));
        let scripts: Vec<ObjectId> = page
            .objects
            .iter()
            .filter(|o| o.kind == ObjectKind::Script && o.discovered_by == Some(ObjectId(0)))
            .map(|o| o.id)
            .take(2)
            .collect();
        assert!(scripts.len() == 2, "need two root-level scripts");
        let mut load = PageLoad::new(page.clone(), t(0));
        load.note_requested(ObjectId(0), t(0));
        load.note_complete(ObjectId(0), t(10));
        let root_done = load.next_timer().unwrap();
        load.on_timer(root_done);
        // Request and complete both scripts at the same instant.
        for &s in &scripts {
            load.note_requested(s, root_done);
        }
        for &s in &scripts {
            load.note_complete(s, root_done + SimDuration::from_millis(50));
        }
        let first_finish = load.next_timer().unwrap();
        load.on_timer(first_finish);
        let second_finish = load.next_timer().unwrap();
        assert!(
            second_finish > first_finish,
            "second script waits for the evaluator"
        );
    }

    #[test]
    fn stepped_discovery_on_synthesized_site() {
        // Deep pages discover objects in waves, not all at once (Fig. 6).
        let spec = SiteSpec::by_index(7).unwrap();
        let page = synthesize(spec, &mut DetRng::new(3));
        let mut load = PageLoad::new(page, t(0));
        load.note_requested(ObjectId(0), t(0));
        load.note_complete(ObjectId(0), t(100));
        let timer = load.next_timer().unwrap();
        let wave1 = load.on_timer(timer).len();
        let total = load.page().object_count();
        assert!(wave1 > 0);
        assert!(
            wave1 < total - 1,
            "not everything discovered at once: {wave1} of {total}"
        );
    }

    #[test]
    fn full_load_of_all_table1_sites() {
        for idx in 1..=20u32 {
            let spec = SiteSpec::by_index(idx).unwrap();
            let page = synthesize(spec, &mut DetRng::new(u64::from(idx)));
            let load = drive(PageLoad::new(page, t(0)), 50);
            assert!(load.is_complete(), "site {idx} completed");
            assert!(load.timings().iter().all(|t| t.complete.is_some()));
        }
    }

    #[test]
    fn timings_capture_all_boundaries() {
        let page = test_page(2, 500, true);
        let load = drive(PageLoad::new(page, t(0)), 80);
        for timing in load.timings() {
            assert!(timing.discovered.is_some());
            assert!(timing.requested.is_some());
            assert!(timing.first_byte.is_some());
            assert!(timing.complete.is_some());
            assert!(timing.init_time().is_some());
        }
    }

    #[test]
    fn duplicate_completion_is_ignored() {
        let page = test_page(1, 500, true);
        let mut load = PageLoad::new(page, t(0));
        load.note_requested(ObjectId(0), t(0));
        load.note_complete(ObjectId(0), t(10));
        load.note_complete(ObjectId(0), t(20)); // duplicate
        assert_eq!(load.timings()[0].complete, Some(t(10)));
    }

    #[test]
    fn reset_reuses_buffers_and_matches_fresh_load() {
        // A load recycled with `reset` must behave identically to a
        // freshly constructed one on a different page.
        let first = synthesize(SiteSpec::by_index(3).unwrap(), &mut DetRng::new(7));
        let second = synthesize(SiteSpec::by_index(9).unwrap(), &mut DetRng::new(8));
        let mut recycled = drive(PageLoad::new(first, t(0)), 60);
        assert!(recycled.is_complete());
        recycled.reset(second.clone(), t(5));
        let recycled = drive(recycled, 60);
        let fresh = drive(PageLoad::new(second, t(5)), 60);
        assert_eq!(recycled.start_time(), fresh.start_time());
        assert_eq!(recycled.onload_time(), fresh.onload_time());
        assert_eq!(recycled.timings(), fresh.timings());
    }

    #[test]
    fn onload_waits_for_final_evaluation() {
        let page = test_page(0, 500, true); // just the root
        let mut load = PageLoad::new(page, t(0));
        load.note_requested(ObjectId(0), t(0));
        load.note_complete(ObjectId(0), t(10));
        assert!(!load.is_complete(), "parse still pending");
        load.on_timer(t(30));
        assert!(load.is_complete());
        assert_eq!(load.onload_time(), Some(t(30)));
    }
}
