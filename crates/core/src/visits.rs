//! Visit lifecycle: the schedule walker, per-visit page-load state, the
//! browser's parse/execute timer, and the inter-visit beacon cadence.
//!
//! A [`Visits`] owns everything the *browser user* side of the testbed
//! tracks — which site is loading, which objects the in-progress
//! [`PageLoad`] still owes, and the background traffic (§5.7 beacons)
//! that fills think time once a page finishes. The protocol sides report
//! object progress through the tag helpers so stale generations and
//! beacon responses never perturb page metrics.

use crate::config::{ExperimentConfig, PageSource};
use crate::domains::{DomainId, DomainTable};
use crate::results::{RunResult, VisitResult};
use crate::world::{Event, World};
use spdyier_browser::PageLoad;
use spdyier_bytes::{Headers, HeadersBuilder};
use spdyier_http::Request;
use spdyier_origin::OriginServers;
use spdyier_sim::{EventId, SimDuration, SimTime};
use spdyier_trace::{TraceEvent, TraceLevel};
use spdyier_workload::{synthesize, ObjectId, SiteSpec, WebPage};
use std::fmt::Write as _;
use std::sync::Arc;

/// Sentinel tag for beacon (non-page) requests.
pub(crate) const BEACON_TAG: u64 = u64::MAX;

/// Periodic site traffic (ads, analytics, refreshes — §5.7) keeps
/// arriving through the think time, one beacon this long after the last
/// page finished and every interval after until the next visit; each
/// arrival finds a demoted radio and pays a promotion — the paper's
/// mid-interval retransmission bursts (Fig. 11).
const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(20);

/// Bytes of each beacon response the proxy pushes to the device.
pub(crate) const BEACON_BYTES: u64 = 2_048;

/// True when the (possibly 32-bit-masked) tag names a page object rather
/// than the beacon sentinel.
pub(crate) fn is_page_tag(tag: u64) -> bool {
    (tag & 0xFFFF_FFFF) != (BEACON_TAG & 0xFFFF_FFFF)
}

/// Browser-side visit state for one run.
pub(crate) struct Visits {
    /// Monotone generation; bumped per visit so stale completions from an
    /// abandoned load can be recognized and ignored.
    pub visit_gen: u64,
    /// Index of the in-progress visit in the schedule.
    pub current_visit: Option<usize>,
    /// The in-progress page load.
    pub load: Option<PageLoad>,
    /// Carcass of the previous visit's load, kept so its per-object
    /// phase/timing buffers are reused instead of re-allocated — a sweep
    /// cell runs many visits back to back.
    spare_load: Option<PageLoad>,
    /// The page being loaded (shared with [`Visits::load`], not cloned).
    pub current_page: Option<Arc<WebPage>>,
    /// The current page's domains, by `ObjectId`: interned once when
    /// the visit starts so the request path compares ids, not names.
    /// (A side table because `WebPage` is a serialized, string-typed
    /// input format.)
    object_domains: Vec<DomainId>,
    /// Rendered browser header sets by [`DomainId::index`]; `None` until
    /// a domain's first request.
    header_cache: Vec<Option<Headers>>,
    /// Armed browser parse/execute timer.
    pub browser_timer: Option<EventId>,
    /// When the next scheduled visit begins (beacons must not outlive the
    /// gap).
    pub next_visit_start: SimTime,
    /// Root domain of the last finished page (beacon destination).
    beacon_domain: Option<DomainId>,
}

impl Visits {
    /// Fresh pre-first-visit state.
    pub fn new() -> Visits {
        Visits {
            visit_gen: 0,
            current_visit: None,
            load: None,
            spare_load: None,
            current_page: None,
            object_domains: Vec::new(),
            header_cache: Vec::new(),
            browser_timer: None,
            next_visit_start: SimTime::MAX,
            beacon_domain: None,
        }
    }

    // ------------------------------------------------------------------
    // Object-progress reporting (called by the protocol sides)
    // ------------------------------------------------------------------

    /// Record a request issue for a live page object.
    pub fn note_requested(&mut self, world: &mut World, obj: ObjectId) {
        if let Some(load) = self.load.as_mut() {
            load.note_requested(obj, world.now);
            if let Some(visit) = self.current_visit {
                world.tracer.emit(
                    world.now,
                    TraceEvent::ObjectRequested {
                        visit,
                        object: obj.0,
                    },
                );
            }
        }
    }

    /// Record first response byte for a tagged object, unless the tag is a
    /// beacon or from a stale generation.
    pub fn note_first_byte_tagged(&mut self, world: &mut World, generation: u64, tag: u64) {
        if generation == self.visit_gen && is_page_tag(tag) {
            if let Some(load) = self.load.as_mut() {
                load.note_first_byte(ObjectId(tag as u32), world.now);
                if let Some(visit) = self.current_visit {
                    world.tracer.emit(
                        world.now,
                        TraceEvent::ObjectFirstByte {
                            visit,
                            object: tag as u32,
                        },
                    );
                }
            }
        }
    }

    /// Record completion for a tagged object, unless the tag is a beacon
    /// or from a stale generation.
    pub fn note_complete_tagged(&mut self, world: &mut World, generation: u64, tag: u64) {
        if generation == self.visit_gen && is_page_tag(tag) {
            if let Some(load) = self.load.as_mut() {
                load.note_complete(ObjectId(tag as u32), world.now);
                if let Some(visit) = self.current_visit {
                    world.tracer.emit(
                        world.now,
                        TraceEvent::ObjectComplete {
                            visit,
                            object: tag as u32,
                        },
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Requests
    // ------------------------------------------------------------------

    /// The interned domain of an object of the current page.
    pub fn domain_of(&self, obj: ObjectId) -> DomainId {
        self.object_domains[obj.0 as usize]
    }

    /// Build the on-the-wire request for a tagged object (or beacon).
    /// `None` for stale generations — the caller drops the request.
    pub fn request_for(
        &mut self,
        domains: &DomainTable,
        generation: u64,
        tag: u64,
    ) -> Option<Request> {
        let (domain, host, path) = if tag == BEACON_TAG {
            let domain = self.beacon_domain();
            let host = domains.name(domain).to_string();
            (domain, host, "/beacon.gif".to_string())
        } else {
            if generation != self.visit_gen {
                return None;
            }
            let page = self.current_page.as_ref()?;
            let obj = page.objects.get(tag as usize)?;
            let domain = self.object_domains[tag as usize];
            (domain, obj.domain.clone(), obj.path.clone())
        };
        Some(Request {
            headers: self.cached_headers(domains, domain).clone(),
            ..Request::get(host, path)
        })
    }

    /// The standard browser header set for `domain`, rendered once per
    /// domain and served from a per-run cache thereafter.
    pub fn cached_headers(&mut self, domains: &DomainTable, domain: DomainId) -> &Headers {
        if self.header_cache.len() <= domain.index() {
            self.header_cache.resize(domain.index() + 1, None);
        }
        self.header_cache[domain.index()]
            .get_or_insert_with(|| browser_headers(domains.name(domain)))
    }

    // ------------------------------------------------------------------
    // Browser timer
    // ------------------------------------------------------------------

    /// Re-arm the browser parse/execute timer from the load's next
    /// deadline.
    pub fn reschedule_browser_timer(&mut self, world: &mut World) {
        if let Some(old) = self.browser_timer.take() {
            world.queue.cancel(old);
        }
        if let Some(load) = self.load.as_ref() {
            if let Some(at) = load.next_timer() {
                let id = world.queue.schedule(at.max(world.now), Event::BrowserTimer);
                self.browser_timer = Some(id);
            }
        }
    }

    // ------------------------------------------------------------------
    // Visit lifecycle
    // ------------------------------------------------------------------

    /// Begin visit `visit`: abandon any incomplete load, synthesize (or
    /// look up) the page, register it with the origins, and arm the
    /// abandon deadline. The caller assigns ready objects and services
    /// pipes afterwards.
    pub fn start_visit(
        &mut self,
        world: &mut World,
        cfg: &ExperimentConfig,
        origin: &mut OriginServers,
        result: &mut RunResult,
        visit: usize,
    ) {
        if self.load.is_some() {
            self.finish_visit(world, cfg, result, false);
        }
        self.visit_gen += 1;
        self.current_visit = Some(visit);
        let site = cfg.schedule.order[visit];
        let next = cfg
            .schedule
            .visits()
            .nth(visit + 1)
            .map(|(t, _)| t)
            .unwrap_or(cfg.schedule.horizon());
        self.next_visit_start = next;
        let page = match &cfg.pages {
            PageSource::Table1 => {
                let spec = SiteSpec::by_index(site).expect("schedule indices are valid");
                let mut rng = world
                    .rng_pages
                    .fork_indexed("page", (u64::from(site) << 16) | self.visit_gen);
                synthesize(spec, &mut rng)
            }
            PageSource::Custom(page) => page.clone(),
        };
        origin.register_page(&page);
        self.object_domains.clear();
        self.object_domains
            .extend(page.objects.iter().map(|o| world.domains.intern(&o.domain)));
        world.tracer.emit(
            world.now,
            TraceEvent::VisitStart {
                visit,
                site: site as usize,
            },
        );
        let page = Arc::new(page);
        self.current_page = Some(Arc::clone(&page));
        self.load = Some(match self.spare_load.take() {
            Some(mut spare) => {
                spare.reset(page, world.now);
                spare
            }
            None => PageLoad::new(page, world.now),
        });
        world.queue.schedule(
            world.now + cfg.visit_timeout,
            Event::VisitDeadline {
                visit,
                generation: self.visit_gen,
            },
        );
    }

    /// True once the in-progress load has finished every object.
    pub fn load_complete(&self) -> bool {
        self.load.as_ref().is_some_and(|l| l.is_complete())
    }

    /// Close out the in-progress visit (completed or abandoned), record
    /// its [`VisitResult`], arm the first inter-visit beacon, and trim
    /// the origin pipes that sat idle through the whole visit.
    pub fn finish_visit(
        &mut self,
        world: &mut World,
        cfg: &ExperimentConfig,
        result: &mut RunResult,
        completed: bool,
    ) {
        let Some(load) = self.load.take() else {
            return;
        };
        let Some(visit) = self.current_visit.take() else {
            self.spare_load = Some(load);
            return;
        };
        if let Some(old) = self.browser_timer.take() {
            world.queue.cancel(old);
        }
        let site = cfg.schedule.order[visit];
        let start = load.start_time();
        let onload = load.onload_time();
        let plt_ms = match onload {
            Some(t) => t.saturating_since(start).as_secs_f64() * 1e3,
            None => world.now.saturating_since(start).as_secs_f64() * 1e3,
        };
        if world.tracer.active(TraceLevel::Full) {
            let end = onload.unwrap_or(world.now);
            let plt_us = end.saturating_since(start).as_micros();
            world.tracer.emit(
                world.now,
                TraceEvent::VisitEnd {
                    visit,
                    completed: completed && onload.is_some(),
                    plt_us,
                },
            );
        }
        let page = load.page();
        result.visits.push(VisitResult {
            site,
            start,
            onload,
            plt_ms,
            completed: completed && onload.is_some(),
            object_timings: load.timings().to_vec(),
            object_count: page.object_count(),
            total_bytes: page.total_bytes(),
        });
        // `objects[0]` is the root document.
        self.beacon_domain = self.object_domains.first().copied();
        self.spare_load = Some(load);
        world.release_idle_origin_pipes(start);
        world
            .queue
            .schedule(world.now + BEACON_INTERVAL, Event::Beacon);
    }

    /// Where beacons go: the root domain of the last finished page. A
    /// beacon is armed only by [`Visits::finish_visit`], which sets it.
    pub fn beacon_domain(&self) -> DomainId {
        self.beacon_domain
            .expect("a beacon fires only after a visit has finished")
    }

    /// After firing a beacon, when the next one is due: one interval on,
    /// unless the next visit starts first.
    pub fn next_beacon_at(&self, now: SimTime) -> Option<SimTime> {
        Some(now + BEACON_INTERVAL).filter(|&t| t < self.next_visit_start)
    }
}

/// The standard header set a 2013 Chrome sends with every request. HTTP
/// pays these bytes on the uplink per request; SPDY's stateful header
/// compression collapses the repetition — one of its documented
/// advantages.
pub(crate) fn browser_headers(host: &str) -> Headers {
    let mut cookie = String::with_capacity(192);
    cookie.push_str("sid=");
    let h = host
        .as_bytes()
        .iter()
        .fold(0u64, |a, &b| a.wrapping_mul(131).wrapping_add(b as u64));
    for i in 0..10u64 {
        // write! appends in place; format! would allocate a temporary
        // per segment.
        let _ = write!(
            cookie,
            "{:016x}",
            h.wrapping_add(i.wrapping_mul(0x9E3779B97F4A7C15))
        );
    }
    let mut headers = HeadersBuilder::with_capacity(512);
    headers.push(
        "user-agent",
        "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.11 (KHTML, like Gecko) Chrome/23.0.1271.97 Safari/537.11",
    );
    headers.push(
        "accept",
        "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8",
    );
    headers.push("accept-encoding", "gzip,deflate,sdch");
    headers.push("accept-language", "en-US,en;q=0.8");
    headers.push("cookie", &cookie);
    headers.finish()
}
