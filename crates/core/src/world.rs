//! The simulated world: clock, event queue, RNG hierarchy, the access and
//! wired network paths, and the TCP pipe plumbing every higher layer rides
//! on.
//!
//! A [`World`] knows nothing about protocols or pages. It owns the
//! [`Pipe`]s (sans-IO TCP pairs), moves staged application bytes into
//! send buffers, drains segments onto the links, schedules delivery and
//! timer events, and harvests per-connection metrics. What a pipe is *for*
//! is recorded in its [`PipeRole`], which the session layer defines and
//! interprets.

use crate::config::ExperimentConfig;
use crate::domains::DomainTable;
use crate::results::{ConnTraceResult, RunResult};
use crate::session::PipeRole;
use spdyier_bytes::Payload;
use spdyier_cellular::CellularPath;
use spdyier_http::{HttpClientConn, HttpServerConn, Request};
use spdyier_net::{presets as net_presets, Direction, DuplexPath, LinkVerdict};
use spdyier_proxy::FetchId;
use spdyier_sim::{DetRng, EventId, EventQueue, SimTime};
use spdyier_tcp::{RtxRecord, SegKind, Segment, TcpConfig, TcpConnection, TcpMetricsCache};
use spdyier_trace::{TraceEvent, TraceLevel, Tracer};
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// Origin pipes per domain before fetches queue on the least-loaded one.
const MAX_ORIGIN_PIPES_PER_DOMAIN: usize = 6;

/// The event-queue lane a link's deliveries are scheduled on: one per
/// link, because `Link::send` never returns an arrival earlier than its
/// previous one, so each lane stays sorted. (If a fault drill resets or
/// reconfigures a link mid-run, the queue routes the out-of-order pushes
/// through its heap; nothing here needs to know.)
fn link_lane(over_access: bool, dir: Direction) -> usize {
    2 * usize::from(!over_access) + usize::from(dir == Direction::Down)
}

/// A discrete event in the run.
#[derive(Debug)]
pub(crate) enum Event {
    /// A segment arrives at one end of a pipe.
    Deliver {
        /// Pipe index.
        pipe: usize,
        /// Deliver to the b side (else the a side).
        to_b: bool,
        /// The segment.
        seg: Segment,
    },
    /// A TCP timer fires on one side of a pipe.
    Timer {
        /// Pipe index.
        pipe: usize,
        /// The b side's timer (else the a side's).
        b_side: bool,
    },
    /// The browser's parse/execute timer fires.
    BrowserTimer,
    /// A scheduled page visit starts.
    Visit(usize),
    /// A visit hits its abandon deadline.
    VisitDeadline {
        /// Visit index.
        visit: usize,
        /// Generation the deadline was armed for (stale ones are ignored).
        generation: u64,
    },
    /// An origin server's response becomes ready.
    OriginReply {
        /// The proxy↔origin pipe.
        pipe: usize,
        /// Encoded response bytes.
        bytes: Payload,
    },
    /// A SPDY session's SSL setup completes.
    SslReady {
        /// The device↔proxy pipe.
        pipe: usize,
    },
    /// The Fig. 14 keepalive ping fires.
    PingTick,
    /// The next inter-visit beacon fires.
    Beacon,
    /// The periodic idle-connection sweep fires.
    IdleSweep,
    /// The run's horizon is reached.
    EndRun,
}

/// One sans-IO TCP pair and its staging queues.
pub(crate) struct Pipe {
    /// Client-side connection (device for access pipes; proxy for origin
    /// pipes).
    pub a: TcpConnection,
    /// Server-side connection (proxy for access pipes; origin for origin
    /// pipes).
    pub b: TcpConnection,
    /// True: device↔proxy over the access path; false: proxy↔origin over
    /// the wired path.
    pub over_access: bool,
    /// What the pipe is used for (protocol attachment).
    pub role: PipeRole,
    /// Scheduled a-side TCP timer, if armed.
    pub a_timer: Option<EventId>,
    /// Scheduled b-side TCP timer, if armed.
    pub b_timer: Option<EventId>,
    /// Staged application bytes awaiting TCP send-buffer space, a side.
    pub out_a: VecDeque<Payload>,
    /// Staged application bytes awaiting TCP send-buffer space, b side.
    pub out_b: VecDeque<Payload>,
    /// When the pipe was opened.
    pub opened: SimTime,
    /// Report label (`"http-3"`, `"spdy-0"`, `"origin-cdn.example"`).
    pub label: String,
    /// Last instant a segment left or arrived on this pipe (the start of
    /// the silence an RTO stall is attributed to).
    pub last_activity: SimTime,
    /// Last `(cwnd, ssthresh, inflight)` sample emitted to the flight
    /// recorder (so `TcpCwnd` events fire only on change).
    pub last_cwnd_sample: Option<(u64, u64, u64)>,
}

/// What [`crate::Testbed`]'s finalize reads of an access pipe: all of
/// it that outlives the harvest.
pub(crate) struct AccessReport {
    /// Label, opening instant, proxy-side counters and trace.
    pub conn: ConnTraceResult,
    /// RFC 2861 idle restarts taken by both sides.
    pub idle_restarts: u64,
}

impl AccessReport {
    fn of(pipe: Pipe) -> AccessReport {
        let Pipe {
            a,
            mut b,
            label,
            opened,
            ..
        } = pipe;
        let stats = b.stats();
        AccessReport {
            idle_restarts: a.stats().idle_restarts + stats.idle_restarts,
            // The proxy side is the bulk sender; keep its trace (present
            // only under `cfg.tcp.trace`).
            conn: ConnTraceResult {
                label,
                opened,
                stats,
                trace: b.take_trace(),
            },
        }
    }
}

/// One [`PipeTable`] entry.
enum Slot {
    /// Boxed, so growing the table moves a pointer, not a TCP pair.
    Open(Box<Pipe>),
    /// Harvested: an access pipe's report, nothing of an origin pipe.
    Closed(Option<Box<AccessReport>>),
}

/// Every pipe opened this run, by index. Indices never move; a pipe is
/// dropped when it is harvested, so only open connections hold memory.
/// Indexing a closed pipe panics: ask [`PipeTable::is_closed`] first
/// wherever a closed one can turn up.
#[derive(Default)]
pub(crate) struct PipeTable {
    slots: Vec<Slot>,
}

impl PipeTable {
    /// Pipes opened so far, open or closed.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether pipe `idx` has been harvested.
    pub fn is_closed(&self, idx: usize) -> bool {
        matches!(self.slots[idx], Slot::Closed(_))
    }

    fn push(&mut self, pipe: Pipe) {
        self.slots.push(Slot::Open(Box::new(pipe)));
    }

    /// Drop open pipe `idx`, keeping its report if it is an access pipe.
    fn close(&mut self, idx: usize) {
        let Slot::Open(pipe) = std::mem::replace(&mut self.slots[idx], Slot::Closed(None)) else {
            panic!("pipe {idx} closed twice");
        };
        if pipe.over_access {
            self.slots[idx] = Slot::Closed(Some(Box::new(AccessReport::of(*pipe))));
        }
    }

    /// The access pipes' reports, in index order. Every pipe must have
    /// been harvested.
    pub fn into_reports(self) -> impl Iterator<Item = AccessReport> {
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(idx, slot)| match slot {
                Slot::Open(_) => panic!("pipe {idx} was never harvested"),
                Slot::Closed(report) => report.map(|r| *r),
            })
    }
}

impl Index<usize> for PipeTable {
    type Output = Pipe;

    fn index(&self, idx: usize) -> &Pipe {
        match &self.slots[idx] {
            Slot::Open(pipe) => pipe,
            Slot::Closed(_) => panic!("pipe {idx} is closed"),
        }
    }
}

impl IndexMut<usize> for PipeTable {
    fn index_mut(&mut self, idx: usize) -> &mut Pipe {
        match &mut self.slots[idx] {
            Slot::Open(pipe) => pipe,
            Slot::Closed(_) => panic!("pipe {idx} is closed"),
        }
    }
}

/// Clock, queue, RNGs, links, and pipes for one run.
pub(crate) struct World {
    /// Current simulation instant.
    pub now: SimTime,
    /// The event queue driving the run.
    pub queue: EventQueue<Event>,
    /// Network-level randomness (loss, jitter).
    pub rng_net: DetRng,
    /// Page-synthesis randomness.
    pub rng_pages: DetRng,
    /// Origin service-time randomness.
    pub rng_origin: DetRng,
    /// Device↔proxy access path (3G/LTE/WiFi).
    pub access: CellularPath,
    /// Proxy↔origin wired path.
    pub wired: DuplexPath,
    /// Every pipe opened this run, by index (the trace's `conn` id).
    /// A pipe lives here while its connection is open; harvesting drops
    /// it and leaves only an access pipe's report for the run's end.
    pub pipes: PipeTable,
    /// Indices of not-yet-closed device↔proxy pipes, ascending.
    /// Maintained by [`World::new_pipe`]/[`World::harvest_pipe`] so the
    /// per-event sweeps (in-flight sampling, handshake throttle counts,
    /// pool scans, idle deadlines) touch the few dozen open access pipes
    /// and neither the tail of closed ones nor the origin pipes.
    pub live_access: Vec<usize>,
    /// Every domain name the run has seen, interned.
    pub domains: DomainTable,
    /// Proxy↔origin pipes by [`DomainId::index`], each list ascending.
    /// Origin pipes are never closed, so a run accumulates hundreds of
    /// them; fetch dispatch walks only its own domain's handful.
    origin_pipes: Vec<Vec<usize>>,
    /// Pipes with pending service work, in discovery order.
    pub dirty: VecDeque<usize>,
    /// Cross-connection ssthresh/RTT cache (§6.2.4).
    pub metrics_cache: TcpMetricsCache,
    /// The flight recorder every layer emits into.
    pub tracer: Tracer,
    /// Device↔proxy TCP configuration (its `trace` flag says whether
    /// access pipes record full cwnd traces).
    tcp: TcpConfig,
    /// Whether to seed/harvest the metrics cache.
    cache_metrics: bool,
    /// Radio promotions already forwarded to the flight recorder.
    promos_emitted: usize,
    /// The access path's drained census records; kept only for
    /// [`crate::Testbed::run_census`].
    pub census_log: Option<Census>,
}

/// Retransmission census records in drain order, each with whether the
/// proxy (else the device) sent it.
pub(crate) type Census = Vec<(bool, RtxRecord)>;

impl World {
    /// Build the world for `cfg`: RNG hierarchy forked from the root seed,
    /// the access path with its overrides applied, and the wired path.
    pub fn new(cfg: &ExperimentConfig) -> World {
        let root = DetRng::new(cfg.seed);
        let mut access = cfg.network.build();
        if let Some(promotion) = cfg.rrc_promotion_override {
            access.radio_mut().set_promotion(promotion);
        }
        if let Some(loss) = cfg.access_loss {
            for dir in [Direction::Down, Direction::Up] {
                let link = access.link_mut(dir);
                link.set_config(link.config().with_loss(loss));
            }
        }
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng_net: root.fork("net"),
            rng_pages: root.fork("pages"),
            rng_origin: root.fork("origin"),
            access,
            wired: net_presets::cloud_wired(2),
            pipes: PipeTable::default(),
            live_access: Vec::new(),
            domains: DomainTable::default(),
            origin_pipes: Vec::new(),
            dirty: VecDeque::new(),
            metrics_cache: TcpMetricsCache::new(),
            tracer: Tracer::for_level(cfg.trace_level),
            tcp: cfg.tcp,
            cache_metrics: cfg.cache_metrics,
            promos_emitted: 0,
            census_log: None,
        }
    }

    fn wired_tcp_config(&self) -> TcpConfig {
        TcpConfig {
            mss: 1460,
            recv_buffer: 1024 * 1024,
            send_buffer: 256 * 1024,
            trace: false,
            ..self.tcp
        }
    }

    /// Open a new pipe and start its client-side handshake. Counts
    /// access-path pipes in `result.connections_opened`.
    pub fn new_pipe(
        &mut self,
        result: &mut RunResult,
        over_access: bool,
        role: PipeRole,
        label: String,
    ) -> usize {
        let tcp_cfg = if over_access {
            self.tcp
        } else {
            self.wired_tcp_config()
        };
        let mut a = TcpConnection::client(tcp_cfg);
        let mut b = TcpConnection::server(tcp_cfg);
        if self.cache_metrics {
            let (a_key, b_key) = role.cache_keys(over_access, &self.domains);
            if let Some(m) = self.metrics_cache.lookup(&a_key) {
                a.apply_cached_metrics(m);
            }
            if let Some(m) = self.metrics_cache.lookup(&b_key) {
                b.apply_cached_metrics(m);
            }
        }
        a.connect(self.now);
        let idx = self.pipes.len();
        if self.tracer.active(TraceLevel::Full) {
            self.tracer.emit(
                self.now,
                TraceEvent::ConnOpened {
                    conn: idx,
                    over_access,
                    label: label.clone(),
                },
            );
        }
        self.pipes.push(Pipe {
            a,
            b,
            over_access,
            role,
            a_timer: None,
            b_timer: None,
            out_a: VecDeque::new(),
            out_b: VecDeque::new(),
            opened: self.now,
            label,
            last_activity: self.now,
            last_cwnd_sample: None,
        });
        if over_access {
            result.connections_opened += 1;
        }
        if over_access {
            self.live_access.push(idx);
        }
        self.mark_dirty(idx);
        idx
    }

    /// Queue a pipe for servicing if it is not already queued.
    pub fn mark_dirty(&mut self, idx: usize) {
        if !self.dirty.contains(&idx) {
            self.dirty.push_back(idx);
        }
    }

    /// Detach a pipe's role for processing (leaves [`PipeRole::Detached`]).
    pub fn take_role(&mut self, idx: usize) -> PipeRole {
        std::mem::replace(&mut self.pipes[idx].role, PipeRole::Detached)
    }

    /// Reattach a pipe's role after processing.
    pub fn put_role(&mut self, idx: usize, role: PipeRole) {
        self.pipes[idx].role = role;
    }

    /// Move staged application bytes into TCP send buffers on both sides.
    /// When the b-side staging queue runs dry with buffer space left,
    /// `refill` is consulted (the SPDY proxy keeps frames unscheduled until
    /// the last moment so priority decisions stay late).
    pub fn flush_staged(
        &mut self,
        idx: usize,
        refill: &mut dyn FnMut(&PipeRole) -> Option<Payload>,
    ) {
        let pipe = &mut self.pipes[idx];
        // a side
        loop {
            let space = pipe.a.send_space();
            if space == 0 {
                break;
            }
            let Some(mut front) = pipe.out_a.pop_front() else {
                break;
            };
            if front.len() <= space {
                pipe.a.write(front);
            } else {
                let part = front.split_to(space);
                pipe.a.write(part);
                pipe.out_a.push_front(front);
            }
        }
        // b side
        loop {
            let space = pipe.b.send_space();
            if space == 0 {
                break;
            }
            let Some(mut front) = pipe.out_b.pop_front() else {
                if let Some(wire) = refill(&pipe.role) {
                    pipe.out_b.push_back(wire);
                    continue;
                }
                break;
            };
            if front.len() <= space {
                pipe.b.write(front);
            } else {
                let part = front.split_to(space);
                pipe.b.write(part);
                pipe.out_b.push_front(front);
            }
        }
    }

    /// Drain transmittable segments from both sides onto the links,
    /// scheduling deliveries (or dropping, per link verdict).
    pub fn drain_tx(&mut self, idx: usize, result: &mut RunResult) {
        let traced = self.tracer.active(TraceLevel::Full);
        let over_access = self.pipes[idx].over_access;
        for b_side in [false, true] {
            let idle_restarts_before = if traced {
                let conn = if b_side {
                    &self.pipes[idx].b
                } else {
                    &self.pipes[idx].a
                };
                conn.stats().idle_restarts
            } else {
                0
            };
            loop {
                let pipe = &mut self.pipes[idx];
                let conn = if b_side { &mut pipe.b } else { &mut pipe.a };
                let Some(seg) = conn.poll_transmit(self.now) else {
                    break;
                };
                pipe.last_activity = self.now;
                if seg.retransmit {
                    self.drain_census(idx, b_side, result);
                }
                let dir = match (over_access, b_side) {
                    // access: a = device (sends Up), b = proxy (sends Down)
                    (true, false) => Direction::Up,
                    (true, true) => Direction::Down,
                    // wired: a = proxy, b = origin; direction naming is
                    // arbitrary on the symmetric wired path.
                    (false, false) => Direction::Up,
                    (false, true) => Direction::Down,
                };
                let queue_drops_before = if traced && over_access {
                    self.access.link(dir).stats().queue_drops
                } else {
                    0
                };
                let verdict = if over_access {
                    self.access
                        .send(dir, self.now, seg.wire_size(), &mut self.rng_net)
                } else {
                    self.wired
                        .send(dir, self.now, seg.wire_size(), &mut self.rng_net)
                };
                match verdict {
                    LinkVerdict::Deliver(at) => {
                        if traced && over_access {
                            let ser = self.access.link(dir).serialization_time(seg.wire_size());
                            self.tracer.emit(
                                self.now,
                                TraceEvent::SegmentSent {
                                    conn: idx,
                                    down: b_side,
                                    bytes: seg.wire_size(),
                                    deliver: at,
                                    ser_us: ser.as_micros(),
                                    retransmit: seg.retransmit,
                                },
                            );
                        }
                        // Each link delivers FIFO, so its arrivals are
                        // already in queue order: one lane per link.
                        self.queue.schedule_fifo(
                            link_lane(over_access, dir),
                            at,
                            Event::Deliver {
                                pipe: idx,
                                to_b: !b_side,
                                seg,
                            },
                        );
                    }
                    LinkVerdict::Drop => {
                        // The packet evaporates; TCP recovery handles it.
                        if traced && over_access {
                            let queue_drops = self.access.link(dir).stats().queue_drops;
                            self.tracer.emit(
                                self.now,
                                TraceEvent::LinkDrop {
                                    conn: idx,
                                    down: b_side,
                                    queue_overflow: queue_drops > queue_drops_before,
                                },
                            );
                        }
                    }
                }
            }
            if traced {
                let conn = if b_side {
                    &self.pipes[idx].b
                } else {
                    &self.pipes[idx].a
                };
                let restarts = conn.stats().idle_restarts;
                for _ in idle_restarts_before..restarts {
                    self.tracer
                        .emit(self.now, TraceEvent::TcpIdleRestart { conn: idx, b_side });
                }
            }
        }
        if traced {
            self.sync_promotions();
        }
        if traced && over_access {
            self.sample_cwnd(idx);
        }
    }

    /// Fold the census records one side of pipe `idx` wrote since the
    /// last drain into the run's outputs (DESIGN.md, "Counting
    /// retransmissions"). One filter decides what counts: a record on the
    /// access path whose segment is not a pure FIN. Every count and trace
    /// event below it reads only what passes: R1, a retransmission; R2,
    /// an RTO firing.
    pub fn drain_census(&mut self, idx: usize, b_side: bool, result: &mut RunResult) {
        let traced = self.tracer.active(TraceLevel::Full);
        let pipe = &mut self.pipes[idx];
        let (over_access, silent_since) = (pipe.over_access, pipe.last_activity);
        let conn = if b_side { &mut pipe.b } else { &mut pipe.a };
        for record in conn.drain_census() {
            if !over_access {
                continue;
            }
            if let Some(log) = &mut self.census_log {
                log.push((b_side, record));
            }
            // Idle-socket teardown cannot stall a page.
            if record.kind == SegKind::PureFin {
                continue;
            }
            if record.is_timeout() {
                result.total_timeouts += 1;
                if traced {
                    self.tracer.emit(
                        record.at,
                        TraceEvent::TcpRto {
                            conn: idx,
                            b_side,
                            silent_since,
                        },
                    );
                }
            } else if record.sent.is_some() {
                // The paper's tcpdump series.
                result.retransmissions.mark(record.at);
                result.total_retransmissions += 1;
                if traced {
                    self.tracer.emit(
                        record.at,
                        TraceEvent::TcpRetransmit {
                            conn: idx,
                            down: b_side,
                        },
                    );
                }
            }
        }
    }

    /// Forward radio promotions taken since the last sync to the flight
    /// recorder (each as one `[start, done]` interval, stamped at its
    /// start).
    pub fn sync_promotions(&mut self) {
        let promotions = self.access.radio().promotions();
        for p in promotions.iter().skip(self.promos_emitted) {
            self.tracer.emit(
                p.start,
                TraceEvent::RrcPromotion {
                    kind: format!("{:?}", p.kind),
                    start: p.start,
                    done: p.done,
                },
            );
        }
        self.promos_emitted = promotions.len();
    }

    /// Emit a `TcpCwnd` sample for the proxy (bulk-sender) side of an
    /// access pipe when the window tuple changed.
    fn sample_cwnd(&mut self, idx: usize) {
        let b = &self.pipes[idx].b;
        let sample = (b.cwnd(), b.ssthresh(), b.bytes_in_flight());
        if self.pipes[idx].last_cwnd_sample == Some(sample) {
            return;
        }
        self.pipes[idx].last_cwnd_sample = Some(sample);
        let (cwnd, ssthresh, inflight) = sample;
        self.tracer.emit(
            self.now,
            TraceEvent::TcpCwnd {
                conn: idx,
                cwnd,
                ssthresh: (ssthresh != u64::MAX).then_some(ssthresh),
                inflight,
            },
        );
    }

    /// Re-arm both sides' TCP timers from their current deadlines.
    pub fn resched_timers(&mut self, idx: usize) {
        let pipe = &mut self.pipes[idx];
        for b_side in [false, true] {
            let (next, slot) = if b_side {
                (pipe.b.next_timer(), &mut pipe.b_timer)
            } else {
                (pipe.a.next_timer(), &mut pipe.a_timer)
            };
            let next = next.map(|at| at.max(self.now));
            // An unchanged deadline is still re-armed: the fresh rank
            // decides same-instant ties against deliveries scheduled since.
            match (*slot, next) {
                (Some(armed), Some(at)) => {
                    let moved = self.queue.reschedule(armed, at);
                    debug_assert!(moved, "armed timer handle went stale");
                }
                (Some(armed), None) => {
                    self.queue.cancel(armed);
                    *slot = None;
                }
                (None, Some(at)) => {
                    *slot = Some(self.queue.schedule(at, Event::Timer { pipe: idx, b_side }));
                }
                (None, None) => {}
            }
        }
    }

    /// Harvest an open pipe once both sides are done.
    pub fn maybe_mark_closed(&mut self, idx: usize) {
        use spdyier_tcp::TcpState;
        let a_done = matches!(
            self.pipes[idx].a.state(),
            TcpState::Closed | TcpState::TimeWait
        );
        let b_done = matches!(
            self.pipes[idx].b.state(),
            TcpState::Closed | TcpState::TimeWait
        );
        if a_done && b_done {
            self.harvest_pipe(idx);
        }
    }

    /// Cancel a pipe's timers, bank its TCP metrics in the cache and drop
    /// it, keeping an access pipe's report. A closed pipe is left alone.
    pub fn harvest_pipe(&mut self, idx: usize) {
        if self.pipes.is_closed(idx) {
            return;
        }
        // Ordered remove keeps the index ascending so position-based
        // scans over it find the same first match as a scan over `pipes`.
        if let Ok(i) = self.live_access.binary_search(&idx) {
            self.live_access.remove(i);
        }
        self.tracer
            .emit(self.now, TraceEvent::ConnClosed { conn: idx });
        if let Some(t) = self.pipes[idx].a_timer.take() {
            self.queue.cancel(t);
        }
        if let Some(t) = self.pipes[idx].b_timer.take() {
            self.queue.cancel(t);
        }
        if self.cache_metrics {
            let over = self.pipes[idx].over_access;
            let role_keys = self.pipes[idx].role.cache_keys(over, &self.domains);
            if let Some(m) = self.pipes[idx].a.snapshot_metrics() {
                self.metrics_cache.store(&role_keys.0, m);
            }
            if let Some(m) = self.pipes[idx].b.snapshot_metrics() {
                self.metrics_cache.store(&role_keys.1, m);
            }
        }
        self.pipes.close(idx);
    }

    /// Total unacknowledged proxy→device bytes across open access pipes.
    pub fn inflight_total(&self) -> u64 {
        self.live_access
            .iter()
            .map(|&i| self.pipes[i].b.bytes_in_flight())
            .sum()
    }

    // ------------------------------------------------------------------
    // Proxy↔origin leg
    // ------------------------------------------------------------------

    /// Route an origin fetch to a pipe for its domain: an idle established
    /// pipe if one exists, a fresh pipe while under the per-domain cap,
    /// else the least-loaded existing one.
    pub fn dispatch_fetch(&mut self, result: &mut RunResult, fetch: FetchId, request: Request) {
        let domain = self.domains.intern(&request.host);
        if self.origin_pipes.len() <= domain.index() {
            self.origin_pipes.resize_with(domain.index() + 1, Vec::new);
        }
        let mut idle: Option<usize> = None;
        let mut count = 0usize;
        let mut least_loaded: Option<(usize, usize)> = None;
        for &i in &self.origin_pipes[domain.index()] {
            if self.pipes.is_closed(i) {
                continue;
            }
            // A pipe whose role is detached — its completion is being
            // routed right now — is invisible here.
            let PipeRole::Origin {
                current, pending, ..
            } = &self.pipes[i].role
            else {
                continue;
            };
            count += 1;
            let backlog = pending.len() + usize::from(current.is_some());
            if backlog == 0 && idle.is_none() {
                idle = Some(i);
            }
            if least_loaded.is_none_or(|(_, b)| backlog < b) {
                least_loaded = Some((i, backlog));
            }
        }
        let mut fresh_pipe = false;
        let target = if let Some(i) = idle {
            i
        } else if count < MAX_ORIGIN_PIPES_PER_DOMAIN {
            fresh_pipe = true;
            let pipe = self.new_pipe(
                result,
                false,
                PipeRole::Origin {
                    domain,
                    http: HttpClientConn::new(),
                    server: HttpServerConn::new(),
                    current: None,
                    pending: VecDeque::new(),
                    got_first_byte: false,
                },
                format!("origin-{}", request.host),
            );
            self.origin_pipes[domain.index()].push(pipe);
            pipe
        } else {
            least_loaded
                .expect("at the cap implies at least one pipe")
                .0
        };
        if self.tracer.active(TraceLevel::Full) {
            self.tracer.emit(
                self.now,
                TraceEvent::ProxyFetchDispatch {
                    fetch: fetch.0,
                    conn: target,
                    fresh_pipe,
                    domain: request.host.clone(),
                },
            );
        }
        if let PipeRole::Origin { pending, .. } = &mut self.pipes[target].role {
            pending.push_back((fetch, request));
        }
        self.issue_next_origin_fetch(target);
        self.mark_dirty(target);
    }

    /// If the origin pipe is established and idle, issue its next pending
    /// fetch request.
    pub fn issue_next_origin_fetch(&mut self, idx: usize) {
        let established = self.pipes[idx].a.is_established();
        if !established {
            return;
        }
        let mut to_write: Option<Payload> = None;
        if let PipeRole::Origin {
            http,
            current,
            pending,
            got_first_byte,
            ..
        } = &mut self.pipes[idx].role
        {
            if current.is_none() {
                if let Some((fetch, request)) = pending.pop_front() {
                    *current = Some(fetch);
                    *got_first_byte = false;
                    to_write = Some(http.send_request(fetch.0, &request));
                }
            }
        }
        if let Some(bytes) = to_write {
            self.pipes[idx].out_a.push_back(bytes);
            self.mark_dirty(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe(over_access: bool, label: &str, opened_ms: u64) -> Pipe {
        let cfg = TcpConfig::default();
        let opened = SimTime::from_millis(opened_ms);
        Pipe {
            a: TcpConnection::client(cfg),
            b: TcpConnection::server(cfg),
            over_access,
            role: PipeRole::Detached,
            a_timer: None,
            b_timer: None,
            out_a: VecDeque::new(),
            out_b: VecDeque::new(),
            opened,
            label: label.to_string(),
            last_activity: opened,
            last_cwnd_sample: None,
        }
    }

    fn reports(table: PipeTable) -> Vec<(String, SimTime)> {
        table
            .into_reports()
            .map(|r| (r.conn.label, r.conn.opened))
            .collect()
    }

    #[test]
    fn pipes_closed_out_of_index_order_report_in_index_order() {
        let mut table = PipeTable::default();
        table.push(pipe(true, "http-0", 1));
        table.push(pipe(true, "http-1", 2));
        table.push(pipe(true, "http-2", 3));
        for idx in [2, 0, 1] {
            table.close(idx);
            assert!(table.is_closed(idx));
        }
        assert_eq!(
            reports(table),
            [
                ("http-0".to_string(), SimTime::from_millis(1)),
                ("http-1".to_string(), SimTime::from_millis(2)),
                ("http-2".to_string(), SimTime::from_millis(3)),
            ]
        );
    }

    #[test]
    fn an_origin_pipe_leaves_no_report() {
        let mut table = PipeTable::default();
        table.push(pipe(false, "origin-a.example", 1));
        table.push(pipe(true, "spdy-0", 2));
        table.close(1);
        table.close(0);
        assert_eq!(table.len(), 2);
        assert_eq!(
            reports(table),
            [("spdy-0".to_string(), SimTime::from_millis(2))]
        );
    }

    #[test]
    #[should_panic(expected = "pipe 1 is closed")]
    fn indexing_a_closed_pipe_panics() {
        let mut table = PipeTable::default();
        table.push(pipe(true, "http-0", 1));
        table.push(pipe(true, "http-1", 2));
        table.close(1);
        let _ = &table[0];
        let _ = &table[1];
    }
}
