//! The testbed driver: a thin dispatcher wiring the layered harness
//! together — the [`World`](crate::world::World) (clock, event queue,
//! links, TCP pipes), the active protocol [`Side`], the [`Visits`]
//! lifecycle, and the origin servers.
//!
//! Topology (paper Fig. 2):
//!
//! ```text
//! device (browser) ══ access path (3G/LTE/WiFi) ══ proxy ══ wired ══ origins
//! ```
//!
//! The driver owns only event dispatch and the cross-layer call order;
//! everything protocol-specific lives in [`crate::session`], everything
//! transport-specific in [`crate::world`], and everything
//! page/visit-specific in [`crate::visits`].

use crate::config::{ExperimentConfig, ProtocolMode};
use crate::results::RunResult;
use crate::session::{PipeRole, SessionAction, SessionCtx, Side};
use crate::visits::Visits;
use crate::world::{Census, Event, World};
use spdyier_bytes::Payload;
use spdyier_net::Direction;
use spdyier_origin::{OriginConfig, OriginServers};
use spdyier_proxy::{ClientConnId, FetchId};
use spdyier_sim::{SimDuration, SimTime};
use spdyier_trace::{FlightLog, TraceEvent, TraceLevel, TraceSink, Tracer};
use spdyier_workload::ObjectId;

/// A run failed in a structured, reportable way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The configured [`ExperimentConfig::event_budget`] was exhausted
    /// before the run reached its horizon — almost always a livelock.
    EventBudgetExhausted {
        /// Events dispatched before giving up.
        events: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let RunError::EventBudgetExhausted { events } = self;
        write!(f, "event budget exhausted after {events} events")
    }
}

impl std::error::Error for RunError {}

/// Split-borrow `$self` into the active [`Side`] (bound to `$side`) plus
/// a [`SessionCtx`] over the remaining harness layers (bound to `$ctx`),
/// then evaluate `$body` with both in scope.
macro_rules! with_side {
    ($self:expr, $side:ident, $ctx:ident, $body:expr) => {{
        let Testbed {
            world,
            visits,
            result,
            cfg,
            side: $side,
            ..
        } = $self;
        #[allow(unused_mut)]
        let mut $ctx = SessionCtx {
            world,
            visits,
            result,
            cfg,
        };
        $body
    }};
}

/// The assembled testbed for one run.
pub struct Testbed {
    cfg: ExperimentConfig,
    world: World,
    visits: Visits,
    side: Side,
    origin: OriginServers,
    /// Re-entrancy guard: object assignment must not act on a stale ready
    /// snapshot if reached from within itself.
    assigning: bool,
    /// Reusable scratch for the ready-object snapshot the assignment
    /// sweep takes (the sweep re-runs on every unblocking event).
    ready_buf: Vec<ObjectId>,
    last_inflight: f64,
    result: RunResult,
    ended: bool,
}

impl Testbed {
    /// Build a testbed for `cfg`.
    pub fn new(cfg: ExperimentConfig) -> Testbed {
        let world = World::new(&cfg);
        let side = Side::for_cfg(&cfg);
        let result = RunResult::new(cfg.protocol.label(), cfg.network.label(), cfg.seed);
        Testbed {
            world,
            visits: Visits::new(),
            side,
            origin: OriginServers::new(OriginConfig::default()),
            assigning: false,
            ready_buf: Vec::new(),
            last_inflight: -1.0,
            result,
            ended: false,
            cfg,
        }
    }

    /// Execute the run to completion, panicking if the event budget is
    /// exhausted (see [`Testbed::try_run_traced`] for the structured form).
    pub fn run(self) -> RunResult {
        self.try_run_traced().unwrap_or_else(|e| panic!("{e}")).0
    }

    /// Execute the run to completion, returning both the results and the
    /// flight recorder's log, or a structured error if the configured
    /// event budget runs out first. With tracing off the log is empty.
    pub fn try_run_traced(mut self) -> Result<(RunResult, FlightLog), RunError> {
        self.run_events()?;
        let (result, tracer) = self.finalize();
        Ok((result, tracer.finish()))
    }

    /// [`Testbed::try_run_traced`] with the flight recorder writing into
    /// `sink` instead of retaining every record, and the sink handed
    /// back: the log's `events` are whatever `S::drain` returns (nothing
    /// for a sink that folds records as they arrive); its metrics and
    /// `dropped` count are what any sink would have given.
    pub fn try_run_into<S: TraceSink + 'static>(
        mut self,
        sink: S,
    ) -> Result<(RunResult, FlightLog, S), RunError> {
        self.world.tracer = Tracer::with_sink(self.cfg.trace_level, Box::new(sink));
        self.run_events()?;
        let (result, tracer) = self.finalize();
        let (log, sink) = tracer.finish_into();
        Ok((result, log, sink))
    }

    /// Execute the run and report how many segment deliveries missed their
    /// link's FIFO lane and went through the event heap instead (see
    /// `EventQueue::schedule_fifo`). Links deliver in order, so this is
    /// zero unless a link was reset or reconfigured mid-run; a test holds
    /// it at zero over the committed scenario pack.
    #[doc(hidden)]
    pub fn run_counting_lane_fallbacks(mut self) -> Result<u64, RunError> {
        self.run_events()?;
        Ok(self.world.queue.fifo_fallbacks())
    }

    /// [`Testbed::try_run_traced`] that also returns the access path's
    /// retransmission census in drain order: each loss detection and
    /// retransmission, with whether the proxy (else the device) sent it.
    #[doc(hidden)]
    pub fn run_census(mut self) -> Result<(RunResult, FlightLog, Census), RunError> {
        self.world.census_log = Some(Vec::new());
        self.run_events()?;
        let census = self.world.census_log.take().unwrap_or_default();
        let (result, tracer) = self.finalize();
        Ok((result, tracer.finish(), census))
    }

    /// Dispatch events until the run ends or the budget runs out.
    fn run_events(&mut self) -> Result<(), RunError> {
        self.start();
        let mut events: u64 = 0;
        while let Some((t, ev)) = self.world.queue.pop() {
            debug_assert!(t >= self.world.now, "time went backwards");
            self.world.now = t;
            self.dispatch(ev);
            if self.ended {
                break;
            }
            events += 1;
            if events > self.cfg.event_budget {
                return Err(RunError::EventBudgetExhausted { events });
            }
        }
        Ok(())
    }

    fn start(&mut self) {
        let _span = spdyier_prof::scope("driver.start");
        for (i, (t, _)) in self.cfg.schedule.visits().enumerate() {
            self.world.queue.schedule(t, Event::Visit(i));
        }
        let end = self.cfg.schedule.horizon() + self.cfg.visit_timeout;
        self.world.queue.schedule(end, Event::EndRun);
        if let Some(interval) = self.cfg.keepalive_ping {
            self.world
                .queue
                .schedule(SimTime::ZERO + interval, Event::PingTick);
        }
        if matches!(self.cfg.protocol, ProtocolMode::Http) {
            self.world
                .queue
                .schedule(SimTime::from_secs(5), Event::IdleSweep);
        }
        if let ProtocolMode::Spdy { connections, .. } = self.cfg.protocol {
            for _ in 0..connections {
                with_side!(self, side, ctx, {
                    if let Side::Spdy(spdy) = side {
                        spdy.open_session(&mut ctx);
                    }
                });
                self.service_all();
            }
        }
    }

    // ----- Pipe servicing -----

    /// Service all dirty pipes to quiescence.
    fn service_all(&mut self) {
        let _span = spdyier_prof::scope("world.service");
        let mut guard = 0;
        while let Some(idx) = self.world.dirty.pop_front() {
            guard += 1;
            assert!(guard < 1_000_000, "pipe servicing livelock");
            if self.world.pipes.is_closed(idx) {
                continue;
            }
            self.service_reads(idx);
            {
                let Testbed { world, side, .. } = self;
                world.flush_staged(idx, &mut |role| side.refill(role));
            }
            self.world.drain_tx(idx, &mut self.result);
            self.world.resched_timers(idx);
            self.world.maybe_mark_closed(idx);
        }
        self.sample_inflight();
        self.check_visit_complete();
    }

    fn service_reads(&mut self, idx: usize) {
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 100_000, "read loop livelock on pipe {idx}");
            if let Some(data) = self.world.pipes[idx].a.read() {
                self.handle_a_read(idx, data);
                continue;
            }
            if let Some(data) = self.world.pipes[idx].b.read() {
                self.handle_b_read(idx, data);
                continue;
            }
            break;
        }
        // Establishment-driven work: flush requests pending on this pipe,
        // then (for origin pipes) issue the first queued fetch.
        if self.world.pipes[idx].a.is_established() {
            let issued = with_side!(self, side, ctx, side.flush_pending(&mut ctx, idx));
            if issued {
                // A completed handshake may unblock throttled opens.
                self.assign_ready_objects();
            }
            self.world.issue_next_origin_fetch(idx);
        }
        // SPDY SSL-ready detection / retired-HTTP-pipe close handshakes.
        with_side!(self, side, ctx, side.post_read(&mut ctx, idx));
    }

    // ----- a-side reads (device for access pipes; proxy for origin pipes) -----

    fn handle_a_read(&mut self, idx: usize, data: Payload) {
        match self.world.take_role(idx) {
            PipeRole::SpdyClient { idx: sidx } => {
                self.world.put_role(idx, PipeRole::SpdyClient { idx: sidx });
                with_side!(self, side, ctx, {
                    if let Side::Spdy(spdy) = side {
                        spdy.handle_client_bytes(&mut ctx, sidx, data);
                    }
                });
            }
            mut role @ PipeRole::HttpClient { .. } => {
                with_side!(self, side, ctx, {
                    if let Side::Http(http) = side {
                        http.on_device_bytes(&mut ctx, idx, &mut role, data);
                    }
                });
                self.world.put_role(idx, role);
            }
            mut role @ PipeRole::Origin { .. } => {
                // Completions route through the side while the role is
                // detached — the origin pipe is invisible to fetch
                // dispatch for the duration, exactly as before the split.
                self.read_origin_bytes(idx, &mut role, data);
                self.world.put_role(idx, role);
            }
            PipeRole::Detached => {
                self.world.put_role(idx, PipeRole::Detached);
            }
        }
        // Completion may unblock new requests / the next pending fetch.
        self.world.issue_next_origin_fetch(idx);
        self.assign_ready_objects();
        self.visits.reschedule_browser_timer(&mut self.world);
    }

    fn read_origin_bytes(&mut self, idx: usize, role: &mut PipeRole, data: Payload) {
        let PipeRole::Origin {
            http,
            current,
            got_first_byte,
            ..
        } = role
        else {
            return;
        };
        if let Some(fetch) = *current {
            if !*got_first_byte && !data.is_empty() {
                *got_first_byte = true;
                self.side.on_fetch_first_byte(self.world.now, fetch);
            }
        }
        let done = http
            .on_bytes(data)
            .unwrap_or_else(|e| panic!("proxy on origin pipe {idx}: {e}"));
        for (tag, resp) in done {
            *current = None;
            *got_first_byte = false;
            with_side!(
                self,
                side,
                ctx,
                side.on_fetch_complete(&mut ctx, FetchId(tag), resp)
            );
            self.pump_session();
        }
    }

    // ----- b-side reads (proxy for access pipes; origin server for wired pipes) -----

    fn handle_b_read(&mut self, idx: usize, data: Payload) {
        match self.world.take_role(idx) {
            role @ PipeRole::HttpClient { .. } => {
                self.world.put_role(idx, role);
                if let Side::Http(http) = &mut self.side {
                    http.proxy
                        .on_client_bytes(ClientConnId(idx as u64), data, self.world.now);
                }
                self.pump_session();
            }
            PipeRole::SpdyClient { idx: sidx } => {
                self.world.put_role(idx, PipeRole::SpdyClient { idx: sidx });
                if let Side::Spdy(spdy) = &mut self.side {
                    spdy.on_client_bytes(sidx, data, self.world.now);
                }
                self.pump_session();
            }
            mut role @ PipeRole::Origin { .. } => {
                let mut requests = Vec::new();
                if let PipeRole::Origin { server, .. } = &mut role {
                    requests = server
                        .on_bytes(data)
                        .unwrap_or_else(|e| panic!("origin on pipe {idx}: {e}"));
                }
                self.world.put_role(idx, role);
                for req in requests {
                    let (latency, resp) = self.origin.handle(&req, &mut self.world.rng_origin);
                    if self.world.tracer.active(TraceLevel::Full) {
                        self.world.tracer.emit(
                            self.world.now,
                            TraceEvent::OriginThink {
                                conn: idx,
                                until: self.world.now + latency,
                            },
                        );
                    }
                    self.world.queue.schedule(
                        self.world.now + latency,
                        Event::OriginReply {
                            pipe: idx,
                            bytes: resp.encode(),
                        },
                    );
                }
            }
            PipeRole::Detached => {
                self.world.put_role(idx, PipeRole::Detached);
            }
        }
    }

    // ----- Session action pumping -----

    /// Drain the side's pending actions and execute them in order, until
    /// quiescent.
    fn pump_session(&mut self) {
        let _span = spdyier_prof::scope("session.pump");
        loop {
            let actions = self.side.poll_actions();
            if actions.is_empty() {
                return;
            }
            for action in actions {
                match action {
                    SessionAction::OriginFetch { fetch, request } => {
                        self.world.dispatch_fetch(&mut self.result, fetch, request);
                    }
                    SessionAction::ClientBytes { pipe, bytes, fetch } => {
                        if pipe < self.world.pipes.len() && !self.world.pipes.is_closed(pipe) {
                            if let PipeRole::HttpClient { fetch_queue, .. } =
                                &mut self.world.pipes[pipe].role
                            {
                                fetch_queue.push_back(fetch);
                            }
                            self.world.pipes[pipe].out_b.push_back(bytes);
                            self.world.mark_dirty(pipe);
                        }
                    }
                    SessionAction::PumpProxyWire { session } => {
                        if let Side::Spdy(spdy) = &mut self.side {
                            spdy.pump_proxy_wire(&mut self.world, session);
                        }
                    }
                }
            }
        }
    }

    // ----- Browser-side request assignment -----

    fn assign_ready_objects(&mut self) {
        if self.assigning {
            return;
        }
        let Some(load) = self.visits.load.as_ref() else {
            return;
        };
        if load.is_complete() {
            return;
        }
        let mut ready = std::mem::take(&mut self.ready_buf);
        ready.clear();
        ready.extend(load.ready_objects());
        if ready.is_empty() {
            self.ready_buf = ready;
            return;
        }
        self.assigning = true;
        {
            let _span = spdyier_prof::scope("session.assign");
            with_side!(self, side, ctx, side.assign_ready(&mut ctx, &ready));
        }
        self.assigning = false;
        self.ready_buf = ready;
    }

    // ----- Visit lifecycle and sampling -----

    fn check_visit_complete(&mut self) {
        if self.visits.load_complete() {
            self.visits
                .finish_visit(&mut self.world, &self.cfg, &mut self.result, true);
        }
    }

    fn sample_inflight(&mut self) {
        if !self.cfg.record_series {
            return;
        }
        let total = self.world.inflight_total() as f64;
        if (total - self.last_inflight).abs() > f64::EPSILON {
            self.last_inflight = total;
            self.result.inflight_bytes.push(self.world.now, total);
        }
    }

    // ----- Event dispatch -----

    /// The self-profiler span name for an event kind. Names are
    /// `subsystem.detail`; the prefix before the first `.` is the row
    /// the profile report rolls the span into.
    fn event_scope(ev: &Event) -> &'static str {
        match ev {
            Event::Deliver { .. } => "driver.deliver",
            Event::Timer { .. } => "driver.tcp_timer",
            Event::BrowserTimer => "browser.timer",
            Event::Visit(_) => "visit.start",
            Event::VisitDeadline { .. } => "visit.deadline",
            Event::OriginReply { .. } => "origin.reply",
            Event::SslReady { .. } => "driver.ssl_ready",
            Event::PingTick => "driver.ping",
            Event::Beacon => "driver.beacon",
            Event::IdleSweep => "driver.idle_sweep",
            Event::EndRun => "driver.end_run",
        }
    }

    fn dispatch(&mut self, ev: Event) {
        let _span = spdyier_prof::scope(Self::event_scope(&ev));
        match ev {
            Event::Deliver { pipe, to_b, seg } => {
                if self.world.pipes.is_closed(pipe) {
                    return;
                }
                let now = self.world.now;
                if self.cfg.record_series
                    && self.world.pipes[pipe].over_access
                    && !to_b
                    && !seg.is_empty()
                {
                    // Downlink payload delivered to the device (Fig. 9).
                    self.result
                        .client_downlink_bytes
                        .push(now, seg.len() as f64);
                }
                let p = &mut self.world.pipes[pipe];
                p.last_activity = now;
                let conn = if to_b { &mut p.b } else { &mut p.a };
                conn.on_segment(now, seg);
                self.world.mark_dirty(pipe);
                self.service_all();
            }
            Event::Timer { pipe, b_side } => {
                if self.world.pipes.is_closed(pipe) {
                    return;
                }
                let p = &mut self.world.pipes[pipe];
                let (conn, timer) = if b_side {
                    (&mut p.b, &mut p.b_timer)
                } else {
                    (&mut p.a, &mut p.a_timer)
                };
                *timer = None;
                conn.on_timer(self.world.now);
                self.world.drain_census(pipe, b_side, &mut self.result);
                self.world.mark_dirty(pipe);
                self.service_all();
            }
            Event::BrowserTimer => {
                self.visits.browser_timer = None;
                if let Some(load) = self.visits.load.as_mut() {
                    load.on_timer(self.world.now);
                }
                self.assign_ready_objects();
                self.visits.reschedule_browser_timer(&mut self.world);
                self.service_all();
            }
            Event::Visit(v) => {
                {
                    let Testbed {
                        world,
                        visits,
                        result,
                        cfg,
                        origin,
                        ..
                    } = self;
                    visits.start_visit(world, cfg, origin, result, v);
                }
                self.assign_ready_objects();
                self.visits.reschedule_browser_timer(&mut self.world);
                self.service_all();
            }
            Event::VisitDeadline { visit, generation } => {
                if self.visits.current_visit == Some(visit) && self.visits.visit_gen == generation {
                    self.visits
                        .finish_visit(&mut self.world, &self.cfg, &mut self.result, false);
                }
            }
            Event::OriginReply { pipe, bytes } => {
                if !self.world.pipes.is_closed(pipe) {
                    self.world.pipes[pipe].out_b.push_back(bytes);
                    self.world.mark_dirty(pipe);
                    self.service_all();
                }
            }
            Event::SslReady { pipe } => {
                if let PipeRole::SpdyClient { idx: sidx } = self.world.pipes[pipe].role {
                    self.world
                        .tracer
                        .emit(self.world.now, TraceEvent::SslReady { conn: pipe });
                    if let Side::Spdy(spdy) = &mut self.side {
                        spdy.on_ssl_ready(&mut self.world, sidx);
                    }
                    self.assign_ready_objects();
                    self.service_all();
                }
            }
            Event::PingTick => {
                // A device-side ping large enough to hold DCH (Fig. 14).
                for dir in [Direction::Up, Direction::Down] {
                    let _ =
                        self.world
                            .access
                            .send(dir, self.world.now, 1380, &mut self.world.rng_net);
                }
                if self.world.tracer.active(TraceLevel::Full) {
                    self.world.sync_promotions();
                }
                if let Some(interval) = self.cfg.keepalive_ping {
                    self.world
                        .queue
                        .schedule(self.world.now + interval, Event::PingTick);
                }
            }
            Event::Beacon => {
                // Only between visits, and only while the run continues.
                if self.visits.load.is_none() && self.world.now < self.visits.next_visit_start {
                    let issued = with_side!(self, side, ctx, side.issue_beacon(&mut ctx));
                    if issued {
                        self.assign_ready_objects();
                    }
                    with_side!(self, side, ctx, side.push_beacon(&mut ctx));
                    if let Some(next) = self.visits.next_beacon_at(self.world.now) {
                        self.world.queue.schedule(next, Event::Beacon);
                    }
                    self.service_all();
                }
            }
            Event::IdleSweep => {
                // next_timeout gates the sweep: scan only when some
                // pipe's idle deadline has actually passed.
                let due = with_side!(self, side, ctx, {
                    let now = ctx.world.now;
                    side.next_timeout(&ctx).is_some_and(|t| t <= now)
                });
                if due {
                    if let Side::Http(http) = &mut self.side {
                        http.idle_sweep(&mut self.world);
                    }
                }
                self.world
                    .queue
                    .schedule(self.world.now + SimDuration::from_secs(5), Event::IdleSweep);
                self.service_all();
            }
            Event::EndRun => {
                if self.visits.load.is_some() {
                    self.visits
                        .finish_visit(&mut self.world, &self.cfg, &mut self.result, false);
                }
                self.ended = true;
            }
        }
    }

    fn finalize(mut self) -> (RunResult, Tracer) {
        let _span = spdyier_prof::scope("driver.finalize");
        // Make sure every promotion taken this run reaches the recorder,
        // even ones after the last access-pipe drain.
        if self.world.tracer.active(TraceLevel::Full) {
            self.world.sync_promotions();
        }
        // Harvest the pipes still open; every access pipe has then left
        // its report.
        for idx in 0..self.world.pipes.len() {
            self.world.harvest_pipe(idx);
        }
        for report in std::mem::take(&mut self.world.pipes).into_reports() {
            self.result.total_idle_restarts += report.idle_restarts;
            self.result.conn_traces.push(report.conn);
        }
        let access = &mut self.world.access;
        self.result.promotions = access.radio().promotions().to_vec();
        let down = access.link(Direction::Down).stats();
        self.result.downlink_drops = (down.queue_drops, down.loss_drops);
        self.result.energy_mj = access.radio_mut().energy_mj(self.world.now);
        self.result.proxy_records = self.side.take_proxy_records();
        (self.result, self.world.tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parallel executor in `spdyier-experiments` moves whole
    /// testbeds across threads; the harness must stay `Send` end to end.
    #[test]
    fn testbed_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Testbed>();
        assert_send::<RunResult>();
        assert_send::<RunError>();
    }
}
