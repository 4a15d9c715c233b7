//! The protocol layer: the run's [`Side`], one of [`HttpSide`] (HTTP/1.1
//! connection pool plus HTTP proxy core) and [`SpdySide`] (SPDY/3
//! sessions with §6.1 late binding and multi-connection support).
//!
//! Both sides are sans-IO: they never touch sockets or the event queue
//! directly for wire work. They parse bytes handed to them, record
//! progress through the [`Visits`] tag helpers, stage output bytes into
//! the [`World`]'s pipes, and surface origin work as [`SessionAction`]s
//! for the driver to execute.

use crate::config::{ExperimentConfig, ProtocolMode};
use crate::domains::{DomainId, DomainTable};
use crate::results::RunResult;
use crate::visits::{Visits, BEACON_BYTES, BEACON_TAG};
use crate::world::{Event, World};
use spdyier_bytes::{Headers, HeadersBuilder, Payload};
use spdyier_http::{
    Acquire, ConnectionPool, HttpClientConn, HttpServerConn, PoolConfig, PoolConnId, Request,
    Response,
};
use spdyier_proxy::{
    ClientConnId, FetchId, HttpProxyCore, HttpProxyOutput, ProxyObjectRecord, SpdyProxyCore,
    SpdyProxyOutput,
};
use spdyier_sim::{SimDuration, SimTime};
use spdyier_spdy::{Role, SpdyConfig, SpdyEvent, SpdySession};
use spdyier_trace::{TraceEvent, TraceLevel};
use spdyier_workload::ObjectId;
use std::collections::{HashMap, VecDeque};

/// Round trips a SPDY session's SSL setup costs once its TCP handshake
/// is done: the paper's fixed one-time cost of 2 extra RTTs, charged
/// at the access path's base RTT.
const SSL_SETUP_RTTS: u64 = 2;

/// Close HTTP client connections idle for this long (Chrome's
/// idle-socket reaping; keeps HTTP connections short-lived across sites
/// as the paper observes). With the 3G demotion timers this means FINs
/// ride CELL_FACH rather than paying a promotion.
pub(crate) const HTTP_IDLE_CLOSE: SimDuration = SimDuration::from_secs(10);

/// What a client↔proxy or proxy↔origin pipe is used for.
pub(crate) enum PipeRole {
    /// One HTTP persistent connection, device↔proxy.
    HttpClient {
        /// Slot in the browser's connection pool.
        pool_id: PoolConnId,
        /// The device-side HTTP/1.1 state machine.
        http: HttpClientConn,
        /// `(generation, object-or-beacon)` requests in flight, FIFO
        /// (length 1 without pipelining).
        outstanding: VecDeque<(u64, u64)>,
        /// Requests awaiting connection establishment / a pipeline slot.
        pending: VecDeque<(u64, u64)>,
        /// First response byte of the current exchange seen.
        got_first_byte: bool,
        /// Fetch ids owed by the proxy on this connection, FIFO.
        fetch_queue: VecDeque<FetchId>,
        /// Last instant a request was issued or a response completed.
        last_use: SimTime,
        /// Evicted from the pool; closing.
        retired: bool,
    },
    /// One SPDY session, device↔proxy. Session state lives in
    /// [`SpdySide::clients`] / [`SpdySide::proxies`] at `idx`.
    SpdyClient {
        /// Session index.
        idx: usize,
    },
    /// One HTTP persistent connection, proxy↔origin.
    Origin {
        /// Origin domain this pipe serves.
        domain: DomainId,
        /// Proxy-side HTTP/1.1 client state machine.
        http: HttpClientConn,
        /// Origin-side HTTP/1.1 server state machine.
        server: HttpServerConn,
        /// Fetch currently on the wire.
        current: Option<FetchId>,
        /// Fetches queued behind it.
        pending: VecDeque<(FetchId, Request)>,
        /// First response byte of the current fetch seen.
        got_first_byte: bool,
    },
    /// Placeholder while a role is temporarily detached for processing.
    Detached,
}

impl PipeRole {
    /// Metrics-cache keys for the (a, b) sides of a pipe with this role
    /// (§6.2.4 cross-connection ssthresh/RTT sharing).
    pub fn cache_keys(&self, over_access: bool, domains: &DomainTable) -> (String, String) {
        if over_access {
            ("proxy".to_string(), "device".to_string())
        } else if let PipeRole::Origin { domain, .. } = self {
            (
                format!("origin:{}", domains.name(*domain)),
                "proxy".to_string(),
            )
        } else {
            ("wired".to_string(), "wired".to_string())
        }
    }
}

/// Device-side state of one SPDY session.
pub(crate) struct SpdyClientState {
    /// The client SPDY/3 framing state machine.
    pub session: SpdySession,
    /// Pipe carrying this session.
    pub pipe: usize,
    /// SSL setup finished; streams may open.
    pub usable: bool,
    /// SSL-setup completion event scheduled (so we only schedule once).
    pub ssl_scheduled: bool,
    /// stream → (generation, object-or-beacon, first_byte_seen)
    pub streams: HashMap<u32, (u64, u64, bool)>,
}

/// Everything outside the protocol side that a session callback may need:
/// the world (pipes/clock/queue), the visit tracker, the run's results,
/// and the configuration.
pub(crate) struct SessionCtx<'a> {
    /// Clock, queue, links, pipes.
    pub world: &'a mut World,
    /// Visit/page-load state and tag helpers.
    pub visits: &'a mut Visits,
    /// Accumulating run results.
    pub result: &'a mut RunResult,
    /// The experiment configuration.
    pub cfg: &'a ExperimentConfig,
}

/// Work a session surfaces for the driver to execute, in order.
pub(crate) enum SessionAction {
    /// Fetch an object from its origin (routed over the wired leg).
    OriginFetch {
        /// Proxy-assigned fetch id.
        fetch: FetchId,
        /// The origin-bound request.
        request: Request,
    },
    /// Stage response bytes toward the device on an HTTP client pipe.
    ClientBytes {
        /// Destination pipe index.
        pipe: usize,
        /// Encoded response bytes.
        bytes: Payload,
        /// Fetch the bytes answer (for proxy bookkeeping on delivery).
        fetch: FetchId,
    },
    /// Pump a SPDY proxy's scheduler output onto its pipe.
    PumpProxyWire {
        /// Session index.
        session: usize,
    },
}

// ======================================================================
// HTTP/1.1 side
// ======================================================================

/// The HTTP/1.1 protocol side: the browser's connection pool plus the
/// proxy's HTTP core.
pub(crate) struct HttpSide {
    /// Browser connection pool (per-domain and global caps).
    pub pool: ConnectionPool<DomainId>,
    /// Proxy-side HTTP core (request parsing, fetch bookkeeping).
    pub proxy: HttpProxyCore,
    /// Everything the last assignment sweep read, kept only when that
    /// sweep assigned and evicted nothing (empty otherwise): while the
    /// next call's inputs are equal the sweep cannot do anything either.
    memo_key: Vec<u64>,
    /// Pool ids the remembered sweep burned on throttled opens.
    memo_burned: u64,
    /// Scratch the current call's inputs are written into.
    key_buf: Vec<u64>,
}

/// What one assignment sweep did.
struct Sweep {
    /// An object was assigned or a connection evicted.
    changed: bool,
    /// Pool ids consumed by throttled connection attempts.
    burned: u64,
}

impl HttpSide {
    /// Fresh side with default pool limits; its proxy keeps a record per
    /// fetch when `keep_records`.
    pub fn new(keep_records: bool) -> HttpSide {
        HttpSide {
            pool: ConnectionPool::new(PoolConfig::default()),
            proxy: HttpProxyCore::new().keep_records(keep_records),
            memo_key: Vec::new(),
            memo_burned: 0,
            key_buf: Vec::new(),
        }
    }

    /// Open a device↔proxy pipe and register it with the proxy core.
    fn open_client_pipe(
        &mut self,
        ctx: &mut SessionCtx<'_>,
        role: PipeRole,
        label: String,
    ) -> usize {
        let idx = ctx.world.new_pipe(ctx.result, true, role, label);
        self.proxy.on_client_connected(ClientConnId(idx as u64));
        idx
    }

    /// Device-side bytes arrived on HTTP client pipe `idx` (its role is
    /// detached into `role` by the driver).
    pub fn on_device_bytes(
        &mut self,
        ctx: &mut SessionCtx<'_>,
        idx: usize,
        role: &mut PipeRole,
        data: Payload,
    ) {
        let PipeRole::HttpClient {
            http,
            outstanding,
            got_first_byte,
            fetch_queue,
            pool_id,
            last_use,
            ..
        } = role
        else {
            return;
        };
        if let Some(&(generation, tag)) = outstanding.front() {
            if !*got_first_byte && !data.is_empty() {
                *got_first_byte = true;
                ctx.visits
                    .note_first_byte_tagged(ctx.world, generation, tag);
            }
        }
        let done = http
            .on_bytes(data)
            .unwrap_or_else(|e| panic!("device on HTTP pipe {idx}: {e}"));
        let pool_id = *pool_id;
        for (tag, _resp) in done {
            outstanding.pop_front();
            *got_first_byte = false;
            *last_use = ctx.world.now;
            let generation = tag >> 32;
            let obj = tag & 0xFFFF_FFFF;
            if let Some(fetch) = fetch_queue.pop_front() {
                self.proxy.on_client_received(fetch, ctx.world.now);
            }
            if outstanding.is_empty() {
                self.pool.release(pool_id);
            }
            ctx.world.tracer.emit(
                ctx.world.now,
                TraceEvent::HttpResponseDone {
                    conn: idx,
                    gen: generation,
                    tag: obj,
                },
            );
            ctx.visits.note_complete_tagged(ctx.world, generation, obj);
        }
    }

    /// Issue a pipe's pending requests while the HTTP state machine can
    /// accept them. Returns whether any request was issued (a completed
    /// handshake may unblock throttled opens — the driver re-assigns).
    pub fn flush_pending(&mut self, ctx: &mut SessionCtx<'_>, idx: usize) -> bool {
        if !ctx.world.pipes[idx].a.is_established() {
            return false;
        }
        let mut issued_any = false;
        loop {
            let mut issue: Option<(u64, u64)> = None;
            if let PipeRole::HttpClient { http, pending, .. } = &mut ctx.world.pipes[idx].role {
                if http.can_send() {
                    if let Some(next) = pending.pop_front() {
                        issue = Some(next);
                    }
                }
            }
            let Some((generation, tag)) = issue else {
                break;
            };
            let request = ctx.visits.request_for(&ctx.world.domains, generation, tag);
            if let Some(request) = request {
                let tagged = (generation << 32) | (tag & 0xFFFF_FFFF);
                let mut wire = None;
                if let PipeRole::HttpClient {
                    http,
                    outstanding,
                    got_first_byte,
                    last_use,
                    ..
                } = &mut ctx.world.pipes[idx].role
                {
                    if outstanding.is_empty() {
                        *got_first_byte = false;
                    }
                    outstanding.push_back((generation, tag));
                    *last_use = ctx.world.now;
                    wire = Some(http.send_request(tagged, &request));
                }
                if let Some(bytes) = wire {
                    ctx.world.pipes[idx].out_a.push_back(bytes);
                }
                ctx.world.tracer.emit(
                    ctx.world.now,
                    TraceEvent::HttpRequestSent {
                        conn: idx,
                        gen: generation,
                        tag: tag & 0xFFFF_FFFF,
                    },
                );
                if generation == ctx.visits.visit_gen && tag != BEACON_TAG {
                    ctx.visits.note_requested(ctx.world, ObjectId(tag as u32));
                }
                issued_any = true;
            } else {
                // Stale request from an abandoned visit: skip it; release
                // the pool slot if nothing is in flight.
                let mut release: Option<PoolConnId> = None;
                if let PipeRole::HttpClient {
                    outstanding,
                    pool_id,
                    ..
                } = &ctx.world.pipes[idx].role
                {
                    if outstanding.is_empty() {
                        release = Some(*pool_id);
                    }
                }
                if let Some(pid) = release {
                    self.pool.release(pid);
                }
            }
        }
        if issued_any {
            ctx.world.mark_dirty(idx);
        }
        issued_any
    }

    /// Assign ready page objects to pooled connections (Chrome-style
    /// per-domain reuse, an 8-handshake concurrency throttle, optional
    /// pipelining).
    ///
    /// Edge-triggered: the driver calls this after every read, but while
    /// the handshake throttle or a connection cap holds a sweep assigns
    /// nothing, and it keeps assigning nothing until one of its inputs
    /// changes. Such a sweep's inputs are remembered and an identical
    /// call returns at once, burning the pool ids the sweep would have.
    pub fn assign_ready(&mut self, ctx: &mut SessionCtx<'_>, ready: &[ObjectId]) {
        // Chrome throttles concurrent connection attempts; without this a
        // discovery wave would fire 30+ simultaneous handshakes and
        // synchronized slow-starts into the access queue.
        let connecting = ctx
            .world
            .live_access
            .iter()
            .map(|&i| &ctx.world.pipes[i])
            .filter(|p| matches!(p.role, PipeRole::HttpClient { .. }) && !p.a.is_established())
            .count();
        let mut key = std::mem::take(&mut self.key_buf);
        key.clear();
        key.extend([
            self.pool.version(),
            connecting as u64,
            ctx.visits.visit_gen,
            ready.len() as u64,
        ]);
        key.extend(ready.iter().map(|o| u64::from(o.0)));
        if ctx.cfg.http_pipelining > 1 {
            // Pipelined sweeps also read each connection's queue depth.
            for &i in &ctx.world.live_access {
                if let PipeRole::HttpClient {
                    outstanding,
                    pending,
                    retired: false,
                    ..
                } = &ctx.world.pipes[i].role
                {
                    key.extend([i as u64, (outstanding.len() + pending.len()) as u64]);
                }
            }
        }
        if key == self.memo_key {
            if cfg!(debug_assertions) {
                // Shadow check: the real sweep, on the real state, must
                // be the no-op the memo says it is.
                let sweep = self.sweep(ctx, ready, connecting);
                assert!(
                    !sweep.changed && sweep.burned == self.memo_burned,
                    "memoized assignment sweep was not a no-op \
                     (changed {}, burned {} vs {})",
                    sweep.changed,
                    sweep.burned,
                    self.memo_burned
                );
            } else {
                self.pool.skip_ids(self.memo_burned);
            }
        } else {
            let sweep = self.sweep(ctx, ready, connecting);
            if sweep.changed {
                // The sweep's own effects (an assignment, or an eviction
                // at the global cap that freed another domain's slot) are
                // inputs to the next one: remember nothing.
                key.clear();
            }
            self.memo_burned = sweep.burned;
            std::mem::swap(&mut self.memo_key, &mut key);
        }
        self.key_buf = key;
    }

    /// One pass over `ready`, assigning what the pool and the throttle
    /// allow. `connecting` is the number of handshakes in progress.
    fn sweep(
        &mut self,
        ctx: &mut SessionCtx<'_>,
        ready: &[ObjectId],
        mut connecting: usize,
    ) -> Sweep {
        let mut sweep = Sweep {
            changed: false,
            burned: 0,
        };
        if ctx.visits.current_page.is_none() {
            return sweep;
        }
        for &obj in ready {
            let domain = ctx.visits.domain_of(obj);
            // With pipelining enabled, stack further requests onto a
            // connection to this domain that still has pipeline slots.
            if ctx.cfg.http_pipelining > 1 {
                let depth = ctx.cfg.http_pipelining;
                let slot = ctx.world.live_access.iter().copied().find(|&i| {
                    matches!(&ctx.world.pipes[i].role,
                        PipeRole::HttpClient { outstanding, pending, pool_id, retired: false, .. }
                            if outstanding.len() + pending.len() < depth
                                && (!outstanding.is_empty() || !pending.is_empty())
                                && self.pool.domain_of(*pool_id) == Some(domain))
                });
                if let Some(pipe) = slot {
                    sweep.changed = true;
                    if let Some(load) = ctx.visits.load.as_mut() {
                        load.take_ready(obj);
                    }
                    if let PipeRole::HttpClient { pending, .. } = &mut ctx.world.pipes[pipe].role {
                        pending.push_back((ctx.visits.visit_gen, u64::from(obj.0)));
                    }
                    self.flush_pending(ctx, pipe);
                    ctx.world.mark_dirty(pipe);
                    continue;
                }
            }
            loop {
                if connecting >= 8 && self.pool.would_open(domain) {
                    // Throttled: retry when a handshake completes. The
                    // attempt still consumes a pool id (see DESIGN.md on
                    // the `http-<n>` labels).
                    self.pool.skip_ids(1);
                    sweep.burned += 1;
                    break;
                }
                match self.pool.acquire(domain) {
                    Acquire::Reuse(pid) => {
                        sweep.changed = true;
                        let Some(pipe) = self.pipe_for_pool(ctx.world, pid) else {
                            self.pool.remove(pid);
                            continue;
                        };
                        if let Some(load) = ctx.visits.load.as_mut() {
                            load.take_ready(obj);
                        }
                        if let PipeRole::HttpClient { pending, .. } =
                            &mut ctx.world.pipes[pipe].role
                        {
                            pending.push_back((ctx.visits.visit_gen, u64::from(obj.0)));
                        }
                        self.flush_pending(ctx, pipe);
                        ctx.world.mark_dirty(pipe);
                        break;
                    }
                    Acquire::Open(pid) => {
                        sweep.changed = true;
                        connecting += 1;
                        if let Some(load) = ctx.visits.load.as_mut() {
                            load.take_ready(obj);
                        }
                        let generation = ctx.visits.visit_gen;
                        let now = ctx.world.now;
                        let pipe = self.open_client_pipe(
                            ctx,
                            PipeRole::HttpClient {
                                pool_id: pid,
                                http: HttpClientConn::with_pipelining(ctx.cfg.http_pipelining),
                                outstanding: VecDeque::new(),
                                pending: VecDeque::from([(generation, u64::from(obj.0))]),
                                got_first_byte: false,
                                fetch_queue: VecDeque::new(),
                                last_use: now,
                                retired: false,
                            },
                            format!("http-{}", pid.0),
                        );
                        ctx.world.mark_dirty(pipe);
                        break;
                    }
                    Acquire::Blocked => {
                        if self.pool.at_global_cap() {
                            if let Some(evicted) = self.pool.evict_idle() {
                                sweep.changed = true;
                                if let Some(pipe) = self.pipe_for_pool(ctx.world, evicted) {
                                    self.retire_http_pipe(ctx.world, pipe);
                                }
                                continue;
                            }
                        }
                        break;
                    }
                }
            }
        }
        sweep
    }

    fn pipe_for_pool(&self, world: &World, pid: PoolConnId) -> Option<usize> {
        world.live_access.iter().copied().find(|&i| {
            matches!(&world.pipes[i].role, PipeRole::HttpClient { pool_id, retired, .. }
                    if *pool_id == pid && !retired)
        })
    }

    /// Evict a pipe from the pool and start closing its device side.
    pub fn retire_http_pipe(&mut self, world: &mut World, idx: usize) {
        if let PipeRole::HttpClient {
            retired, pool_id, ..
        } = &mut world.pipes[idx].role
        {
            if !*retired {
                *retired = true;
                let pid = *pool_id;
                self.pool.remove(pid);
            }
        }
        world.pipes[idx].a.close(world.now);
        world.mark_dirty(idx);
    }

    /// Fire a §5.7 beacon request on a pooled (or fresh) connection.
    /// Returns whether a request was issued immediately.
    pub fn issue_beacon(&mut self, ctx: &mut SessionCtx<'_>) -> bool {
        match self.pool.acquire(ctx.visits.beacon_domain()) {
            Acquire::Reuse(pid) => {
                if let Some(pipe) = self.pipe_for_pool(ctx.world, pid) {
                    if let PipeRole::HttpClient { pending, .. } = &mut ctx.world.pipes[pipe].role {
                        pending.push_back((ctx.visits.visit_gen, BEACON_TAG));
                    }
                    let issued = self.flush_pending(ctx, pipe);
                    ctx.world.mark_dirty(pipe);
                    issued
                } else {
                    self.pool.remove(pid);
                    false
                }
            }
            Acquire::Open(pid) => {
                let generation = ctx.visits.visit_gen;
                let now = ctx.world.now;
                self.open_client_pipe(
                    ctx,
                    PipeRole::HttpClient {
                        pool_id: pid,
                        http: HttpClientConn::with_pipelining(ctx.cfg.http_pipelining),
                        outstanding: VecDeque::new(),
                        pending: VecDeque::from([(generation, BEACON_TAG)]),
                        got_first_byte: false,
                        fetch_queue: VecDeque::new(),
                        last_use: now,
                        retired: false,
                    },
                    format!("http-{}", pid.0),
                );
                false
            }
            Acquire::Blocked => false,
        }
    }

    /// Server-initiated periodic data (§5.7): a pending long-poll
    /// completes on one idle persistent connection; the client discards
    /// the unsolicited body.
    pub fn push_beacon(&mut self, ctx: &mut SessionCtx<'_>) {
        let target = ctx.world.live_access.iter().copied().find(|&i| {
            let p = &ctx.world.pipes[i];
            p.b.is_established()
                && matches!(
                    &p.role,
                    PipeRole::HttpClient { outstanding, pending, retired: false, .. }
                        if outstanding.is_empty() && pending.is_empty()
                )
        });
        if let Some(idx) = target {
            let resp = Response::push(Payload::body(BEACON_BYTES));
            ctx.world.pipes[idx].out_b.push_back(resp.encode());
            ctx.world.mark_dirty(idx);
        }
    }

    /// Complete the FIN handshake on a retired pipe once the device side
    /// has closed, and tell the proxy core the client is gone.
    pub fn handle_close_handshake(&mut self, world: &mut World, idx: usize) {
        let retired = matches!(
            world.pipes[idx].role,
            PipeRole::HttpClient { retired: true, .. }
        );
        if retired && world.pipes[idx].b.peer_closed() {
            world.pipes[idx].b.close(world.now);
            self.proxy.on_client_closed(ClientConnId(idx as u64));
        }
    }

    /// Retire every idle unretired pipe whose idle time reached
    /// [`HTTP_IDLE_CLOSE`].
    pub fn idle_sweep(&mut self, world: &mut World) {
        let stale: Vec<usize> = world
            .live_access
            .iter()
            .copied()
            .filter(|&i| {
                matches!(
                    &world.pipes[i].role,
                    PipeRole::HttpClient {
                        outstanding,
                        pending,
                        retired: false,
                        last_use,
                        ..
                    } if outstanding.is_empty()
                        && pending.is_empty()
                        && world.now.saturating_since(*last_use) >= HTTP_IDLE_CLOSE
                )
            })
            .collect();
        for i in stale {
            self.retire_http_pipe(world, i);
        }
    }

    /// Drain the proxy's origin fetches and client-bound bytes.
    fn poll_actions(&mut self) -> Vec<SessionAction> {
        let mut actions = Vec::new();
        while let Some(out) = self.proxy.poll_output() {
            match out {
                HttpProxyOutput::Fetch { fetch, request } => {
                    actions.push(SessionAction::OriginFetch { fetch, request });
                }
                HttpProxyOutput::ToClient { conn, bytes, fetch } => {
                    actions.push(SessionAction::ClientBytes {
                        pipe: conn.0 as usize,
                        bytes,
                        fetch,
                    });
                }
            }
        }
        actions
    }

    /// The earliest idle-close deadline of an idle, unretired pipe.
    fn next_timeout(&self, ctx: &SessionCtx<'_>) -> Option<SimTime> {
        ctx.world
            .live_access
            .iter()
            .filter_map(|&i| match &ctx.world.pipes[i].role {
                PipeRole::HttpClient {
                    outstanding,
                    pending,
                    retired: false,
                    last_use,
                    ..
                } if outstanding.is_empty() && pending.is_empty() => {
                    Some(*last_use + HTTP_IDLE_CLOSE)
                }
                _ => None,
            })
            .min()
    }
}

// ======================================================================
// SPDY/3 side
// ======================================================================

/// The SPDY/3 protocol side: client sessions, per-session proxy cores,
/// and the §6.1 late-binding response routing.
pub(crate) struct SpdySide {
    /// Device-side session state, one per configured connection.
    pub clients: Vec<SpdyClientState>,
    /// Proxy-side SPDY cores, one per session.
    pub proxies: Vec<SpdyProxyCore>,
    /// fetch → owning session index.
    pub fetch_owner: HashMap<FetchId, usize>,
    /// fetch → `(generation, object-or-beacon)` for late-binding delivery.
    pub fetch_tag: HashMap<FetchId, (u64, u64)>,
    /// `(session, stream)` of a late-bound response → `(owner, fetch)`.
    pub late_stream_fetch: HashMap<(usize, u32), (usize, FetchId)>,
    /// Round-robin cursor over usable sessions.
    pub rr: usize,
    /// Sessions whose proxy scheduler needs a wire pump, in touch order.
    pending_pump: Vec<usize>,
    /// Whether each session's proxy core keeps a record per fetch.
    keep_records: bool,
}

impl SpdySide {
    /// Fresh side with no sessions yet; its proxies keep a record per
    /// fetch when `keep_records`.
    pub fn new(keep_records: bool) -> SpdySide {
        SpdySide {
            keep_records,
            clients: Vec::new(),
            proxies: Vec::new(),
            fetch_owner: HashMap::new(),
            fetch_tag: HashMap::new(),
            late_stream_fetch: HashMap::new(),
            rr: 0,
            pending_pump: Vec::new(),
        }
    }

    /// Open one SPDY session (pipe + client state + proxy core). The
    /// driver services pipes afterwards.
    pub fn open_session(&mut self, ctx: &mut SessionCtx<'_>) {
        let sidx = self.clients.len();
        let pipe = ctx.world.new_pipe(
            ctx.result,
            true,
            PipeRole::SpdyClient { idx: sidx },
            format!("spdy-{sidx}"),
        );
        self.clients.push(SpdyClientState {
            session: SpdySession::new(Role::Client, SpdyConfig::default()),
            pipe,
            usable: false,
            streams: HashMap::new(),
            ssl_scheduled: false,
        });
        // Distinct fetch-id spaces per session (shared owner map).
        self.proxies.push(
            SpdyProxyCore::with_fetch_offset(SpdyConfig::default(), sidx as u64 * 1_000_000)
                .keep_records(self.keep_records),
        );
        ctx.world.mark_dirty(pipe);
    }

    /// Device-side bytes arrived on a session's pipe: parse frames,
    /// record object progress, credit flow-control windows.
    pub fn handle_client_bytes(&mut self, ctx: &mut SessionCtx<'_>, sidx: usize, data: Payload) {
        let events = match self.clients[sidx].session.on_bytes(data) {
            Ok(ev) => ev,
            Err(e) => {
                debug_assert!(false, "client session {sidx} frame error: {e}");
                return;
            }
        };
        let pipe = self.clients[sidx].pipe;
        for ev in events {
            if ctx.world.tracer.active(TraceLevel::Full) {
                let (kind, stream, fin) = match &ev {
                    SpdyEvent::Reply { stream_id, fin, .. } => ("Reply", *stream_id, *fin),
                    SpdyEvent::Data { stream_id, fin, .. } => ("Data", *stream_id, *fin),
                    SpdyEvent::StreamOpened { stream_id, .. } => {
                        ("StreamOpened", *stream_id, false)
                    }
                    SpdyEvent::Ping(_) => ("Ping", 0, false),
                    SpdyEvent::Reset { .. } => ("Reset", 0, false),
                    SpdyEvent::Goaway => ("Goaway", 0, false),
                };
                ctx.world.tracer.emit(
                    ctx.world.now,
                    TraceEvent::SpdyFrameRecv {
                        conn: pipe,
                        stream,
                        kind: kind.to_string(),
                        fin,
                    },
                );
            }
            match ev {
                SpdyEvent::Reply { stream_id, fin, .. } => {
                    if let Some(&(generation, tag, _)) = self.clients[sidx].streams.get(&stream_id)
                    {
                        ctx.visits
                            .note_first_byte_tagged(ctx.world, generation, tag);
                        if let Some(e) = self.clients[sidx].streams.get_mut(&stream_id) {
                            e.2 = true;
                        }
                        if fin {
                            self.stream_done(ctx, sidx, stream_id);
                        }
                    }
                }
                SpdyEvent::Data {
                    stream_id,
                    payload,
                    fin,
                } => {
                    // Credit every stream (including server-pushed ones).
                    self.clients[sidx]
                        .session
                        .consume(stream_id, payload.len() as u32);
                    if let Some(&(generation, tag, first_seen)) =
                        self.clients[sidx].streams.get(&stream_id)
                    {
                        if !first_seen {
                            ctx.visits
                                .note_first_byte_tagged(ctx.world, generation, tag);
                            if let Some(e) = self.clients[sidx].streams.get_mut(&stream_id) {
                                e.2 = true;
                            }
                        }
                        if fin {
                            self.stream_done(ctx, sidx, stream_id);
                        }
                    }
                }
                SpdyEvent::StreamOpened {
                    stream_id, headers, ..
                } => {
                    // A late-bound response arrives on a server-initiated
                    // stream tagged with the original request identity.
                    let get = |k: &str| headers.get(k).and_then(|v| v.parse::<u64>().ok());
                    if let (Some(generation), Some(tag)) = (get("x-late-gen"), get("x-late-tag")) {
                        if tag != BEACON_TAG {
                            ctx.visits
                                .note_first_byte_tagged(ctx.world, generation, tag);
                            self.clients[sidx]
                                .streams
                                .insert(stream_id, (generation, tag, true));
                        }
                    }
                }
                SpdyEvent::Ping(_) | SpdyEvent::Reset { .. } | SpdyEvent::Goaway => {}
            }
        }
        // consume() may have queued WINDOW_UPDATEs on the client session.
        self.pump_client_wire(ctx.world, sidx);
        ctx.world.mark_dirty(pipe);
    }

    fn stream_done(&mut self, ctx: &mut SessionCtx<'_>, sidx: usize, stream_id: u32) {
        let Some((generation, tag, _)) = self.clients[sidx].streams.remove(&stream_id) else {
            return;
        };
        if let Some((owner, fetch)) = self.late_stream_fetch.remove(&(sidx, stream_id)) {
            self.proxies[owner].on_client_received(fetch, ctx.world.now);
        } else if let Some(fetch) = self.proxies[sidx].fetch_for_stream(stream_id) {
            self.proxies[sidx].on_client_received(fetch, ctx.world.now);
        }
        ctx.visits.note_complete_tagged(ctx.world, generation, tag);
    }

    /// Proxy-side bytes arrived from the device on session `sidx`.
    pub fn on_client_bytes(&mut self, sidx: usize, data: Payload, now: SimTime) {
        self.proxies[sidx].on_client_bytes(data, now);
        self.pending_pump.push(sidx);
    }

    /// Move SPDY proxy wire bytes into the pipe's staging queue while the
    /// staging queue is shallow — keeping priority decisions late.
    pub fn pump_proxy_wire(&mut self, world: &mut World, sidx: usize) {
        let pipe = self.clients[sidx].pipe;
        if world.pipes.is_closed(pipe) {
            return;
        }
        let mut staged: u64 = world.pipes[pipe].out_b.iter().map(|b| b.len()).sum();
        let space = world.pipes[pipe].b.send_space();
        while staged < space.max(8 * 1024) {
            match self.proxies[sidx].poll_wire() {
                Some(wire) => {
                    staged += wire.len();
                    world.pipes[pipe].out_b.push_back(wire);
                }
                None => break,
            }
        }
        world.mark_dirty(pipe);
    }

    /// Move client-session frames into the pipe's device-side staging
    /// queue (once SSL setup has finished).
    pub fn pump_client_wire(&mut self, world: &mut World, sidx: usize) {
        let pipe = self.clients[sidx].pipe;
        if world.pipes.is_closed(pipe) || !self.clients[sidx].usable {
            return;
        }
        while let Some(wire) = self.clients[sidx].session.poll_wire() {
            world.pipes[pipe].out_a.push_back(wire);
        }
        world.mark_dirty(pipe);
    }

    /// Once a session's pipe is established, schedule its SSL-setup
    /// completion ([`SSL_SETUP_RTTS`] away), exactly once.
    pub fn detect_ssl_ready(&mut self, ctx: &mut SessionCtx<'_>, idx: usize) {
        if let PipeRole::SpdyClient { idx: sidx } = ctx.world.pipes[idx].role {
            if !self.clients[sidx].usable
                && ctx.world.pipes[idx].a.is_established()
                && !self.clients[sidx].ssl_scheduled
            {
                let delay = ctx.world.access.base_rtt().saturating_mul(SSL_SETUP_RTTS);
                let at = ctx.world.now + delay;
                ctx.world.queue.schedule(at, Event::SslReady { pipe: idx });
                self.clients[sidx].ssl_scheduled = true;
            }
        }
    }

    /// SSL setup finished: the session becomes usable and any queued
    /// frames go out.
    pub fn on_ssl_ready(&mut self, world: &mut World, sidx: usize) {
        self.clients[sidx].usable = true;
        self.pump_client_wire(world, sidx);
    }

    /// Assign ready page objects round-robin over usable sessions.
    pub fn assign_ready(&mut self, ctx: &mut SessionCtx<'_>, ready: &[ObjectId]) {
        if self.clients.is_empty() {
            return;
        }
        for &obj in ready {
            // Round-robin over usable sessions.
            let n = self.clients.len();
            let mut chosen = None;
            for k in 0..n {
                let s = (self.rr + k) % n;
                if self.clients[s].usable {
                    chosen = Some(s);
                    break;
                }
            }
            let Some(sidx) = chosen else {
                return; // no session ready yet (SSL still setting up)
            };
            self.rr = (sidx + 1) % n;
            let domain = ctx.visits.domain_of(obj);
            let browser = ctx
                .visits
                .cached_headers(&ctx.world.domains, domain)
                .clone();
            let Some(page) = ctx.visits.current_page.as_ref() else {
                return;
            };
            let o = page.object(obj);
            let headers = request_block(
                &[
                    (":method", "GET"),
                    (":host", &o.domain),
                    (":path", &o.path),
                    (":scheme", "https"),
                ],
                &browser,
            );
            let stream =
                self.clients[sidx]
                    .session
                    .open_stream(headers, o.kind.spdy_priority(), true);
            self.clients[sidx]
                .streams
                .insert(stream, (ctx.visits.visit_gen, u64::from(obj.0), false));
            ctx.world.tracer.emit(
                ctx.world.now,
                TraceEvent::SpdyStreamOpen {
                    conn: self.clients[sidx].pipe,
                    stream,
                    gen: ctx.visits.visit_gen,
                    tag: u64::from(obj.0),
                },
            );
            ctx.visits.note_requested(ctx.world, obj);
            self.pump_client_wire(ctx.world, sidx);
        }
    }

    /// Fire a §5.7 beacon request on the first usable session.
    pub fn issue_beacon(&mut self, ctx: &mut SessionCtx<'_>) -> bool {
        if let Some(sidx) = (0..self.clients.len()).find(|&s| self.clients[s].usable) {
            let domain = ctx.visits.beacon_domain();
            let headers = request_block(
                &[
                    (":method", "GET"),
                    (":host", ctx.world.domains.name(domain)),
                    (":path", "/beacon.gif"),
                ],
                ctx.visits.cached_headers(&ctx.world.domains, domain),
            );
            let stream = self.clients[sidx].session.open_stream(headers, 4, true);
            self.clients[sidx]
                .streams
                .insert(stream, (ctx.visits.visit_gen, BEACON_TAG, false));
            self.pump_client_wire(ctx.world, sidx);
        }
        false
    }

    /// Server-initiated periodic data (§5.7): the proxy pushes unsolicited
    /// bytes (a completed long-poll, a refreshed ad) into what may be an
    /// idle radio — the transfer pattern whose spurious timeouts collapse
    /// the sender's window with no request to pre-pay the promotion.
    pub fn push_beacon(&mut self, ctx: &mut SessionCtx<'_>) {
        if let Some(sidx) = (0..self.clients.len()).find(|&s| self.clients[s].usable) {
            self.proxies[sidx].push_data("/push/refresh", Payload::body(BEACON_BYTES));
            self.pump_proxy_wire(ctx.world, sidx);
        }
    }
}

/// A SYN_STREAM's header block: the request's own `:`-pseudo headers,
/// then the browser's cached set for the domain, in one buffer.
fn request_block(pseudo: &[(&str, &str)], browser: &Headers) -> Headers {
    let text: usize = pseudo.iter().map(|(n, v)| 8 + n.len() + v.len()).sum();
    let mut headers = HeadersBuilder::with_capacity(text + browser.as_block().len());
    for (name, value) in pseudo {
        headers.push(name, value);
    }
    headers.extend(browser);
    headers.finish()
}

impl SpdySide {
    /// The first response byte for `fetch` arrived from an origin.
    fn on_fetch_first_byte(&mut self, now: SimTime, fetch: FetchId) {
        if let Some(&sidx) = self.fetch_owner.get(&fetch) {
            self.proxies[sidx].on_fetch_first_byte(fetch, now);
        }
    }

    /// An origin fetch completed: hand it to the owning session's proxy,
    /// or (§6.1 late binding) push it on the least-backlogged session.
    fn on_fetch_complete(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId, resp: Response) {
        let Some(&sidx) = self.fetch_owner.get(&fetch) else {
            return;
        };
        let late = matches!(
            ctx.cfg.protocol,
            ProtocolMode::Spdy {
                late_binding: true,
                ..
            }
        );
        if !late {
            self.proxies[sidx].on_fetch_complete(fetch, resp, ctx.world.now);
            self.pending_pump.push(sidx);
            return;
        }
        // §6.1 late binding: deliver on whichever session's connection can
        // transmit soonest (least send backlog), on a tagged
        // server-initiated stream.
        self.proxies[sidx].stamp_complete(fetch, ctx.world.now);
        let best = {
            let world = &*ctx.world;
            (0..self.clients.len())
                .filter(|&s| self.clients[s].usable)
                .min_by_key(|&s| {
                    let pipe = self.clients[s].pipe;
                    let staged: u64 = world.pipes[pipe].out_b.iter().map(|b| b.len()).sum();
                    world.pipes[pipe].b.send_queue_len()
                        + world.pipes[pipe].b.bytes_in_flight()
                        + staged
                        + self.proxies[s].session().pending_bytes()
                })
                .unwrap_or(sidx)
        };
        ctx.world.tracer.emit(
            ctx.world.now,
            TraceEvent::ProxyLateBind {
                fetch: fetch.0,
                owner_session: sidx,
                chosen_session: best,
            },
        );
        let (generation, tag) = self
            .fetch_tag
            .get(&fetch)
            .copied()
            .unwrap_or((0, BEACON_TAG));
        let headers = Headers::from_pairs(&[
            (":status", resp.status.to_string()),
            ("x-late-gen", generation.to_string()),
            ("x-late-tag", tag.to_string()),
        ]);
        let stream = self.proxies[best].push_with_headers(headers, resp.body, 2);
        self.late_stream_fetch.insert((best, stream), (sidx, fetch));
        self.pending_pump.push(best);
    }

    /// Drain the proxies' origin fetches, then the wire pumps owed.
    fn poll_actions(&mut self) -> Vec<SessionAction> {
        let mut actions = Vec::new();
        for sidx in 0..self.proxies.len() {
            while let Some(out) = self.proxies[sidx].poll_output() {
                match out {
                    SpdyProxyOutput::Fetch { fetch, request } => {
                        self.fetch_owner.insert(fetch, sidx);
                        if let Some(stream) = self.proxies[sidx].stream_of(fetch) {
                            if let Some(&(generation, tag, _)) =
                                self.clients[sidx].streams.get(&stream)
                            {
                                self.fetch_tag.insert(fetch, (generation, tag));
                            }
                        }
                        actions.push(SessionAction::OriginFetch { fetch, request });
                    }
                }
            }
        }
        for sidx in std::mem::take(&mut self.pending_pump) {
            actions.push(SessionAction::PumpProxyWire { session: sidx });
        }
        actions
    }
}

// ======================================================================
// Protocol dispatch
// ======================================================================

/// The active protocol side for one run.
pub(crate) enum Side {
    /// HTTP/1.1 with a browser connection pool.
    Http(HttpSide),
    /// SPDY/3 sessions (optionally late-binding, multi-connection).
    Spdy(SpdySide),
}

impl Side {
    /// Build the side matching the configured protocol.
    pub fn for_cfg(cfg: &ExperimentConfig) -> Side {
        match cfg.protocol {
            ProtocolMode::Http => Side::Http(HttpSide::new(cfg.record_series)),
            ProtocolMode::Spdy { .. } => Side::Spdy(SpdySide::new(cfg.record_series)),
        }
    }

    /// Refill callback for [`World::flush_staged`]: the SPDY proxy keeps
    /// frames unscheduled until send-buffer space exists.
    pub fn refill(&mut self, role: &PipeRole) -> Option<Payload> {
        if let (Side::Spdy(spdy), PipeRole::SpdyClient { idx }) = (self, role) {
            spdy.proxies[*idx].poll_wire()
        } else {
            None
        }
    }

    /// Issue pending requests unblocked by connection establishment.
    pub fn flush_pending(&mut self, ctx: &mut SessionCtx<'_>, idx: usize) -> bool {
        match self {
            Side::Http(h) => h.flush_pending(ctx, idx),
            Side::Spdy(_) => false,
        }
    }

    /// Side-specific post-read hook: FIN handshakes on retired HTTP
    /// pipes; SSL-ready detection on SPDY pipes.
    pub fn post_read(&mut self, ctx: &mut SessionCtx<'_>, idx: usize) {
        match self {
            Side::Http(h) => h.handle_close_handshake(ctx.world, idx),
            Side::Spdy(s) => s.detect_ssl_ready(ctx, idx),
        }
    }

    /// Assign ready page objects to connections/streams.
    pub fn assign_ready(&mut self, ctx: &mut SessionCtx<'_>, ready: &[ObjectId]) {
        match self {
            Side::Http(h) => h.assign_ready(ctx, ready),
            Side::Spdy(s) => s.assign_ready(ctx, ready),
        }
    }

    /// Fire a beacon request; returns whether one was issued immediately.
    pub fn issue_beacon(&mut self, ctx: &mut SessionCtx<'_>) -> bool {
        match self {
            Side::Http(h) => h.issue_beacon(ctx),
            Side::Spdy(s) => s.issue_beacon(ctx),
        }
    }

    /// Push server-initiated beacon data toward the device.
    pub fn push_beacon(&mut self, ctx: &mut SessionCtx<'_>) {
        match self {
            Side::Http(h) => h.push_beacon(ctx),
            Side::Spdy(s) => s.push_beacon(ctx),
        }
    }

    /// The first response byte for `fetch` arrived from an origin.
    pub fn on_fetch_first_byte(&mut self, now: SimTime, fetch: FetchId) {
        match self {
            Side::Http(h) => h.proxy.on_fetch_first_byte(fetch, now),
            Side::Spdy(s) => s.on_fetch_first_byte(now, fetch),
        }
    }

    /// An origin fetch completed with `resp`.
    pub fn on_fetch_complete(&mut self, ctx: &mut SessionCtx<'_>, fetch: FetchId, resp: Response) {
        match self {
            Side::Http(h) => h.proxy.on_fetch_complete(fetch, resp, ctx.world.now),
            Side::Spdy(s) => s.on_fetch_complete(ctx, fetch, resp),
        }
    }

    /// Drain pending work (origin fetches, client-bound bytes, wire
    /// pumps) for the driver to execute in order.
    pub fn poll_actions(&mut self) -> Vec<SessionAction> {
        match self {
            Side::Http(h) => h.poll_actions(),
            Side::Spdy(s) => s.poll_actions(),
        }
    }

    /// The earliest instant this side needs a maintenance wake-up
    /// (HTTP idle-connection close), if any.
    pub fn next_timeout(&self, ctx: &SessionCtx<'_>) -> Option<SimTime> {
        match self {
            Side::Http(h) => h.next_timeout(ctx),
            Side::Spdy(_) => None,
        }
    }

    /// Move out every per-object proxy record accumulated this run
    /// (none unless the run keeps them, [`ExperimentConfig::record_series`]).
    pub fn take_proxy_records(&mut self) -> Vec<ProxyObjectRecord> {
        match self {
            Side::Http(h) => h.proxy.take_records(),
            Side::Spdy(s) => s
                .proxies
                .iter_mut()
                .flat_map(|p| p.take_records())
                .collect(),
        }
    }
}
