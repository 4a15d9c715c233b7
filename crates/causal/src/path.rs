//! Exact per-visit critical-path extraction.
//!
//! The extractor walks one visit's dependency spine backwards from the
//! last-completing object — each spine step is "this fetch could not
//! have been issued before its predecessor finished" — then carves every
//! spine segment into typed edges with [`crate::sweep`], the overlap
//! sweep [`crate::stall_sums_us`] runs over a whole window. The edges tile the
//! `[VisitStart, VisitStart + plt]` window with no gaps and no overlaps,
//! so their durations sum to the PLT *exactly*: conservation is by
//! construction.
//!
//! Segment taxonomy:
//!
//! * **object spans** `[requested, complete)` — the network is working
//!   on the fetch. Overlap priority: the model's five layers (RTO
//!   recovery > RRC promotion > link serialization > queueing > origin
//!   think), connection-bound ones on the fetch's own connection only;
//!   the remainder is response wait before the first byte and receive
//!   after it.
//! * **gaps** `[prev complete, next requested)` — the browser holds the
//!   chain. Priority: RTO recovery (any connection) > promotion >
//!   connection setup (the next fetch's connection) ; the remainder is
//!   parse/execute time.
//! * **tail** `[last complete, plt)` — onload work; pure parse.
//!
//! The `explain` document ([`explain_json`]) is typed: a [`CriticalPath`]
//! prints as one visit and a [`PathEdge`] as one edge, through their
//! `Serialize`, and `serde::Writer` prints the whole document into one
//! string sized up front — no `Value` tree, which for a Table-1 cell's
//! ~15k edges would outweigh the text several times over.

use crate::model::{ConnBinding, EventModel, VisitWindow};
use crate::sweep::{layers, sweep, sweep_layers};
use serde::{Serialize, Writer};
use spdyier_trace::TraceRecord;

/// What a critical-path edge's time was spent on, declared in
/// [`EDGE_KINDS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Browser parse/execute/dispatch time holding the chain.
    Parse,
    /// Waiting for the next fetch's connection handshake.
    ConnSetup,
    /// Waiting out an RRC promotion.
    Promotion,
    /// Silence ended by a TCP retransmission timeout.
    RtoRecovery,
    /// The access link clocking this fetch's bytes out.
    Serialization,
    /// This fetch's segments queued / propagating on the path.
    Queueing,
    /// The origin thinking before it replies.
    ServerThink,
    /// Request in flight, first response byte not yet back.
    ResponseWait,
    /// First byte received, body still streaming in.
    Receive,
}

/// Every edge kind, in the canonical (metric/report) order.
pub const EDGE_KINDS: [EdgeKind; 9] = [
    EdgeKind::Parse,
    EdgeKind::ConnSetup,
    EdgeKind::Promotion,
    EdgeKind::RtoRecovery,
    EdgeKind::Serialization,
    EdgeKind::Queueing,
    EdgeKind::ServerThink,
    EdgeKind::ResponseWait,
    EdgeKind::Receive,
];

impl EdgeKind {
    /// Stable snake_case name used in JSON artifacts and reports.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Parse => "parse",
            EdgeKind::ConnSetup => "conn_setup",
            EdgeKind::Promotion => "promotion",
            EdgeKind::RtoRecovery => "rto_recovery",
            EdgeKind::Serialization => "serialization",
            EdgeKind::Queueing => "queueing",
            EdgeKind::ServerThink => "server_think",
            EdgeKind::ResponseWait => "response_wait",
            EdgeKind::Receive => "receive",
        }
    }

    /// Index into [`EDGE_KINDS`]-ordered arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// An edge kind prints as its [`EdgeKind::name`].
impl Serialize for EdgeKind {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.str(self.name());
    }
}

/// One value per edge kind, in [`EDGE_KINDS`] order; prints as an object
/// keyed by [`EdgeKind::name`].
pub(crate) struct ByEdge<T>(pub(crate) [T; EDGE_KINDS.len()]);

impl<T: Serialize> Serialize for ByEdge<T> {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        for (kind, value) in EDGE_KINDS.iter().zip(&self.0) {
            w.field(kind.name(), value);
        }
        w.end_object();
    }
}

/// One typed edge of a visit's critical path; prints as one edge of the
/// `explain` document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PathEdge {
    /// Edge start, µs.
    pub start_us: u64,
    /// Edge end, µs (exclusive).
    pub end_us: u64,
    /// What the time was spent on.
    pub kind: EdgeKind,
    /// The object whose fetch span the edge belongs to (`None` for
    /// gap/tail edges).
    pub object: Option<u32>,
    /// The connection governing the edge, when one does.
    pub conn: Option<usize>,
}

impl PathEdge {
    /// Edge duration, µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// One visit's critical path: edges tiling `[start, end)` exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Visit index in the schedule.
    pub visit: usize,
    /// Site index the visit loaded.
    pub site: usize,
    /// Whether the visit reached onload before its deadline.
    pub completed: bool,
    /// Window start, µs.
    pub start_us: u64,
    /// Window end, µs (`start + plt`).
    pub end_us: u64,
    /// The typed edges, chronological, gap-free.
    pub edges: Vec<PathEdge>,
}

impl CriticalPath {
    /// The visit's page-load time, µs.
    pub fn plt_us(&self) -> u64 {
        self.end_us - self.start_us
    }

    /// Per-kind duration sums, µs, in [`EDGE_KINDS`] order. By the
    /// conservation invariant these sum to [`Self::plt_us`].
    pub fn sums_us(&self) -> [u64; EDGE_KINDS.len()] {
        let mut sums = [0u64; EDGE_KINDS.len()];
        for e in &self.edges {
            sums[e.kind.index()] += e.duration_us();
        }
        sums
    }
}

/// Sum per-kind durations across many paths, µs, [`EDGE_KINDS`] order.
pub fn rollup_us(paths: &[CriticalPath]) -> [u64; EDGE_KINDS.len()] {
    let mut sums = [0u64; EDGE_KINDS.len()];
    for p in paths {
        for (sum, add) in sums.iter_mut().zip(p.sums_us()) {
            *sum += add;
        }
    }
    sums
}

/// Extract the critical path of every visit in a record stream.
pub fn critical_paths_from_records(records: &[TraceRecord]) -> Vec<CriticalPath> {
    let model = EventModel::from_records(records);
    critical_paths(&model)
}

/// Extract the critical path of every visit a `VisitEnd` closed (a
/// window left open by a cut stream has no PLT to tile), in stream
/// order.
pub fn critical_paths(model: &EventModel) -> Vec<CriticalPath> {
    let closed = model.windows.iter().filter(|w| w.closed);
    closed.map(|w| visit_path(model, w)).collect()
}

/// One object on the spine: its clipped span and connection binding.
#[derive(Debug, Clone, Copy)]
struct SpineObject {
    object: u32,
    r_us: u64,
    /// First-byte instant clipped into the span (span end when absent).
    fb_us: u64,
    /// Completion clipped to the window end (abandoned fetches run to
    /// the deadline).
    c_us: u64,
    binding: Option<ConnBinding>,
}

fn visit_path(model: &EventModel, w: &VisitWindow) -> CriticalPath {
    let (vs, ve) = (w.start_us, w.end_us);
    // Objects requested inside the window, spans clipped to it.
    let mut objects: Vec<SpineObject> = Vec::new();
    if let Some(per_object) = model.objects.get(&w.visit) {
        for (&object, inst) in per_object {
            let Some(r) = inst.requested_us else { continue };
            if r < vs || r >= ve {
                continue;
            }
            let c = inst.complete_us.unwrap_or(ve).min(ve).max(r);
            let fb = inst.first_byte_us.unwrap_or(c).clamp(r, c);
            objects.push(SpineObject {
                object,
                r_us: r,
                fb_us: fb,
                c_us: c,
                binding: model.binding(w.visit, object),
            });
        }
    }

    let mut edges = Vec::new();
    if objects.is_empty() {
        // Nothing was fetched inside the window: the whole PLT is the
        // browser's (degenerate, but conservation must still hold).
        push_edge(&mut edges, vs, ve, EdgeKind::Parse, None, None);
        return finish_path(w, edges);
    }

    // Anchor: the object whose completion pins the load's end.
    // Deterministic tie-break by (complete, requested, object id).
    let anchor = objects
        .iter()
        .enumerate()
        .max_by_key(|(_, o)| (o.c_us, o.r_us, o.object))
        .map(|(i, _)| i)
        .expect("objects non-empty");

    // Walk the spine backwards: predecessor = the unused object whose
    // completion is latest but not after the current request (the fetch
    // the browser was most plausibly waiting on when it issued this one).
    let mut spine: Vec<usize> = vec![anchor];
    let mut used = vec![false; objects.len()];
    used[anchor] = true;
    let mut cur = anchor;
    loop {
        let r_cur = objects[cur].r_us;
        let pred = objects
            .iter()
            .enumerate()
            .filter(|(i, o)| !used[*i] && o.c_us <= r_cur)
            .max_by_key(|(_, o)| (o.c_us, o.r_us, o.object))
            .map(|(i, _)| i);
        match pred {
            Some(p) => {
                used[p] = true;
                spine.push(p);
                cur = p;
            }
            None => break,
        }
    }
    spine.reverse(); // chronological

    // Emit: initial gap, then span / gap / span ... / tail.
    let first = &objects[spine[0]];
    if vs < first.r_us {
        gap_edges(&mut edges, model, vs, first.r_us, first.binding);
    }
    for (i, &idx) in spine.iter().enumerate() {
        let o = &objects[idx];
        span_edges(&mut edges, model, o);
        if let Some(&next_idx) = spine.get(i + 1) {
            let next = &objects[next_idx];
            if o.c_us < next.r_us {
                gap_edges(&mut edges, model, o.c_us, next.r_us, next.binding);
            }
        }
    }
    let last = &objects[*spine.last().expect("spine non-empty")];
    if last.c_us < ve {
        push_edge(&mut edges, last.c_us, ve, EdgeKind::Parse, None, None);
    }
    finish_path(w, edges)
}

fn finish_path(w: &VisitWindow, edges: Vec<PathEdge>) -> CriticalPath {
    CriticalPath {
        visit: w.visit,
        site: w.site,
        completed: w.completed,
        start_us: w.start_us,
        end_us: w.end_us,
        edges,
    }
}

/// Append an edge, merging into the previous one when contiguous and
/// identically typed.
fn push_edge(
    edges: &mut Vec<PathEdge>,
    start_us: u64,
    end_us: u64,
    kind: EdgeKind,
    object: Option<u32>,
    conn: Option<usize>,
) {
    if start_us >= end_us {
        return;
    }
    if let Some(last) = edges.last_mut() {
        if last.end_us == start_us
            && last.kind == kind
            && last.object == object
            && last.conn == conn
        {
            last.end_us = end_us;
            return;
        }
    }
    edges.push(PathEdge {
        start_us,
        end_us,
        kind,
        object,
        conn,
    });
}

/// Carve an object span `[r, c)` into typed edges: the model's layers
/// on the fetch's own connection, response wait / receive for the rest.
fn span_edges(edges: &mut Vec<PathEdge>, model: &EventModel, o: &SpineObject) {
    let kinds = layers(&model.index).map(|(kind, _)| kind);
    let conn = o.binding.map(|b| b.conn);
    sweep_layers(model, o.r_us, o.c_us, conn, |s, e, layer| {
        let kind = match layer {
            Some(p) => kinds[p],
            None if s < o.fb_us => EdgeKind::ResponseWait,
            None => EdgeKind::Receive,
        };
        push_edge(edges, s, e, kind, Some(o.object), conn);
    });
}

/// Carve a browser-held gap `[a, b)` into typed edges; `next` is the
/// binding of the fetch the gap leads to.
fn gap_edges(
    edges: &mut Vec<PathEdge>,
    model: &EventModel,
    a: u64,
    b: u64,
    next: Option<ConnBinding>,
) {
    let conn = next.map(|b| b.conn);
    let index = &model.index;
    let runs = [
        index.rto.admitted(None),
        index.promotions.admitted(None),
        index.setup.admitted(conn),
    ];
    let kinds = [
        EdgeKind::RtoRecovery,
        EdgeKind::Promotion,
        EdgeKind::ConnSetup,
    ];
    sweep(a, b, runs, |s, e, layer| {
        let kind = layer.map_or(EdgeKind::Parse, |p| kinds[p]);
        push_edge(edges, s, e, kind, None, conn);
    });
}

/// Schema version of the `explain_*.json` document.
pub const EXPLAIN_SCHEMA_VERSION: u32 = 1;

/// A path prints as one visit of the `explain` document: its identity,
/// PLT, per-kind sums and edges.
impl Serialize for CriticalPath {
    fn serialize(&self, w: &mut Writer<'_>) {
        w.begin_object();
        w.field("visit", &self.visit);
        w.field("site", &self.site);
        w.field("completed", &self.completed);
        w.field("start_us", &self.start_us);
        w.field("plt_us", &self.plt_us());
        w.field("edge_sums_us", &ByEdge(self.sums_us()));
        w.field("edges", &self.edges);
        w.end_object();
    }
}

/// The `explain_*.json` document.
#[derive(Serialize)]
struct Explain<'a> {
    schema_version: u32,
    kind: &'static str,
    label: &'a str,
    visits: &'a [CriticalPath],
    edge_sums_us: ByEdge<u64>,
}

/// Render paths as the schema-versioned `explain` JSON document.
pub fn explain_json(label: &str, paths: &[CriticalPath]) -> String {
    let doc = Explain {
        schema_version: EXPLAIN_SCHEMA_VERSION,
        kind: "critical_path_explain",
        label,
        visits: paths,
        edge_sums_us: ByEdge(rollup_us(paths)),
    };
    // Sized up front: a Table-1 cell's text is megabytes, and growing it
    // by doubling would hold two copies at once. ~170 bytes an edge and
    // ~550 a visit header at the depth they sit.
    let edges: usize = paths.iter().map(|p| p.edges.len()).sum();
    let mut out = String::with_capacity(512 + 640 * paths.len() + 192 * edges);
    doc.serialize(&mut Writer::new(&mut out, true));
    out.push('\n');
    out
}

/// Human-readable `explain` rendering: one block per visit, the path's
/// per-kind totals in ms, dominant edge first line.
pub fn explain_text(label: &str, paths: &[CriticalPath]) -> String {
    use std::fmt::Write as _;
    let mut s = format!("critical paths for {label}: {} visit(s)\n", paths.len());
    for p in paths {
        let sums = p.sums_us();
        let dominant = EDGE_KINDS
            .iter()
            .zip(sums)
            .max_by_key(|&(k, us)| (us, std::cmp::Reverse(k.index())))
            .map(|(k, _)| k.name())
            .unwrap_or("parse");
        let _ = writeln!(
            s,
            "  visit {:>2} site {:>2}: plt {:>9.1} ms over {} edge(s), dominant {}",
            p.visit,
            p.site,
            p.plt_us() as f64 / 1e3,
            p.edges.len(),
            dominant
        );
        for (k, us) in EDGE_KINDS.iter().zip(sums) {
            if us > 0 {
                let _ = writeln!(s, "    {:<14} {:>9.1} ms", k.name(), us as f64 / 1e3);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use spdyier_sim::SimTime;
    use spdyier_trace::{TraceEvent, TraceLevel, Tracer};

    fn records(events: Vec<(u64, TraceEvent)>) -> Vec<TraceRecord> {
        let mut tr = Tracer::for_level(TraceLevel::Full);
        for (at, ev) in events {
            tr.emit(SimTime::from_micros(at), ev);
        }
        tr.finish().events
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Two chained objects with a promotion, an RTO, a conn handshake
    /// and segment traffic: the canonical page skeleton.
    fn chain_records() -> Vec<TraceRecord> {
        records(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 9 }),
            (
                0,
                TraceEvent::RrcPromotion {
                    kind: "IdleToDch".into(),
                    start: t(0),
                    done: t(1_000),
                },
            ),
            (
                100,
                TraceEvent::ConnOpened {
                    conn: 0,
                    over_access: true,
                    label: "dev[0]".into(),
                },
            ),
            (1_400, TraceEvent::SslReady { conn: 0 }),
            (
                1_500,
                TraceEvent::ObjectRequested {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                1_500,
                TraceEvent::HttpRequestSent {
                    conn: 0,
                    gen: 1,
                    tag: 0,
                },
            ),
            (
                1_600,
                TraceEvent::SegmentSent {
                    conn: 0,
                    down: false,
                    bytes: 400,
                    deliver: t(1_900),
                    ser_us: 100,
                    retransmit: false,
                },
            ),
            (
                2_500,
                TraceEvent::ObjectFirstByte {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                3_000,
                TraceEvent::ObjectComplete {
                    visit: 0,
                    object: 0,
                },
            ),
            // 500 µs of parse before the dependent fetch goes out.
            (
                3_500,
                TraceEvent::ObjectRequested {
                    visit: 0,
                    object: 1,
                },
            ),
            (
                3_500,
                TraceEvent::HttpRequestSent {
                    conn: 0,
                    gen: 1,
                    tag: 1,
                },
            ),
            // RTO silence on the governing connection inside the span.
            (
                5_000,
                TraceEvent::TcpRto {
                    conn: 0,
                    b_side: false,
                    silent_since: t(4_000),
                },
            ),
            (
                5_600,
                TraceEvent::ObjectFirstByte {
                    visit: 0,
                    object: 1,
                },
            ),
            (
                6_000,
                TraceEvent::ObjectComplete {
                    visit: 0,
                    object: 1,
                },
            ),
            (
                6_400,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 6_400,
                },
            ),
        ])
    }

    #[test]
    fn edges_tile_the_window_and_conserve_plt() {
        let paths = critical_paths_from_records(&chain_records());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.plt_us(), 6_400);
        // Tiling: chronological, gap-free, ends at the window edges.
        assert_eq!(p.edges.first().unwrap().start_us, 0);
        assert_eq!(p.edges.last().unwrap().end_us, 6_400);
        for pair in p.edges.windows(2) {
            assert_eq!(pair[0].end_us, pair[1].start_us, "no gap, no overlap");
        }
        let total: u64 = p.edges.iter().map(PathEdge::duration_us).sum();
        assert_eq!(total, p.plt_us(), "conservation is exact");
    }

    #[test]
    fn the_expected_story_lands_in_the_expected_edges() {
        let p = &critical_paths_from_records(&chain_records())[0];
        let sums = p.sums_us();
        // Initial gap [0,1500): promotion [0,1000) wins over the setup
        // overlap, setup keeps [1000,1400), parse the last 100 µs.
        assert_eq!(sums[EdgeKind::Promotion.index()], 1_000);
        assert_eq!(sums[EdgeKind::ConnSetup.index()], 400);
        // Span 0 [1500,3000): queueing [1600,1800), serialization
        // [1800,1900); wait up to first byte at 2500, then receive.
        assert_eq!(sums[EdgeKind::Queueing.index()], 200);
        assert_eq!(sums[EdgeKind::Serialization.index()], 100);
        // Span 1 carries the RTO silence [4000,5000).
        assert_eq!(sums[EdgeKind::RtoRecovery.index()], 1_000);
        // Gap [3000,3500) parse + initial 100 + tail [6000,6400).
        assert_eq!(sums[EdgeKind::Parse.index()], 100 + 500 + 400);
        assert_eq!(sums.iter().sum::<u64>(), 6_400);
    }

    #[test]
    fn rto_on_a_foreign_connection_stays_off_the_span() {
        let recs = records(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 1 }),
            (
                10,
                TraceEvent::ObjectRequested {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                10,
                TraceEvent::HttpRequestSent {
                    conn: 0,
                    gen: 1,
                    tag: 0,
                },
            ),
            // An RTO on another pooled connection mid-span: not on this
            // object's path.
            (
                600,
                TraceEvent::TcpRto {
                    conn: 7,
                    b_side: false,
                    silent_since: t(100),
                },
            ),
            (
                900,
                TraceEvent::ObjectComplete {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                1_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 1_000,
                },
            ),
        ]);
        let p = &critical_paths_from_records(&recs)[0];
        assert_eq!(p.sums_us()[EdgeKind::RtoRecovery.index()], 0);
        assert_eq!(p.plt_us(), p.sums_us().iter().sum::<u64>());
    }

    #[test]
    fn a_gap_waits_on_the_next_fetchs_handshake_and_on_any_connections_rto() {
        let recs = records(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 1 }),
            // Another connection's handshake does not hold this fetch...
            (
                100,
                TraceEvent::ConnOpened {
                    conn: 7,
                    over_access: true,
                    label: "dev[7]".into(),
                },
            ),
            (500, TraceEvent::SslReady { conn: 7 }),
            // ...but its RTO silence does: a gap has no binding yet.
            (
                800,
                TraceEvent::TcpRto {
                    conn: 7,
                    b_side: false,
                    silent_since: t(600),
                },
            ),
            (
                1_000,
                TraceEvent::ObjectRequested {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                1_000,
                TraceEvent::HttpRequestSent {
                    conn: 0,
                    gen: 1,
                    tag: 0,
                },
            ),
            (
                1_500,
                TraceEvent::ObjectComplete {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                1_500,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 1_500,
                },
            ),
        ]);
        let sums = critical_paths_from_records(&recs)[0].sums_us();
        assert_eq!(sums[EdgeKind::ConnSetup.index()], 0);
        assert_eq!(sums[EdgeKind::RtoRecovery.index()], 200);
        assert_eq!(sums[EdgeKind::Parse.index()], 800);
    }

    #[test]
    fn empty_visits_degenerate_to_one_parse_edge() {
        let recs = records(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 2 }),
            (
                500,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: false,
                    plt_us: 500,
                },
            ),
        ]);
        let p = &critical_paths_from_records(&recs)[0];
        assert_eq!(p.edges.len(), 1);
        assert_eq!(p.edges[0].kind, EdgeKind::Parse);
        assert_eq!(p.plt_us(), 500);
    }

    #[test]
    fn an_edge_kind_indexes_itself_in_edge_kinds() {
        for (i, k) in EDGE_KINDS.into_iter().enumerate() {
            assert_eq!((k.index(), EDGE_KINDS[k.index()]), (i, k));
        }
    }

    #[test]
    fn explain_json_is_schema_versioned_and_conserving() {
        let paths = critical_paths_from_records(&chain_records());
        let j = explain_json("spdy", &paths);
        let v = serde_json::from_str(&j).expect("explain parses");
        assert_eq!(v["schema_version"].as_u64(), Some(1));
        assert_eq!(v["kind"].as_str(), Some("critical_path_explain"));
        assert_eq!(v["visits"][0]["plt_us"].as_u64(), Some(6_400));
        let text = explain_text("spdy", &paths);
        assert!(text.contains("visit  0"), "{text}");
    }

    /// The `Value` tree `explain_json` printed before it wrote its text
    /// directly: the reference for its bytes.
    fn explain_value(label: &str, paths: &[CriticalPath]) -> Value {
        let sums = |sums: [u64; EDGE_KINDS.len()]| {
            let pairs = EDGE_KINDS.iter().zip(sums);
            Value::Object(
                pairs
                    .map(|(k, us)| (k.name().into(), Value::U64(us)))
                    .collect(),
            )
        };
        let optional = |n: Option<u64>| n.map_or(Value::Null, Value::U64);
        let edge = |e: &PathEdge| {
            Value::Object(vec![
                ("start_us".into(), Value::U64(e.start_us)),
                ("end_us".into(), Value::U64(e.end_us)),
                ("kind".into(), Value::Str(e.kind.name().into())),
                ("object".into(), optional(e.object.map(u64::from))),
                ("conn".into(), optional(e.conn.map(|c| c as u64))),
            ])
        };
        let visit = |p: &CriticalPath| {
            Value::Object(vec![
                ("visit".into(), Value::U64(p.visit as u64)),
                ("site".into(), Value::U64(p.site as u64)),
                ("completed".into(), Value::Bool(p.completed)),
                ("start_us".into(), Value::U64(p.start_us)),
                ("plt_us".into(), Value::U64(p.plt_us())),
                ("edge_sums_us".into(), sums(p.sums_us())),
                (
                    "edges".into(),
                    Value::Array(p.edges.iter().map(edge).collect()),
                ),
            ])
        };
        Value::Object(vec![
            ("schema_version".into(), Value::U64(1)),
            ("kind".into(), Value::Str("critical_path_explain".into())),
            ("label".into(), Value::Str(label.into())),
            (
                "visits".into(),
                Value::Array(paths.iter().map(visit).collect()),
            ),
            ("edge_sums_us".into(), sums(rollup_us(paths))),
        ])
    }

    #[test]
    fn explain_json_prints_what_the_value_tree_printed() {
        let mut paths = critical_paths_from_records(&chain_records());
        // A zero-length visit has no edges: `"edges": []`.
        paths.push(CriticalPath {
            visit: 1,
            site: 4,
            completed: false,
            start_us: 9_000,
            end_us: 9_000,
            edges: Vec::new(),
        });
        for (label, paths) in [
            ("spdy", &paths[..]),
            ("a \"b\"\\\n", &paths[..1]),
            ("", &[]),
        ] {
            let mut expected = serde_json::to_string_pretty(&explain_value(label, paths)).unwrap();
            expected.push('\n');
            assert_eq!(explain_json(label, paths), expected);
        }
    }

    #[test]
    fn a_stream_cut_mid_visit_has_no_critical_path_for_the_open_visit() {
        // Visit 0 finishes; the stream ends inside visit 1, whose window
        // the model holds open and zero-length. One row per path:
        // `explain` must not count, nor `diff` align on, a zero-PLT
        // visit.
        let records = records(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 1 }),
            (
                600,
                TraceEvent::TcpRto {
                    conn: 0,
                    b_side: false,
                    silent_since: t(200),
                },
            ),
            (
                1_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 1_000,
                },
            ),
            (5_000, TraceEvent::VisitStart { visit: 1, site: 2 }),
            (
                5_100,
                TraceEvent::RrcPromotion {
                    kind: "IdleToDch".into(),
                    start: t(5_100),
                    done: t(7_100),
                },
            ),
        ]);
        let model = EventModel::from_records(&records);
        assert_eq!(model.windows.len(), 2, "the model keeps the open window");
        let paths = critical_paths(&model);
        let visits: Vec<usize> = paths.iter().map(|p| p.visit).collect();
        assert_eq!(visits, [0]);
        assert_eq!(paths[0].plt_us(), 1_000);
    }
}
