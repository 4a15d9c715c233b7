//! The event model: one linear pass over a trace's records into the
//! typed lookup tables every reader of a trace works from — the
//! critical-path extractor and the waterfall's conn/stream binding. [`ModelBuilder::observe`] is the only place a record's event
//! is interpreted; it is driven over a retained log's slice or, as the
//! recorder's sink, by the run itself, record by record.
//!
//! Everything is keyed the way the flight recorder already keys it —
//! visit index, object tag, connection (pipe) index — and every time is
//! an integer microsecond, so downstream arithmetic is exact. Ordering
//! is deterministic throughout: objects live in `BTreeMap`s and every
//! interval list preserves the stream's own order.
//!
//! The stream's order is not start order (an RTO silence is recorded
//! when it *fires*, a serialization share when its segment is *sent*),
//! so the scan ends by building the interval index the sweep reads:
//! every list sorted and coalesced once, instead of once per window.

use spdyier_trace::{TraceEvent, TraceRecord, TraceSink};
use std::collections::BTreeMap;

/// Object tags at or above this value are control traffic (the §5.7
/// beacon sentinel is `u64::MAX`; its HTTP framing masks to
/// `u32::MAX`), never page objects.
const CONTROL_TAG_FLOOR: u64 = u32::MAX as u64;

/// One page visit's `[start, start + plt]` window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisitWindow {
    /// Visit index in the schedule.
    pub visit: usize,
    /// Site index the visit loaded.
    pub site: usize,
    /// Whether the visit reached onload before its deadline.
    pub completed: bool,
    /// Whether a `VisitEnd` closed the window. A stream cut mid-visit
    /// leaves its last window open and zero-length.
    pub closed: bool,
    /// Window start, µs (the `VisitStart` instant).
    pub start_us: u64,
    /// Window end, µs (`start + plt_us` from the `VisitEnd` record).
    pub end_us: u64,
}

/// Boundary instants of one object fetch inside a visit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectInstants {
    /// First `ObjectRequested` instant, µs.
    pub requested_us: Option<u64>,
    /// First `ObjectFirstByte` instant, µs.
    pub first_byte_us: Option<u64>,
    /// First `ObjectComplete` instant, µs.
    pub complete_us: Option<u64>,
}

/// The connection an object's request was written to, learned from the
/// `HttpRequestSent` / `SpdyStreamOpen` record inside the visit window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnBinding {
    /// Connection (pipe) index.
    pub conn: usize,
    /// SPDY stream id, when the binding came from a stream open.
    pub stream: Option<u32>,
}

/// A half-open time interval `[a, b)` in µs, tagged with the connection
/// it belongs to (`None` for connection-agnostic intervals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Interval start, µs.
    pub a: u64,
    /// Interval end, µs.
    pub b: u64,
    /// Owning connection, when the source event names one.
    pub conn: Option<usize>,
}

impl Interval {
    fn new(a: u64, b: u64, conn: Option<usize>) -> Option<Interval> {
        (a < b).then_some(Interval { a, b, conn })
    }
}

/// A maximal stretch `[start, end)` some interval of a list covers, µs.
pub(crate) type Run = (u64, u64);

/// Sort `runs` by start and merge every overlapping or touching pair.
fn coalesce(mut runs: Vec<Run>) -> Vec<Run> {
    runs.sort_unstable_by_key(|r| r.0);
    runs.dedup_by(|next, run| {
        let joins = next.0 <= run.1;
        if joins {
            run.1 = run.1.max(next.1);
        }
        joins
    });
    runs.shrink_to_fit();
    runs
}

/// One interval list as the sweep reads it: coalesced into disjoint
/// runs sorted by start (so sorted by end too), once across every owner
/// and once per owning connection.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Runs {
    /// Every interval, whoever owns it.
    all: Vec<Run>,
    /// The intervals no connection owns.
    unowned: Vec<Run>,
    /// Per owning connection: its own intervals plus the unowned ones.
    by_conn: BTreeMap<usize, Vec<Run>>,
}

impl Runs {
    fn build(intervals: &[Interval]) -> Runs {
        let mut unowned = Vec::new();
        let mut by_conn: BTreeMap<usize, Vec<Run>> = BTreeMap::new();
        for iv in intervals {
            let list = iv
                .conn
                .map_or(&mut unowned, |c| by_conn.entry(c).or_default());
            list.push((iv.a, iv.b));
        }
        let with_unowned = |(conn, mut owned): (usize, Vec<Run>)| {
            owned.extend_from_slice(&unowned);
            (conn, coalesce(owned))
        };
        Runs {
            all: coalesce(intervals.iter().map(|iv| (iv.a, iv.b)).collect()),
            by_conn: by_conn.into_iter().map(with_unowned).collect(),
            unowned: coalesce(unowned),
        }
    }

    /// The runs a window bound to `conn` admits: every connection's when
    /// unbound; otherwise `conn`'s own plus the unowned ones (a list
    /// whose intervals name no connection ignores the filter).
    pub(crate) fn admitted(&self, conn: Option<usize>) -> &[Run] {
        match conn {
            None => &self.all,
            Some(c) => self.by_conn.get(&c).unwrap_or(&self.unowned),
        }
    }
}

/// [`Runs`] of each interval list of the model, built once per record
/// stream: O(n log n) there, so that a window costs the sweep a binary
/// search and the runs inside it, not a pass over the whole run.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct IntervalIndex {
    pub(crate) rto: Runs,
    pub(crate) promotions: Runs,
    pub(crate) serialization: Runs,
    pub(crate) queueing: Runs,
    pub(crate) think: Runs,
    pub(crate) setup: Runs,
}

/// Every table a trace reader needs, built in one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventModel {
    /// Visit windows, in stream order.
    pub windows: Vec<VisitWindow>,
    /// Per-visit object boundary instants.
    pub objects: BTreeMap<usize, BTreeMap<u32, ObjectInstants>>,
    /// Per-(visit, object) connection bindings (first one wins).
    pub bindings: BTreeMap<(usize, u32), ConnBinding>,
    /// TCP RTO silences `[silent_since, fire)`.
    pub rto: Vec<Interval>,
    /// RRC promotion waits `[start, done)`.
    pub promotions: Vec<Interval>,
    /// Link serialization shares `[deliver - ser, deliver)`.
    pub serialization: Vec<Interval>,
    /// Queueing + propagation shares `[sent, deliver - ser)`.
    pub queueing: Vec<Interval>,
    /// Origin think intervals `[dispatch, reply)`.
    pub think: Vec<Interval>,
    /// Connection setup `[opened, ssl ready)` per connection.
    pub setup: Vec<Interval>,
    /// The six lists above as the sweep reads them: built where the scan
    /// ends, not re-read from lists edited afterwards.
    pub(crate) index: IntervalIndex,
}

#[cfg(debug_assertions)]
thread_local! {
    /// Retained record streams scanned on this thread so far. Debug
    /// builds only: the runner's tests pin with it that a traced cell
    /// scans its log once when it keeps one and never when it does not.
    pub static SCANS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Runs the sweep's cursors stepped over or looked at, and segments
    /// it emitted, on this thread so far. Debug builds only: the
    /// runner's tests pin "a cell's sweeps cost its intervals, not its
    /// intervals times its windows" as a ratio of the two.
    pub static SWEEP_WORK: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// The model under construction: [`ModelBuilder::observe`] is the only
/// place a record's event is interpreted, whether the records come from
/// a retained log ([`EventModel::from_records`]) or straight from the
/// recorder — the builder is a [`TraceSink`], so a run lent one folds
/// each record into the model as it is emitted and retains none.
#[derive(Debug, Default)]
pub struct ModelBuilder {
    model: EventModel,
    /// The visit whose window is currently open, for binding the
    /// visit-less HttpRequestSent / SpdyStreamOpen records.
    open_visit: Option<usize>,
    /// Connections opened but not yet SSL-ready: conn -> open instant.
    pending_setup: BTreeMap<usize, u64>,
}

impl ModelBuilder {
    /// Fold one record into the model.
    pub fn observe(&mut self, rec: &TraceRecord) {
        let m = &mut self.model;
        let t = rec.t.as_micros();
        match &rec.event {
            TraceEvent::VisitStart { visit, site } => {
                self.open_visit = Some(*visit);
                m.windows.push(VisitWindow {
                    visit: *visit,
                    site: *site,
                    completed: false,
                    closed: false,
                    start_us: t,
                    end_us: t,
                });
            }
            TraceEvent::VisitEnd {
                visit,
                completed,
                plt_us,
            } => {
                if self.open_visit == Some(*visit) {
                    self.open_visit = None;
                }
                if let Some(w) = m.windows.iter_mut().rev().find(|w| w.visit == *visit) {
                    w.completed = *completed;
                    w.closed = true;
                    w.end_us = w.start_us + plt_us;
                }
            }
            TraceEvent::ObjectRequested { visit, object } => {
                m.object(*visit, *object).requested_us.get_or_insert(t);
            }
            TraceEvent::ObjectFirstByte { visit, object } => {
                m.object(*visit, *object).first_byte_us.get_or_insert(t);
            }
            TraceEvent::ObjectComplete { visit, object } => {
                m.object(*visit, *object).complete_us.get_or_insert(t);
            }
            TraceEvent::HttpRequestSent { conn, tag, .. } => {
                m.bind(self.open_visit, *tag, *conn, None);
            }
            TraceEvent::SpdyStreamOpen {
                conn, stream, tag, ..
            } => m.bind(self.open_visit, *tag, *conn, Some(*stream)),
            TraceEvent::ConnOpened { conn, .. } => {
                self.pending_setup.insert(*conn, t);
            }
            TraceEvent::SslReady { conn } => {
                if let Some(opened) = self.pending_setup.remove(conn) {
                    m.setup.extend(Interval::new(opened, t, Some(*conn)));
                }
            }
            TraceEvent::TcpRto {
                conn, silent_since, ..
            } => {
                m.rto
                    .extend(Interval::new(silent_since.as_micros(), t, Some(*conn)));
            }
            TraceEvent::RrcPromotion { start, done, .. } => {
                m.promotions
                    .extend(Interval::new(start.as_micros(), done.as_micros(), None));
            }
            TraceEvent::SegmentSent {
                conn,
                deliver,
                ser_us,
                ..
            } => {
                let deliver = deliver.as_micros();
                let ser_start = deliver.saturating_sub(*ser_us);
                m.serialization
                    .extend(Interval::new(ser_start, deliver, Some(*conn)));
                m.queueing.extend(Interval::new(t, ser_start, Some(*conn)));
            }
            TraceEvent::OriginThink { until, .. } => {
                m.think.extend(Interval::new(t, until.as_micros(), None));
            }
            _ => {}
        }
    }

    /// The model of everything observed so far, with the interval index
    /// over what was collected. Any prefix of a stream is a stream: a
    /// visit left open stays an open window.
    pub fn finish(self) -> EventModel {
        self.model.indexed()
    }
}

impl TraceSink for ModelBuilder {
    fn record(&mut self, rec: TraceRecord) {
        self.observe(&rec);
    }
}

impl EventModel {
    /// Build the model from a retained record stream: [`ModelBuilder`]
    /// driven over the slice.
    pub fn from_records(records: &[TraceRecord]) -> EventModel {
        #[cfg(debug_assertions)]
        SCANS.with(|scans| scans.set(scans.get() + 1));
        let mut builder = ModelBuilder::default();
        records.iter().for_each(|rec| builder.observe(rec));
        builder.finish()
    }

    /// Rebuild the interval index from the six lists as they stand.
    pub(crate) fn indexed(mut self) -> EventModel {
        self.index = IntervalIndex {
            rto: Runs::build(&self.rto),
            promotions: Runs::build(&self.promotions),
            serialization: Runs::build(&self.serialization),
            queueing: Runs::build(&self.queueing),
            think: Runs::build(&self.think),
            setup: Runs::build(&self.setup),
        };
        self
    }

    fn object(&mut self, visit: usize, object: u32) -> &mut ObjectInstants {
        let per_object = self.objects.entry(visit).or_default();
        per_object.entry(object).or_default()
    }

    /// Bind a page object's tag to the connection its request was written
    /// to. The first binding wins; control tags, and requests sent while
    /// no visit is open, never bind.
    fn bind(&mut self, open_visit: Option<usize>, tag: u64, conn: usize, stream: Option<u32>) {
        if let Some(visit) = open_visit.filter(|_| tag < CONTROL_TAG_FLOOR) {
            let binding = ConnBinding { conn, stream };
            self.bindings.entry((visit, tag as u32)).or_insert(binding);
        }
    }

    /// The connection binding for one object of one visit.
    pub fn binding(&self, visit: usize, object: u32) -> Option<ConnBinding> {
        self.bindings.get(&(visit, object)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_sim::SimTime;
    use spdyier_trace::{TraceLevel, Tracer};

    fn log(events: Vec<(u64, TraceEvent)>) -> Vec<TraceRecord> {
        let mut tr = Tracer::for_level(TraceLevel::Full);
        for (at, ev) in events {
            tr.emit(SimTime::from_micros(at), ev);
        }
        tr.finish().events
    }

    #[test]
    fn windows_objects_and_bindings_are_extracted() {
        let records = log(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 9 }),
            (
                10,
                TraceEvent::ObjectRequested {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                12,
                TraceEvent::HttpRequestSent {
                    conn: 3,
                    gen: 1,
                    tag: 0,
                },
            ),
            (
                80,
                TraceEvent::ObjectFirstByte {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                100,
                TraceEvent::ObjectComplete {
                    visit: 0,
                    object: 0,
                },
            ),
            (
                200,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 200,
                },
            ),
            // Beacon traffic between visits must not bind.
            (
                250,
                TraceEvent::HttpRequestSent {
                    conn: 4,
                    gen: 1,
                    tag: u64::MAX,
                },
            ),
        ]);
        let m = EventModel::from_records(&records);
        assert_eq!(m.windows.len(), 1);
        assert_eq!(m.windows[0].end_us, 200);
        assert!(m.windows[0].completed && m.windows[0].closed);
        let o = m.objects[&0][&0];
        assert_eq!(o.requested_us, Some(10));
        assert_eq!(o.first_byte_us, Some(80));
        assert_eq!(o.complete_us, Some(100));
        assert_eq!(m.binding(0, 0).unwrap().conn, 3);
        assert_eq!(m.bindings.len(), 1, "beacon tag must not bind");
    }

    #[test]
    fn transport_intervals_keep_their_connections() {
        let records = log(vec![
            (
                5,
                TraceEvent::ConnOpened {
                    conn: 2,
                    over_access: true,
                    label: "dev[2]".into(),
                },
            ),
            (55, TraceEvent::SslReady { conn: 2 }),
            (
                100,
                TraceEvent::TcpRto {
                    conn: 2,
                    b_side: false,
                    silent_since: SimTime::from_micros(40),
                },
            ),
            (
                120,
                TraceEvent::SegmentSent {
                    conn: 2,
                    down: true,
                    bytes: 1400,
                    deliver: SimTime::from_micros(200),
                    ser_us: 30,
                    retransmit: false,
                },
            ),
        ]);
        let m = EventModel::from_records(&records);
        assert_eq!(
            m.setup,
            vec![Interval {
                a: 5,
                b: 55,
                conn: Some(2)
            }]
        );
        assert_eq!(
            m.rto,
            vec![Interval {
                a: 40,
                b: 100,
                conn: Some(2)
            }]
        );
        assert_eq!(
            m.serialization,
            vec![Interval {
                a: 170,
                b: 200,
                conn: Some(2)
            }]
        );
        assert_eq!(
            m.queueing,
            vec![Interval {
                a: 120,
                b: 170,
                conn: Some(2)
            }]
        );
    }
}
