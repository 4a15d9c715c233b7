//! Stall attribution: each visit's page-load time decomposed into the
//! intervals the flight recorder saw — radio promotion waits, RTO
//! silences, link queueing, serialization, and origin think time.
//!
//! The table is a projection of the causal engine's
//! [`EventModel`]: per finished visit, one whole-window
//! [`spdyier_causal::sweep`] over every connection's intervals (overlap
//! priority and its rationale are documented there). Every microsecond
//! of `[VisitStart, VisitStart + plt_us]` lands in exactly one category,
//! so the categories sum to the PLT *exactly*. This module only names
//! the columns and renders `stalls_<label>.dat`.

use crate::export::DataFile;
use serde::Serialize;
use spdyier_causal::{stall_sums_us, EventModel, VisitWindow};
use spdyier_sim::SimTime;
use spdyier_trace::FlightLog;
use std::fmt::Write as _;

/// One visit's PLT decomposed into attributed stall categories.
///
/// Invariant: the six `*_us` fields sum to `end - start` exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StallBreakdown {
    /// Visit index in the schedule.
    pub visit: usize,
    /// Site index loaded by the visit.
    pub site: usize,
    /// Visit start (the `VisitStart` record's timestamp).
    pub start: SimTime,
    /// Visit end (`start + plt_us` from the `VisitEnd` record).
    pub end: SimTime,
    /// Time under an RRC promotion (IDLE/FACH -> DCH and similar).
    pub promotion_us: u64,
    /// Time the access link spent clocking bytes out (transmission).
    pub serialization_us: u64,
    /// Time segments waited in queues / propagated, link not promoting.
    pub queueing_us: u64,
    /// Silent time ended by a TCP retransmission timeout.
    pub rto_stall_us: u64,
    /// Time an origin server spent "thinking" before replying.
    pub server_think_us: u64,
    /// Remainder: browser parse/execute, handshakes, overlap slack.
    pub other_us: u64,
}

impl StallBreakdown {
    /// The visit's page-load time in microseconds.
    pub fn plt_us(&self) -> u64 {
        self.end.saturating_since(self.start).as_micros()
    }

    /// Sum of every attributed category (equals [`Self::plt_us`]).
    pub fn attributed_us(&self) -> u64 {
        self.promotion_us
            + self.serialization_us
            + self.queueing_us
            + self.rto_stall_us
            + self.server_think_us
            + self.other_us
    }
}

/// Decompose every finished visit in `log` into a [`StallBreakdown`]:
/// build the log's event model, project it with [`stall_table`].
///
/// Needs a log recorded at `Full`: promotions and RTO stalls come from
/// their events, serialization and queueing shares from the
/// `SegmentSent` records.
pub fn attribute_stalls(log: &FlightLog) -> Vec<StallBreakdown> {
    stall_table(&EventModel::from_records(&log.events))
}

/// The stall table of an already-built model: one row per visit a
/// `VisitEnd` closed (a window left open by a cut stream has no PLT to
/// decompose), in stream order.
pub fn stall_table(model: &EventModel) -> Vec<StallBreakdown> {
    let row = |w: &VisitWindow| {
        let [rto, promotion, serialization, queueing, think, other] = stall_sums_us(model, w);
        StallBreakdown {
            visit: w.visit,
            site: w.site,
            start: SimTime::from_micros(w.start_us),
            end: SimTime::from_micros(w.end_us),
            promotion_us: promotion,
            serialization_us: serialization,
            queueing_us: queueing,
            rto_stall_us: rto,
            server_think_us: think,
            other_us: other,
        }
    };
    model.windows.iter().filter(|w| w.closed).map(row).collect()
}

/// Render breakdowns as a plotter-friendly column file
/// (`stalls_<label>.dat`), milliseconds per category.
pub fn stall_file(label: &str, breakdowns: &[StallBreakdown]) -> DataFile {
    let mut s = String::from(
        "# visit site plt_ms promotion_ms serialization_ms queueing_ms rto_ms think_ms other_ms\n",
    );
    let ms = |us: u64| us as f64 / 1e3;
    for b in breakdowns {
        let _ = writeln!(
            s,
            "{} {} {:.3} {:.3} {:.3} {:.3} {:.3} {:.3} {:.3}",
            b.visit + 1,
            b.site,
            ms(b.plt_us()),
            ms(b.promotion_us),
            ms(b.serialization_us),
            ms(b.queueing_us),
            ms(b.rto_stall_us),
            ms(b.server_think_us),
            ms(b.other_us),
        );
    }
    DataFile {
        name: format!("stalls_{}.dat", label.to_lowercase()),
        contents: s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_trace::{TraceEvent, TraceLevel, Tracer};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn log_with(events: Vec<(u64, TraceEvent)>) -> FlightLog {
        let mut tr = Tracer::for_level(TraceLevel::Full);
        for (at, ev) in events {
            tr.emit(t(at), ev);
        }
        tr.finish()
    }

    #[test]
    fn categories_conserve_plt_exactly() {
        let log = log_with(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 1 }),
            (
                100,
                TraceEvent::RrcPromotion {
                    kind: "IdleToDch".into(),
                    start: t(100),
                    done: t(2_100),
                },
            ),
            // Overlaps the promotion tail: promotion wins the overlap.
            (
                2_000,
                TraceEvent::SegmentSent {
                    conn: 0,
                    down: true,
                    bytes: 1400,
                    deliver: t(2_600),
                    ser_us: 200,
                    retransmit: false,
                },
            ),
            (
                3_000,
                TraceEvent::TcpRto {
                    conn: 0,
                    b_side: true,
                    silent_since: t(2_600),
                },
            ),
            (
                3_500,
                TraceEvent::OriginThink {
                    conn: 1,
                    until: t(4_000),
                },
            ),
            (
                5_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 5_000,
                },
            ),
        ]);
        let stalls = attribute_stalls(&log);
        assert_eq!(stalls.len(), 1);
        let b = &stalls[0];
        assert_eq!(b.plt_us(), 5_000);
        assert_eq!(b.attributed_us(), b.plt_us(), "conservation is exact");
        assert_eq!(b.promotion_us, 2_000);
        // Segment journey [2000,2600]: [2000,2100] lost to promotion,
        // queueing share [2100,2400], serialization share [2400,2600].
        assert_eq!(b.queueing_us, 300);
        assert_eq!(b.serialization_us, 200);
        // RTO silence [2600,3000].
        assert_eq!(b.rto_stall_us, 400);
        assert_eq!(b.server_think_us, 500);
        assert_eq!(b.other_us, 5_000 - 2_000 - 300 - 200 - 400 - 500);
    }

    #[test]
    fn rto_silence_is_not_swallowed_by_an_overlapping_promotion() {
        let log = log_with(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 1 }),
            (
                0,
                TraceEvent::RrcPromotion {
                    kind: "IdleToDch".into(),
                    start: t(0),
                    done: t(2_000),
                },
            ),
            // Spurious RTO mid-promotion — the paper's §5.5 interaction.
            (
                1_000,
                TraceEvent::TcpRto {
                    conn: 0,
                    b_side: false,
                    silent_since: t(0),
                },
            ),
            (
                3_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 3_000,
                },
            ),
        ]);
        let b = &attribute_stalls(&log)[0];
        assert_eq!(b.rto_stall_us, 1_000, "the RTO silence wins the overlap");
        assert_eq!(b.promotion_us, 1_000, "the promotion keeps its remainder");
        assert_eq!(b.attributed_us(), 3_000);
    }

    #[test]
    fn intervals_clip_to_the_visit_window() {
        let log = log_with(vec![
            (
                0,
                TraceEvent::RrcPromotion {
                    kind: "IdleToDch".into(),
                    start: t(0),
                    done: t(1_500),
                },
            ),
            (1_000, TraceEvent::VisitStart { visit: 0, site: 2 }),
            (
                2_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 1_000,
                },
            ),
        ]);
        let stalls = attribute_stalls(&log);
        assert_eq!(stalls[0].promotion_us, 500, "only the in-window tail");
        assert_eq!(stalls[0].attributed_us(), 1_000);
    }

    /// Visit 0 finishes; the stream ends inside visit 1, whose window
    /// the model holds open and zero-length.
    fn log_cut_mid_visit() -> FlightLog {
        log_with(vec![
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
        ])
    }

    #[test]
    fn a_stream_cut_mid_visit_omits_the_open_visit() {
        let log = log_cut_mid_visit();
        let model = EventModel::from_records(&log.events);
        assert_eq!(model.windows.len(), 2, "the model keeps the open window");
        let stalls = attribute_stalls(&log);
        assert_eq!(stalls.len(), 1, "only the closed visit has a PLT to split");
        assert_eq!(stalls[0].visit, 0);
        assert_eq!(stalls[0].rto_stall_us, 400);
        assert_eq!(stalls[0].attributed_us(), stalls[0].plt_us());
        assert_eq!(stalls, stall_table(&model));
    }

    #[test]
    fn a_stream_cut_mid_visit_has_no_critical_path_for_the_open_visit() {
        // One row per path: `explain` must not count, nor `diff` align
        // on, a zero-PLT visit the stall table does not have.
        let model = EventModel::from_records(&log_cut_mid_visit().events);
        let paths = spdyier_causal::critical_paths(&model);
        let visits: Vec<usize> = paths.iter().map(|p| p.visit).collect();
        assert_eq!(visits, [0]);
        assert_eq!(paths[0].plt_us(), 1_000);
    }

    #[test]
    fn stall_file_has_header_and_one_row_per_visit() {
        let log = log_with(vec![
            (0, TraceEvent::VisitStart { visit: 0, site: 1 }),
            (
                1_000,
                TraceEvent::VisitEnd {
                    visit: 0,
                    completed: true,
                    plt_us: 1_000,
                },
            ),
        ]);
        let f = stall_file("spdy", &attribute_stalls(&log));
        assert_eq!(f.name, "stalls_spdy.dat");
        assert!(f.contents.starts_with("# visit site plt_ms"));
        assert_eq!(f.contents.lines().count(), 2);
    }
}
