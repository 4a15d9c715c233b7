//! Whole-window stall sums of a flight log. The benchmark harness's
//! `core.attribution` row is the only caller, and ROADMAP 9(a) deletes
//! this together with that row: the critical path
//! ([`spdyier_causal::critical_paths`]) is the one PLT decomposition.

use spdyier_causal::{stall_sums_us, EventModel};
use spdyier_trace::FlightLog;

/// Build `log`'s event model and sweep each visit a `VisitEnd` closed,
/// in stream order, into its [`stall_sums_us`]: RTO silence, promotion,
/// serialization, queueing, origin think and the uncovered remainder,
/// summing to the visit's PLT exactly. Needs a log recorded at `Full`.
pub fn attribute_stalls(log: &FlightLog) -> Vec<[u64; 6]> {
    let model = EventModel::from_records(&log.events);
    let closed = model.windows.iter().filter(|w| w.closed);
    closed.map(|w| stall_sums_us(&model, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_sim::SimTime;
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
        // Promotion [100,2100]. Segment journey [2000,2600]: [2000,2100]
        // lost to the promotion, queueing share [2100,2400],
        // serialization share [2400,2600]. RTO silence [2600,3000].
        // Think [3500,4000].
        let (rto, promotion, serialization, queueing, think) = (400, 2_000, 200, 300, 500);
        let other = 5_000 - 2_000 - 300 - 200 - 400 - 500;
        assert_eq!(
            stalls,
            [[rto, promotion, serialization, queueing, think, other]]
        );
        assert_eq!(
            stalls[0].iter().sum::<u64>(),
            5_000,
            "conservation is exact"
        );
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
        let [rto, promotion, .., other] = attribute_stalls(&log)[0];
        assert_eq!(rto, 1_000, "the RTO silence wins the overlap");
        assert_eq!(promotion, 1_000, "the promotion keeps its remainder");
        assert_eq!(other, 1_000);
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
        assert_eq!(stalls[0][1], 500, "only the in-window tail");
        assert_eq!(stalls[0].iter().sum::<u64>(), 1_000);
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
        assert_eq!(stalls, [[400, 0, 0, 0, 0, 600]], "only the closed visit");
    }
}
