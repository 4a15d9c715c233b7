//! The model built online — `ModelBuilder` lent to the recorder as its
//! sink, folding each record as it is emitted — against the model built
//! from the retained log of the same emissions, with the stream cut at
//! an arbitrary point: a run that ends (or a dump that is truncated)
//! mid-visit must leave the same open window either way, and the
//! recorder's own books must not depend on which sink it wrote to.

use proptest::prelude::*;
use spdyier_causal::{critical_paths, EventModel, ModelBuilder};
use spdyier_sim::SimTime;
use spdyier_trace::{TraceEvent, TraceLevel, Tracer};

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

/// One event of every kind the model reads (and one it ignores), from a
/// few small numbers: `ids` packs a visit 0..3 with an object /
/// connection 0..4.
fn event(kind: usize, now: u64, ids: usize, len: u64) -> TraceEvent {
    let (a, b) = (ids % 3, (ids / 3) as u32);
    let (visit, object, conn) = (a, b, b as usize);
    match kind {
        0 => TraceEvent::VisitStart { visit, site: a + 1 },
        1 => TraceEvent::VisitEnd {
            visit,
            completed: len.is_multiple_of(2),
            plt_us: len * 10,
        },
        2 => TraceEvent::ObjectRequested { visit, object },
        3 => TraceEvent::ObjectFirstByte { visit, object },
        4 => TraceEvent::ObjectComplete { visit, object },
        5 => TraceEvent::HttpRequestSent {
            conn: a,
            gen: 1,
            // One in four is beacon traffic, which never binds.
            tag: if b == 3 { u64::MAX } else { u64::from(b) },
        },
        6 => TraceEvent::SpdyStreamOpen {
            conn: a,
            stream: 2 * b + 1,
            gen: 1,
            tag: u64::from(b),
        },
        7 => TraceEvent::ConnOpened {
            conn,
            over_access: true,
            label: format!("dev[{conn}]"),
        },
        8 => TraceEvent::SslReady { conn },
        9 => TraceEvent::TcpRto {
            conn,
            b_side: false,
            silent_since: t(now.saturating_sub(len)),
        },
        10 => TraceEvent::RrcPromotion {
            kind: "IdleToDch".into(),
            start: t(now),
            done: t(now + len),
        },
        11 => TraceEvent::SegmentSent {
            conn,
            down: true,
            bytes: 1400,
            deliver: t(now + len),
            ser_us: len / 3,
            retransmit: false,
        },
        12 => TraceEvent::OriginThink {
            conn,
            until: t(now + len),
        },
        _ => TraceEvent::TcpCwnd {
            conn,
            cwnd: 14_600,
            ssthresh: None,
            inflight: 0,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_model_of_any_prefix_is_the_same_online_and_from_the_log(
        stream in prop::collection::vec((0usize..14, 0u64..50, 0usize..12, 0u64..40), 0..60),
        cut in 0usize..60,
    ) {
        let mut retaining = Tracer::for_level(TraceLevel::Full);
        let mut folding = Tracer::with_sink(TraceLevel::Full, Box::new(ModelBuilder::default()));
        let mut now = 0;
        for &(kind, step, ids, len) in stream.iter().take(cut) {
            now += step;
            retaining.emit(t(now), event(kind, now, ids, len));
            folding.emit(t(now), event(kind, now, ids, len));
        }
        let log = retaining.finish();
        let (folded_log, builder) = folding.finish_into::<ModelBuilder>();
        let online = builder.finish();
        prop_assert_eq!(&online, &EventModel::from_records(&log.events));

        // A window the cut left open yields no path.
        let closed = online.windows.iter().filter(|w| w.closed).count();
        prop_assert_eq!(critical_paths(&online).len(), closed);

        // Same books, nothing retained.
        prop_assert!(folded_log.events.is_empty());
        prop_assert_eq!(folded_log.dropped, log.dropped);
        prop_assert_eq!(&folded_log.metrics, &log.metrics);
    }
}
