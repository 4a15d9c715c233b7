//! Property test pitting the merge sweep over the model's interval index
//! against the sweep it replaced, kept here verbatim as the oracle: clip
//! every interval of every layer to the window (one pass over the whole
//! run per window), sort the endpoints, and give each elementary segment
//! the lowest priority number among the intervals covering it.
//!
//! Models come from record streams, so the index is the one
//! `EventModel::from_records` builds and the lists are in recording
//! order, which is not start order: an RTO silence is recorded when it
//! fires, a serialization share when its segment is sent. Times are
//! drawn from a small range so intervals overlap, nest and touch.

use proptest::prelude::*;
use spdyier_causal::sweep::sweep_layers;
use spdyier_causal::{stall_sums_us, EdgeKind, EventModel, Interval, VisitWindow};
use spdyier_sim::SimTime;
use spdyier_trace::{TraceEvent, TraceRecord};

fn clipped(
    out: &mut Vec<(u64, u64, usize)>,
    intervals: &[Interval],
    a: u64,
    b: u64,
    conn: Option<usize>,
    priority: usize,
) {
    for iv in intervals {
        if conn.is_some() && iv.conn.is_some() && iv.conn != conn {
            continue;
        }
        let (s, e) = (iv.a.max(a), iv.b.min(b));
        if s < e {
            out.push((s, e, priority));
        }
    }
}

fn layers(model: &EventModel) -> [(EdgeKind, &[Interval]); 5] {
    [
        (EdgeKind::RtoRecovery, &model.rto),
        (EdgeKind::Promotion, &model.promotions),
        (EdgeKind::Serialization, &model.serialization),
        (EdgeKind::Queueing, &model.queueing),
        (EdgeKind::ServerThink, &model.think),
    ]
}

fn clipped_layers(
    model: &EventModel,
    a: u64,
    b: u64,
    conn: Option<usize>,
) -> Vec<(u64, u64, usize)> {
    let mut out = Vec::new();
    for (priority, (_, layer)) in layers(model).into_iter().enumerate() {
        clipped(&mut out, layer, a, b, conn, priority);
    }
    out
}

fn sweep(
    a: u64,
    b: u64,
    intervals: &[(u64, u64, usize)],
    mut emit: impl FnMut(u64, u64, Option<usize>),
) {
    let mut points: Vec<u64> = vec![a, b];
    for &(s, e, _) in intervals {
        points.push(s);
        points.push(e);
    }
    points.sort_unstable();
    points.dedup();
    for pair in points.windows(2) {
        let (s, e) = (pair[0], pair[1]);
        let priority = intervals
            .iter()
            .filter(|&&(is, ie, _)| is <= s && ie >= e)
            .map(|&(_, _, p)| p)
            .min();
        emit(s, e, priority);
    }
}

type Segment = (u64, u64, Option<usize>);

/// The oracle's elementary segments, with adjacent segments of one
/// owner joined — except uncovered ones: the critical path types an
/// uncovered segment by where it *starts*, so the oracle must already
/// emit every uncovered stretch whole.
fn oracle_segments(model: &EventModel, a: u64, b: u64, conn: Option<usize>) -> Vec<Segment> {
    let mut out: Vec<Segment> = Vec::new();
    sweep(
        a,
        b,
        &clipped_layers(model, a, b, conn),
        |s, e, p| match out.last_mut() {
            Some(last) if last.2 == p => {
                assert!(p.is_some(), "the oracle split an uncovered stretch at {s}");
                last.1 = e;
            }
            _ => out.push((s, e, p)),
        },
    );
    out
}

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

/// A record stream whose model holds exactly these intervals: RTO
/// silences `(conn, start, len)`, promotions and origin think
/// `(start, len)`, and segments `(conn, sent, queued, ser)`.
fn records(
    rto: &[(usize, u64, u64)],
    promotions: &[(u64, u64)],
    segments: &[(usize, u64, u64, u64)],
    think: &[(u64, u64)],
) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    let mut push = |at: u64, event: TraceEvent| out.push(TraceRecord { t: t(at), event });
    for &(conn, start, len) in rto {
        let silent_since = t(start);
        push(
            start + len,
            TraceEvent::TcpRto {
                conn,
                b_side: false,
                silent_since,
            },
        );
    }
    for &(start, len) in promotions {
        let (kind, start, done) = ("IdleToDch".into(), t(start), t(start + len));
        push(
            start.as_micros(),
            TraceEvent::RrcPromotion { kind, start, done },
        );
    }
    for &(conn, sent, queued, ser_us) in segments {
        push(
            sent,
            TraceEvent::SegmentSent {
                conn,
                down: true,
                bytes: 1400,
                deliver: t(sent + queued + ser_us),
                ser_us,
                retransmit: false,
            },
        );
    }
    for &(start, len) in think {
        let until = t(start + len);
        push(start, TraceEvent::OriginThink { conn: 0, until });
    }
    // Recording order is time order.
    out.sort_by_key(|r| r.t);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_merge_sweep_tiles_every_window_as_the_endpoint_sweep_did(
        rto in prop::collection::vec((0usize..3, 0u64..120, 0u64..40), 0..8),
        promotions in prop::collection::vec((0u64..120, 0u64..60), 0..4),
        segments in prop::collection::vec((0usize..3, 0u64..120, 0u64..30, 0u64..12), 0..12),
        think in prop::collection::vec((0u64..120, 0u64..30), 0..4),
        windows in prop::collection::vec((0u64..160, 0u64..80, 0usize..5), 1..6),
    ) {
        let model = EventModel::from_records(&records(&rto, &promotions, &segments, &think));
        for (a, len, binding) in windows {
            // One-in-a-few windows are empty or one µs long; bindings are
            // a connection that owns intervals (0..3), one that owns none
            // (3), or no binding at all (4).
            let b = a + if len < 8 { len % 2 } else { len };
            let conn = (binding < 4).then_some(binding);

            let mut swept: Vec<Segment> = Vec::new();
            sweep_layers(&model, a, b, conn, |s, e, layer| swept.push((s, e, layer)));
            prop_assert_eq!(&swept, &oracle_segments(&model, a, b, conn));

            // Exact conservation: the segments tile [a, b).
            let mut cursor = a;
            for &(s, e, _) in &swept {
                prop_assert!(s == cursor && s < e, "{swept:?} does not tile [{a}, {b})");
                cursor = e;
            }
            prop_assert_eq!(cursor, b.max(a));

            if conn.is_none() {
                let mut sums = [0u64; 6];
                sweep(a, b, &clipped_layers(&model, a, b, None), |s, e, p| {
                    sums[p.unwrap_or(5)] += e - s;
                });
                let w = VisitWindow {
                    visit: 0,
                    site: 0,
                    completed: true,
                    closed: true,
                    start_us: a,
                    end_us: b,
                };
                prop_assert_eq!(stall_sums_us(&model, &w), sums);
                prop_assert_eq!(sums.iter().sum::<u64>(), b - a);
            }
        }
    }
}
