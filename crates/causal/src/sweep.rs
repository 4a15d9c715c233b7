//! The one boundary sweep, and the stall table it projects.
//!
//! Every attribution is the same operation: tile a window `[a, b)`
//! against the model's typed intervals, give each elementary segment to
//! the highest-priority interval covering it, and hand uncovered time to
//! a default. Every microsecond lands in exactly one bucket, so the
//! buckets sum to the window *exactly* — conservation is by
//! construction, not by rounding luck.
//!
//! Overlap priority (`layers`): RTO silence > promotion >
//! serialization > queueing > origin think. RTO silences rank first
//! because they are the pathology the paper chases (§5.5, §5.7): a
//! spurious timeout that fires *while* the radio is promoting is exactly
//! the cross-layer interaction worth surfacing, so the promotion must not
//! swallow it — it keeps its remainder. A promotion stalls everything
//! behind it, so it subsumes overlapping transmissions; serialization is
//! "the link is genuinely busy with this byte", so it beats the softer
//! queueing share, which includes propagation delay (the recorder cannot
//! split the two without a per-hop model).
//!
//! Two projections read the model through `sweep`: the **stall table**
//! ([`stall_sums_us`]: one whole-window sweep per visit, every
//! connection admitted — where did the wall time go?) and the **critical
//! path** ([`crate::path`]: one sweep per spine segment, the fetch's own
//! connection only — which of it gated the load?).

use crate::model::{EventModel, Interval, VisitWindow};
use crate::path::EdgeKind;

/// Clip `intervals` to `[a, b)` and tag them with `priority`. With a
/// `conn`, intervals owned by another connection are dropped;
/// connection-agnostic intervals (promotions, origin think) always stay.
pub(crate) fn clipped(
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

/// The one overlap-priority table, highest first: each stall interval
/// list of the model, with the critical-path edge its time becomes.
pub(crate) fn layers(model: &EventModel) -> [(EdgeKind, &[Interval]); 5] {
    [
        (EdgeKind::RtoRecovery, &model.rto),
        (EdgeKind::Promotion, &model.promotions),
        (EdgeKind::Serialization, &model.serialization),
        (EdgeKind::Queueing, &model.queueing),
        (EdgeKind::ServerThink, &model.think),
    ]
}

/// Every [`layers`] list clipped to `[a, b)` (see [`clipped`] for
/// `conn`), tagged with its priority.
pub(crate) fn clipped_layers(
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

/// Boundary-sweep `[a, b)` against prioritized `intervals` (already
/// clipped to it): `emit(start, end, priority)` once per elementary
/// segment, chronologically, with the lowest priority number covering
/// the segment — `None` when nothing does.
pub(crate) fn sweep(
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

/// One visit window's wall time by stall category, µs: RTO silence,
/// promotion, serialization, queueing, origin think, then the uncovered
/// remainder (browser parse/execute, handshakes, overlap slack). The six
/// entries sum to `w.end_us - w.start_us` exactly.
pub fn stall_sums_us(model: &EventModel, w: &VisitWindow) -> [u64; 6] {
    let intervals = clipped_layers(model, w.start_us, w.end_us, None);
    let mut sums = [0u64; 6];
    sweep(w.start_us, w.end_us, &intervals, |s, e, priority| {
        sums[priority.unwrap_or(5)] += e - s;
    });
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64, conn: Option<usize>) -> Interval {
        Interval { a, b, conn }
    }

    #[test]
    fn a_connection_filter_keeps_connection_agnostic_intervals() {
        let list = [iv(0, 10, Some(1)), iv(5, 30, Some(2)), iv(20, 40, None)];
        let mut own = Vec::new();
        clipped(&mut own, &list, 0, 25, Some(1), 7);
        assert_eq!(own, [(0, 10, 7), (20, 25, 7)]);
        let mut any = Vec::new();
        clipped(&mut any, &list, 0, 25, None, 7);
        assert_eq!(any, [(0, 10, 7), (5, 25, 7), (20, 25, 7)]);
    }

    #[test]
    fn stall_sums_cover_every_connection_and_conserve_the_window() {
        let model = EventModel {
            rto: vec![iv(100, 300, Some(0)), iv(200, 400, Some(9))],
            promotions: vec![iv(0, 150, None)],
            think: vec![iv(350, 600, None)],
            ..EventModel::default()
        };
        let w = VisitWindow {
            visit: 0,
            site: 1,
            completed: true,
            closed: true,
            start_us: 50,
            end_us: 1_000,
        };
        // [50,100) promotion; [100,400) RTO on either connection;
        // [400,600) think; the rest uncovered.
        assert_eq!(stall_sums_us(&model, &w), [300, 50, 0, 0, 200, 400]);
    }
}
