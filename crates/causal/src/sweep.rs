//! The one boundary sweep.
//!
//! Every attribution is the same operation: tile a window `[a, b)`
//! against the model's typed intervals, give each stretch to the
//! highest-priority layer covering it, and hand uncovered time to a
//! default. Every microsecond lands in exactly one bucket, so the
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
//! The sweep reads the model's interval index, never its raw lists. The
//! index holds each list as *runs*: its intervals sorted by start and
//! coalesced (overlapping or touching ones merged), so a list's runs are
//! disjoint, non-adjacent, and sorted by end as well. Each list is
//! indexed once across all owners and once per owning connection. A
//! window bound to a connection admits that connection's runs plus the
//! unowned ones — promotions and origin think name no connection, so
//! they ignore the filter — and an unbound window (a whole visit, a
//! fetch whose request was never seen) admits every connection's.
//!
//! A window then costs one binary search per layer plus the runs inside
//! it: `sweep` walks one cursor per layer, in priority order, and emits
//! *maximal* segments — it cuts only where the owner changes. That is
//! coarser than cutting at every interval endpoint and the same tiling.
//! Within a covered stretch the extra cuts separate pieces of one owner,
//! which every reader sums or re-joins. An uncovered stretch has no
//! endpoint inside it (an endpoint borders an interval, so one side of
//! it is covered) and is one segment either way, which is what lets
//! [`crate::path`] split response wait from receive by where a segment
//! *starts*. `tests/sweep_oracle.rs` keeps the endpoint sweep as the
//! reference.
//!
//! The **critical path** ([`crate::path`]) reads the model through
//! `sweep`: one sweep per spine segment, the fetch's own connection only
//! — which of the wall time gated the load? [`stall_sums_us`] is the
//! whole-window sweep (every connection admitted) that the benchmark
//! harness still times through `spdyier_core::attribute_stalls`, and
//! that `tests/sweep_oracle.rs` checks against the endpoint sweep.

use crate::model::{EventModel, IntervalIndex, Run, Runs, VisitWindow};
use crate::path::EdgeKind;

/// The one overlap-priority table, highest first: each stall interval
/// list of the model, with the critical-path edge its time becomes.
pub(crate) fn layers(index: &IntervalIndex) -> [(EdgeKind, &Runs); 5] {
    [
        (EdgeKind::RtoRecovery, &index.rto),
        (EdgeKind::Promotion, &index.promotions),
        (EdgeKind::Serialization, &index.serialization),
        (EdgeKind::Queueing, &index.queueing),
        (EdgeKind::ServerThink, &index.think),
    ]
}

/// Merge-sweep `[a, b)` against `layers` of runs, highest priority
/// first: `emit(start, end, layer)` once per maximal stretch with one
/// owner, chronologically — the first layer with a run covering the
/// stretch, `None` when no layer has one.
pub(crate) fn sweep<const N: usize>(
    a: u64,
    b: u64,
    layers: [&[Run]; N],
    mut emit: impl FnMut(u64, u64, Option<usize>),
) {
    // Each layer's runs that reach into the window.
    let layers = layers.map(|runs| {
        let runs = &runs[runs.partition_point(|r| r.1 <= a)..];
        &runs[..runs.partition_point(|r| r.0 < b)]
    });
    let mut cursor = [0usize; N];
    let mut t = a;
    while t < b {
        // The segment from `t` belongs to the first layer with a run
        // over `t` and ends with that run, or earlier where a higher
        // layer's next run starts; with no owner it ends at the first
        // start of any layer.
        let (mut end, mut owner) = (b, None);
        for (p, runs) in layers.iter().enumerate() {
            let behind = runs[cursor[p]..].iter().take_while(|r| r.1 <= t).count();
            cursor[p] += behind;
            count_work(behind as u64 + 1, 0);
            let Some(&(start, stop)) = runs.get(cursor[p]) else {
                continue;
            };
            if start <= t {
                (end, owner) = (end.min(stop), Some(p));
                break;
            }
            end = end.min(start);
        }
        emit(t, end, owner);
        count_work(0, 1);
        t = end;
    }
}

/// Add to `model::SWEEP_WORK`; nothing in a release build.
#[inline(always)]
fn count_work(_runs_read: u64, _segments: u64) {
    #[cfg(debug_assertions)]
    crate::model::SWEEP_WORK.with(|w| {
        let (read, emitted) = w.get();
        w.set((read + _runs_read, emitted + _segments));
    });
}

/// Sweep `[a, b)` against the model's five layers as a window bound to
/// `conn` admits them; `emit`'s layer is the priority-table row, 0 (RTO
/// silence) to 4 (origin think).
pub fn sweep_layers(
    model: &EventModel,
    a: u64,
    b: u64,
    conn: Option<usize>,
    emit: impl FnMut(u64, u64, Option<usize>),
) {
    let runs = layers(&model.index).map(|(_, runs)| runs.admitted(conn));
    sweep(a, b, runs, emit);
}

/// One visit window's wall time by stall category, µs: RTO silence,
/// promotion, serialization, queueing, origin think, then the uncovered
/// remainder (browser parse/execute, handshakes, overlap slack). The six
/// entries sum to `w.end_us - w.start_us` exactly.
pub fn stall_sums_us(model: &EventModel, w: &VisitWindow) -> [u64; 6] {
    let mut sums = [0u64; 6];
    sweep_layers(model, w.start_us, w.end_us, None, |s, e, layer| {
        sums[layer.unwrap_or(5)] += e - s;
    });
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Interval;

    fn iv(a: u64, b: u64, conn: Option<usize>) -> Interval {
        Interval { a, b, conn }
    }

    fn segments(model: &EventModel, a: u64, b: u64, conn: Option<usize>) -> Vec<(u64, u64, i8)> {
        let mut out = Vec::new();
        sweep_layers(model, a, b, conn, |s, e, layer| {
            out.push((s, e, layer.map_or(-1, |l| l as i8)));
        });
        out
    }

    #[test]
    fn a_connection_filter_keeps_connection_agnostic_intervals() {
        let model = EventModel {
            rto: vec![iv(0, 10, Some(1)), iv(5, 30, Some(2)), iv(20, 40, None)],
            ..EventModel::default()
        }
        .indexed();
        let own = segments(&model, 0, 25, Some(1));
        assert_eq!(own, [(0, 10, 0), (10, 20, -1), (20, 25, 0)]);
        let stranger = segments(&model, 0, 25, Some(7));
        assert_eq!(stranger, [(0, 20, -1), (20, 25, 0)]);
        assert_eq!(segments(&model, 0, 25, None), [(0, 25, 0)]);
    }

    #[test]
    fn a_lower_layer_is_cut_where_a_higher_one_starts_and_resumes_after_it() {
        // Recorded out of start order, nested, and touching.
        let model = EventModel {
            rto: vec![
                iv(40, 50, Some(0)),
                iv(10, 20, Some(0)),
                iv(20, 25, Some(0)),
            ],
            promotions: vec![iv(0, 45, None), iv(12, 18, None)],
            think: vec![iv(44, 60, None)],
            ..EventModel::default()
        }
        .indexed();
        assert_eq!(
            segments(&model, 5, 70, Some(0)),
            [
                (5, 10, 1),
                (10, 25, 0),
                (25, 40, 1),
                (40, 50, 0),
                (50, 60, 4),
                (60, 70, -1)
            ]
        );
        assert_eq!(segments(&model, 30, 30, None), []);
        assert_eq!(segments(&model, 49, 50, None), [(49, 50, 0)]);
    }

    #[test]
    fn stall_sums_cover_every_connection_and_conserve_the_window() {
        let model = EventModel {
            rto: vec![iv(100, 300, Some(0)), iv(200, 400, Some(9))],
            promotions: vec![iv(0, 150, None)],
            think: vec![iv(350, 600, None)],
            ..EventModel::default()
        }
        .indexed();
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
