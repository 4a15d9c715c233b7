//! The paper's 3G verdict rests on counting RTOs (§5.5, Figs. 11–14).
//! These tests pin what the testbed counts, so that a change to how the
//! counts are derived shows as a failing number instead of a moved
//! verdict.
//!
//! `scenarios/mitigation_matrix_3g.json` asserts the headline: one RTO
//! on SPDY's single connection stalls a page longer than one on HTTP's
//! pool. Each side of that assertion is a critical-path RTO sum divided
//! by the cell's RTO firings, so the pins below hold both the divisor and
//! the quotient, for every variant × protocol cell.
//!
//! Every count is a fold over the TCP senders' retransmission census, so
//! the census itself is pinned too, by side, segment kind and trigger,
//! for the paper's HTTP run on 3G.
//!
//! One filter decides what a count counts: a record on the access path
//! whose segment is not a pure FIN. The numerator reads the `TcpRto`
//! events, so the tests also check that those are exactly the firings the
//! divisor counts.

use spdyier::causal::EventModel;
use spdyier::core::{FlightLog, ProtocolMode, RunResult, Testbed, TraceLevel};
use spdyier::experiments::{fold_cell, TracedCell};
use spdyier::scenario::Manifest;
use spdyier::tcp::{RtxRecord, RtxTrigger, SegKind};
use spdyier::trace::TraceEvent;
use std::collections::BTreeMap;
use std::path::Path;

fn scenario(name: &str) -> Manifest {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    Manifest::from_file(&path).expect("committed scenario decodes")
}

/// Every `TcpRto` event matches, by instant and side, exactly one RTO
/// firing of the access path's census whose segment is not a pure FIN,
/// and their count is the run's `total_timeouts`: the critical paths'
/// RTO sum and the per-RTO divisor count the same firings.
fn assert_rto_events_are_the_counted_firings(
    result: &RunResult,
    log: &FlightLog,
    census: &[(bool, RtxRecord)],
) {
    let mut counted: Vec<_> = census
        .iter()
        .filter(|(_, r)| r.is_timeout() && r.kind != SegKind::PureFin)
        .map(|(proxy, r)| (r.at, *proxy))
        .collect();
    let mut events: Vec<_> = log
        .events
        .iter()
        .filter_map(|rec| match rec.event {
            TraceEvent::TcpRto { b_side, .. } => Some((rec.t, b_side)),
            _ => None,
        })
        .collect();
    counted.sort();
    events.sort();
    assert_eq!(events, counted);
    assert_eq!(events.len() as u64, result.total_timeouts);
}

/// `(protocol, variant, retransmissions, timeouts,
/// critical_rto_per_event_ms)` per cell of `mitigation_matrix_3g.json`,
/// in cell order.
#[rustfmt::skip]
const MITIGATION_MATRIX_3G: [(&str, &str, u64, u64, f64); 8] = [
    ("http", "rtt_reset_after_idle=false+slow_start_after_idle=true", 144, 144, 158.25218055555555),
    ("spdy", "rtt_reset_after_idle=false+slow_start_after_idle=true", 136, 132, 152.5488787878788),
    ("http", "rtt_reset_after_idle=false+slow_start_after_idle=false", 139, 139, 168.0251510791367),
    ("spdy", "rtt_reset_after_idle=false+slow_start_after_idle=false", 111, 104, 209.59960576923078),
    ("http", "rtt_reset_after_idle=true+slow_start_after_idle=true", 139, 139, 166.83407194244606),
    ("spdy", "rtt_reset_after_idle=true+slow_start_after_idle=true", 1, 1, 1000.0),
    ("http", "rtt_reset_after_idle=true+slow_start_after_idle=false", 141, 141, 163.46923404255318),
    ("spdy", "rtt_reset_after_idle=true+slow_start_after_idle=false", 1, 1, 1000.0),
];

#[test]
fn mitigation_matrix_3g_rto_counts_are_pinned() {
    let manifest = scenario("mitigation_matrix_3g.json");
    let measured: Vec<_> = manifest
        .cells()
        .iter()
        .map(|cell| {
            let testbed = Testbed::new(cell.build_config(&manifest));
            let (result, log, census) = testbed.run_census().expect("within budget");
            assert_rto_events_are_the_counted_firings(&result, &log, &census);
            let model = EventModel::from_records(&log.events);
            let traced = TracedCell { log, model };
            let m = fold_cell(&manifest, cell, &result, Some(&traced)).metrics;
            (
                m.protocol.clone(),
                m.variant.clone(),
                m.retransmissions,
                m.timeouts,
                m.metric("critical_rto_per_event_ms")
                    .expect("the cell is traced"),
            )
        })
        .collect();
    let pinned: Vec<_> = MITIGATION_MATRIX_3G
        .iter()
        .map(|&(p, v, r, t, c)| (p.to_string(), v.to_string(), r, t, c))
        .collect();
    assert_eq!(measured, pinned);
}

/// `(side, kind, trigger, event, count)`: the access path's census of
/// the paper's HTTP run on 3G at seed 0, the run `experiments fig13`
/// draws. A detection is an RTO firing or a fast retransmit's start.
#[rustfmt::skip]
const HTTP_3G_SEED_0: [(&str, SegKind, RtxTrigger, &str, u64); 12] = [
    ("device", SegKind::Syn, RtxTrigger::Rto, "detect", 1),
    ("device", SegKind::Syn, RtxTrigger::Rto, "rtx", 1),
    ("device", SegKind::Data, RtxTrigger::Rto, "detect", 60),
    ("device", SegKind::Data, RtxTrigger::Rto, "rtx", 60),
    ("device", SegKind::PureFin, RtxTrigger::Rto, "detect", 39),
    ("device", SegKind::PureFin, RtxTrigger::Rto, "rtx", 39),
    ("proxy", SegKind::Syn, RtxTrigger::Rto, "detect", 59),
    ("proxy", SegKind::Syn, RtxTrigger::Rto, "rtx", 59),
    ("proxy", SegKind::Data, RtxTrigger::Rto, "detect", 24),
    ("proxy", SegKind::Data, RtxTrigger::Rto, "rtx", 24),
    ("proxy", SegKind::PureFin, RtxTrigger::Rto, "detect", 327),
    ("proxy", SegKind::PureFin, RtxTrigger::Rto, "rtx", 327),
];

#[test]
fn http_3g_census_is_pinned_by_side_kind_and_trigger() {
    let mut manifest = Manifest::paper_baseline("rto_census");
    manifest.protocols.truncate(1);
    let cell = &manifest.cells()[0];
    assert_eq!(cell.protocol.mode, ProtocolMode::Http);
    let mut cfg = cell.build_config(&manifest);
    cfg.trace_level = TraceLevel::Full;
    let (result, log, census) = Testbed::new(cfg).run_census().expect("within budget");

    let mut counts: BTreeMap<_, u64> = BTreeMap::new();
    for (proxy, r) in &census {
        let side = if *proxy { "proxy" } else { "device" };
        let event = if r.sent.is_some() { "rtx" } else { "detect" };
        *counts.entry((side, r.kind, r.trigger, event)).or_default() += 1;
    }
    let counts: Vec<_> = counts
        .into_iter()
        .map(|((side, kind, trigger, event), n)| (side, kind, trigger, event, n))
        .collect();
    assert_eq!(counts, HTTP_3G_SEED_0);

    // The run's two counts are folds over the census under the one
    // filter: R1 counts its retransmissions, R2 its RTO firings
    // (1 + 60 + 59 + 24).
    let counted = census.iter().filter(|(_, r)| r.kind != SegKind::PureFin);
    let r1 = counted.clone().filter(|(_, r)| r.sent.is_some()).count();
    let r2 = counted.filter(|(_, r)| r.is_timeout()).count();
    assert_eq!(
        (r1 as u64, r2 as u64),
        (result.total_retransmissions, result.total_timeouts)
    );
    assert_eq!(r2, 144);
    assert_rto_events_are_the_counted_firings(&result, &log, &census);

    // The teardown the filter leaves out: 27 of the 366 pure-FIN RTOs
    // fire inside a visit's [start, onload], all of them the proxy's.
    assert!(result.visits.iter().all(|v| v.completed));
    let in_a_visit = |at| {
        let mut windows = result
            .visits
            .iter()
            .filter_map(|v| Some((v.start, v.onload?)));
        windows.any(|(start, onload)| start <= at && at <= onload)
    };
    let fin_rtos = census
        .iter()
        .filter(|(_, r)| r.is_timeout() && r.kind == SegKind::PureFin);
    let inside: Vec<bool> = fin_rtos
        .filter(|(_, r)| in_a_visit(r.at))
        .map(|(proxy, _)| *proxy)
        .collect();
    assert_eq!(
        (inside.len(), inside.iter().all(|&proxy| proxy)),
        (27, true)
    );
}
