//! The paper's 3G verdict rests on counting RTOs (§5.5, Figs. 11–14).
//! These tests pin what the testbed counts, so that a change to how the
//! counts are derived shows as a failing number instead of a moved
//! verdict.
//!
//! `scenarios/mitigation_matrix_3g.json` asserts the headline: one RTO
//! on SPDY's single connection stalls a page longer than one on HTTP's
//! pool. Each side of that assertion is a critical-path RTO sum divided
//! by the cell's RTO firings that are not pure FINs, so the pins below
//! hold both the divisor and the quotient, for every variant × protocol
//! cell.
//!
//! Every count is a fold over the TCP senders' retransmission census, so
//! the census itself is pinned too, by side, segment kind and trigger,
//! for the paper's HTTP run on 3G.
//!
//! The divisor leaves pure-FIN firings out; the numerator is whatever
//! RTO silence the critical paths charge. A path's browser-held gaps
//! charge any connection's silence, so the pins also hold how much of
//! each numerator is pure-FIN silence.

use spdyier::causal::{critical_paths, EventModel};
use spdyier::core::{FlightLog, ProtocolMode, Testbed, TraceLevel};
use spdyier::experiments::{fold_cell, TracedCell};
use spdyier::scenario::Manifest;
use spdyier::tcp::{RtxRecord, RtxTrigger, SegKind};
use spdyier::trace::{TraceEvent, TraceRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

fn scenario(name: &str) -> Manifest {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    Manifest::from_file(&path).expect("committed scenario decodes")
}

/// The µs of critical-path RTO recovery that pure-FIN silences hold: how
/// far the paths' RTO sum falls when the `TcpRto` records of the
/// census's pure-FIN firings leave the log. A firing is matched to its
/// record by instant and side, and no other firing may share the match.
fn fin_rto_us(log: &FlightLog, census: &[(bool, RtxRecord)]) -> u64 {
    let fin_rtos = census
        .iter()
        .filter(|(_, r)| r.is_timeout() && r.kind == SegKind::PureFin);
    let fins: BTreeSet<_> = fin_rtos.clone().map(|(proxy, r)| (r.at, *proxy)).collect();
    let is_fin = |rec: &&TraceRecord| matches!(rec.event, TraceEvent::TcpRto { b_side, .. } if fins.contains(&(rec.t, b_side)));
    let kept: Vec<TraceRecord> = log.events.iter().filter(|r| !is_fin(r)).cloned().collect();
    assert_eq!(log.events.len() - kept.len(), fin_rtos.count());
    let rto_us = |records: &[TraceRecord]| -> u64 {
        let model = EventModel::from_records(records);
        critical_paths(&model).iter().map(|p| p.sums_us()[3]).sum()
    };
    rto_us(&log.events) - rto_us(&kept)
}

/// `(protocol, variant, retransmissions, timeouts, non_fin_timeouts,
/// critical_rto_per_event_ms, fin_rto_us)` per cell of
/// `mitigation_matrix_3g.json`, in cell order. Of the numerators, only
/// one HTTP cell's holds pure-FIN silence: two gaps, 8.6 ms and 57.8 ms,
/// that would otherwise be parse time.
#[rustfmt::skip]
const MITIGATION_MATRIX_3G: [(&str, &str, u64, u64, u64, f64, u64); 8] = [
    ("http", "rtt_reset_after_idle=false+slow_start_after_idle=true", 144, 510, 144, 158.25218055555555, 0),
    ("spdy", "rtt_reset_after_idle=false+slow_start_after_idle=true", 136, 132, 132, 152.5488787878788, 0),
    ("http", "rtt_reset_after_idle=false+slow_start_after_idle=false", 139, 503, 139, 168.0251510791367, 0),
    ("spdy", "rtt_reset_after_idle=false+slow_start_after_idle=false", 111, 104, 104, 209.59960576923078, 0),
    ("http", "rtt_reset_after_idle=true+slow_start_after_idle=true", 139, 405, 139, 167.3118848920863, 66_416),
    ("spdy", "rtt_reset_after_idle=true+slow_start_after_idle=true", 1, 1, 1, 1000.0, 0),
    ("http", "rtt_reset_after_idle=true+slow_start_after_idle=false", 141, 444, 141, 163.46923404255318, 0),
    ("spdy", "rtt_reset_after_idle=true+slow_start_after_idle=false", 1, 1, 1, 1000.0, 0),
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
            let fin_us = fin_rto_us(&log, &census);
            let model = EventModel::from_records(&log.events);
            let traced = TracedCell { log, model };
            let m = fold_cell(&manifest, cell, &result, Some(&traced)).metrics;
            (
                m.protocol.clone(),
                m.variant.clone(),
                m.retransmissions,
                m.timeouts,
                m.non_fin_timeouts,
                m.metric("critical_rto_per_event_ms")
                    .expect("the cell is traced"),
                fin_us,
            )
        })
        .collect();
    let pinned: Vec<_> = MITIGATION_MATRIX_3G
        .iter()
        .map(|&(p, v, r, t, n, c, f)| (p.to_string(), v.to_string(), r, t, n, c, f))
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

    // The run's three counts are folds over the census by their rules:
    // R1 counts retransmissions that are not pure FINs, R2 every RTO,
    // R5 the RTOs that are not pure FINs (1 + 60 + 59 + 24).
    let rtx = census.iter().filter(|(_, r)| r.sent.is_some());
    let r1 = rtx.filter(|(_, r)| r.kind != SegKind::PureFin).count();
    let rtos = census.iter().filter(|(_, r)| r.is_timeout());
    let r2 = rtos.clone().count();
    let r5 = rtos.filter(|(_, r)| r.kind != SegKind::PureFin).count();
    assert_eq!(
        (r1 as u64, r2 as u64, r5 as u64),
        (
            result.total_retransmissions,
            result.total_timeouts,
            result.total_non_fin_timeouts
        )
    );
    assert_eq!(r5, 144);

    // Whether R2's teardown RTOs can stall a page: 27 of the 366
    // pure-FIN RTOs fire inside a visit's [start, onload], all of them
    // the proxy's.
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
    // None of them holds a page: the critical paths' RTO recovery is the
    // same without them.
    assert_eq!(fin_rto_us(&log, &census), 0);
}
