//! HAR-style waterfall export.
//!
//! Turns a run's per-object boundary instants ([`ObjectTiming`]) into
//! the nested `log -> entries -> timings` shape HAR viewers expect:
//! one entry per fetched object, its start offset, and the classic
//! blocked / send / wait / receive split (HAR's `-1.0` convention for
//! unknown phases). Field names are snake_case — the artifact is
//! HAR-*style*, built for the repo's own tooling and for eyeballing,
//! not for strict HAR 1.2 validators.
//!
//! Entry order is deterministic: ascending start instant, with
//! same-instant ties broken by `(visit, conn, stream, object)`. The
//! conn/stream columns come from the bindings in the flight log's event
//! model when a trace was recorded ([`waterfall`]); without one
//! they stay absent and the tie-break degrades to `(visit, object)` —
//! still a total order, so two exports of the same run are
//! byte-identical.

use crate::results::RunResult;
use serde::Serialize;
use spdyier_browser::ObjectTiming;
use spdyier_causal::EventModel;
use spdyier_sim::SimDuration;

/// Top-level waterfall artifact (`{"log": {...}}`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Waterfall {
    /// The HAR-style log body.
    pub log: WaterfallLog,
}

/// The log body: creator stamp plus one entry per object fetch.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WaterfallLog {
    /// HAR schema version the shape mimics.
    pub version: String,
    /// Producing tool.
    pub creator: String,
    /// Protocol label of the run (`HTTP` / `SPDY`).
    pub protocol: String,
    /// One entry per page object, visit-major then discovery order.
    pub entries: Vec<WaterfallEntry>,
}

/// One object's row in the waterfall.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WaterfallEntry {
    /// Visit index in the schedule.
    pub visit: usize,
    /// Site index the visit loaded.
    pub site: u32,
    /// Object index within the page.
    pub object: usize,
    /// Client↔proxy connection that served the fetch, from the flight
    /// log's binding events (absent without a trace).
    pub conn: Option<usize>,
    /// SPDY stream id on that connection (absent for HTTP fetches or
    /// without a trace).
    pub stream: Option<u32>,
    /// Start offset from run start, ms (discovery instant).
    pub started_ms: f64,
    /// Total lifetime, ms (`-1.0` when the fetch never completed).
    pub time_ms: f64,
    /// The phase split.
    pub timings: WaterfallTimings,
}

/// HAR-style phase split for one object, ms; `-1.0` means unknown.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WaterfallTimings {
    /// Discovery -> request issued (pool wait, handshake, throttle).
    pub blocked_ms: f64,
    /// Request issued -> fully written to the transport.
    pub send_ms: f64,
    /// Request written -> first response byte.
    pub wait_ms: f64,
    /// First byte -> last byte.
    pub receive_ms: f64,
}

fn ms(d: Option<SimDuration>) -> f64 {
    d.map_or(-1.0, |d| d.as_secs_f64() * 1e3)
}

fn entry(visit: usize, site: u32, object: usize, t: &ObjectTiming) -> WaterfallEntry {
    WaterfallEntry {
        visit,
        site,
        object,
        conn: None,
        stream: None,
        started_ms: t
            .discovered
            .or(t.requested)
            .map_or(-1.0, |at| at.as_secs_f64() * 1e3),
        time_ms: ms(t.total_time()),
        timings: WaterfallTimings {
            blocked_ms: ms(t.init_time()),
            send_ms: ms(t.send_time()),
            wait_ms: ms(t.wait_time()),
            receive_ms: ms(t.recv_time()),
        },
    }
}

/// The total entry order: start instant in µs (so ties are exact, not
/// float-rounded), then `(visit, conn, stream, object)`. Unstarted
/// entries sort last; unbound conn/stream sort after bound ones at the
/// same instant.
type EntryKey = (u64, usize, usize, u64, usize);

fn entry_key(e: &WaterfallEntry, t: &ObjectTiming) -> EntryKey {
    let start_us = t
        .discovered
        .or(t.requested)
        .map_or(u64::MAX, |at| at.as_micros());
    (
        start_us,
        e.visit,
        e.conn.unwrap_or(usize::MAX),
        e.stream.map_or(u64::MAX, u64::from),
        e.object,
    )
}

/// Build the waterfall for every visit in `result`, annotating each
/// entry with the serving connection (and SPDY stream) when the run's
/// event model is available; without one the conn/stream columns stay
/// absent.
pub fn waterfall(result: &RunResult, model: Option<&EventModel>) -> Waterfall {
    let mut keyed: Vec<(EntryKey, WaterfallEntry)> = Vec::new();
    for (visit, v) in result.visits.iter().enumerate() {
        for (object, t) in v.object_timings.iter().enumerate() {
            let mut e = entry(visit, v.site, object, t);
            if let Some(b) = model.and_then(|m| m.binding(visit, object as u32)) {
                e.conn = Some(b.conn);
                e.stream = b.stream;
            }
            keyed.push((entry_key(&e, t), e));
        }
    }
    // (visit, object) makes every key unique, so the order is total.
    keyed.sort_by_key(|e| e.0);
    Waterfall {
        log: WaterfallLog {
            version: "1.2".to_string(),
            creator: "spdyier flight recorder".to_string(),
            protocol: result.protocol.clone(),
            entries: keyed.into_iter().map(|(_, e)| e).collect(),
        },
    }
}

/// The waterfall as pretty-printed JSON.
pub fn waterfall_json(result: &RunResult, model: Option<&EventModel>) -> String {
    serde_json::to_string_pretty(&waterfall(result, model)).expect("waterfall always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, NetworkKind, ProtocolMode};
    use crate::driver::Testbed;
    use spdyier_sim::SimDuration;
    use spdyier_trace::TraceLevel;
    use spdyier_workload::VisitSchedule;

    /// One SPDY visit to site 9 over WiFi at `level`.
    fn small_cfg(level: TraceLevel) -> ExperimentConfig {
        let schedule = VisitSchedule::sequential(vec![9], SimDuration::from_secs(60));
        let mut cfg = ExperimentConfig::paper_3g(ProtocolMode::spdy(), 3, schedule);
        cfg.network = NetworkKind::Wifi;
        cfg.trace_level = level;
        cfg
    }

    fn small_run() -> RunResult {
        Testbed::new(small_cfg(TraceLevel::Off)).run()
    }

    #[test]
    fn waterfall_covers_every_fetched_object() {
        let r = small_run();
        let w = waterfall(&r, None);
        let expected: usize = r.visits.iter().map(|v| v.object_timings.len()).sum();
        assert_eq!(w.log.entries.len(), expected);
        assert!(!w.log.entries.is_empty());
        let done = w.log.entries.iter().filter(|e| e.time_ms >= 0.0).count();
        assert!(done > 0, "completed objects have a total time");
    }

    #[test]
    fn traced_entries_order_deterministically_with_conn_stream_tie_break() {
        let (r, log) = Testbed::new(small_cfg(TraceLevel::Full))
            .try_run_traced()
            .expect("within budget");
        let model = EventModel::from_records(&log.events);
        let w = waterfall(&r, Some(&model));
        assert_eq!(
            w.log.entries.len(),
            r.visits
                .iter()
                .map(|v| v.object_timings.len())
                .sum::<usize>()
        );
        // SPDY multiplexes one connection: fetched entries carry its id
        // and a stream.
        assert!(w
            .log
            .entries
            .iter()
            .any(|e| e.conn.is_some() && e.stream.is_some()));
        // The golden property: the emitted order IS the documented total
        // order — ascending (start, visit, conn, stream, object) — so
        // same-instant entries cannot flap between exports.
        let keys: Vec<_> = w
            .log
            .entries
            .iter()
            .map(|e| {
                (
                    // started_ms is µs-derived, so the float is exact.
                    (e.started_ms.max(0.0) * 1e3).round() as u64,
                    e.visit,
                    e.conn.unwrap_or(usize::MAX),
                    e.stream.map_or(u64::MAX, u64::from),
                    e.object,
                )
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "entries leave the exporter pre-sorted");
        // And the tie-break actually engages: HTML parse bursts discover
        // several objects at the same instant.
        let starts: Vec<u64> = keys.iter().map(|k| k.0).collect();
        let tied = starts.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            tied > 0,
            "expected same-instant discoveries in a parse burst"
        );
        // Two exports of the same run are byte-identical.
        assert_eq!(
            waterfall_json(&r, Some(&model)),
            waterfall_json(&r, Some(&model))
        );
    }

    #[test]
    fn json_has_har_shape() {
        let r = small_run();
        let j = waterfall_json(&r, None);
        assert!(j.contains("\"log\""));
        assert!(j.contains("\"entries\""));
        assert!(j.contains("\"timings\""));
        assert!(j.contains("\"receive_ms\""));
    }
}
