//! A deterministic registry of named counters and histograms, folded
//! from the event stream: [`Books::fold`] is the only code that writes
//! one, and it reads each event the recorder takes before the sink
//! does. Storage is `BTreeMap`-keyed: iteration and serialization order
//! is the sorted key order, which keeps traced runs byte-identical. A
//! counter appears with its first event; the three [`Books::close`]
//! publishes appear even at 0.
//!
//! A histogram is the sweep's [`QuantileSketch`]: exact count, min, max
//! and mean, quantiles within its pinned relative error.

use std::collections::BTreeMap;

use serde::Serialize;
use spdyier_sim::{QuantileSketch, SimTime};

use crate::event::TraceEvent;

/// Every counter the fold publishes, sorted: the names a `counter.<name>`
/// assertion may read. `conn.opened` counts every pipe, proxy↔origin
/// included (1,000 in `trace_spdy_3g`); the `connections_opened` metric
/// counts client↔proxy connections only (1 there).
pub const COUNTERS: [&str; 13] = [
    "conn.opened",
    "http.requests",
    "link.access.drops",
    "link.access.segments",
    "proxy.fetches",
    "rrc.promotions",
    "run.visits",
    "spdy.streams_opened",
    "tcp.idle_restarts",
    "tcp.retransmissions",
    "tcp.rto_fires",
    "trace.emitted",
    "trace.sink_dropped",
];

/// Named counters and histograms, deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, QuantileSketch>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `delta` to the named counter (creating it at zero).
    pub(crate) fn count(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Record one observation into the named histogram.
    pub(crate) fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value as f64);
        } else {
            let mut h = QuantileSketch::new();
            h.record(value as f64);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&QuantileSketch> {
        self.histograms.get(name)
    }

    /// Iterate counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

/// The recorder's books: the registry and what the fold keeps beside it.
#[derive(Debug, Default)]
pub(crate) struct Books {
    metrics: MetricsRegistry,
    /// Events folded so far (`trace.emitted`).
    emitted: u64,
}

impl Books {
    /// Fold one event, stamped `t`, into the registry.
    pub(crate) fn fold(&mut self, t: SimTime, event: &TraceEvent) {
        self.emitted += 1;
        let m = &mut self.metrics;
        match *event {
            TraceEvent::ConnOpened { .. } => m.count("conn.opened", 1),
            // Every access-path send ends in exactly one of the two.
            TraceEvent::SegmentSent { .. } => m.count("link.access.segments", 1),
            TraceEvent::LinkDrop { .. } => {
                m.count("link.access.segments", 1);
                m.count("link.access.drops", 1);
            }
            TraceEvent::TcpIdleRestart { .. } => m.count("tcp.idle_restarts", 1),
            TraceEvent::TcpRetransmit { .. } => m.count("tcp.retransmissions", 1),
            TraceEvent::ProxyFetchDispatch { .. } => m.count("proxy.fetches", 1),
            TraceEvent::HttpRequestSent { .. } => m.count("http.requests", 1),
            TraceEvent::SpdyStreamOpen { .. } => m.count("spdy.streams_opened", 1),
            TraceEvent::TcpRto { silent_since, .. } => {
                m.count("tcp.rto_fires", 1);
                m.observe(
                    "tcp.rto_silence_us",
                    t.saturating_since(silent_since).as_micros(),
                );
            }
            TraceEvent::RrcPromotion { start, done, .. } => {
                m.count("rrc.promotions", 1);
                m.observe("rrc.promotion_us", done.saturating_since(start).as_micros());
            }
            TraceEvent::OriginThink { until, .. } => {
                m.observe("origin.think_us", until.saturating_since(t).as_micros());
            }
            TraceEvent::VisitEnd { plt_us, .. } => {
                m.count("run.visits", 1);
                m.observe("visit.plt_ms", plt_us / 1_000);
            }
            _ => {}
        }
    }

    /// The finished registry: the run-level counters present even at 0,
    /// with `dropped` records the sink shed.
    pub(crate) fn close(mut self, dropped: u64) -> MetricsRegistry {
        let m = &mut self.metrics;
        m.count("trace.emitted", self.emitted);
        m.count("trace.sink_dropped", dropped);
        m.count("run.visits", 0);
        self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.count("tcp.rto_fires", 1);
        m.count("tcp.rto_fires", 2);
        assert_eq!(m.counter("tcp.rto_fires"), 3);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn histogram_tracks_exact_stats() {
        let mut m = MetricsRegistry::new();
        for v in [0u64, 1, 2, 3, 1000] {
            m.observe("plt_ms", v);
        }
        let h = m.histogram("plt_ms").unwrap();
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1000.0);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        // The median is 2, answered by the midpoint of its bucket
        // [2, 2 + 2/128): within half a bucket width.
        assert!((h.quantile(0.5) - 2.0).abs() <= 2.0 / 256.0);
    }

    #[test]
    fn serialization_is_sorted_and_deterministic() {
        let mut a = MetricsRegistry::new();
        a.count("zebra", 1);
        a.count("alpha", 2);
        let mut b = MetricsRegistry::new();
        b.count("alpha", 2);
        b.count("zebra", 1);
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb);
        let alpha = ja.find("alpha").unwrap();
        let zebra = ja.find("zebra").unwrap();
        assert!(alpha < zebra, "keys must serialize sorted: {ja}");
    }

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    fn rto() -> TraceEvent {
        TraceEvent::TcpRto {
            conn: 0,
            b_side: true,
            silent_since: us(1_000),
        }
    }

    #[test]
    fn one_event_of_every_kind_publishes_exactly_the_exported_counters() {
        let mut books = Books::default();
        let events = [
            TraceEvent::ConnOpened {
                conn: 0,
                over_access: true,
                label: String::new(),
            },
            rto(),
            TraceEvent::SegmentSent {
                conn: 0,
                down: true,
                bytes: 1_500,
                deliver: us(700),
                ser_us: 600,
                retransmit: false,
            },
            TraceEvent::LinkDrop {
                conn: 0,
                down: true,
                queue_overflow: true,
            },
            TraceEvent::TcpIdleRestart {
                conn: 0,
                b_side: true,
            },
            TraceEvent::TcpRetransmit {
                conn: 0,
                down: true,
            },
            TraceEvent::ProxyFetchDispatch {
                fetch: 0,
                conn: 1,
                fresh_pipe: true,
                domain: "a.example".into(),
            },
            TraceEvent::HttpRequestSent {
                conn: 0,
                gen: 0,
                tag: 1,
            },
            TraceEvent::SpdyStreamOpen {
                conn: 0,
                stream: 1,
                gen: 0,
                tag: 1,
            },
            TraceEvent::RrcPromotion {
                kind: "IdleToDch".into(),
                start: us(0),
                done: us(2_000_000),
            },
            TraceEvent::VisitEnd {
                visit: 0,
                completed: true,
                plt_us: 1_000,
            },
        ];
        for event in &events {
            books.fold(us(9_000), event);
        }
        let m = books.close(1);
        let names: Vec<&str> = m.counters().map(|(name, _)| name).collect();
        assert_eq!(names, COUNTERS);
        for (name, count) in m.counters() {
            // Every access-path send is one `SegmentSent` or one `LinkDrop`.
            let expected = match name {
                "link.access.segments" => 2,
                "trace.emitted" => events.len() as u64,
                _ => 1,
            };
            assert_eq!(count, expected, "{name}");
        }
    }

    #[test]
    fn closed_books_publish_the_run_level_counters_at_zero() {
        let m = Books::default().close(0);
        let counters: Vec<_> = m.counters().collect();
        assert_eq!(
            counters,
            [
                ("run.visits", 0),
                ("trace.emitted", 0),
                ("trace.sink_dropped", 0)
            ]
        );
        assert_eq!(m.histogram("visit.plt_ms"), None);
    }

    #[test]
    fn histograms_read_intervals_off_the_events() {
        let mut books = Books::default();
        books.fold(us(4_000), &rto());
        books.fold(
            us(2_000),
            &TraceEvent::RrcPromotion {
                kind: "IdleToDch".into(),
                start: us(2_000),
                done: us(2_000_000),
            },
        );
        books.fold(
            us(5_000),
            &TraceEvent::OriginThink {
                conn: 1,
                until: us(65_000),
            },
        );
        books.fold(
            us(9_000_000),
            &TraceEvent::VisitEnd {
                visit: 0,
                completed: true,
                plt_us: 4_321_987,
            },
        );
        let m = books.close(0);
        assert_eq!(m.counter("rrc.promotions"), 1);
        assert_eq!(m.counter("run.visits"), 1);
        let h = |name| m.histogram(name).unwrap().max();
        assert_eq!(h("tcp.rto_silence_us"), 3_000.0);
        assert_eq!(h("rrc.promotion_us"), 1_998_000.0);
        assert_eq!(h("origin.think_us"), 60_000.0);
        assert_eq!(h("visit.plt_ms"), 4_321.0);
    }
}
