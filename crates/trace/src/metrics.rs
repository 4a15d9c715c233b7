//! A deterministic registry of named counters and histograms.
//!
//! Layers publish scalar facts ("tcp.rto_fires", "link.queue_drops")
//! into one registry alongside the event stream, so aggregate questions
//! don't require replaying every event. Storage is `BTreeMap`-keyed:
//! iteration and serialization order is the sorted key order, which
//! keeps traced runs byte-identical regardless of which layer
//! registered first.
//!
//! A histogram is the sweep's [`QuantileSketch`]: exact count, min, max
//! and mean, quantiles within its pinned relative error.

use std::collections::BTreeMap;

use serde::Serialize;
use spdyier_sim::QuantileSketch;

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
    pub fn count(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
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

    /// Iterate histograms in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &QuantileSketch)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
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
}
