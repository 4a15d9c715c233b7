//! A deterministic registry of named counters and histograms.
//!
//! Layers publish scalar facts ("tcp.rto_fires", "link.queue_drops")
//! into one registry alongside the event stream, so aggregate questions
//! don't require replaying every event. Storage is `BTreeMap`-keyed:
//! iteration and serialization order is the sorted key order, which
//! keeps traced runs byte-identical regardless of which layer
//! registered first.
//!
//! Histograms use power-of-two buckets (`bucket i` holds values whose
//! bit length is `i`), which is enough resolution for latency and size
//! distributions while staying allocation-free per observation.

use std::collections::BTreeMap;

use serde::Serialize;

/// Number of power-of-two histogram buckets (covers the full u64 range).
const BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram with summary stats.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Histogram {
    /// `buckets[i]` counts observations with bit length `i` (0 -> value 0).
    buckets: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations (saturating).
    pub sum: u64,
    /// Smallest observation, or 0 when empty.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Mean of all observations, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count of observations in the bucket for `value`'s magnitude.
    pub fn bucket_for(&self, value: u64) -> u64 {
        self.buckets[(64 - value.leading_zeros()) as usize]
    }
}

/// Named counters and histograms, deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
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
            h.observe(value);
        } else {
            let mut h = Histogram::default();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate histograms in sorted-name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
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
    fn histogram_tracks_stats_and_buckets() {
        let mut m = MetricsRegistry::new();
        for v in [0u64, 1, 2, 3, 1000] {
            m.observe("plt_ms", v);
        }
        let h = m.histogram("plt_ms").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        // 2 and 3 share the bit-length-2 bucket.
        assert_eq!(h.bucket_for(2), 2);
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
