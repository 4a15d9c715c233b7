//! Time-series recorders.
//!
//! The paper's congestion-window traces (Figs. 10–12, 17), per-second
//! throughput bins (Fig. 9), and retransmission marks (Figs. 11, 13) are all
//! `(time, value)` series captured during a run. [`TimeSeries`] records them
//! and [`TimeSeries::bin_sum`]/[`TimeSeries::bin_last`] reduce them to fixed
//! intervals for reporting.

use crate::time::{SimDuration, SimTime};
use serde::Serialize;

/// An append-only `(time, value)` series. Times must be non-decreasing,
/// which the DES driver guarantees by construction.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TimeSeries {
    points: Vec<(SimTimeRepr, f64)>,
}

/// Serialisable time representation (microseconds).
pub type SimTimeRepr = u64;

impl TimeSeries {
    /// Create an empty series.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Append a sample at `t`.
    pub fn push(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            self.points
                .last()
                .is_none_or(|&(last, _)| last <= t.as_micros()),
            "TimeSeries times must be non-decreasing"
        );
        self.points.push((t.as_micros(), value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterate `(SimTime, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.points
            .iter()
            .map(|&(t, v)| (SimTime::from_micros(t), v))
    }

    /// The subset of samples with `start <= t < end`.
    pub fn window(&self, start: SimTime, end: SimTime) -> Vec<(SimTime, f64)> {
        self.iter()
            .filter(|&(t, _)| t >= start && t < end)
            .collect()
    }

    /// Sum of sample values per fixed-width bin over `[0, horizon)`.
    ///
    /// Bin `i` covers `[i*width, (i+1)*width)`. Used for Fig. 9's
    /// bytes-per-second aggregation.
    pub fn bin_sum(&self, width: SimDuration, horizon: SimTime) -> Vec<f64> {
        let w = width.as_micros().max(1);
        let n = horizon.as_micros().div_ceil(w);
        let mut bins = vec![0.0; n as usize];
        for &(t, v) in &self.points {
            if t >= horizon.as_micros() {
                break;
            }
            bins[(t / w) as usize] += v;
        }
        bins
    }

    /// Last sample value in each fixed-width bin (carrying the previous
    /// bin's value forward through empty bins; `fill` seeds bins before the
    /// first sample). Used for step-wise traces like cwnd.
    pub fn bin_last(&self, width: SimDuration, horizon: SimTime, fill: f64) -> Vec<f64> {
        let w = width.as_micros().max(1);
        let n = horizon.as_micros().div_ceil(w) as usize;
        let mut bins = vec![f64::NAN; n];
        for &(t, v) in &self.points {
            if t >= horizon.as_micros() {
                break;
            }
            bins[(t / w) as usize] = v;
        }
        let mut last = fill;
        for b in bins.iter_mut() {
            if b.is_nan() {
                *b = last;
            } else {
                last = *b;
            }
        }
        bins
    }

    /// Maximum sample value, or `None` when empty.
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    /// Mean of the sample values (0 when empty).
    pub fn mean_value(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }
}

/// An append-only `(time, Option<value>)` series for quantities that can
/// be genuinely *unset* (e.g. TCP's slow-start threshold before the first
/// loss). Serializes missing values as JSON `null`, so consumers can't
/// mistake "unset" for a real sample.
#[derive(Debug, Clone, Default, Serialize)]
pub struct OptionSeries {
    points: Vec<(SimTimeRepr, Option<f64>)>,
}

impl OptionSeries {
    /// Create an empty series.
    pub fn new() -> OptionSeries {
        OptionSeries::default()
    }

    /// Append a sample (or an explicit "unset") at `t`.
    pub fn push(&mut self, t: SimTime, value: Option<f64>) {
        debug_assert!(
            self.points
                .last()
                .is_none_or(|&(last, _)| last <= t.as_micros()),
            "OptionSeries times must be non-decreasing"
        );
        self.points.push((t.as_micros(), value));
    }

    /// Number of samples (set or unset).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterate `(SimTime, Option<value>)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, Option<f64>)> + '_ {
        self.points
            .iter()
            .map(|&(t, v)| (SimTime::from_micros(t), v))
    }

    /// Collapse to a [`TimeSeries`] for display, substituting `unset` for
    /// missing values. Plot-only: the substitution is explicit at the call
    /// site instead of baked into the recorded data.
    pub fn to_series(&self, unset: f64) -> TimeSeries {
        let mut out = TimeSeries::new();
        for (t, v) in self.iter() {
            out.push(t, v.unwrap_or(unset));
        }
        out
    }
}

/// A recorder of discrete event instants (e.g. retransmissions) that also
/// supports burst analysis.
#[derive(Debug, Clone, Default, Serialize)]
pub struct EventMarks {
    times: Vec<SimTimeRepr>,
}

impl EventMarks {
    /// Create an empty recorder.
    pub fn new() -> EventMarks {
        EventMarks::default()
    }

    /// Record one occurrence at `t`.
    pub fn mark(&mut self, t: SimTime) {
        debug_assert!(
            self.times.last().is_none_or(|&last| last <= t.as_micros()),
            "EventMarks times must be non-decreasing"
        );
        self.times.push(t.as_micros());
    }

    /// Total occurrences.
    pub fn count(&self) -> usize {
        self.times.len()
    }

    /// Occurrence instants.
    pub fn times(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.times.iter().map(|&t| SimTime::from_micros(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn push_and_iter() {
        let mut s = TimeSeries::new();
        s.push(t(1), 10.0);
        s.push(t(2), 20.0);
        assert_eq!(s.len(), 2);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(t(1), 10.0), (t(2), 20.0)]);
    }

    #[test]
    fn window_selects_half_open_range() {
        let mut s = TimeSeries::new();
        for i in 0..10 {
            s.push(t(i * 100), i as f64);
        }
        let w = s.window(t(200), t(500));
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], (t(200), 2.0));
        assert_eq!(w[2], (t(400), 4.0));
    }

    #[test]
    fn bin_sum_accumulates() {
        let mut s = TimeSeries::new();
        s.push(t(100), 1.0);
        s.push(t(900), 2.0);
        s.push(t(1100), 4.0);
        s.push(t(5000), 8.0); // beyond horizon, ignored
        let bins = s.bin_sum(SimDuration::from_secs(1), SimTime::from_secs(3));
        assert_eq!(bins, vec![3.0, 4.0, 0.0]);
    }

    #[test]
    fn bin_last_carries_forward() {
        let mut s = TimeSeries::new();
        s.push(t(500), 10.0);
        s.push(t(2500), 20.0);
        let bins = s.bin_last(SimDuration::from_secs(1), SimTime::from_secs(4), 0.0);
        assert_eq!(bins, vec![10.0, 10.0, 20.0, 20.0]);
    }

    #[test]
    fn bin_last_fill_before_first_sample() {
        let mut s = TimeSeries::new();
        s.push(t(2500), 7.0);
        let bins = s.bin_last(SimDuration::from_secs(1), SimTime::from_secs(3), 1.0);
        assert_eq!(bins, vec![1.0, 1.0, 7.0]);
    }

    #[test]
    fn max_and_mean() {
        let mut s = TimeSeries::new();
        assert_eq!(s.max_value(), None);
        assert_eq!(s.mean_value(), 0.0);
        s.push(t(1), 3.0);
        s.push(t(2), 9.0);
        assert_eq!(s.max_value(), Some(9.0));
        assert_eq!(s.mean_value(), 6.0);
    }

    #[test]
    fn option_series_preserves_unset_and_converts_for_display() {
        let mut s = OptionSeries::new();
        s.push(t(1), None);
        s.push(t(2), Some(8.0));
        assert_eq!(s.len(), 2);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(t(1), None), (t(2), Some(8.0))]);
        let display = s.to_series(999.0);
        let d: Vec<_> = display.iter().collect();
        assert_eq!(d, vec![(t(1), 999.0), (t(2), 8.0)]);
    }

    #[test]
    fn marks_count_and_keep_their_times() {
        let mut m = EventMarks::new();
        m.mark(t(100));
        m.mark(t(200));
        m.mark(t(5000));
        assert_eq!(m.count(), 3);
        assert_eq!(m.times().collect::<Vec<_>>(), [t(100), t(200), t(5000)]);
    }
}
