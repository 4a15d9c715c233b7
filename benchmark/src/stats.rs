//! The benchmark's own arithmetic: medians, percentiles, the FNV-1a
//! digest. Kept here rather than borrowed from `spdyier-sim` so a change
//! to the program under test cannot change how it is scored.

/// The `p`-th percentile (0..=100) of `values`, linearly interpolated
/// between closest ranks. `values` need not be sorted.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// What the ledger keeps of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(values),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// `(max − min) / median`: the whole rep-to-rep range as a share of
    /// the median. A metric is flagged unstable when this exceeds its
    /// bound, because a regression of that size could then hide in noise.
    pub fn spread(&self) -> f64 {
        (self.max - self.min) / self.median
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// 64-bit FNV-1a, folded over any number of byte strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 99.0), 100.0);
        assert_eq!(percentile(&xs, 100.0), 101.0);
        assert_eq!(percentile(&[10.0, 20.0], 25.0), 12.5);
    }

    #[test]
    fn summary_keeps_range_and_count() {
        let s = Summary::of(&[5.0, 4.0, 6.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (4.0, 5.0, 6.0, 3));
        assert!((s.spread() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.0, 0xCBF2_9CE4_8422_2325);
        h.write(b"a");
        assert_eq!(h.0, 0xAF63_DC4C_8601_EC8C);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.0, 0x8594_4171_F739_67E8);
    }
}
