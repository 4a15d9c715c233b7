//! Statistical summaries used by the experiment harness: five-number
//! box-plot summaries (the paper's Figures 3 and 16), CDFs (Figure 14),
//! means with confidence intervals (Figure 4), and the mergeable [`QuantileSketch`] population-scale sweeps fold into.

use serde::{de, Deserialize, Serialize, Value, Writer};
use std::collections::BTreeMap;

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Linear-interpolation percentile (`q` in `[0, 100]`) of an unsorted slice.
/// Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&sorted, q)
}

/// Percentile of an already-sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 100.0);
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The five-number summary plus mean that the paper's box plots show:
/// min, 25th percentile, median, 75th percentile, max, and the mean circle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BoxStats {
    /// Smallest sample (bottom whisker).
    pub min: f64,
    /// 25th percentile (box bottom).
    pub q1: f64,
    /// 50th percentile (the notch).
    pub median: f64,
    /// 75th percentile (box top).
    pub q3: f64,
    /// Largest sample (top whisker).
    pub max: f64,
    /// Arithmetic mean (the circle marker in the paper's plots).
    pub mean: f64,
    /// Sample count.
    pub n: usize,
}

impl BoxStats {
    /// Compute from an unsorted sample. Returns `None` for an empty sample.
    pub fn from_samples(xs: &[f64]) -> Option<BoxStats> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in BoxStats input"));
        Some(BoxStats {
            min: sorted[0],
            q1: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            q3: percentile_sorted(&sorted, 75.0),
            max: sorted[sorted.len() - 1],
            mean: mean(&sorted),
            n: sorted.len(),
        })
    }
}

/// Mean and a 95% normal-approximation confidence interval half-width,
/// as plotted in the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MeanCi {
    /// Arithmetic mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval.
    pub ci95: f64,
    /// Sample count.
    pub n: usize,
}

impl MeanCi {
    /// Compute from a sample; `ci95` is 0 for n < 2.
    pub fn from_samples(xs: &[f64]) -> MeanCi {
        let n = xs.len();
        let m = mean(xs);
        let ci = if n < 2 {
            0.0
        } else {
            // Sample (n-1) std error with z = 1.96.
            let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n as f64 - 1.0);
            1.96 * (var / n as f64).sqrt()
        };
        MeanCi {
            mean: m,
            ci95: ci,
            n,
        }
    }
}

/// An empirical CDF: sorted values with cumulative fractions.
#[derive(Debug, Clone, Serialize)]
pub struct Cdf {
    /// `(value, fraction_of_samples <= value)` pairs in ascending value order.
    pub points: Vec<(f64, f64)>,
}

impl Cdf {
    /// Build from an unsorted sample.
    pub fn from_samples(xs: &[f64]) -> Cdf {
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
        let n = sorted.len() as f64;
        let points = sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect();
        Cdf { points }
    }

    /// Fraction of samples `<= x` (0 for an empty CDF).
    pub fn fraction_at(&self, x: f64) -> f64 {
        match self.points.iter().rposition(|&(v, _)| v <= x) {
            Some(i) => self.points[i].1,
            None => 0.0,
        }
    }

    /// Smallest value with cumulative fraction `>= p` (the p-quantile).
    pub fn quantile(&self, p: f64) -> Option<f64> {
        self.points.iter().find(|&&(_, f)| f >= p).map(|&(v, _)| v)
    }
}

/// Diagnostic error from merging two incompatible summaries. Carries
/// the dotted path of the field that disagreed
/// (`quantile_sketch.sub_bits`, `cell.protocol`, …) so a failed shard
/// merge names the exact layout parameter at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeError {
    /// Dotted path of the mismatching field.
    pub path: String,
    /// `left != right` rendering of the disagreement.
    pub detail: String,
}

impl MergeError {
    /// A mismatch error for `path` with both sides rendered.
    pub fn mismatch<T: std::fmt::Debug>(path: &str, left: T, right: T) -> MergeError {
        MergeError {
            path: path.into(),
            detail: format!("{left:?} != {right:?}"),
        }
    }
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: cannot merge, {}", self.path, self.detail)
    }
}

impl std::error::Error for MergeError {}

/// Sub-octave resolution of the default [`QuantileSketch`]: the top 7
/// mantissa bits index 128 log-linear buckets per power of two, for a
/// worst-case relative quantile error of 1/256 ≈ 0.39%.
pub const SKETCH_SUB_BITS: u32 = 7;

/// Fixed-point scale (2^32) for the sketch's running sum: summing
/// integers keeps the mean exactly associative and order-independent,
/// which f64 addition is not.
const SUM_FP_BITS: u32 = 32;

fn sum_fp(x: f64) -> u128 {
    // x is finite and non-negative here; `as` saturates on overflow.
    (x * (1u64 << SUM_FP_BITS) as f64).round() as u128
}

/// A mergeable, deterministic quantile sketch over non-negative finite
/// samples.
///
/// Buckets are fixed log-linear: a sample's bucket index is its f64 bit
/// pattern truncated to the exponent plus the top `sub_bits` mantissa
/// bits — pure integer math, no `log()`, so every build and platform
/// buckets identically. Because the layout is fixed (not adaptive),
/// merging is bucket-wise addition: **exact** (merging two sketches
/// equals sketching the concatenated samples), **associative**, and
/// **commutative**. Min, max, and count are tracked exactly, quantile
/// estimates are clamped into `[min, max]` (single-sample and constant
/// sketches are therefore exact), and the mean comes from a fixed-point
/// integer sum so it is bit-for-bit independent of fold order. Memory
/// is O(distinct buckets) — at most a few thousand — regardless of how
/// many samples are recorded; that is what makes population-scale
/// sweeps O(cells) instead of O(total visits).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Sub-octave resolution (mantissa bits per bucket index).
    sub_bits: u32,
    /// Sparse bucket counts, keyed by truncated f64 bit pattern.
    buckets: BTreeMap<u32, u64>,
    /// Samples exactly equal to zero (no log bucket exists for them).
    zeros: u64,
    /// Total samples recorded (zeros included, rejections excluded).
    count: u64,
    /// NaN, infinite, or negative samples rejected by [`QuantileSketch::record`].
    rejected: u64,
    /// Exact smallest sample (+inf while empty).
    min: f64,
    /// Exact largest sample (-inf while empty).
    max: f64,
    /// Fixed-point (2^32-scaled) sum of all samples.
    sum_fp: u128,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch at the default [`SKETCH_SUB_BITS`] resolution.
    pub fn new() -> QuantileSketch {
        QuantileSketch::with_sub_bits(SKETCH_SUB_BITS)
    }

    /// An empty sketch with `sub_bits` mantissa bits per bucket
    /// (clamped to `[0, 20]`). Sketches of different resolution refuse
    /// to merge.
    pub fn with_sub_bits(sub_bits: u32) -> QuantileSketch {
        QuantileSketch {
            sub_bits: sub_bits.min(20),
            buckets: BTreeMap::new(),
            zeros: 0,
            count: 0,
            rejected: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum_fp: 0,
        }
    }

    fn bucket_key(&self, x: f64) -> u32 {
        (x.to_bits() >> (52 - self.sub_bits)) as u32
    }

    fn bucket_lo(&self, key: u32) -> f64 {
        f64::from_bits(u64::from(key) << (52 - self.sub_bits))
    }

    /// Deterministic representative of a bucket: the arithmetic midpoint
    /// of its bounds.
    fn bucket_mid(&self, key: u32) -> f64 {
        (self.bucket_lo(key) + self.bucket_lo(key + 1)) / 2.0
    }

    /// Record one sample. NaN, infinite, and negative samples are
    /// rejected and counted in [`QuantileSketch::rejected`] — never
    /// silently folded into a bucket.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            self.rejected += 1;
            return;
        }
        if x == 0.0 {
            self.zeros += 1;
        } else {
            *self.buckets.entry(self.bucket_key(x)).or_insert(0) += 1;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.sum_fp = self.sum_fp.saturating_add(sum_fp(x));
    }

    /// Merge `other` into `self`. Exact: the result equals sketching
    /// both sample streams into one sketch, in any order. Returns a
    /// field-path [`MergeError`] if the layouts disagree.
    pub fn merge(&mut self, other: &QuantileSketch) -> Result<(), MergeError> {
        if self.sub_bits != other.sub_bits {
            return Err(MergeError::mismatch(
                "quantile_sketch.sub_bits",
                self.sub_bits,
                other.sub_bits,
            ));
        }
        for (&key, &n) in &other.buckets {
            *self.buckets.entry(key).or_insert(0) += n;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.rejected += other.rejected;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum_fp = self.sum_fp.saturating_add(other.sum_fp);
        Ok(())
    }

    /// Samples recorded (rejections excluded).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Samples rejected as NaN, infinite, or negative.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Exact minimum (0 while empty, mirroring `percentile(&[], 0)`).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 while empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact sum of all samples (up to the 2^-32 fixed-point rounding
    /// of each recorded sample).
    pub fn sum(&self) -> f64 {
        (self.sum_fp as f64) / (1u64 << SUM_FP_BITS) as f64
    }

    /// Mean (0 while empty). Computed from the integer fixed-point sum,
    /// so the value is identical however the samples were partitioned
    /// across merges.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`; 0 while empty): the bucket
    /// midpoint at the nearest rank, clamped into `[min, max]`. The
    /// estimate is within half a bucket of the exact value: a relative
    /// error of at most `1 / 2^(sub_bits + 1)`, at an octave's floor.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly; answer from them so q0
        // and q1 (and every quantile of a single-sample sketch) carry
        // no bucket error at all.
        if target == 1 {
            return self.min;
        }
        if target == self.count {
            return self.max;
        }
        let mut cum = self.zeros;
        if cum >= target {
            return 0.0;
        }
        for (&key, &n) in &self.buckets {
            cum += n;
            if cum >= target {
                return self.bucket_mid(key).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// [`QuantileSketch::quantile`] with `p` in `[0, 100]`, mirroring
    /// [`percentile`].
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }
}

/// The checkpoint-store codec's sketch half, by hand because the encoder
/// is: `sum_fp` is split into two `u64`s, and ±inf bounds are `null`.
impl Deserialize for QuantileSketch {
    fn deserialize(v: &Value) -> Result<QuantileSketch, de::Error> {
        let keys = [
            "sub_bits",
            "count",
            "zeros",
            "rejected",
            "min",
            "max",
            "sum_fp_hi",
            "sum_fp_lo",
            "buckets",
        ];
        let mut f = de::Fields::new(v, &keys)?;
        let mut sketch = QuantileSketch::with_sub_bits(f.get("sub_bits")?);
        sketch.count = f.get("count")?;
        sketch.zeros = f.get("zeros")?;
        sketch.rejected = f.get("rejected")?;
        sketch.min = f.get::<Option<f64>>("min")?.unwrap_or(f64::INFINITY);
        sketch.max = f.get::<Option<f64>>("max")?.unwrap_or(f64::NEG_INFINITY);
        sketch.sum_fp =
            (u128::from(f.get::<u64>("sum_fp_hi")?) << 64) | u128::from(f.get::<u64>("sum_fp_lo")?);
        sketch.buckets = f.get::<Vec<(u32, u64)>>("buckets")?.into_iter().collect();
        Ok(sketch)
    }
}

impl Serialize for QuantileSketch {
    fn serialize(&self, w: &mut Writer<'_>) {
        // min/max are ±inf while empty; the writer prints a non-finite
        // float as null, which decodes back through the empty-sketch
        // defaults.
        w.begin_object();
        w.field("sub_bits", &self.sub_bits);
        w.field("count", &self.count);
        w.field("zeros", &self.zeros);
        w.field("rejected", &self.rejected);
        w.field("min", &self.min);
        w.field("max", &self.max);
        w.field("sum_fp_hi", &((self.sum_fp >> 64) as u64));
        w.field("sum_fp_lo", &(self.sum_fp as u64));
        w.key("buckets");
        w.array(&self.buckets);
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        assert_eq!(percentile(&xs, 25.0), 1.75);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_clamps_q() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -10.0), 1.0);
        assert_eq!(percentile(&xs, 200.0), 2.0);
    }

    #[test]
    fn box_stats_on_known_sample() {
        let xs = [7.0, 1.0, 3.0, 5.0, 9.0];
        let b = BoxStats::from_samples(&xs).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 5.0);
        assert_eq!(b.max, 9.0);
        assert_eq!(b.mean, 5.0);
        assert_eq!(b.n, 5);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
        assert!(BoxStats::from_samples(&[]).is_none());
    }

    #[test]
    fn mean_ci_shrinks_with_n() {
        let small = MeanCi::from_samples(&[1.0, 3.0]);
        let xs: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { 3.0 })
            .collect();
        let large = MeanCi::from_samples(&xs);
        assert_eq!(small.mean, 2.0);
        assert_eq!(large.mean, 2.0);
        assert!(large.ci95 < small.ci95);
        assert_eq!(MeanCi::from_samples(&[5.0]).ci95, 0.0);
    }

    #[test]
    fn cdf_fractions() {
        let c = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_at(0.5), 0.0);
        assert_eq!(c.fraction_at(2.0), 0.5);
        assert_eq!(c.fraction_at(10.0), 1.0);
        assert_eq!(c.quantile(0.5), Some(2.0));
        assert_eq!(c.quantile(1.0), Some(4.0));
    }

    #[test]
    fn sketch_tracks_exact_min_max_mean_count() {
        let mut s = QuantileSketch::new();
        for x in [120.5, 3000.0, 45.25, 0.0, 777.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 3000.0);
        let exact_mean = (120.5 + 3000.0 + 45.25 + 777.0) / 5.0;
        assert!((s.mean() - exact_mean).abs() < 1e-6, "{}", s.mean());
    }

    #[test]
    fn sketch_rejects_nonfinite_and_negative() {
        let mut s = QuantileSketch::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(-1.0);
        s.record(2.0);
        assert_eq!(s.rejected(), 3);
        assert_eq!(s.count(), 1);
        assert_eq!(s.quantile(0.5), 2.0);
    }

    #[test]
    fn sketch_quantiles_stay_within_relative_error_bound() {
        let mut s = QuantileSketch::new();
        for i in 1..=10_000u32 {
            s.record(f64::from(i));
        }
        // A bucket in the octave [2^k, 2^(k+1)) is 2^k/128 wide; the
        // midpoint is within half of that of any sample in the bucket,
        // so at most 1/256 of it.
        let bound = 1.0 / 256.0;
        for (q, exact) in [(0.5, 5000.0), (0.9, 9000.0), (0.95, 9500.0), (0.99, 9900.0)] {
            let got = s.quantile(q);
            let rel = (got - exact).abs() / exact;
            assert!(rel <= bound, "q{q}: {got} vs {exact} (rel {rel})");
        }
        assert_eq!(s.quantile(0.0), 1.0, "q0 clamps to the exact min");
        assert_eq!(s.quantile(1.0), 10_000.0, "q1 clamps to the exact max");

        // The worst case: a sample at an octave's floor. The median of
        // {0, 1, 2, 3, 1000} is 2, answered by its bucket's midpoint
        // 2 + 2/256, exactly the bound.
        let mut s = QuantileSketch::new();
        for x in [0.0, 1.0, 2.0, 3.0, 1000.0] {
            s.record(x);
        }
        let got = s.quantile(0.5);
        assert_eq!(got, 2.0078125);
        assert_eq!((got - 2.0) / 2.0, bound);
    }

    #[test]
    fn single_sample_sketch_is_exact_everywhere() {
        let mut s = QuantileSketch::new();
        s.record(1234.5);
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(s.quantile(q), 1234.5, "q={q}");
        }
        assert_eq!(s.percentile(50.0), 1234.5);
        assert_eq!(s.mean(), 1234.5);
    }

    #[test]
    fn sketch_merge_equals_union_and_is_order_independent() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64) * 7.25 + 0.5).collect();
        let mut whole = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for (i, &x) in xs.iter().enumerate() {
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, whole, "merge must equal sketching the union");
        assert_eq!(ba, whole, "merge must be commutative");
    }

    #[test]
    fn sketch_merge_rejects_resolution_mismatch() {
        let mut a = QuantileSketch::with_sub_bits(7);
        let e = a.merge(&QuantileSketch::with_sub_bits(5)).unwrap_err();
        assert_eq!(e.path, "quantile_sketch.sub_bits");
        assert!(e.detail.contains('7') && e.detail.contains('5'), "{e}");
    }

    #[test]
    fn sketch_value_round_trip_is_exact() {
        let mut s = QuantileSketch::new();
        for i in 0..50u32 {
            s.record(f64::from(i) * 13.37 + 0.001);
        }
        s.record(f64::NAN);
        let decoded = QuantileSketch::deserialize(&s.to_value()).unwrap();
        assert_eq!(decoded, s);
        // The empty sketch round-trips its non-finite min/max via null.
        let empty = QuantileSketch::new();
        assert_eq!(
            QuantileSketch::deserialize(&empty.to_value()).unwrap(),
            empty
        );
        // Decode diagnostics name the field.
        let e = QuantileSketch::deserialize(&Value::Object(vec![])).unwrap_err();
        assert_eq!(e.to_string(), "sub_bits: missing key");
    }
}
