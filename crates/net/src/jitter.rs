//! Per-packet delay-variation (jitter) models.
//!
//! Cellular schedulers add substantial delay variance on top of the base
//! round trip; this is what keeps TCP's RTT variance estimate — and hence
//! the RTO — realistic. A log-normal model fits measured cellular one-way
//! delay tails well.

use serde::Serialize;
use spdyier_sim::{DetRng, SimDuration};

/// A jitter model producing a non-negative additional delay per packet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum JitterModel {
    /// No added delay.
    #[default]
    None,
    /// Uniform extra delay in `[0, max)`.
    Uniform {
        /// Upper bound of the added delay.
        max: SimDurationMillis,
    },
    /// Log-normal extra delay with the given mean and shape.
    LogNormal {
        /// Mean added delay, milliseconds.
        mean_ms: f64,
        /// Sigma of the underlying normal (tail heaviness).
        sigma: f64,
    },
}

/// Milliseconds wrapper so jitter configs serialise readably.
pub type SimDurationMillis = u64;

impl JitterModel {
    /// Draw the added delay for one packet.
    pub fn sample(&self, rng: &mut DetRng) -> SimDuration {
        match *self {
            JitterModel::None => SimDuration::ZERO,
            JitterModel::Uniform { max } => {
                SimDuration::from_secs_f64(rng.uniform_range(0.0, max as f64 / 1e3))
            }
            JitterModel::LogNormal { mean_ms, sigma } => {
                SimDuration::from_secs_f64(rng.lognormal_mean(mean_ms, sigma) / 1e3)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero() {
        let mut rng = DetRng::new(1);
        assert_eq!(JitterModel::None.sample(&mut rng), SimDuration::ZERO);
    }

    #[test]
    fn uniform_within_bound() {
        let mut rng = DetRng::new(2);
        let m = JitterModel::Uniform { max: 50 };
        for _ in 0..10_000 {
            let d = m.sample(&mut rng);
            assert!(d < SimDuration::from_millis(50));
        }
    }

    #[test]
    fn lognormal_mean_close() {
        let mut rng = DetRng::new(3);
        let m = JitterModel::LogNormal {
            mean_ms: 20.0,
            sigma: 0.5,
        };
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| m.sample(&mut rng).as_secs_f64() * 1e3).sum();
        let mean = sum / n as f64;
        assert!((mean - 20.0).abs() < 1.0, "mean {mean} ms");
    }

    #[test]
    fn lognormal_is_nonnegative_and_tailed() {
        let mut rng = DetRng::new(4);
        let m = JitterModel::LogNormal {
            mean_ms: 10.0,
            sigma: 0.8,
        };
        let samples: Vec<f64> = (0..20_000)
            .map(|_| m.sample(&mut rng).as_secs_f64() * 1e3)
            .collect();
        assert!(samples.iter().all(|&s| s >= 0.0));
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > 30.0, "heavy tail expected, max {max}");
    }
}
