//! Round-trip-time estimation and retransmission timeout (RFC 6298).
//!
//! This module is the locus of the paper's headline finding: the estimator
//! converges on the tight active-state RTT of the cellular link, and the
//! resulting RTO (a few hundred milliseconds) is far smaller than the
//! ~2-second RRC promotion delay. Unless the estimate is reset across idle
//! periods ([`RttEstimator::reset_to`], the paper's §6.2.1 proposal), the
//! first transfer after idle fires a spurious retransmission.

use serde::Serialize;
use spdyier_sim::SimDuration;

/// RFC 6298 smoothed RTT estimator with Karn's rule applied by the caller
/// (only unambiguous samples are fed in).
#[derive(Debug, Clone, Serialize)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
    initial_rto: SimDuration,
    /// Override for the no-estimate RTO after an explicit reset (the
    /// paper's "initial default value of multiple seconds").
    reset_rto: Option<SimDuration>,
    /// Latest raw sample (diagnostics).
    last_sample: Option<SimDuration>,
    samples_taken: u64,
}

impl RttEstimator {
    /// A fresh estimator: RTO starts at `initial_rto` (RFC 6298: 1 s).
    pub fn new(initial_rto: SimDuration, min_rto: SimDuration, max_rto: SimDuration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rto,
            max_rto,
            initial_rto,
            reset_rto: None,
            last_sample: None,
            samples_taken: 0,
        }
    }

    /// Feed one RTT sample (RFC 6298 §2).
    pub fn sample(&mut self, rtt: SimDuration) {
        self.last_sample = Some(rtt);
        self.samples_taken += 1;
        self.reset_rto = None;
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt.div(2);
            }
            Some(srtt) => {
                // RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R|
                let err = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = self.rttvar.saturating_mul(3).div(4) + err.div(4);
                // SRTT = 7/8 SRTT + 1/8 R
                self.srtt = Some(srtt.saturating_mul(7).div(8) + rtt.div(8));
            }
        }
    }

    /// The current retransmission timeout: `SRTT + 4·RTTVAR`, clamped to
    /// `[min_rto, max_rto]`; `initial_rto` before any sample.
    pub fn rto(&self) -> SimDuration {
        match self.srtt {
            None => self.reset_rto.unwrap_or(self.initial_rto),
            Some(srtt) => {
                let rto = srtt + self.rttvar.saturating_mul(4);
                rto.max(self.min_rto).min(self.max_rto)
            }
        }
    }

    /// Smoothed RTT, if at least one sample was taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// Latest raw sample.
    pub fn last_sample(&self) -> Option<SimDuration> {
        self.last_sample
    }

    /// Number of samples consumed.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Discard the estimate and hold the RTO at `rto` until a new sample
    /// arrives — the paper's §6.2.1 proposal, where the post-idle RTO is
    /// "multiple seconds", comfortably above any promotion delay.
    pub fn reset_to(&mut self, rto: SimDuration) {
        self.srtt = None;
        self.rttvar = SimDuration::ZERO;
        self.reset_rto = Some(rto);
    }

    /// Seed the estimator from cached metrics (Linux `tcp_metrics`
    /// behaviour — §6.2.4 of the paper shows this can be actively harmful).
    pub fn seed(&mut self, srtt: SimDuration, rttvar: SimDuration) {
        self.srtt = Some(srtt);
        self.rttvar = rttvar;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(
            SimDuration::from_secs(1),
            SimDuration::from_millis(200),
            SimDuration::from_secs(120),
        )
    }

    #[test]
    fn initial_rto_before_samples() {
        let e = est();
        assert_eq!(e.rto(), SimDuration::from_secs(1));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_rfc6298() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        assert_eq!(e.rttvar(), SimDuration::from_millis(50));
        // RTO = 100 + 4*50 = 300 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn converges_on_stable_rtt() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(150));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_millis() as i64 - 150).abs() <= 1,
            "srtt {srtt} should converge to 150 ms"
        );
        // With near-zero variance the min RTO clamp kicks in.
        assert_eq!(e.rto(), SimDuration::from_millis(200));
    }

    #[test]
    fn rto_respects_min_and_max() {
        let mut e = est();
        for _ in 0..50 {
            e.sample(SimDuration::from_millis(1));
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200), "min clamp");
        let mut e2 = est();
        e2.sample(SimDuration::from_secs(500));
        assert_eq!(e2.rto(), SimDuration::from_secs(120), "max clamp");
    }

    #[test]
    fn converged_rto_is_far_below_promotion_delay() {
        // The central premise of the paper: a tight RTO vs a 2 s promotion.
        let mut e = est();
        // Jittery cellular active-state RTTs around 150–250 ms.
        for i in 0..200u64 {
            e.sample(SimDuration::from_millis(150 + (i * 37) % 100));
        }
        let rto = e.rto();
        assert!(
            rto < SimDuration::from_millis(700),
            "converged RTO {rto} must be well under the 2 s promotion"
        );
    }

    #[test]
    fn reset_to_holds_its_rto_until_a_fresh_sample() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        assert!(e.rto() < SimDuration::from_secs(1));
        e.reset_to(SimDuration::from_secs(3));
        assert_eq!(e.rto(), SimDuration::from_secs(3));
        assert_eq!(e.srtt(), None);
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn seeding_applies_cached_metrics() {
        let mut e = est();
        e.seed(SimDuration::from_millis(80), SimDuration::from_millis(10));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(80)));
        assert_eq!(
            e.rto(),
            SimDuration::from_millis(200),
            "80+40=120 clamps to 200 min"
        );
    }

    #[test]
    fn variance_grows_with_jitter() {
        let mut stable = est();
        let mut jittery = est();
        for i in 0..100u64 {
            stable.sample(SimDuration::from_millis(150));
            jittery.sample(SimDuration::from_millis(if i % 2 == 0 { 50 } else { 250 }));
        }
        assert!(jittery.rttvar() > stable.rttvar());
        assert!(jittery.rto() > stable.rto());
    }
}
