//! Packet-loss models.
//!
//! Cellular radio links hide most physical loss behind link-layer
//! retransmission, so the residual loss visible to TCP is small but bursty.
//! We provide independent (Bernoulli) loss and a two-state Gilbert–Elliott
//! model for correlated bursts.

use serde::Serialize;
use spdyier_sim::DetRng;

/// A packet loss model evaluated per packet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub enum LossModel {
    /// No loss ever.
    #[default]
    None,
    /// Independent loss with the given probability per packet.
    Bernoulli {
        /// Per-packet drop probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott model: the channel alternates between a
    /// Good and a Bad state with geometric sojourn times.
    GilbertElliott {
        /// Probability of transitioning Good→Bad at each packet.
        p_good_to_bad: f64,
        /// Probability of transitioning Bad→Good at each packet.
        p_bad_to_good: f64,
        /// Drop probability while in the Good state.
        loss_good: f64,
        /// Drop probability while in the Bad state.
        loss_bad: f64,
    },
}

/// Mutable evaluation state for a [`LossModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LossState {
    in_bad: bool,
}

impl LossModel {
    /// Decide whether the next packet is dropped, advancing `state`.
    pub fn drops(&self, state: &mut LossState, rng: &mut DetRng) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.chance(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                if state.in_bad {
                    if rng.chance(p_bad_to_good) {
                        state.in_bad = false;
                    }
                } else if rng.chance(p_good_to_bad) {
                    state.in_bad = true;
                }
                rng.chance(if state.in_bad { loss_bad } else { loss_good })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        let mut rng = DetRng::new(1);
        let mut st = LossState::default();
        assert!((0..1000).all(|_| !LossModel::None.drops(&mut st, &mut rng)));
    }

    #[test]
    fn bernoulli_rate_close() {
        let mut rng = DetRng::new(2);
        let mut st = LossState::default();
        let m = LossModel::Bernoulli { p: 0.1 };
        let n = 100_000;
        let drops = (0..n).filter(|_| m.drops(&mut st, &mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_is_bursty() {
        let mut rng = DetRng::new(3);
        let mut st = LossState::default();
        let m = LossModel::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 0.8,
        };
        let seq: Vec<bool> = (0..200_000).map(|_| m.drops(&mut st, &mut rng)).collect();
        let total = seq.iter().filter(|&&d| d).count();
        assert!(total > 0, "some loss must occur");
        // Burstiness: probability a drop follows a drop must exceed the
        // marginal drop rate by a wide margin.
        let pairs = seq.windows(2).filter(|w| w[0]).count();
        let follow = seq.windows(2).filter(|w| w[0] && w[1]).count();
        let p_follow = follow as f64 / pairs as f64;
        let p_marginal = total as f64 / seq.len() as f64;
        assert!(
            p_follow > 3.0 * p_marginal,
            "correlated loss expected: follow {p_follow} vs marginal {p_marginal}"
        );
    }

    #[test]
    fn gilbert_all_good_no_bad_loss() {
        let mut rng = DetRng::new(4);
        let mut st = LossState::default();
        let m = LossModel::GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        assert!((0..1000).all(|_| !m.drops(&mut st, &mut rng)));
    }
}
