//! The LTE RRC state machine.
//!
//! Two primary states (`RRC_IDLE`, `RRC_CONNECTED`) with three
//! `RRC_CONNECTED` sub-states per the paper's Appendix A: Continuous
//! Reception, Short DRX, and Long DRX. Compared to 3G the promotion delay
//! is five times smaller (~0.4 s), which is precisely why the paper sees
//! far fewer — but not zero — spurious retransmissions on LTE (Fig. 17).

use crate::energy::EnergyMeter;
use crate::rrc3g::PromotionEvent;
use crate::rrc3g::PromotionKind;
use serde::Serialize;
use spdyier_sim::{SimDuration, SimTime};

/// Observable LTE radio states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RrcLteState {
    /// `RRC_IDLE`: radio released; promotion required.
    Idle,
    /// `RRC_CONNECTED` / continuous reception: full bandwidth.
    ContinuousRx,
    /// `RRC_CONNECTED` / short DRX: dozing between short wake cycles.
    ShortDrx,
    /// `RRC_CONNECTED` / long DRX: dozing between long wake cycles.
    LongDrx,
    /// Promotion from `RRC_IDLE` in progress.
    Promoting,
}

/// Timer and power constants of the LTE machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RrcLteConfig {
    /// `RRC_IDLE → RRC_CONNECTED` promotion (paper: ~400 ms).
    pub promotion: SimDuration,
    /// Inactivity before continuous reception → short DRX (paper: ~100 ms).
    pub crx_inactivity: SimDuration,
    /// Time spent in short DRX before falling to long DRX.
    pub short_drx_duration: SimDuration,
    /// Total connected-tail length after last activity before `RRC_IDLE`
    /// (paper: ~11.5 s in long DRX, so tail ≈ 11.6 s + short DRX).
    pub tail_total: SimDuration,
    /// Wake-up latency when data arrives during short DRX.
    pub short_drx_wake: SimDuration,
    /// Wake-up latency when data arrives during long DRX (bounded by one
    /// long DRX cycle).
    pub long_drx_wake: SimDuration,
    /// Power in continuous reception, milliwatts (paper: 1000+).
    pub power_crx_mw: f64,
    /// Power in short DRX, milliwatts.
    pub power_short_drx_mw: f64,
    /// Power in long DRX, milliwatts.
    pub power_long_drx_mw: f64,
    /// Power in `RRC_IDLE`, milliwatts (paper: < 15).
    pub power_idle_mw: f64,
}

impl Default for RrcLteConfig {
    fn default() -> Self {
        RrcLteConfig {
            promotion: SimDuration::from_millis(400),
            crx_inactivity: SimDuration::from_millis(100),
            short_drx_duration: SimDuration::from_millis(400),
            tail_total: SimDuration::from_millis(11_600),
            // DRX wake-on-data happens within one DRX cycle (tens of ms
            // short, ≤ ~100 ms long); only the RRC_IDLE promotion costs
            // the full ~400 ms.
            short_drx_wake: SimDuration::from_millis(20),
            long_drx_wake: SimDuration::from_millis(100),
            power_crx_mw: 1_000.0,
            power_short_drx_mw: 700.0,
            power_long_drx_mw: 600.0,
            power_idle_mw: 15.0,
        }
    }
}

/// The lazily-evaluated LTE RRC machine.
#[derive(Debug)]
pub struct RrcLte {
    cfg: RrcLteConfig,
    /// Last instant the radio carried data.
    last_activity: SimTime,
    promotions: Vec<PromotionEvent>,
    energy: EnergyMeter,
    started: bool,
}

impl RrcLte {
    /// A machine starting in `RRC_IDLE` at t = 0.
    pub fn new(cfg: RrcLteConfig) -> RrcLte {
        RrcLte {
            cfg,
            last_activity: SimTime::ZERO,
            promotions: Vec::new(),
            energy: EnergyMeter::new(),
            started: false,
        }
    }

    /// The promotion interval covering `t`, if any.
    fn covering_promotion(&self, t: SimTime) -> Option<&PromotionEvent> {
        self.promotions
            .iter()
            .rev()
            .take(4)
            .find(|p| p.start <= t && t < p.done)
    }

    /// Configuration in effect.
    pub fn config(&self) -> &RrcLteConfig {
        &self.cfg
    }

    /// Mutable configuration (for sensitivity sweeps; change timers before
    /// the simulation starts).
    pub fn config_mut(&mut self) -> &mut RrcLteConfig {
        &mut self.cfg
    }

    /// The state observed at `t`.
    ///
    /// Queries may be retrospective (see [`crate::Rrc3g::state_at`]); the
    /// recorded promotion intervals are consulted, not just the pending one.
    pub fn state_at(&self, t: SimTime) -> RrcLteState {
        if self
            .promotions
            .iter()
            .rev()
            .take(4)
            .any(|p| p.start <= t && t < p.done)
        {
            return RrcLteState::Promoting;
        }
        if !self.started {
            return RrcLteState::Idle;
        }
        let since = t.saturating_since(self.last_activity);
        if t < self.last_activity || since < self.cfg.crx_inactivity {
            RrcLteState::ContinuousRx
        } else if since < self.cfg.crx_inactivity + self.cfg.short_drx_duration {
            RrcLteState::ShortDrx
        } else if since < self.cfg.tail_total {
            RrcLteState::LongDrx
        } else {
            RrcLteState::Idle
        }
    }

    /// Power draw at `t`, milliwatts.
    pub fn power_at(&self, t: SimTime) -> f64 {
        match self.state_at(t) {
            RrcLteState::ContinuousRx | RrcLteState::Promoting => self.cfg.power_crx_mw,
            RrcLteState::ShortDrx => self.cfg.power_short_drx_mw,
            RrcLteState::LongDrx => self.cfg.power_long_drx_mw,
            RrcLteState::Idle => self.cfg.power_idle_mw,
        }
    }

    /// When may a transfer offered at `now` hit the air? (Size does not
    /// matter on LTE: any packet triggers the full promotion.)
    pub fn gate(&mut self, now: SimTime, _bytes: u64) -> SimTime {
        self.accrue_energy(now);
        match self.state_at(now) {
            RrcLteState::Promoting => {
                self.covering_promotion(now)
                    .expect("Promoting implies a covering promotion record")
                    .done
            }
            RrcLteState::ContinuousRx => now,
            RrcLteState::ShortDrx => now + self.cfg.short_drx_wake,
            RrcLteState::LongDrx => now + self.cfg.long_drx_wake,
            RrcLteState::Idle => {
                let end = now + self.cfg.promotion;
                self.promotions.push(PromotionEvent {
                    start: now,
                    done: end,
                    kind: PromotionKind::IdleToDch,
                });
                end
            }
        }
    }

    /// Record that the radio finished moving data at `t`.
    pub fn note_activity(&mut self, t: SimTime, _bytes: u64) {
        self.accrue_energy(t);
        self.started = true;
        self.last_activity = self.last_activity.max(t);
    }

    /// All promotions taken so far.
    pub fn promotions(&self) -> &[PromotionEvent] {
        &self.promotions
    }

    /// Total radio energy consumed, mJ.
    pub fn energy_mj(&mut self, now: SimTime) -> f64 {
        self.accrue_energy(now);
        self.energy.total_mj()
    }

    fn accrue_energy(&mut self, to: SimTime) {
        let mut cursor = self.energy.accounted_until();
        while cursor < to {
            let promo_edges = self
                .promotions
                .iter()
                .rev()
                .take(4)
                .flat_map(|p| [p.start, p.done]);
            let b2 = self.last_activity + self.cfg.crx_inactivity;
            let b3 = self.last_activity + self.cfg.crx_inactivity + self.cfg.short_drx_duration;
            let b4 = self.last_activity + self.cfg.tail_total;
            let next = promo_edges
                .chain([b2, b3, b4])
                .filter(|&b| b > cursor)
                .min()
                .unwrap_or(SimTime::MAX)
                .min(to);
            let p = self.power_at(cursor);
            self.energy.accrue(p, next.saturating_since(cursor));
            self.energy.set_accounted_until(next);
            cursor = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn machine() -> RrcLte {
        RrcLte::new(RrcLteConfig::default())
    }

    #[test]
    fn fresh_device_is_idle() {
        let m = machine();
        assert_eq!(m.state_at(SimTime::ZERO), RrcLteState::Idle);
    }

    #[test]
    fn promotion_is_much_shorter_than_3g() {
        let mut m = machine();
        let gate = m.gate(SimTime::ZERO, 1380);
        assert_eq!(gate, t(400));
        m.note_activity(gate, 1380);
        assert_eq!(m.state_at(gate), RrcLteState::ContinuousRx);
    }

    #[test]
    fn drx_ladder_follows_timers() {
        let mut m = machine();
        let g = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g, 1380); // active at 400 ms
        assert_eq!(m.state_at(t(450)), RrcLteState::ContinuousRx);
        assert_eq!(
            m.state_at(t(550)),
            RrcLteState::ShortDrx,
            "+100 ms → short DRX"
        );
        assert_eq!(
            m.state_at(t(1_000)),
            RrcLteState::LongDrx,
            "+500 ms → long DRX"
        );
        assert_eq!(m.state_at(t(11_900)), RrcLteState::LongDrx);
        assert_eq!(
            m.state_at(t(12_100)),
            RrcLteState::Idle,
            "tail ends at +11.6 s"
        );
    }

    #[test]
    fn drx_wake_latencies() {
        let mut m = machine();
        let g = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g, 1380);
        // Short DRX at +200 ms since activity: 20 ms wake.
        assert_eq!(m.gate(t(600), 1380), t(620));
        m.note_activity(t(620), 1380);
        // Long DRX at +1 s since activity: 100 ms wake.
        assert_eq!(m.gate(t(1_620), 1380), t(1_720));
    }

    #[test]
    fn data_in_crx_flows_immediately() {
        let mut m = machine();
        let g = m.gate(SimTime::ZERO, 100);
        m.note_activity(g, 100);
        assert_eq!(m.gate(t(450), 100), t(450));
    }

    #[test]
    fn idle_after_tail_requires_promotion_again() {
        let mut m = machine();
        let g = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g, 1380);
        let later = t(60_000);
        assert_eq!(m.state_at(later), RrcLteState::Idle);
        assert_eq!(m.gate(later, 1380), t(60_400));
        assert_eq!(m.promotions().len(), 2);
    }

    #[test]
    fn concurrent_arrivals_share_promotion() {
        let mut m = machine();
        let g1 = m.gate(SimTime::ZERO, 1380);
        let g2 = m.gate(t(100), 1380);
        assert_eq!(g1, g2);
        assert_eq!(m.promotions().len(), 1);
    }

    #[test]
    fn energy_tail_dominates_short_transfers() {
        let mut m = machine();
        let g = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g, 1380);
        let e = m.energy_mj(t(20_000));
        // Promotion 0.4 s @1000 + CRX 0.1 s @1000 + short DRX 0.4 s @700
        // + long DRX 11.1 s @600 + idle 7.6 s @15.
        let expected = 400.0 + 100.0 + 0.7 * 400.0 + 0.6 * 11_100.0 + 0.015 * 7_600.0;
        assert!(
            (e - expected).abs() < expected * 0.02,
            "energy {e} vs {expected}"
        );
    }
}
