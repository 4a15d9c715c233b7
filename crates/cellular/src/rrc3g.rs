//! The 3G UMTS radio resource control (RRC) state machine.
//!
//! Implements the three-state machine from the paper's Appendix A /
//! Figure 18: `IDLE`, `CELL_FACH`, and `CELL_DCH`, with the promotion and
//! demotion timers the paper reports:
//!
//! * `IDLE → DCH` promotion ≈ 2 s for any packet (the measured network
//!   took the DCH path for all packet-switched traffic; there is no
//!   `IDLE → FACH` promotion);
//! * `FACH → DCH` promotion ≈ 1.5 s when the pending transfer exceeds the
//!   FACH queue threshold;
//! * `DCH → FACH` demotion after ≈ 5 s of inactivity;
//! * `FACH → IDLE` demotion after ≈ 12 s more.
//!
//! The machine is evaluated *lazily*: rather than scheduling demotion
//! events, it derives the state at any query instant from the timestamps of
//! past activity. This keeps it a pure, independently testable state
//! machine (sans-IO, like every protocol core in this workspace).

use crate::energy::EnergyMeter;
use serde::Serialize;
use spdyier_sim::{SimDuration, SimTime};

/// Observable 3G RRC states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Rrc3gState {
    /// No radio resources; nothing can move until a promotion completes.
    Idle,
    /// Shared low-rate channel; small transfers only.
    Fach,
    /// Dedicated high-bandwidth channel.
    Dch,
    /// A promotion is in progress; data is buffered until it completes.
    Promoting,
}

/// Which promotion occurred (recorded for cross-layer analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PromotionKind {
    /// `IDLE → CELL_DCH`, the full ~2 s promotion.
    IdleToDch,
    /// `CELL_FACH → CELL_DCH` when the queue threshold is exceeded.
    FachToDch,
}

/// One recorded promotion: when it started, when it completed, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PromotionEvent {
    /// Instant the triggering packet arrived at the (idle) radio.
    pub start: SimTime,
    /// Instant the radio became usable again.
    pub done: SimTime,
    /// Transition taken.
    pub kind: PromotionKind,
}

/// Timer and power constants of the 3G machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Rrc3gConfig {
    /// `IDLE → DCH` promotion delay (paper: ~2 s).
    pub promo_idle_dch: SimDuration,
    /// `FACH → DCH` promotion delay (paper: ~1.5 s).
    pub promo_fach_dch: SimDuration,
    /// Inactivity before `DCH → FACH` demotion (paper: ~5 s).
    pub dch_fach_timer: SimDuration,
    /// Further inactivity before `FACH → IDLE` (paper: ~12 s).
    pub fach_idle_timer: SimDuration,
    /// Transfers larger than this promote out of FACH instead of trickling.
    pub fach_queue_threshold_bytes: u64,
    /// Extra one-way latency for small transfers carried on FACH.
    pub fach_latency: SimDuration,
    /// Power draw in DCH (and during promotions), milliwatts.
    pub power_dch_mw: f64,
    /// Power draw in FACH, milliwatts.
    pub power_fach_mw: f64,
    /// Power draw in IDLE, milliwatts.
    pub power_idle_mw: f64,
}

impl Default for Rrc3gConfig {
    fn default() -> Self {
        Rrc3gConfig {
            promo_idle_dch: SimDuration::from_millis(2_000),
            promo_fach_dch: SimDuration::from_millis(1_500),
            dch_fach_timer: SimDuration::from_secs(5),
            fach_idle_timer: SimDuration::from_secs(12),
            // Bare control packets (SYN/ACK ≈ 40 B wire, pings) ride FACH;
            // anything data-bearing needs the dedicated channel.
            fach_queue_threshold_bytes: 120,
            fach_latency: SimDuration::from_millis(100),
            power_dch_mw: 800.0,
            power_fach_mw: 460.0,
            power_idle_mw: 0.0,
        }
    }
}

/// The lazily-evaluated 3G RRC machine.
#[derive(Debug)]
pub struct Rrc3g {
    cfg: Rrc3gConfig,
    /// Device holds DCH until this instant (last DCH activity + timer).
    dch_until: SimTime,
    /// Device holds FACH until this instant.
    fach_until: SimTime,
    /// All promotions taken, for the run's results. The machine's
    /// current/past promotion state is derived from this list.
    promotions: Vec<PromotionEvent>,
    /// Number of promotions whose completion has been applied to the
    /// `dch_until`/`fach_until` hold timers.
    landed: usize,
    energy: EnergyMeter,
    /// True once the device has ever been active (fresh devices start Idle).
    started: bool,
}

impl Rrc3g {
    /// A machine starting in IDLE at t = 0.
    pub fn new(cfg: Rrc3gConfig) -> Rrc3g {
        Rrc3g {
            cfg,
            dch_until: SimTime::ZERO,
            fach_until: SimTime::ZERO,
            promotions: Vec::new(),
            landed: 0,
            energy: EnergyMeter::new(),
            started: false,
        }
    }

    /// Index of the promotion interval covering `t`, if any.
    fn covering_promotion(&self, t: SimTime) -> Option<usize> {
        self.promotions
            .iter()
            .enumerate()
            .rev()
            .take(4)
            .find(|(_, p)| p.start <= t && t < p.done)
            .map(|(i, _)| i)
    }

    /// Configuration in effect.
    pub fn config(&self) -> &Rrc3gConfig {
        &self.cfg
    }

    /// Mutable configuration (for sensitivity sweeps; change timers before
    /// the simulation starts).
    pub fn config_mut(&mut self) -> &mut Rrc3gConfig {
        &mut self.cfg
    }

    /// The state observed at `t` (promotions count as `Promoting`).
    ///
    /// Queries may be retrospective: the DES driver learns packet delivery
    /// times in the future and notes activity there, so `state_at` consults
    /// the recorded promotion intervals, not just the pending one.
    pub fn state_at(&self, t: SimTime) -> Rrc3gState {
        if self
            .promotions
            .iter()
            .rev()
            .take(4)
            .any(|p| p.start <= t && t < p.done)
        {
            return Rrc3gState::Promoting;
        }
        if !self.started {
            return Rrc3gState::Idle;
        }
        if t < self.dch_until {
            Rrc3gState::Dch
        } else if t < self.fach_until {
            Rrc3gState::Fach
        } else {
            Rrc3gState::Idle
        }
    }

    /// Power draw at `t`, milliwatts.
    pub fn power_at(&self, t: SimTime) -> f64 {
        match self.state_at(t) {
            Rrc3gState::Dch | Rrc3gState::Promoting => self.cfg.power_dch_mw,
            Rrc3gState::Fach => self.cfg.power_fach_mw,
            Rrc3gState::Idle => self.cfg.power_idle_mw,
        }
    }

    /// When may a transfer of `bytes` offered at `now` actually hit the air?
    ///
    /// Returns the gate instant and mutates the machine (starting a
    /// promotion if one is needed). Identical to how the NodeB buffers
    /// packets that arrive for an idle device.
    pub fn gate(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.accrue_energy(now);
        let small = bytes <= self.cfg.fach_queue_threshold_bytes;
        match self.state_at(now) {
            Rrc3gState::Promoting => {
                let i = self
                    .covering_promotion(now)
                    .expect("Promoting implies a covering promotion record");
                // Every promotion lands in DCH: the packet waits it out.
                self.promotions[i].done
            }
            Rrc3gState::Dch => now,
            Rrc3gState::Fach if small => now + self.cfg.fach_latency,
            Rrc3gState::Fach => {
                let end = now + self.cfg.promo_fach_dch;
                self.begin_promotion(now, end, PromotionKind::FachToDch);
                end
            }
            Rrc3gState::Idle => {
                // The paper's network promotes IDLE → CELL_DCH (~2 s) for
                // any packet-switched traffic, small or large.
                let end = now + self.cfg.promo_idle_dch;
                self.begin_promotion(now, end, PromotionKind::IdleToDch);
                end
            }
        }
    }

    /// Record that the radio finished moving data at `t` (e.g. a packet's
    /// serialisation completed). Refreshes the inactivity timers.
    pub fn note_activity(&mut self, t: SimTime, bytes: u64) {
        self.accrue_energy(t);
        self.started = true;
        let small = bytes <= self.cfg.fach_queue_threshold_bytes;
        let was_fach = self.state_at(t) == Rrc3gState::Fach;
        // Land any promotions that completed by `t` into the hold timers.
        while self.landed < self.promotions.len() && self.promotions[self.landed].done <= t {
            let done = self.promotions[self.landed].done;
            self.dch_until = self.dch_until.max(done + self.cfg.dch_fach_timer);
            self.landed += 1;
        }
        if small && was_fach {
            // Small FACH transfer: refresh only the FACH hold timer.
            self.fach_until = self.fach_until.max(t + self.cfg.fach_idle_timer);
        } else if self.state_at(t) == Rrc3gState::Dch || !small {
            self.dch_until = self.dch_until.max(t + self.cfg.dch_fach_timer);
            self.fach_until = self
                .fach_until
                .max(self.dch_until + self.cfg.fach_idle_timer);
        } else {
            // Small transfer while idle-bound state: hold FACH.
            self.fach_until = self.fach_until.max(t + self.cfg.fach_idle_timer);
        }
    }

    /// All promotions taken so far.
    pub fn promotions(&self) -> &[PromotionEvent] {
        &self.promotions
    }

    /// Total radio energy consumed up to the last accounted instant, mJ.
    pub fn energy_mj(&mut self, now: SimTime) -> f64 {
        self.accrue_energy(now);
        self.energy.total_mj()
    }

    fn begin_promotion(&mut self, start: SimTime, end: SimTime, kind: PromotionKind) {
        self.promotions.push(PromotionEvent {
            start,
            done: end,
            kind,
        });
    }

    fn accrue_energy(&mut self, to: SimTime) {
        // Walk the piecewise-constant power function segment by segment.
        let mut cursor = self.energy.accounted_until();
        while cursor < to {
            let promo_edges = self
                .promotions
                .iter()
                .rev()
                .take(4)
                .flat_map(|p| [p.start, p.done]);
            let next = promo_edges
                .chain([self.dch_until, self.fach_until])
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

    fn machine() -> Rrc3g {
        Rrc3g::new(Rrc3gConfig::default())
    }

    #[test]
    fn fresh_device_is_idle() {
        let m = machine();
        assert_eq!(m.state_at(SimTime::ZERO), Rrc3gState::Idle);
        assert_eq!(m.state_at(t(100_000)), Rrc3gState::Idle);
    }

    #[test]
    fn small_and_large_data_from_idle_take_the_full_dch_promotion() {
        // The measured network promotes IDLE → DCH for any PS traffic.
        for bytes in [64, 1380] {
            let mut m = machine();
            let gate = m.gate(SimTime::ZERO, bytes);
            assert_eq!(gate, t(2_000), "IDLE→DCH promotion is 2 s ({bytes} B)");
            assert_eq!(m.promotions()[0].kind, PromotionKind::IdleToDch);
            assert_eq!(m.state_at(t(1_000)), Rrc3gState::Promoting);
            m.note_activity(gate, bytes);
            assert_eq!(m.state_at(gate), Rrc3gState::Dch);
        }
    }

    #[test]
    fn dch_passes_data_immediately() {
        let mut m = machine();
        let gate = m.gate(SimTime::ZERO, 1380);
        m.note_activity(gate, 1380);
        assert_eq!(m.gate(t(2_100), 1380), t(2_100));
    }

    #[test]
    fn demotion_schedule_follows_timers() {
        let mut m = machine();
        let gate = m.gate(SimTime::ZERO, 1380);
        m.note_activity(gate, 1380); // active at 2 s
        assert_eq!(m.state_at(t(6_900)), Rrc3gState::Dch, "within 5 s hold");
        assert_eq!(m.state_at(t(7_100)), Rrc3gState::Fach, "DCH→FACH at +5 s");
        assert_eq!(m.state_at(t(18_900)), Rrc3gState::Fach, "FACH holds 12 s");
        assert_eq!(
            m.state_at(t(19_100)),
            Rrc3gState::Idle,
            "FACH→IDLE at +17 s"
        );
    }

    #[test]
    fn large_data_in_fach_promotes() {
        let mut m = machine();
        let g1 = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g1, 1380); // DCH until 7 s
        let g2 = m.gate(t(8_000), 1380); // in FACH now
        assert_eq!(g2, t(9_500), "FACH→DCH promotion is 1.5 s");
        m.note_activity(g2, 1380);
        assert_eq!(m.state_at(g2), Rrc3gState::Dch);
    }

    #[test]
    fn small_data_in_fach_stays_in_fach() {
        let mut m = machine();
        let g1 = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g1, 1380);
        let g2 = m.gate(t(8_000), 64);
        assert_eq!(g2, t(8_100), "FACH latency only");
        m.note_activity(g2, 64);
        assert_eq!(m.state_at(t(8_200)), Rrc3gState::Fach);
        // FACH hold refreshed: idle would have been at 19 s, now 20.1 s.
        assert_eq!(m.state_at(t(19_500)), Rrc3gState::Fach);
        assert_eq!(m.state_at(t(20_200)), Rrc3gState::Idle);
    }

    #[test]
    fn periodic_pings_keep_dch_alive() {
        // The Fig. 14 experiment: pings every few seconds prevent demotion
        // when they are large enough to count as DCH activity.
        let mut m = machine();
        let g = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g, 1380);
        let mut now = g;
        for _ in 0..20 {
            now += SimDuration::from_secs(3);
            assert_eq!(m.state_at(now), Rrc3gState::Dch, "still DCH at {now}");
            let gate = m.gate(now, 1380);
            assert_eq!(gate, now, "no promotion needed");
            m.note_activity(gate, 1380);
        }
    }

    #[test]
    fn concurrent_arrivals_share_one_promotion() {
        let mut m = machine();
        let g1 = m.gate(SimTime::ZERO, 1380);
        let g2 = m.gate(t(500), 1380);
        assert_eq!(g1, g2, "second packet joins the in-progress promotion");
        // A small packet leaves when the promotion lands, with no FACH
        // latency on top.
        assert_eq!(m.gate(t(700), 64), g1);
        assert_eq!(m.promotions().len(), 1);
    }

    #[test]
    fn promotion_events_are_recorded() {
        let mut m = machine();
        let g = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g, 1380);
        // Wait for full demotion to IDLE, then trigger again.
        let later = g + SimDuration::from_secs(30);
        let g2 = m.gate(later, 1380);
        m.note_activity(g2, 1380);
        let promos = m.promotions();
        assert_eq!(promos.len(), 2);
        assert_eq!(promos[0].kind, PromotionKind::IdleToDch);
        assert_eq!(promos[1].kind, PromotionKind::IdleToDch);
        assert_eq!(promos[1].start, later);
    }

    #[test]
    fn energy_reflects_state_occupancy() {
        let mut m = machine();
        let g = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g, 1380);
        // 2 s promotion @800 mW + 5 s DCH @800 mW + 12 s FACH @460 mW, then idle.
        let e = m.energy_mj(t(19_000 + 10_000));
        let expected = 0.8 * 2_000.0 + 0.8 * 5_000.0 + 0.46 * 12_000.0;
        assert!(
            (e - expected).abs() < expected * 0.02,
            "energy {e} vs expected {expected}"
        );
    }

    #[test]
    fn energy_is_monotonic() {
        let mut m = machine();
        let g = m.gate(SimTime::ZERO, 1380);
        m.note_activity(g, 1380);
        let mut prev = 0.0;
        for s in 1..30 {
            let e = m.energy_mj(SimTime::from_secs(s));
            assert!(e >= prev);
            prev = e;
        }
    }
}
