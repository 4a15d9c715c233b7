//! The cellular access path: RRC-gated duplex links.
//!
//! A [`CellularPath`] combines an uplink and downlink [`Link`] (the
//! active-state radio bearer) with a single shared [`Radio`] state machine.
//! Every packet in either direction consults the radio: if the device is
//! idle/dozing, the packet — and everything behind it — waits out the
//! promotion. This is the mechanism that stalls ACK clocks for seconds and
//! induces the paper's spurious TCP timeouts.

use crate::rrc3g::{PromotionEvent, Rrc3g, Rrc3gConfig};
use crate::rrclte::{RrcLte, RrcLteConfig};
use spdyier_net::{Direction, Link, LinkConfig, LinkVerdict};
use spdyier_sim::{DetRng, SimDuration, SimTime};

/// The radio technology (or its absence) gating a path.
#[derive(Debug)]
pub enum Radio {
    /// 3G UMTS with the IDLE/FACH/DCH machine.
    ThreeG(Rrc3g),
    /// LTE with the RRC_IDLE/RRC_CONNECTED(+DRX) machine.
    Lte(RrcLte),
    /// No RRC gating at all — wired or WiFi behaviour.
    AlwaysOn,
}

impl Radio {
    /// Earliest instant a `bytes`-sized transfer offered at `now` can move.
    pub fn gate(&mut self, now: SimTime, bytes: u64) -> SimTime {
        match self {
            Radio::ThreeG(m) => m.gate(now, bytes),
            Radio::Lte(m) => m.gate(now, bytes),
            Radio::AlwaysOn => now,
        }
    }

    /// Note radio activity finishing at `t`.
    pub fn note_activity(&mut self, t: SimTime, bytes: u64) {
        match self {
            Radio::ThreeG(m) => m.note_activity(t, bytes),
            Radio::Lte(m) => m.note_activity(t, bytes),
            Radio::AlwaysOn => {}
        }
    }

    /// Human-readable state label at `t` (for traces).
    pub fn state_label(&self, t: SimTime) -> &'static str {
        match self {
            Radio::ThreeG(m) => match m.state_at(t) {
                crate::rrc3g::Rrc3gState::Idle => "IDLE",
                crate::rrc3g::Rrc3gState::Fach => "CELL_FACH",
                crate::rrc3g::Rrc3gState::Dch => "CELL_DCH",
                crate::rrc3g::Rrc3gState::Promoting => "PROMOTING",
            },
            Radio::Lte(m) => match m.state_at(t) {
                crate::rrclte::RrcLteState::Idle => "RRC_IDLE",
                crate::rrclte::RrcLteState::ContinuousRx => "CRX",
                crate::rrclte::RrcLteState::ShortDrx => "SHORT_DRX",
                crate::rrclte::RrcLteState::LongDrx => "LONG_DRX",
                crate::rrclte::RrcLteState::Promoting => "PROMOTING",
            },
            Radio::AlwaysOn => "ALWAYS_ON",
        }
    }

    /// Promotions taken so far (empty for [`Radio::AlwaysOn`]).
    pub fn promotions(&self) -> &[PromotionEvent] {
        match self {
            Radio::ThreeG(m) => m.promotions(),
            Radio::Lte(m) => m.promotions(),
            Radio::AlwaysOn => &[],
        }
    }

    /// Total radio energy consumed, mJ.
    pub fn energy_mj(&mut self, now: SimTime) -> f64 {
        match self {
            Radio::ThreeG(m) => m.energy_mj(now),
            Radio::Lte(m) => m.energy_mj(now),
            Radio::AlwaysOn => 0.0,
        }
    }

    /// Override the idle→active promotion delay (sensitivity sweeps). On
    /// 3G the FACH→DCH promotion scales to 3/4 of the new value.
    pub fn set_promotion(&mut self, promotion: SimDuration) {
        match self {
            Radio::ThreeG(m) => {
                let cfg = m.config_mut();
                cfg.promo_idle_dch = promotion;
                cfg.promo_fach_dch = promotion.saturating_mul(3).div(4);
            }
            Radio::Lte(m) => {
                m.config_mut().promotion = promotion;
            }
            Radio::AlwaysOn => {}
        }
    }
}

/// A duplex cellular access path with one shared radio.
#[derive(Debug)]
pub struct CellularPath {
    down: Link,
    up: Link,
    radio: Radio,
}

impl CellularPath {
    /// Assemble from bearer link configs and a radio machine.
    pub fn new(down: LinkConfig, up: LinkConfig, radio: Radio) -> CellularPath {
        CellularPath {
            down: Link::new(down),
            up: Link::new(up),
            radio,
        }
    }

    /// Offer a packet; it is gated by the RRC machine, then queued on the
    /// direction's bearer link.
    pub fn send(
        &mut self,
        dir: Direction,
        now: SimTime,
        bytes: u64,
        rng: &mut DetRng,
    ) -> LinkVerdict {
        let gate = self.radio.gate(now, bytes);
        let link = match dir {
            Direction::Down => &mut self.down,
            Direction::Up => &mut self.up,
        };
        match link.send(gate.max(now), bytes, rng) {
            LinkVerdict::Deliver(at) => {
                self.radio.note_activity(at, bytes);
                LinkVerdict::Deliver(at)
            }
            LinkVerdict::Drop => LinkVerdict::Drop,
        }
    }

    /// Access the shared radio machine.
    pub fn radio(&self) -> &Radio {
        &self.radio
    }

    /// Mutable access to the shared radio machine.
    pub fn radio_mut(&mut self) -> &mut Radio {
        &mut self.radio
    }

    /// One direction's bearer link.
    pub fn link(&self, dir: Direction) -> &Link {
        match dir {
            Direction::Down => &self.down,
            Direction::Up => &self.up,
        }
    }

    /// Mutable access to one direction's bearer link (fault injection).
    pub fn link_mut(&mut self, dir: Direction) -> &mut Link {
        match dir {
            Direction::Down => &mut self.down,
            Direction::Up => &mut self.up,
        }
    }

    /// Base (unjittered, unqueued, promoted) round-trip time.
    pub fn base_rtt(&self) -> SimDuration {
        self.down.config().propagation + self.up.config().propagation
    }
}

/// Calibrated presets for the paper's three access networks.
pub mod presets {
    use super::*;
    use spdyier_net::JitterModel;

    /// The production 3G (UMTS/HSPA) network of the study. Bearer rates and
    /// latencies are calibrated so that active-state RTT ≈ 150–200 ms and
    /// peak goodput ≈ 0.4 MB/s (Fig. 9), with a deep NodeB buffer.
    pub fn umts_3g() -> CellularPath {
        // Deep per-user NodeB buffers (the 2013-era cellular bufferbloat):
        // bursts queue — inflating RTT — rather than drop.
        let down = LinkConfig::from_mbps(6.0, 75)
            .with_queue_limit(768 * 1024)
            .with_jitter(JitterModel::LogNormal {
                mean_ms: 20.0,
                sigma: 0.6,
            });
        let up = LinkConfig::from_mbps(1.5, 75)
            .with_queue_limit(256 * 1024)
            .with_jitter(JitterModel::LogNormal {
                mean_ms: 15.0,
                sigma: 0.6,
            });
        CellularPath::new(down, up, Radio::ThreeG(Rrc3g::new(Rrc3gConfig::default())))
    }

    /// The LTE network of §5.6.2: higher rate, ~50 ms active RTT, 400 ms
    /// promotion.
    pub fn lte() -> CellularPath {
        // LTE scheduling + DRX cycling adds heavy-tailed delay variance;
        // the resulting RTTVAR keeps the RTO near or above the ~400 ms
        // promotion, which is why LTE sees far fewer spurious timeouts
        // than 3G despite tighter base RTTs (§5.6.2).
        let down = LinkConfig::from_mbps(20.0, 25)
            .with_queue_limit(1536 * 1024)
            .with_jitter(JitterModel::LogNormal {
                mean_ms: 15.0,
                sigma: 0.7,
            });
        let up = LinkConfig::from_mbps(8.0, 25)
            .with_queue_limit(512 * 1024)
            .with_jitter(JitterModel::LogNormal {
                mean_ms: 12.0,
                sigma: 0.7,
            });
        CellularPath::new(down, up, Radio::Lte(RrcLte::new(RrcLteConfig::default())))
    }

    /// The 3G path with the radio pinned active (the Fig. 14 "ping"
    /// experiment's ideal): same bearer, no RRC gating.
    pub fn umts_3g_pinned() -> CellularPath {
        CellularPath {
            radio: Radio::AlwaysOn,
            ..umts_3g()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_packet_pays_promotion() {
        let mut p = presets::umts_3g();
        let mut rng = DetRng::new(1);
        match p.send(Direction::Up, SimTime::ZERO, 1380, &mut rng) {
            LinkVerdict::Deliver(at) => {
                assert!(
                    at >= SimTime::from_millis(2_075),
                    "promotion (2 s) + propagation (75 ms), got {at}"
                );
            }
            LinkVerdict::Drop => panic!("drop"),
        }
    }

    #[test]
    fn active_device_has_low_latency() {
        let mut p = presets::umts_3g();
        let mut rng = DetRng::new(1);
        let first = match p.send(Direction::Up, SimTime::ZERO, 1380, &mut rng) {
            LinkVerdict::Deliver(at) => at,
            _ => panic!(),
        };
        // Shortly after, the device is in DCH: only link delays apply.
        let t2 = first + SimDuration::from_millis(100);
        match p.send(Direction::Up, t2, 1380, &mut rng) {
            LinkVerdict::Deliver(at) => {
                let oneway = at.saturating_since(t2);
                assert!(
                    oneway < SimDuration::from_millis(400),
                    "no promotion expected, one-way {oneway}"
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn directions_share_the_radio() {
        let mut p = presets::umts_3g();
        let mut rng = DetRng::new(1);
        // Uplink promotes the radio...
        let up_at = match p.send(Direction::Up, SimTime::ZERO, 1380, &mut rng) {
            LinkVerdict::Deliver(at) => at,
            _ => panic!(),
        };
        // ...so an immediately following downlink packet needs no promotion.
        let down_at = match p.send(Direction::Down, up_at, 1380, &mut rng) {
            LinkVerdict::Deliver(at) => at,
            _ => panic!(),
        };
        assert!(down_at.saturating_since(up_at) < SimDuration::from_millis(400));
        assert_eq!(p.radio().promotions().len(), 1);
    }

    #[test]
    fn lte_promotion_is_shorter() {
        let mut p = presets::lte();
        let mut rng = DetRng::new(1);
        match p.send(Direction::Up, SimTime::ZERO, 1380, &mut rng) {
            LinkVerdict::Deliver(at) => {
                assert!(at >= SimTime::from_millis(425));
                assert!(
                    at < SimTime::from_millis(700),
                    "far below 3G's 2 s, got {at}"
                );
            }
            _ => panic!(),
        }
    }

    #[test]
    fn pinned_path_never_promotes() {
        let mut p = presets::umts_3g_pinned();
        let mut rng = DetRng::new(1);
        match p.send(Direction::Down, SimTime::from_secs(100), 1380, &mut rng) {
            LinkVerdict::Deliver(at) => {
                assert!(at < SimTime::from_secs(100) + SimDuration::from_millis(400));
            }
            _ => panic!(),
        }
        assert!(p.radio().promotions().is_empty());
    }

    #[test]
    fn state_labels_trace_the_lifecycle() {
        let mut p = presets::umts_3g();
        let mut rng = DetRng::new(1);
        assert_eq!(p.radio().state_label(SimTime::ZERO), "IDLE");
        p.send(Direction::Up, SimTime::ZERO, 1380, &mut rng);
        assert_eq!(
            p.radio().state_label(SimTime::from_millis(500)),
            "PROMOTING"
        );
    }
}
