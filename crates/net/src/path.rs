//! Duplex paths and the network presets used by the study.

use crate::jitter::JitterModel;
use crate::link::{Link, LinkConfig, LinkVerdict};
use serde::Serialize;
use spdyier_sim::{DetRng, SimDuration, SimTime};

/// Direction of travel on a duplex path, named from the client's viewpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Direction {
    /// Towards the client (downlink).
    Down,
    /// Away from the client (uplink).
    Up,
}

/// A duplex path: an independent [`Link`] per direction.
#[derive(Debug)]
pub struct DuplexPath {
    down: Link,
    up: Link,
}

impl DuplexPath {
    /// Build from per-direction configurations.
    pub fn new(down: LinkConfig, up: LinkConfig) -> DuplexPath {
        DuplexPath {
            down: Link::new(down),
            up: Link::new(up),
        }
    }

    /// Symmetric path.
    pub fn symmetric(cfg: LinkConfig) -> DuplexPath {
        DuplexPath::new(cfg, cfg)
    }

    /// Offer a packet in the given direction.
    pub fn send(
        &mut self,
        dir: Direction,
        now: SimTime,
        bytes: u64,
        rng: &mut DetRng,
    ) -> LinkVerdict {
        self.link_mut(dir).send(now, bytes, rng)
    }

    /// Access one direction's link.
    pub fn link(&self, dir: Direction) -> &Link {
        match dir {
            Direction::Down => &self.down,
            Direction::Up => &self.up,
        }
    }

    /// Mutable access to one direction's link.
    pub fn link_mut(&mut self, dir: Direction) -> &mut Link {
        match dir {
            Direction::Down => &mut self.down,
            Direction::Up => &mut self.up,
        }
    }

    /// Base (no-queue, no-jitter) round-trip time of the path.
    pub fn base_rtt(&self) -> SimDuration {
        self.down.config().propagation + self.up.config().propagation
    }
}

/// Network presets matching the environments in the paper.
pub mod presets {
    use super::*;

    /// The residential 802.11g/broadband path from the paper's §4.0.1:
    /// 15 Mbps down / 2 Mbps up with a ~20 ms one-way delay to the proxy
    /// and mild jitter.
    pub fn broadband_wifi() -> DuplexPath {
        // Home-router buffering: ~512 KiB downstream (the era's modest
        // bufferbloat), enough that parallel slow starts queue rather
        // than drop en masse.
        DuplexPath::new(
            LinkConfig::from_mbps(15.0, 20)
                .with_queue_limit(512 * 1024)
                .with_jitter(JitterModel::LogNormal {
                    mean_ms: 2.0,
                    sigma: 0.4,
                }),
            LinkConfig::from_mbps(2.0, 20)
                .with_queue_limit(128 * 1024)
                .with_jitter(JitterModel::LogNormal {
                    mean_ms: 2.0,
                    sigma: 0.4,
                }),
        )
    }

    /// The proxy↔origin path inside/near the cloud datacenter. §5.3 measures
    /// first-byte times of ~14 ms average, so the wire itself is fast and
    /// the latency lives in the origin model.
    pub fn cloud_wired(one_way_ms: u64) -> DuplexPath {
        DuplexPath::symmetric(
            LinkConfig::from_mbps(1000.0, one_way_ms).with_queue_limit(16 * 1024 * 1024),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_are_independent() {
        let mut p = DuplexPath::new(
            LinkConfig::from_mbps(8.0, 10),
            LinkConfig::from_mbps(1.0, 10),
        );
        let mut rng = DetRng::new(1);
        // Saturate the downlink; uplink serialiser must stay idle.
        p.send(Direction::Down, SimTime::ZERO, 50_000, &mut rng);
        assert!(p.link(Direction::Down).busy_until() > SimTime::ZERO);
        assert_eq!(p.link(Direction::Up).busy_until(), SimTime::ZERO);
    }

    #[test]
    fn base_rtt_sums_propagation() {
        let p = DuplexPath::symmetric(LinkConfig::from_mbps(10.0, 25));
        assert_eq!(p.base_rtt(), SimDuration::from_millis(50));
    }

    #[test]
    fn wifi_preset_is_asymmetric() {
        let p = presets::broadband_wifi();
        assert!(
            p.link(Direction::Down).config().rate_bytes_per_sec
                > p.link(Direction::Up).config().rate_bytes_per_sec
        );
        assert_eq!(p.base_rtt(), SimDuration::from_millis(40));
    }
}
