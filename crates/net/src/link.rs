//! The unidirectional link model.
//!
//! A [`Link`] is a fluid-approximation transmission line: packets serialise
//! one after another at the line rate (tracked by `busy_until`), then
//! propagate with a fixed one-way delay plus per-packet jitter. A drop-tail
//! queue bounds how much backlog may sit in front of the serialiser — the
//! buffer at a 3G NodeB or a broadband modem.

use crate::jitter::JitterModel;
use crate::loss::{LossModel, LossState};
use serde::Serialize;
use spdyier_sim::{DetRng, SimDuration, SimTime};

/// Configuration of one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinkConfig {
    /// Line rate in bytes per second.
    pub rate_bytes_per_sec: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Maximum backlog (bytes queued ahead of the serialiser) before
    /// drop-tail kicks in.
    pub queue_limit_bytes: u64,
    /// Random loss model applied after queueing.
    pub loss: LossModel,
    /// Per-packet delay variation added to the propagation delay.
    pub jitter: JitterModel,
}

impl LinkConfig {
    /// A link from a rate in megabits/s and a delay in milliseconds, with a
    /// bandwidth-delay-product-proportional queue (min 64 KiB).
    pub fn from_mbps(mbps: f64, one_way_ms: u64) -> LinkConfig {
        let rate = (mbps * 1e6 / 8.0) as u64;
        let bdp = (rate as f64 * (2.0 * one_way_ms as f64 / 1e3)) as u64;
        LinkConfig {
            rate_bytes_per_sec: rate.max(1),
            propagation: SimDuration::from_millis(one_way_ms),
            queue_limit_bytes: bdp.max(64 * 1024),
            loss: LossModel::None,
            jitter: JitterModel::None,
        }
    }

    /// Override the loss model (builder style).
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Override the jitter model (builder style).
    pub fn with_jitter(mut self, jitter: JitterModel) -> Self {
        self.jitter = jitter;
        self
    }

    /// Override the queue limit (builder style).
    pub fn with_queue_limit(mut self, bytes: u64) -> Self {
        self.queue_limit_bytes = bytes;
        self
    }
}

/// Counters a link accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LinkStats {
    /// Packets accepted and delivered.
    pub delivered_packets: u64,
    /// Bytes accepted and delivered.
    pub delivered_bytes: u64,
    /// Packets dropped by the drop-tail queue.
    pub queue_drops: u64,
    /// Packets dropped by the random loss model.
    pub loss_drops: u64,
}

/// The verdict for one packet offered to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkVerdict {
    /// The packet will arrive at the far end at this instant.
    Deliver(SimTime),
    /// The packet was dropped (queue overflow or random loss).
    Drop,
}

/// One direction of a point-to-point link.
#[derive(Debug)]
pub struct Link {
    config: LinkConfig,
    busy_until: SimTime,
    loss_state: LossState,
    stats: LinkStats,
    /// Arrival time of the most recently accepted packet. A link is one
    /// serialised bearer: delivery is FIFO even under per-packet jitter
    /// (3G/LTE RLC delivers TCP in order; reordering would fabricate
    /// duplicate-ACK storms the real network never produces).
    last_arrival: SimTime,
}

impl Link {
    /// Create a link in the idle state.
    pub fn new(config: LinkConfig) -> Link {
        Link {
            config,
            busy_until: SimTime::ZERO,
            loss_state: LossState::default(),
            stats: LinkStats::default(),
            last_arrival: SimTime::ZERO,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Replace the configuration (rate changes apply to packets offered
    /// from now on; in-flight packets keep their computed arrival times).
    pub fn set_config(&mut self, config: LinkConfig) {
        self.config = config;
    }

    /// Lifetime counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Time the serialiser frees up; before this instant new packets queue.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Bytes of backlog at `now` (0 when the serialiser is idle).
    pub fn backlog_bytes(&self, now: SimTime) -> u64 {
        let backlog_time = self.busy_until.saturating_since(now);
        (backlog_time.as_secs_f64() * self.config.rate_bytes_per_sec as f64) as u64
    }

    /// Time to serialise `bytes` at the line rate.
    pub fn serialization_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.config.rate_bytes_per_sec as f64)
    }

    /// Offer a packet of `bytes` to the link at `now`.
    ///
    /// Computes drop-tail admission against the current backlog, then the
    /// serialisation finish time, then adds propagation and jitter.
    pub fn send(&mut self, now: SimTime, bytes: u64, rng: &mut DetRng) -> LinkVerdict {
        if self.backlog_bytes(now) + bytes > self.config.queue_limit_bytes {
            self.stats.queue_drops += 1;
            return LinkVerdict::Drop;
        }
        if self.config.loss.drops(&mut self.loss_state, rng) {
            self.stats.loss_drops += 1;
            return LinkVerdict::Drop;
        }
        let start = self.busy_until.max(now);
        let finish = start + self.serialization_time(bytes);
        self.busy_until = finish;
        let arrival = finish + self.config.propagation + self.config.jitter.sample(rng);
        // FIFO: jitter delays but never reorders within the bearer.
        let arrival = arrival.max(self.last_arrival);
        self.last_arrival = arrival;
        self.stats.delivered_packets += 1;
        self.stats.delivered_bytes += bytes;
        LinkVerdict::Deliver(arrival)
    }

    /// Reset transient state (serialiser and loss state), keeping counters.
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.loss_state = LossState::default();
        self.last_arrival = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(mbps: f64, delay_ms: u64) -> (Link, DetRng) {
        (
            Link::new(LinkConfig::from_mbps(mbps, delay_ms)),
            DetRng::new(7),
        )
    }

    #[test]
    fn single_packet_latency_is_serialization_plus_propagation() {
        // 8 Mbps = 1e6 bytes/s; a 1000-byte packet serialises in 1 ms.
        let (mut link, mut rng) = mk(8.0, 50);
        match link.send(SimTime::ZERO, 1000, &mut rng) {
            LinkVerdict::Deliver(at) => {
                assert_eq!(at, SimTime::from_millis(51));
            }
            LinkVerdict::Drop => panic!("unexpected drop"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let (mut link, mut rng) = mk(8.0, 0);
        let a = link.send(SimTime::ZERO, 1000, &mut rng);
        let b = link.send(SimTime::ZERO, 1000, &mut rng);
        assert_eq!(a, LinkVerdict::Deliver(SimTime::from_millis(1)));
        assert_eq!(b, LinkVerdict::Deliver(SimTime::from_millis(2)));
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let (mut link, mut rng) = mk(8.0, 0);
        link.send(SimTime::ZERO, 1000, &mut rng);
        // Send the next packet long after the first drained.
        let b = link.send(SimTime::from_secs(1), 1000, &mut rng);
        assert_eq!(b, LinkVerdict::Deliver(SimTime::from_micros(1_001_000)));
    }

    #[test]
    fn drop_tail_when_backlog_exceeds_limit() {
        let cfg = LinkConfig::from_mbps(8.0, 0).with_queue_limit(2500);
        let mut link = Link::new(cfg);
        let mut rng = DetRng::new(1);
        assert!(matches!(
            link.send(SimTime::ZERO, 1000, &mut rng),
            LinkVerdict::Deliver(_)
        ));
        assert!(matches!(
            link.send(SimTime::ZERO, 1000, &mut rng),
            LinkVerdict::Deliver(_)
        ));
        // Third packet would make the backlog 3000 > 2500.
        assert_eq!(link.send(SimTime::ZERO, 1000, &mut rng), LinkVerdict::Drop);
        assert_eq!(link.stats().queue_drops, 1);
        assert_eq!(link.stats().delivered_packets, 2);
    }

    #[test]
    fn backlog_drains_over_time() {
        let (mut link, mut rng) = mk(8.0, 0);
        link.send(SimTime::ZERO, 10_000, &mut rng); // 10 ms of backlog
        assert!(link.backlog_bytes(SimTime::ZERO) >= 9_999);
        assert_eq!(link.backlog_bytes(SimTime::from_millis(5)), 5_000);
        assert_eq!(link.backlog_bytes(SimTime::from_millis(10)), 0);
    }

    #[test]
    fn loss_model_drops_are_counted() {
        let cfg = LinkConfig::from_mbps(8.0, 0).with_loss(LossModel::Bernoulli { p: 1.0 });
        let mut link = Link::new(cfg);
        let mut rng = DetRng::new(1);
        assert_eq!(link.send(SimTime::ZERO, 100, &mut rng), LinkVerdict::Drop);
        assert_eq!(link.stats().loss_drops, 1);
        assert_eq!(link.stats().delivered_bytes, 0);
    }

    #[test]
    fn reset_clears_serializer() {
        let (mut link, mut rng) = mk(8.0, 0);
        link.send(SimTime::ZERO, 50_000, &mut rng);
        assert!(link.busy_until() > SimTime::ZERO);
        link.reset();
        assert_eq!(link.busy_until(), SimTime::ZERO);
        assert_eq!(link.stats().delivered_packets, 1, "counters survive reset");
    }

    #[test]
    fn from_mbps_sane() {
        let cfg = LinkConfig::from_mbps(15.0, 20);
        assert_eq!(cfg.rate_bytes_per_sec, 1_875_000);
        assert_eq!(cfg.propagation, SimDuration::from_millis(20));
        assert!(cfg.queue_limit_bytes >= 64 * 1024);
    }
}
