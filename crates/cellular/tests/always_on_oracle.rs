//! Property test for the WiFi access path: a [`CellularPath`] behind
//! [`Radio::AlwaysOn`] must behave exactly like a plain [`DuplexPath`]
//! over the same two links. Same seed, same sends (direction, size,
//! non-decreasing instants): the same verdict sequence — so the same RNG
//! draws — and the same per-direction link counters. The link configs
//! add loss and a shallow queue to the broadband preset so drops of both
//! kinds are common, not corner cases.

use proptest::prelude::*;
use spdyier_cellular::{CellularPath, Radio};
use spdyier_net::{presets, Direction, DuplexPath, LinkConfig, LossModel};
use spdyier_sim::{DetRng, SimDuration, SimTime};

fn links(loss: f64, queue_limit: u64) -> (LinkConfig, LinkConfig) {
    let wifi = presets::broadband_wifi();
    let link = |dir| {
        wifi.link(dir)
            .config()
            .with_loss(LossModel::Bernoulli { p: loss })
            .with_queue_limit(queue_limit)
    };
    (link(Direction::Down), link(Direction::Up))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn always_on_path_matches_duplex_path(
        seed in any::<u64>(),
        loss_pct in 0u64..20,
        queue_kib in 4u64..512,
        sends in prop::collection::vec((0u8..2, 1u64..20_000, 0u64..30_000), 1..300)
    ) {
        let (down, up) = links(loss_pct as f64 / 100.0, queue_kib * 1024);
        let mut cellular = CellularPath::new(down, up, Radio::AlwaysOn);
        let mut duplex = DuplexPath::new(down, up);
        let mut rng_cellular = DetRng::new(seed);
        let mut rng_duplex = DetRng::new(seed);
        let mut now = SimTime::ZERO;
        for (dir, bytes, gap_us) in sends {
            now += SimDuration::from_micros(gap_us);
            let dir = if dir == 0 { Direction::Down } else { Direction::Up };
            let a = cellular.send(dir, now, bytes, &mut rng_cellular);
            let b = duplex.send(dir, now, bytes, &mut rng_duplex);
            prop_assert_eq!(a, b);
        }
        for dir in [Direction::Down, Direction::Up] {
            prop_assert_eq!(cellular.link(dir).stats(), duplex.link(dir).stats());
        }
        prop_assert!(cellular.radio().promotions().is_empty());
        prop_assert_eq!(cellular.radio_mut().energy_mj(now), 0.0);
    }
}
