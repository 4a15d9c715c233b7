//! The paper's root cause, isolated: watch a single TCP connection's RTO
//! collide with the 3G RRC promotion delay — then apply the paper's
//! §6.2.1 fix (reset the RTT estimate after idle) and watch it vanish.
//!
//! This example drives the sans-IO TCP and RRC machines directly (no
//! browser, no proxy), so every event is visible.
//!
//! ```text
//! cargo run --release --example rrc_vs_tcp
//! ```

use spdyier::cellular::{Rrc3g, Rrc3gConfig};
use spdyier::net::{Link, LinkConfig, LinkVerdict};
use spdyier::payload::Payload;
use spdyier::sim::{DetRng, SimDuration, SimTime};
use spdyier::tcp::{Segment, TcpConfig, TcpConnection};

/// What one episode shows about its post-idle phase.
struct PostIdle {
    retransmissions: u64,
    timeouts: u64,
    /// The RTO in force once the first post-idle segment has left.
    rto: SimDuration,
}

/// Drive sender→receiver over an RRC-gated link until quiescent, and
/// report the *post-idle* phase only.
fn episode(reset_rtt_after_idle: bool) -> PostIdle {
    let cfg = TcpConfig {
        reset_rtt_after_idle,
        ..TcpConfig::default()
    };
    let mut sender = TcpConnection::client(cfg);
    let mut receiver = TcpConnection::server(TcpConfig::default());
    let mut radio = Rrc3g::new(Rrc3gConfig::default());
    let mut link = Link::new(LinkConfig::from_mbps(6.0, 75));
    let mut rng = DetRng::new(1);

    let mut now = SimTime::ZERO;
    let mut wire: Vec<(SimTime, bool, Segment)> = Vec::new();
    sender.connect(now);
    // Phase 1: transfer 200 KB to converge the RTT estimate (radio active).
    sender.write(Payload::synthetic(200_000));
    // Phase 2 trigger: after 30 s idle (radio demoted to IDLE), send again.
    let mut phase2_sent = false;
    let mut phase1_stats = (0u64, 0u64);
    let mut post_idle_rto = None;

    for _ in 0..1_000_000 {
        while let Some(seg) = sender.poll_transmit(now) {
            let gate = radio.gate(now, seg.wire_size());
            match link.send(gate.max(now), seg.wire_size(), &mut rng) {
                LinkVerdict::Deliver(at) => {
                    radio.note_activity(at, seg.wire_size());
                    wire.push((at, false, seg));
                }
                LinkVerdict::Drop => {}
            }
        }
        if phase2_sent && post_idle_rto.is_none() {
            post_idle_rto = Some(sender.rto());
        }
        while let Some(seg) = receiver.poll_transmit(now) {
            let gate = radio.gate(now, seg.wire_size());
            match link.send(gate.max(now), seg.wire_size(), &mut rng) {
                LinkVerdict::Deliver(at) => {
                    radio.note_activity(at, seg.wire_size());
                    wire.push((at, true, seg));
                }
                LinkVerdict::Drop => {}
            }
        }
        while receiver.read().is_some() {}
        let next_wire = wire.iter().map(|(t, _, _)| *t).min();
        let next_timer = [sender.next_timer(), receiver.next_timer()]
            .into_iter()
            .flatten()
            .min();
        let next = match (next_wire, next_timer) {
            (Some(w), Some(t)) => w.min(t),
            (Some(w), None) => w,
            (None, Some(t)) => t,
            (None, None) => {
                if phase2_sent {
                    break;
                }
                // Idle 30 s: the radio demotes DCH→FACH→IDLE.
                now += SimDuration::from_secs(30);
                println!(
                    "  [{:>6.1}s] idle over; radio is {}; sender RTO is {}",
                    now.as_secs_f64(),
                    radio_label(&radio, now),
                    sender.rto()
                );
                let s = sender.stats();
                phase1_stats = (s.retransmissions, s.timeouts);
                sender.write(Payload::synthetic(4 * 1380));
                phase2_sent = true;
                continue;
            }
        };
        now = next.max(now);
        let mut i = 0;
        while i < wire.len() {
            if wire[i].0 <= now {
                let (_, to_sender, seg) = wire.remove(i);
                if to_sender {
                    sender.on_segment(now, seg);
                } else {
                    receiver.on_segment(now, seg);
                }
            } else {
                i += 1;
            }
        }
        sender.on_timer(now);
        receiver.on_timer(now);
    }
    let s = sender.stats();
    PostIdle {
        retransmissions: s.retransmissions - phase1_stats.0,
        timeouts: s.timeouts - phase1_stats.1,
        rto: post_idle_rto.expect("the post-idle phase ran"),
    }
}

fn radio_label(radio: &Rrc3g, t: SimTime) -> &'static str {
    match radio.state_at(t) {
        spdyier::cellular::Rrc3gState::Idle => "IDLE",
        spdyier::cellular::Rrc3gState::Fach => "CELL_FACH",
        spdyier::cellular::Rrc3gState::Dch => "CELL_DCH",
        spdyier::cellular::Rrc3gState::Promoting => "PROMOTING",
    }
}

fn report(p: PostIdle) -> PostIdle {
    println!("  first post-idle segment sent; sender RTO is {}", p.rto);
    println!(
        "  post-idle result: {} retransmissions, {} RTO firings\n",
        p.retransmissions, p.timeouts
    );
    p
}

fn main() {
    println!("One TCP connection, one 3G radio. Transfer, go idle 30 s, transfer again.\n");
    println!("-- stock Linux behaviour (RTT estimate survives the idle period) --");
    let stock = report(episode(false));
    println!("-- paper §6.2.1 fix (reset the RTT estimate after idle) --");
    let fix = report(episode(true));
    assert!(
        fix.retransmissions < stock.retransmissions,
        "the fix must remove spurious retransmissions"
    );
    println!(
        "The 2 s promotion exceeds the converged RTO ({}) → spurious timeouts.\n\
         Resetting the estimate holds the first post-idle RTO at {} until a fresh\n\
         sample arrives, so the radio wakes before the timer fires.",
        stock.rto, fix.rto
    );
}
