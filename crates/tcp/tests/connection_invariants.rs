//! Property test: two `TcpConnection`s talk over a wire that gives each
//! of the first segments a drawn one-way delay (1 ms – 30 s, so segments
//! reorder and RTT samples reach the RTO cap) and drops some of them,
//! then turns clean. After every `on_segment`, `on_timer` and
//! `poll_transmit`, each end's RTO lies in `[min_rto, MAX_RTO]` and its
//! cwnd holds at least one MSS; what each end has read is always a
//! prefix of what its peer wrote, and both streams arrive whole once the
//! drops stop. The retransmission census matches the wire after every
//! call: a segment `poll_transmit` returns with `retransmit` set has
//! exactly one record, of its kind and at that instant; no other call
//! records a retransmission, an RTO is detected only by `on_timer` and a
//! fast retransmit only by `on_segment`, and no pure ACK is ever
//! retransmitted.

use proptest::prelude::*;
use spdyier_bytes::Payload;
use spdyier_sim::{SimDuration, SimTime};
use spdyier_tcp::config::MAX_RTO;
use spdyier_tcp::{CcAlgorithm, RtxTrigger, SegKind, Segment, TcpConfig, TcpConnection, TcpState};

/// One-way delay of every segment after the drawn fates run out.
const CLEAN_DELAY: SimDuration = SimDuration::from_millis(50);

/// Simulated time by which both streams must have arrived.
const DEADLINE: SimTime = SimTime::from_secs(6 * 3600);

/// One end of the conversation and the bytes that crossed it.
struct End {
    conn: TcpConnection,
    /// What this end writes, handed to `conn` once it has left LISTEN.
    wrote: Vec<u8>,
    written: bool,
    read: Vec<u8>,
}

impl End {
    fn new(conn: TcpConnection, bytes: u64, fill: u8) -> End {
        End {
            conn,
            wrote: (0..bytes).map(|i| (i % 251) as u8 ^ fill).collect(),
            written: false,
            read: Vec::new(),
        }
    }

    /// Write the whole stream as soon as the connection accepts writes.
    fn write_once(&mut self) {
        if !self.written && self.conn.state() != TcpState::Listen {
            self.conn.write(Payload::from(self.wrote.clone()));
            self.written = true;
        }
    }

    /// RTO and cwnd bounds, and the census against `sent`, the segment
    /// `step` put on the wire at `now`, if any.
    fn check(&mut self, cfg: &TcpConfig, step: &str, now: SimTime, sent: Option<&Segment>) {
        let rto = self.conn.rto();
        assert!(
            cfg.min_rto <= rto && rto <= MAX_RTO,
            "after {step}: RTO {rto} outside [{}, {MAX_RTO}]",
            cfg.min_rto,
        );
        let cwnd = self.conn.cwnd();
        assert!(cwnd >= cfg.mss, "after {step}: cwnd {cwnd} below one MSS");
        let detects = match step {
            "on_timer" => Some(RtxTrigger::Rto),
            "on_segment" => Some(RtxTrigger::FastRetransmit),
            _ => None,
        };
        let mut rtx = Vec::new();
        for r in self.conn.drain_census() {
            match r.sent {
                Some(bytes) => rtx.push((r.at, r.kind, bytes)),
                None => assert_eq!(Some(r.trigger), detects, "after {step}: {r:?}"),
            }
        }
        let want = sent.filter(|s| s.retransmit);
        let want: Vec<_> = want.map(|s| (now, kind(s), s.len())).into_iter().collect();
        assert_eq!(rtx, want, "after {step}: census against the wire");
    }

    /// Drain what the application can read; it must continue `peer`'s
    /// stream.
    fn read_from(&mut self, peer: &[u8]) {
        while let Some(chunk) = self.conn.read() {
            self.read.extend_from_slice(&chunk.to_vec());
        }
        assert!(
            peer.starts_with(&self.read),
            "read {} bytes that are not a prefix of the {} written",
            self.read.len(),
            peer.len()
        );
    }
}

/// What a retransmitted segment carries; a pure ACK is never one.
fn kind(seg: &Segment) -> SegKind {
    match (seg.flags.syn, seg.payload.is_empty(), seg.flags.fin) {
        (true, ..) => SegKind::Syn,
        (false, false, _) => SegKind::Data,
        (false, true, true) => SegKind::PureFin,
        (false, true, false) => panic!("pure ACK {} retransmitted", seg.seq),
    }
}

/// A segment in flight: when it lands, and whether it goes to the client.
type InFlight = (SimTime, bool, Segment);

/// Run the conversation. `fates` are `(delay_ms, lose)` for the first
/// segments put on the wire (either direction), in order; `lose == 3`
/// drops the segment, so shrinking heads toward delivery.
fn converse(fates: &[(u64, u8)], up: u64, down: u64, cfg: TcpConfig) {
    let mut client = End::new(TcpConnection::client(cfg), up, 0x00);
    let mut server = End::new(TcpConnection::server(cfg), down, 0x5a);
    let mut fates = fates.iter();
    let mut wire: Vec<InFlight> = Vec::new();
    let mut now = SimTime::ZERO;
    client.conn.connect(now);
    loop {
        for (end, to_client) in [(&mut client, false), (&mut server, true)] {
            end.write_once();
            loop {
                let seg = end.conn.poll_transmit(now);
                end.check(&cfg, "poll_transmit", now, seg.as_ref());
                let Some(seg) = seg else { break };
                match fates.next() {
                    Some(&(_, 3)) => {}
                    Some(&(delay_ms, _)) => {
                        wire.push((now + SimDuration::from_millis(delay_ms), to_client, seg))
                    }
                    None => wire.push((now + CLEAN_DELAY, to_client, seg)),
                }
            }
        }
        client.read_from(&server.wrote);
        server.read_from(&client.wrote);
        if client.read.len() == server.wrote.len() && server.read.len() == client.wrote.len() {
            return;
        }
        let next = wire
            .iter()
            .map(|&(at, _, _)| at)
            .chain(client.conn.next_timer())
            .chain(server.conn.next_timer())
            .min()
            .expect("an unfinished transfer has a segment or a timer pending");
        now = next.max(now);
        assert!(
            now <= DEADLINE,
            "streams incomplete at {now}: client read {}/{}, server read {}/{}",
            client.read.len(),
            down,
            server.read.len(),
            up
        );
        let (due, later): (Vec<InFlight>, Vec<InFlight>) =
            wire.into_iter().partition(|&(at, _, _)| at <= now);
        wire = later;
        for (_, to_client, seg) in due {
            let end = if to_client { &mut client } else { &mut server };
            end.conn.on_segment(now, seg);
            end.check(&cfg, "on_segment", now, None);
        }
        for end in [&mut client, &mut server] {
            end.conn.on_timer(now);
            end.check(&cfg, "on_timer", now, None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rto_stays_bounded_and_streams_arrive_whole(
        fates in prop::collection::vec((1u64..30_001, 0u8..4), 0..48),
        up in 1u64..60_000,
        down in 0u64..120_000,
        reno in any::<bool>(),
        rtt_reset in any::<bool>(),
    ) {
        let cfg = TcpConfig {
            cc: if reno { CcAlgorithm::Reno } else { CcAlgorithm::Cubic },
            reset_rtt_after_idle: rtt_reset,
            ..TcpConfig::default()
        };
        converse(&fates, up, down, cfg);
    }
}
