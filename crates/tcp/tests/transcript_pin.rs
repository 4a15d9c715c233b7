//! Pins what a client/server pair of `TcpConnection`s says and does,
//! driven directly (no testbed), as one FNV-1a digest.
//!
//! Thirty-two conversations are generated from fixed `DetRng` seeds. Each
//! one draws its congestion control (Reno or Cubic), both idle flags
//! (`slow_start_after_idle`, `reset_rtt_after_idle`), whether the server
//! has a 4 KiB receive buffer whose reader lags (zero windows and persist
//! probes), whether the client starts from cached metrics, and how the
//! connection closes: not at all, from either side, or from both at once.
//! The conversation runs in three phases: a first exchange, an idle gap
//! longer than either end's RTO, a second exchange, then the close. Every
//! phase gives its first segments drawn one-way delays of 1 ms – 30 s
//! and drops some of them.
//!
//! The driver also makes call orders the testbed never makes: it delivers
//! every segment that is due before it polls either end, and it often
//! wakes late, so that `on_timer` runs with more than one deadline passed.
//!
//! The digest folds every emitted segment (time, side, `seq`, `ack`,
//! flags, `wnd`, length, `retransmit`, `dsack`) and, after every call into
//! either end, its `state`, `cwnd`, `ssthresh`, `rto`, `bytes_in_flight`,
//! `next_timer` and `stats()`. A change to the connection's behaviour on
//! any of these paths moves it; a refactor must not.

use spdyier_bytes::Payload;
use spdyier_sim::{DetRng, SimDuration, SimTime};
use spdyier_tcp::{CachedMetrics, CcAlgorithm, Segment, TcpConfig, TcpConnection, TcpState};

/// The pinned digest of all thirty-two conversations.
const TRANSCRIPT_DIGEST: u64 = 0xc34c_d480_85f5_d7ff;

/// One-way delay of every segment after a phase's drawn fates run out.
const CLEAN_DELAY: SimDuration = SimDuration::from_millis(50);

/// Loop iterations one phase may take before the test gives up.
const MAX_STEPS: usize = 1_000_000;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold(hash: &mut u64, v: u64) {
    fnv1a(hash, &v.to_le_bytes());
}

/// One end of the conversation and the bytes that crossed it.
struct End {
    conn: TcpConnection,
    /// Bytes to hand to `conn` once it has left LISTEN.
    pending: Option<Vec<u8>>,
    wrote: Vec<u8>,
    read: Vec<u8>,
    /// The application reads only on some loop iterations.
    lags: bool,
    closed: bool,
}

impl End {
    fn new(conn: TcpConnection, lags: bool) -> End {
        End {
            conn,
            pending: None,
            wrote: Vec::new(),
            read: Vec::new(),
            lags,
            closed: false,
        }
    }
}

/// How the conversation ends.
#[derive(Clone, Copy, PartialEq)]
enum Close {
    Never,
    ClientFirst,
    ServerFirst,
    Both,
}

struct Pair {
    ends: [End; 2],
    /// `(deliver_at, to end index, segment)`, in send order.
    wire: Vec<(SimTime, usize, Segment)>,
    /// `(delay_ms, dropped)` for the next segments put on the wire.
    fates: Vec<(u64, bool)>,
    now: SimTime,
    rng: DetRng,
    hash: u64,
    close: Close,
}

const CLIENT: usize = 0;
const SERVER: usize = 1;

impl Pair {
    /// Fold end `side`'s observable state after a call into it.
    fn snap(&mut self, side: usize) {
        let c = &self.ends[side].conn;
        let h = &mut self.hash;
        fold(h, side as u64);
        fnv1a(h, format!("{:?}", c.state()).as_bytes());
        fold(h, c.cwnd());
        fold(h, c.ssthresh());
        fold(h, c.rto().as_micros());
        fold(h, c.bytes_in_flight());
        fold(h, c.next_timer().map_or(u64::MAX, SimTime::as_micros));
        let s = c.stats();
        for v in [
            s.segs_sent,
            s.segs_rcvd,
            s.bytes_sent,
            s.bytes_rcvd,
            s.bytes_retransmitted,
            s.retransmissions,
            s.timeouts,
            s.fast_retransmits,
            s.dup_acks_in,
            s.idle_restarts,
            s.dup_bytes_rcvd,
            s.spurious_undos,
        ] {
            fold(h, v);
        }
    }

    /// Fold one emitted segment and put it on the wire (or drop it).
    fn emit(&mut self, side: usize, seg: Segment) {
        let h = &mut self.hash;
        fold(h, self.now.as_micros());
        fold(h, side as u64);
        fold(h, seg.seq);
        fold(h, seg.ack);
        fold(
            h,
            u64::from(seg.flags.syn)
                | u64::from(seg.flags.ack) << 1
                | u64::from(seg.flags.fin) << 2,
        );
        fold(h, seg.wnd);
        fold(h, seg.len());
        fold(h, u64::from(seg.retransmit) | u64::from(seg.dsack) << 1);
        let (delay_ms, dropped) = if self.fates.is_empty() {
            (CLEAN_DELAY.as_millis(), false)
        } else {
            self.fates.remove(0)
        };
        if !dropped {
            let at = self.now + SimDuration::from_millis(delay_ms);
            self.wire.push((at, 1 - side, seg));
        }
    }

    /// Draw the fates of a phase's first segments.
    fn draw_fates(&mut self) {
        let n = self.rng.below(40);
        self.fates = (0..n)
            .map(|_| {
                let delay_ms = if self.rng.below(4) == 0 {
                    1 + self.rng.below(30_000)
                } else {
                    1 + self.rng.below(400)
                };
                (delay_ms, self.rng.below(5) == 0)
            })
            .collect();
    }

    /// Queue `bytes` on end `side`, written once it has left LISTEN.
    fn queue_write(&mut self, side: usize, bytes: u64) {
        let fill = ((side as u8) * 0x5a) ^ (self.ends[side].wrote.len() as u8);
        let data = (0..bytes).map(|i| (i % 251) as u8 ^ fill).collect();
        self.ends[side].pending = Some(data);
    }

    fn write_pending(&mut self, side: usize) {
        let end = &mut self.ends[side];
        if end.pending.is_some() && end.conn.state() != TcpState::Listen {
            let data = end.pending.take().expect("checked");
            end.wrote.extend_from_slice(&data);
            end.conn.write(Payload::from(data));
            self.snap(side);
        }
    }

    fn close_end(&mut self, side: usize) {
        self.ends[side].conn.close(self.now);
        self.ends[side].closed = true;
        self.snap(side);
    }

    /// The side that closes second closes once it has seen its peer's FIN.
    fn answer_close(&mut self) {
        for side in [CLIENT, SERVER] {
            let first = match self.close {
                Close::ClientFirst => CLIENT,
                Close::ServerFirst => SERVER,
                _ => continue,
            };
            if side != first
                && self.ends[first].closed
                && !self.ends[side].closed
                && self.ends[side].conn.peer_closed()
            {
                self.close_end(side);
            }
        }
    }

    fn drain(&mut self, side: usize) {
        loop {
            let seg = self.ends[side].conn.poll_transmit(self.now);
            self.snap(side);
            match seg {
                Some(seg) => self.emit(side, seg),
                None => return,
            }
        }
    }

    /// Read what end `side`'s application may read now; it must continue
    /// the peer's stream.
    fn read(&mut self, side: usize, force: bool) {
        if self.ends[side].lags && !force && self.rng.below(4) != 0 {
            return;
        }
        while let Some(chunk) = self.ends[side].conn.read() {
            fold(&mut self.hash, chunk.len());
            self.ends[side].read.extend_from_slice(&chunk.to_vec());
        }
        let peer = &self.ends[1 - side].wrote;
        assert!(
            peer.starts_with(&self.ends[side].read),
            "end {side} read {} bytes that are not a prefix of the {} written",
            self.ends[side].read.len(),
            peer.len()
        );
    }

    fn streams_complete(&self) -> bool {
        self.ends.iter().all(|e| e.pending.is_none())
            && self.ends[CLIENT].read.len() == self.ends[SERVER].wrote.len()
            && self.ends[SERVER].read.len() == self.ends[CLIENT].wrote.len()
    }

    /// Run until both streams are whole, the wire is empty and neither end
    /// has a timer armed.
    fn run_phase(&mut self) {
        self.draw_fates();
        for _ in 0..MAX_STEPS {
            self.answer_close();
            for side in [CLIENT, SERVER] {
                self.write_pending(side);
                self.drain(side);
            }
            for side in [CLIENT, SERVER] {
                self.read(side, false);
            }
            let next = self
                .wire
                .iter()
                .map(|&(at, _, _)| at)
                .chain(self.ends[CLIENT].conn.next_timer())
                .chain(self.ends[SERVER].conn.next_timer())
                .min();
            let Some(next) = next else {
                if self.streams_complete() {
                    return;
                }
                // Nothing is pending but a lagging reader: let it catch up.
                let unread = self.ends.iter().any(|e| e.conn.readable() > 0);
                assert!(unread, "stuck at {} with nothing pending", self.now);
                for side in [CLIENT, SERVER] {
                    self.read(side, true);
                }
                continue;
            };
            // Wake late every so often: several segments land before the
            // next poll, and several deadlines pass before `on_timer`.
            let late = match self.rng.below(4) {
                0 => SimDuration::from_millis(self.rng.below(300)),
                _ => SimDuration::ZERO,
            };
            self.now = self.now.max(next + late);
            let (due, later) = std::mem::take(&mut self.wire)
                .into_iter()
                .partition::<Vec<_>, _>(|&(at, _, _)| at <= self.now);
            self.wire = later;
            for (_, side, seg) in due {
                self.ends[side].conn.on_segment(self.now, seg);
                self.snap(side);
            }
            for side in [CLIENT, SERVER] {
                self.ends[side].conn.on_timer(self.now);
                self.snap(side);
            }
        }
        panic!("phase did not finish in {MAX_STEPS} steps");
    }
}

/// Run conversation `case` and return its digest.
fn conversation(case: u64) -> u64 {
    let mut rng = DetRng::new(case);
    let cfg = TcpConfig {
        cc: if case & 1 == 0 {
            CcAlgorithm::Cubic
        } else {
            CcAlgorithm::Reno
        },
        slow_start_after_idle: case & 2 == 0,
        reset_rtt_after_idle: case & 4 != 0,
        ..TcpConfig::default()
    };
    let small_window = case & 8 != 0;
    let server_cfg = TcpConfig {
        recv_buffer: if small_window { 4096 } else { cfg.recv_buffer },
        ..cfg
    };
    let mut client = TcpConnection::client(cfg);
    if case & 16 != 0 {
        client.apply_cached_metrics(CachedMetrics {
            ssthresh: (2 + rng.below(60)) * cfg.mss,
            srtt: SimDuration::from_millis(20 + rng.below(2_000)),
            rttvar: SimDuration::from_millis(5 + rng.below(500)),
        });
    }
    let close = match case % 4 {
        0 => Close::Both,
        1 => Close::ClientFirst,
        2 => Close::ServerFirst,
        _ => Close::Never,
    };
    let mut p = Pair {
        ends: [
            End::new(client, false),
            End::new(TcpConnection::server(server_cfg), small_window),
        ],
        wire: Vec::new(),
        fates: Vec::new(),
        now: SimTime::ZERO,
        rng,
        hash: 0xcbf2_9ce4_8422_2325,
        close,
    };
    p.snap(CLIENT);
    p.ends[CLIENT].conn.connect(p.now);
    p.snap(CLIENT);

    // Phase 1: the first exchange converges both RTT estimates.
    let (up, down) = (1 + p.rng.below(60_000), p.rng.below(120_000));
    p.queue_write(CLIENT, up);
    p.queue_write(SERVER, down);
    p.run_phase();

    // Phase 2: idle past both RTOs, then a second exchange.
    let rto = p.ends[CLIENT].conn.rto().max(p.ends[SERVER].conn.rto());
    p.now += rto + SimDuration::from_millis(1 + p.rng.below(20_000));
    let (up, down) = (1 + p.rng.below(20_000), p.rng.below(40_000));
    p.queue_write(CLIENT, up);
    p.queue_write(SERVER, down);
    p.run_phase();

    // Phase 3: the close.
    p.now += SimDuration::from_millis(p.rng.below(5_000));
    match p.close {
        Close::Never => {}
        Close::ClientFirst => p.close_end(CLIENT),
        Close::ServerFirst => p.close_end(SERVER),
        Close::Both => {
            p.close_end(CLIENT);
            p.close_end(SERVER);
        }
    }
    p.run_phase();
    if p.close != Close::Never {
        for end in &p.ends {
            assert_eq!(end.conn.state(), TcpState::Closed, "case {case}");
            assert!(end.conn.is_closed(), "case {case}");
        }
    }
    p.hash
}

#[test]
fn direct_drive_transcript_is_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for case in 0..32 {
        fold(&mut hash, conversation(case));
    }
    assert_eq!(
        hash, TRANSCRIPT_DIGEST,
        "transcript digest moved: {hash:#018x}"
    );
}
