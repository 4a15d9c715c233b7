//! Property-based tests over the core data structures and protocol
//! invariants, spanning crates.

use proptest::prelude::*;
use spdyier::payload::Payload;
use spdyier::sim::{DetRng, EventQueue, SimDuration, SimTime};
use spdyier::spdy::{Compressor, Decompressor};
use spdyier::tcp::buffer::{RecvBuffer, SendBuffer};
use spdyier::workload::{synthesize, SiteSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The header compressor round-trips arbitrary block sequences while
    /// both sides stay in sync.
    #[test]
    fn compressor_roundtrip(blocks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..600), 1..12)) {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        for block in &blocks {
            let z = c.compress(block);
            let back = d.decompress(&z).expect("in-sync stream must decode");
            prop_assert_eq!(&back[..], &block[..]);
        }
    }

    /// The receive buffer reassembles the original stream no matter how
    /// segments are sliced and reordered (with duplicates mixed in).
    #[test]
    fn recv_buffer_reassembles(
        payload in prop::collection::vec(any::<u8>(), 1..2000),
        seed in any::<u64>(),
        chunk in 1usize..97,
    ) {
        let mut segments: Vec<(u64, Vec<u8>)> = payload
            .chunks(chunk)
            .enumerate()
            .map(|(i, c)| ((i * chunk) as u64, c.to_vec()))
            .collect();
        // Shuffle deterministically and duplicate a few.
        let mut rng = DetRng::new(seed);
        let dupes: Vec<(u64, Vec<u8>)> = (0..3)
            .filter_map(|_| {
                if segments.is_empty() { None } else {
                    Some(segments[(rng.below(segments.len() as u64)) as usize].clone())
                }
            })
            .collect();
        segments.extend(dupes);
        rng.shuffle(&mut segments);
        let mut buf = RecvBuffer::new(0, 1 << 20);
        for (seq, data) in segments {
            buf.ingest(seq, Payload::from(data));
        }
        let mut out = Vec::new();
        while let Some(b) = buf.read() {
            out.extend_from_slice(&b.to_vec());
        }
        prop_assert_eq!(out, payload);
    }

    /// The send buffer returns exactly the bytes written, in order,
    /// regardless of the pull-size sequence.
    #[test]
    fn send_buffer_preserves_stream(
        writes in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 0..12),
        pulls in prop::collection::vec(1u64..512, 1..40),
    ) {
        let mut buf = SendBuffer::new();
        let mut expect = Vec::new();
        for w in &writes {
            expect.extend_from_slice(w);
            buf.write(Payload::from(w.clone()));
        }
        let mut got = Vec::new();
        for p in pulls {
            got.extend_from_slice(&buf.pull(p).to_vec());
        }
        got.extend_from_slice(&buf.pull(u64::MAX >> 1).to_vec());
        prop_assert_eq!(got, expect);
    }

    /// The event queue pops in non-decreasing time order and FIFO within a
    /// time instant.
    #[test]
    fn event_queue_orders(times in prop::collection::vec(0u64..5000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_micros(t));
            if let Some((lt, li)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(i > li, "FIFO within an instant");
                }
            }
            last = Some((at, i));
        }
    }

    /// The 3G RRC machine never gates into the past, and energy is
    /// monotone under arbitrary activity patterns.
    #[test]
    fn rrc3g_gate_and_energy_monotone(
        steps in prop::collection::vec((0u64..30_000, 40u64..5000), 1..60),
    ) {
        use spdyier::cellular::{Rrc3g, Rrc3gConfig};
        let mut m = Rrc3g::new(Rrc3gConfig::default());
        let mut now = SimTime::ZERO;
        let mut last_energy = 0.0;
        for (gap_ms, bytes) in steps {
            now += SimDuration::from_millis(gap_ms);
            let gate = m.gate(now, bytes);
            prop_assert!(gate >= now, "gate {gate} not before {now}");
            m.note_activity(gate, bytes);
            let e = m.energy_mj(gate);
            prop_assert!(e >= last_energy, "energy decreased: {e} < {last_energy}");
            last_energy = e;
            now = gate;
        }
    }

    /// Page synthesis always yields a structurally valid page for every
    /// Table 1 site and any seed.
    #[test]
    fn synthesis_always_valid(site in 1u32..=20, seed in any::<u64>()) {
        let spec = SiteSpec::by_index(site).unwrap();
        let page = synthesize(spec, &mut DetRng::new(seed));
        prop_assert!(page.validate().is_ok(), "{:?}", page.validate());
        prop_assert!(page.object_count() >= 1);
        prop_assert!(page.total_bytes() > 0);
    }

    /// Statistics: BoxStats bounds are ordered and the mean lies within
    /// them for any non-empty sample.
    #[test]
    fn box_stats_ordered(xs in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let b = spdyier::sim::BoxStats::from_samples(&xs).unwrap();
        prop_assert!(b.min <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.max);
        prop_assert!(b.mean >= b.min && b.mean <= b.max);
        prop_assert_eq!(b.n, xs.len());
    }

    /// CDF quantile and fraction_at are mutually consistent.
    #[test]
    fn cdf_consistency(xs in prop::collection::vec(0.0f64..1e5, 1..200), p in 0.01f64..1.0) {
        let cdf = spdyier::sim::Cdf::from_samples(&xs);
        let q = cdf.quantile(p).unwrap();
        prop_assert!(cdf.fraction_at(q) >= p - 1e-9);
    }
}

/// TCP bulk transfer delivers exactly the bytes written, under a variety of
/// latency settings (non-proptest because each case is heavier).
#[test]
fn tcp_transfer_integrity_across_latencies() {
    use spdyier::tcp::{TcpConfig, TcpConnection};
    for latency_ms in [1u64, 20, 150, 400] {
        let mut c = TcpConnection::client(TcpConfig::default());
        let mut s = TcpConnection::server(TcpConfig::default());
        c.connect(SimTime::ZERO);
        let latency = SimDuration::from_millis(latency_ms);
        let payload: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
        let mut now = SimTime::ZERO;
        let mut wire: Vec<(SimTime, bool, spdyier::tcp::Segment)> = Vec::new();
        c.write(Payload::from(payload.clone()));
        let mut got = Vec::new();
        for _ in 0..200_000 {
            while let Some(seg) = c.poll_transmit(now) {
                wire.push((now + latency, false, seg));
            }
            while let Some(seg) = s.poll_transmit(now) {
                wire.push((now + latency, true, seg));
            }
            while let Some(chunk) = s.read() {
                got.extend_from_slice(&chunk.to_vec());
            }
            if got.len() == payload.len() {
                break;
            }
            let next = wire
                .iter()
                .map(|(t, _, _)| *t)
                .chain(c.next_timer())
                .chain(s.next_timer())
                .min();
            let Some(next) = next else { break };
            now = next.max(now);
            let mut i = 0;
            while i < wire.len() {
                if wire[i].0 <= now {
                    let (_, to_c, seg) = wire.remove(i);
                    if to_c {
                        c.on_segment(now, seg);
                    } else {
                        s.on_segment(now, seg);
                    }
                } else {
                    i += 1;
                }
            }
            c.on_timer(now);
            s.on_timer(now);
        }
        assert_eq!(got, payload, "latency {latency_ms} ms");
    }
}

/// SPDY frames round-trip through arbitrary chunked delivery.
#[test]
fn spdy_frames_roundtrip_chunked() {
    use spdyier::payload::Headers;
    use spdyier::spdy::{Compressor, Decompressor, Frame, FrameParser};
    let mut comp = Compressor::new();
    let decomp = Decompressor::new();
    let frames: Vec<Frame> = vec![
        Frame::SynStream {
            stream_id: 1,
            priority: 2,
            fin: true,
            headers: Headers::from(vec![
                (":path".to_string(), "/a".to_string()),
                ("cookie".to_string(), "x".repeat(300)),
            ]),
        },
        Frame::Ping(7),
        Frame::Data {
            stream_id: 1,
            fin: false,
            payload: Payload::from(vec![9u8; 5_000]),
        },
        Frame::SynReply {
            stream_id: 1,
            fin: false,
            headers: Headers::from(vec![(":status".to_string(), "200".to_string())]),
        },
        Frame::WindowUpdate {
            stream_id: 1,
            delta: 1234,
        },
        Frame::Data {
            stream_id: 1,
            fin: true,
            payload: Payload::new(),
        },
        Frame::Goaway {
            last_stream_id: 1,
            status: 0,
        },
    ];
    let mut wire = Vec::new();
    for f in &frames {
        wire.extend_from_slice(&f.encode(&mut comp).to_vec());
    }
    // Deliver in awkward chunk sizes.
    for chunk_size in [1usize, 3, 7, 64, 1000] {
        let mut parser = FrameParser::new();
        let mut decomp_local = Decompressor::new();
        // Header blocks are stateful: replay the compressor for each pass.
        let mut comp_local = Compressor::new();
        let mut wire_local = Vec::new();
        for f in &frames {
            wire_local.extend_from_slice(&f.encode(&mut comp_local).to_vec());
        }
        let mut got = Vec::new();
        for chunk in wire_local.chunks(chunk_size) {
            parser.push(Payload::from(chunk.to_vec()));
            while let Some(f) = parser.next_frame(&mut decomp_local).expect("valid") {
                got.push(f);
            }
        }
        assert_eq!(got, frames, "chunk size {chunk_size}");
    }
    let _ = decomp;
    let _ = wire;
}

/// The deterministic RNG's forks are stable across process runs (golden
/// values — determinism is an API contract the experiment suite depends
/// on).
#[test]
fn rng_golden_values() {
    let root = DetRng::new(42);
    let mut a = root.fork("alpha");
    let v1 = a.next_u64();
    let mut a2 = DetRng::new(42).fork("alpha");
    assert_eq!(v1, a2.next_u64());
    // A full-stack golden: the same config twice in one process is covered
    // elsewhere; here pin the shuffle order.
    let mut order: Vec<u32> = (1..=10).collect();
    DetRng::new(7).fork("s").shuffle(&mut order);
    let again = {
        let mut o: Vec<u32> = (1..=10).collect();
        DetRng::new(7).fork("s").shuffle(&mut o);
        o
    };
    assert_eq!(order, again);
}
