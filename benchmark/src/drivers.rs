//! Substrate drivers: each layer's public functions, called in a loop.
//!
//! A driver reports nanoseconds and allocator calls per operation over at
//! least `min_time` of calls. Inputs are fixed (their seeds are constants
//! of the benchmark), so a driver's number means the same thing under
//! every workload and `--seed`. `proxy` has no driver: its cores are only
//! reachable through `core::session`, and driving them from here would
//! mean re-implementing that; `core.run` and `prof.*` cover it.

use serde::Serialize as _;
use spdyier_browser::PageLoad;
use spdyier_bytes::Payload;
use spdyier_cellular::{Rrc3g, Rrc3gConfig, RrcLte, RrcLteConfig};
use spdyier_core::{Testbed, TraceLevel};
use spdyier_http::{ConnectionPool, HttpClientConn, HttpServerConn, PoolConfig, Request, Response};
use spdyier_net::{presets, Direction, LinkVerdict};
use spdyier_origin::{OriginConfig, OriginServers};
use spdyier_prof::global_counts;
use spdyier_scenario::{CellMetrics, Manifest};
use spdyier_sim::{DetRng, EventQueue, QuantileSketch, SimDuration, SimTime};
use spdyier_spdy::{
    Compressor, Decompressor, Frame, FrameParser, Role, SpdyConfig, SpdyEvent, SpdySession,
};
use spdyier_tcp::{Segment, TcpConfig, TcpConnection};
use spdyier_trace::{TraceEvent, TraceRecord, Tracer};
use spdyier_workload::{synthesize, SiteSpec, WebPage};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MSS: u64 = 1380;

#[derive(Debug, Clone, Copy)]
pub struct Rate {
    pub ns_per_op: f64,
    pub allocs_per_op: f64,
}

/// How long each driver is driven.
#[derive(Debug, Clone, Copy)]
pub enum Effort {
    /// At least this long, after one untimed warm-up batch.
    AtLeast(Duration),
    /// One batch, cold: `--smoke` only proves the driver still runs.
    OneBatch,
}

/// Time `batch` (which returns how many operations it performed).
fn measure(effort: Effort, mut batch: impl FnMut() -> u64) -> Rate {
    if let Effort::AtLeast(_) = effort {
        batch();
    }
    let allocs_before = global_counts();
    let started = Instant::now();
    let mut ops = 0;
    loop {
        ops += batch();
        match effort {
            Effort::AtLeast(min) if started.elapsed() < min => {}
            _ => break,
        }
    }
    let ns = started.elapsed().as_nanos() as f64;
    let allocs = global_counts().since(allocs_before).allocs;
    Rate {
        ns_per_op: ns / ops as f64,
        allocs_per_op: allocs as f64 / ops as f64,
    }
}

/// A 64-bit LCG for driver inputs: cheap, and not the layer under test.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// What the measuring loop itself costs per operation: the same batch
/// shape with nothing inside. Reported beside the drivers so a reader can
/// see that `ns_per_op` is the layer, not the harness.
fn empty_loop(effort: Effort) -> Rate {
    measure(effort, || {
        for i in 0..65_536u64 {
            black_box(i);
        }
        65_536
    })
}

fn sim_queue(effort: Effort) -> Rate {
    let mut q = EventQueue::new();
    let mut state = 1;
    for i in 0..1024u64 {
        q.schedule(SimTime::from_micros(lcg(&mut state) % 1_000_000), i);
    }
    measure(effort, || {
        for _ in 0..4096 {
            let (now, ev) = q.pop().expect("queue stays full");
            let delay = SimDuration::from_micros(1 + lcg(&mut state) % 100_000);
            q.schedule(now + delay, ev);
        }
        4096
    })
}

/// The RTO / delayed-ACK pattern: a timer is armed, then cancelled and
/// re-armed on nearly every segment, and almost never fires.
fn sim_queue_churn(effort: Effort) -> Rate {
    let mut q = EventQueue::new();
    let mut now = SimTime::ZERO;
    for i in 0..256u64 {
        q.schedule(SimTime::from_secs(3600 + i), usize::MAX);
    }
    let mut timers: Vec<_> = (0..32)
        .map(|k| q.schedule(now + SimDuration::from_secs(1), k))
        .collect();
    measure(effort, || {
        for i in 0..4096usize {
            let k = i % timers.len();
            black_box(q.cancel(timers[k]));
            now += SimDuration::from_micros(10);
            timers[k] = q.schedule(now + SimDuration::from_secs(1), k);
        }
        4096
    })
}

fn sketch_samples() -> Vec<f64> {
    let mut rng = DetRng::new(0x5EED);
    (0..4096)
        .map(|_| rng.lognormal_mean(3_000.0, 0.8))
        .collect()
}

fn sim_sketch_record(effort: Effort) -> Rate {
    let samples = sketch_samples();
    let mut sketch = QuantileSketch::new();
    measure(effort, || {
        for &x in &samples {
            sketch.record(x);
        }
        samples.len() as u64
    })
}

fn sim_sketch_merge(effort: Effort) -> Rate {
    let samples = sketch_samples();
    let (mut a, mut b) = (QuantileSketch::new(), QuantileSketch::new());
    for (i, &x) in samples.iter().enumerate() {
        if i % 2 == 0 { &mut a } else { &mut b }.record(x);
    }
    measure(effort, || {
        for _ in 0..64 {
            a.merge(&b).expect("same resolution");
        }
        64
    })
}

/// What TCP does to a response: cut MSS-sized heads off a rope (a real
/// header chunk plus a synthetic body) and queue them on another.
fn payload_rope_split(effort: Effort) -> Rate {
    measure(effort, || {
        let mut rope = Payload::from(vec![b'h'; 256]);
        rope.append(Payload::synthetic(1 << 20));
        let mut sent = Payload::new();
        let mut ops = 0;
        while !rope.is_empty() {
            let head = rope.split_to(MSS.min(rope.len()));
            sent.append(head);
            ops += 1;
        }
        black_box(sent.len());
        ops
    })
}

fn net_link_send(effort: Effort) -> Rate {
    let mut path = presets::broadband_wifi();
    let mut rng = DetRng::new(0x11);
    let mut now = SimTime::ZERO;
    // One MSS per 800 us is just under the 15 Mbit/s line rate: the
    // serialiser stays busy and the drop-tail queue never overflows.
    let gap = SimDuration::from_micros(800);
    measure(effort, || {
        for _ in 0..4096 {
            match path.send(Direction::Down, now, MSS + 40, &mut rng) {
                LinkVerdict::Deliver(at) => black_box(at),
                LinkVerdict::Drop => panic!("the wifi preset is lossless below line rate"),
            };
            now += gap;
        }
        4096
    })
}

/// Gate a packet stream with an idle gap every 100 packets, so demotion
/// timers expire and promotions are taken, as between page loads.
/// `gate_and_note` asks the machine when `bytes` may go at `t`, reports
/// the activity, and returns the gate instant.
fn rrc_gate(effort: Effort, mut gate_and_note: impl FnMut(SimTime, u64) -> SimTime) -> Rate {
    let mut t = SimTime::ZERO;
    let mut i = 0u64;
    measure(effort, || {
        for _ in 0..4096 {
            let at = gate_and_note(t, if i.is_multiple_of(7) { 64 } else { MSS });
            t = at + SimDuration::from_millis(if i.is_multiple_of(100) { 20_000 } else { 50 });
            i += 1;
        }
        4096
    })
}

fn cellular_rrc3g_gate(effort: Effort) -> Rate {
    let mut machine = Rrc3g::new(Rrc3gConfig::default());
    rrc_gate(effort, |t, bytes| {
        let at = machine.gate(t, bytes);
        machine.note_activity(at, bytes);
        at
    })
}

fn cellular_rrclte_gate(effort: Effort) -> Rate {
    let mut machine = RrcLte::new(RrcLteConfig::default());
    rrc_gate(effort, |t, bytes| {
        let at = machine.gate(t, bytes);
        machine.note_activity(at, bytes);
        at
    })
}

/// Two TCP endpoints joined by a constant-latency wire. With one latency
/// for every segment, arrival order is send order, so the wire is a FIFO
/// and delivering costs O(1) — the driver's own cost stays far below a
/// segment's.
struct TcpPair {
    client: TcpConnection,
    server: TcpConnection,
    wire: VecDeque<(SimTime, bool, Segment)>,
    now: SimTime,
    latency: SimDuration,
    /// Segments either end transmitted, lost ones included.
    segments: u64,
    client_read: u64,
    server_read: u64,
}

impl TcpPair {
    fn connect(now: SimTime) -> TcpPair {
        let mut client = TcpConnection::client(TcpConfig::default());
        client.connect(now);
        TcpPair {
            client,
            server: TcpConnection::server(TcpConfig::default()),
            wire: VecDeque::new(),
            now,
            latency: SimDuration::from_millis(10),
            segments: 0,
            client_read: 0,
            server_read: 0,
        }
    }

    /// Step the pair until `done`, losing the segments `lose` picks.
    fn run_until(
        &mut self,
        mut lose: impl FnMut(&Segment) -> bool,
        mut done: impl FnMut(&mut TcpPair) -> bool,
    ) {
        loop {
            while let Some(seg) = self.client.poll_transmit(self.now) {
                self.segments += 1;
                if !lose(&seg) {
                    self.wire.push_back((self.now + self.latency, false, seg));
                }
            }
            while let Some(seg) = self.server.poll_transmit(self.now) {
                self.segments += 1;
                if !lose(&seg) {
                    self.wire.push_back((self.now + self.latency, true, seg));
                }
            }
            while let Some(chunk) = self.client.read() {
                self.client_read += chunk.len();
            }
            while let Some(chunk) = self.server.read() {
                self.server_read += chunk.len();
            }
            if done(self) {
                return;
            }
            let next = [
                self.wire.front().map(|(at, ..)| *at),
                self.client.next_timer(),
                self.server.next_timer(),
            ]
            .into_iter()
            .flatten()
            .min()
            .expect("a transfer in progress always has a segment or a timer pending");
            self.now = self.now.max(next);
            while self.wire.front().is_some_and(|(at, ..)| *at <= self.now) {
                let (_, to_client, seg) = self.wire.pop_front().expect("front checked");
                if to_client {
                    self.client.on_segment(self.now, seg);
                } else {
                    self.server.on_segment(self.now, seg);
                }
            }
            self.client.on_timer(self.now);
            self.server.on_timer(self.now);
        }
    }
}

/// One long lossless flow: the per-segment fast path.
fn tcp_bulk(effort: Effort) -> Rate {
    const BYTES: u64 = 1 << 20;
    measure(effort, || {
        let mut pair = TcpPair::connect(SimTime::ZERO);
        pair.client.write(Payload::synthetic(BYTES));
        pair.run_until(|_| false, |p| p.server_read >= BYTES);
        pair.segments
    })
}

/// Many short flows: handshake, a request, an 8 KiB response. One
/// operation is one connection.
fn tcp_short(effort: Effort) -> Rate {
    const CONNECTIONS: u64 = 200;
    const REQUEST: u64 = 200;
    const RESPONSE: u64 = 8 << 10;
    measure(effort, || {
        let mut now = SimTime::ZERO;
        for _ in 0..CONNECTIONS {
            let mut pair = TcpPair::connect(now);
            pair.client.write(Payload::synthetic(REQUEST));
            let mut answered = false;
            pair.run_until(
                |_| false,
                |p| {
                    if !answered && p.server_read >= REQUEST {
                        p.server.write(Payload::synthetic(RESPONSE));
                        answered = true;
                    }
                    p.client_read >= RESPONSE
                },
            );
            now = pair.now;
        }
        CONNECTIONS
    })
}

/// 2% seeded loss of data segments: the RTO and fast-retransmit paths.
fn tcp_lossy(effort: Effort) -> Rate {
    const BYTES: u64 = 256 << 10;
    measure(effort, || {
        let mut rng = DetRng::new(0xD20B);
        let mut pair = TcpPair::connect(SimTime::ZERO);
        pair.client.write(Payload::synthetic(BYTES));
        pair.run_until(
            |seg| !seg.is_empty() && rng.chance(0.02),
            |p| p.server_read >= BYTES,
        );
        pair.segments
    })
}

fn request_headers(i: usize) -> Vec<(String, String)> {
    vec![
        (":method".into(), "GET".into()),
        (":scheme".into(), "http".into()),
        (":host".into(), format!("cdn{}.site.example", i % 4)),
        (":path".into(), format!("/assets/img/object-{i}.png")),
        (":version".into(), "HTTP/1.1".into()),
        ("accept".into(), "image/png,image/*;q=0.8,*/*;q=0.5".into()),
        ("accept-encoding".into(), "gzip,deflate,sdch".into()),
        ("accept-language".into(), "en-US,en;q=0.8".into()),
        (
            "cookie".into(),
            "sid=0123456789abcdef0123456789abcdef; theme=light".into(),
        ),
        (
            "user-agent".into(),
            "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.11 Chrome/23.0.1271.97".into(),
        ),
    ]
}

fn response_headers() -> Vec<(String, String)> {
    vec![
        (":status".into(), "200 OK".into()),
        (":version".into(), "HTTP/1.1".into()),
        ("content-type".into(), "image/png".into()),
        ("cache-control".into(), "max-age=3600".into()),
        ("server".into(), "origin/1.0".into()),
    ]
}

/// Encode and parse a response's frames: one SYN_REPLY, four 4 KiB DATA.
fn spdy_frame(effort: Effort) -> Rate {
    let mut frames = Vec::new();
    for stream in 0..16u32 {
        let stream_id = 2 * stream + 1;
        frames.push(Frame::SynReply {
            stream_id,
            fin: false,
            headers: response_headers(),
        });
        for part in 0..4 {
            frames.push(Frame::Data {
                stream_id,
                fin: part == 3,
                payload: Payload::synthetic(4096),
            });
        }
    }
    let mut comp = Compressor::new();
    let mut decomp = Decompressor::new();
    let mut parser = FrameParser::new();
    measure(effort, || {
        let mut parsed = 0;
        for frame in &frames {
            parser.push(frame.encode(&mut comp));
            while let Some(frame) = parser.next_frame(&mut decomp).expect("own frames parse") {
                black_box(frame);
                parsed += 1;
            }
        }
        assert_eq!(parsed, frames.len() as u64);
        parsed
    })
}

/// The header blocks of 32 requests for distinct objects on four hosts,
/// in SPDY/3's name/value block layout.
fn header_blocks() -> Vec<Vec<u8>> {
    (0..32)
        .map(|i| {
            let headers = request_headers(i);
            let mut block = (headers.len() as u32).to_be_bytes().to_vec();
            for (name, value) in headers {
                for field in [name, value] {
                    block.extend((field.len() as u32).to_be_bytes());
                    block.extend(field.bytes());
                }
            }
            block
        })
        .collect()
}

/// Compress and decompress request header blocks over one long-lived
/// session window. One operation is one block, both ways.
fn spdy_compress(effort: Effort) -> Rate {
    let blocks = header_blocks();
    let mut comp = Compressor::new();
    let mut decomp = Decompressor::new();
    measure(effort, || {
        for block in &blocks {
            let z = comp.compress(block);
            black_box(decomp.decompress(&z).expect("own output inflates"));
        }
        blocks.len() as u64
    })
}

/// Compressed bytes per plain byte over a fixed 256-block session, so the
/// figure repeats exactly however long the timed driver ran.
fn spdy_compress_ratio() -> f64 {
    let blocks = header_blocks();
    let mut comp = Compressor::new();
    for block in blocks.iter().cycle().take(256) {
        black_box(comp.compress(block));
    }
    let (plain, compressed) = comp.ratio_counters();
    compressed as f64 / plain as f64
}

/// 100 multiplexed request/response exchanges over a session pair. One
/// operation is one stream.
fn spdy_session_mux(effort: Effort) -> Rate {
    const STREAMS: usize = 100;
    measure(effort, || {
        let mut client = SpdySession::new(Role::Client, SpdyConfig::default());
        let mut server = SpdySession::new(Role::Server, SpdyConfig::default());
        for i in 0..STREAMS {
            client.open_stream(request_headers(i), 2, true);
        }
        while let Some(wire) = client.poll_wire() {
            for event in server.on_bytes(wire).expect("client frames parse") {
                if let SpdyEvent::StreamOpened { stream_id, .. } = event {
                    server.reply(stream_id, response_headers(), false);
                    server.send_data(stream_id, Payload::synthetic(4096), true);
                }
            }
        }
        let mut finished = 0;
        while let Some(wire) = server.poll_wire() {
            for event in client.on_bytes(wire).expect("server frames parse") {
                if let SpdyEvent::Data {
                    stream_id,
                    payload,
                    fin,
                } = event
                {
                    client.consume(stream_id, payload.len() as u32);
                    finished += u64::from(fin);
                }
            }
        }
        assert_eq!(finished, STREAMS as u64);
        finished
    })
}

/// One request and its 8 KiB response through both ends' codecs.
fn http1_codec(effort: Effort) -> Rate {
    let request = Request::get("cdn1.site.example", "/assets/img/object-7.png")
        .with_header("Accept", "image/png,image/*;q=0.8,*/*;q=0.5")
        .with_header("Accept-Encoding", "gzip,deflate,sdch")
        .with_header(
            "Cookie",
            "sid=0123456789abcdef0123456789abcdef; theme=light",
        )
        .with_header(
            "User-Agent",
            "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.11 Chrome/23.0.1271.97",
        );
    let response = Response::ok(Payload::synthetic(8 << 10))
        .with_header("Content-Type", "image/png")
        .with_header("Cache-Control", "max-age=3600");
    let mut client = HttpClientConn::new();
    let mut server = HttpServerConn::new();
    measure(effort, || {
        for tag in 0..256 {
            let wire = client.send_request(tag, &request);
            let requests = server.on_bytes(wire).expect("own request parses");
            assert_eq!(requests.len(), 1);
            let wire = server.encode_response(&response);
            let done = client.on_bytes(wire).expect("own response parses");
            assert_eq!(done.len(), 1);
            black_box((requests, done));
        }
        256
    })
}

/// Acquire and release against Chrome's limits (6 per domain, 32 total):
/// five domains with twenty requests in flight, so most acquires reuse an
/// idle connection and some find their domain saturated.
fn http1_pool(effort: Effort) -> Rate {
    let domains: Vec<String> = (0..5).map(|d| format!("cdn{d}.site.example")).collect();
    let mut pool = ConnectionPool::new(PoolConfig::default());
    let mut busy = VecDeque::new();
    let mut i = 0usize;
    measure(effort, || {
        for _ in 0..4096 {
            use spdyier_http::Acquire::{Blocked, Open, Reuse};
            match pool.acquire(&domains[i % domains.len()]) {
                Reuse(id) | Open(id) => busy.push_back(id),
                Blocked => {}
            }
            if busy.len() >= 20 {
                pool.release(busy.pop_front().expect("non-empty"));
            }
            i += 1;
        }
        4096
    })
}

fn table1_page(site: u32) -> WebPage {
    let spec = SiteSpec::by_index(site).expect("Table 1 has 20 sites");
    synthesize(spec, &mut DetRng::new(u64::from(site)))
}

/// Drive a Table 1 page load to completion: request every ready object,
/// complete it 100 ms later, run the evaluator when it is due. One
/// operation is one object.
fn browser_load(effort: Effort) -> Rate {
    let page = Arc::new(table1_page(15));
    let mut load = PageLoad::new(Arc::clone(&page), SimTime::ZERO);
    let mut ready = Vec::new();
    let mut now = SimTime::ZERO;
    measure(effort, || {
        load.reset(Arc::clone(&page), now);
        let mut objects = 0;
        while !load.is_complete() {
            ready.clear();
            ready.extend(load.ready_objects());
            for &id in &ready {
                load.note_requested(id, now);
            }
            now += SimDuration::from_millis(100);
            for &id in &ready {
                load.note_first_byte(id, now);
                load.note_complete(id, now);
            }
            objects += ready.len() as u64;
            if let Some(at) = load.next_timer() {
                now = now.max(at);
                black_box(load.on_timer(now));
            } else {
                assert!(
                    load.is_complete() || load.ready_count() > 0,
                    "page load stalled"
                );
            }
        }
        assert_eq!(objects, page.object_count() as u64);
        objects
    })
}

fn origin_handle(effort: Effort) -> Rate {
    let page = table1_page(15);
    let mut origin = OriginServers::new(OriginConfig::default());
    origin.register_page(&page);
    let requests: Vec<Request> = page
        .objects
        .iter()
        .map(|o| Request::get(o.domain.clone(), o.path.clone()))
        .collect();
    let mut rng = DetRng::new(0x0816);
    measure(effort, || {
        for request in &requests {
            black_box(origin.handle(request, &mut rng));
        }
        requests.len() as u64
    })
}

/// Synthesize all 20 Table 1 sites. One operation is one site.
fn workload_synth(effort: Effort) -> Rate {
    measure(effort, || {
        for site in 1..=20 {
            black_box(table1_page(site));
        }
        20
    })
}

fn segment_sent(i: u64) -> TraceEvent {
    TraceEvent::SegmentSent {
        conn: (i % 8) as usize,
        down: !i.is_multiple_of(3),
        bytes: MSS + 40,
        deliver: SimTime::from_micros(i * 800 + 20_000),
        ser_us: 736,
        retransmit: false,
    }
}

/// An emission site with the recorder off: the level check every site
/// makes before it builds an event.
fn trace_emit_off(effort: Effort) -> Rate {
    let mut tracer = Tracer::off();
    measure(effort, || {
        for i in 0..65_536u64 {
            let tracer = black_box(&mut tracer);
            if tracer.active(TraceLevel::Full) {
                tracer.emit(SimTime::from_micros(i), segment_sent(i));
            }
        }
        65_536
    })
}

/// The same site at `full`: build the event, record it, and at the end
/// of the "cell" hand the log over and free it.
fn trace_emit_full(effort: Effort) -> Rate {
    measure(effort, || {
        let mut tracer = Tracer::for_level(TraceLevel::Full);
        for i in 0..16_384u64 {
            if tracer.active(TraceLevel::Full) {
                tracer.emit(SimTime::from_micros(i * 800), segment_sent(i));
            }
        }
        assert_eq!(tracer.finish().events.len(), 16_384);
        16_384
    })
}

fn trace_jsonl_write(effort: Effort) -> Rate {
    let records: Vec<TraceRecord> = (0..4096u64)
        .map(|i| TraceRecord {
            t: SimTime::from_micros(i * 800),
            event: match i % 4 {
                0 => TraceEvent::TcpCwnd {
                    conn: (i % 8) as usize,
                    cwnd: 13_800 + i,
                    ssthresh: (i % 8 == 0).then_some(27_600),
                    inflight: 6_900,
                },
                1 => TraceEvent::ObjectRequested {
                    visit: (i / 256) as usize,
                    object: (i % 256) as u32,
                },
                _ => segment_sent(i),
            },
        })
        .collect();
    measure(effort, || {
        black_box(spdyier_trace::to_jsonl(&records));
        records.len() as u64
    })
}

fn scenario_manifest_decode(effort: Effort) -> Rate {
    let text = crate::workloads::WORKLOADS[0].manifest_json(0, crate::workloads::Size::EndToEnd);
    measure(effort, || {
        for _ in 0..64 {
            black_box(Manifest::from_json(&text).expect("generated manifest decodes"));
        }
        64
    })
}

/// The sweep checkpoint codec on a real cell's metrics (one
/// `population_wifi` cell, run here untimed).
fn scenario_cell_codec(effort: Effort) -> Rate {
    let text = crate::workloads::WORKLOADS[2].manifest_json(0, crate::workloads::Size::Smoke);
    let manifest = Manifest::from_json(&text).expect("generated manifest decodes");
    let cell = &manifest.cells()[0];
    let result = Testbed::new(cell.build_config(&manifest)).run();
    let metrics = CellMetrics::from_run(cell, &result, None);
    measure(effort, || {
        for _ in 0..64 {
            let decoded = CellMetrics::from_value(&metrics.to_value());
            assert_eq!(decoded.as_ref(), Ok(&metrics));
        }
        64
    })
}

type Driver = fn(Effort) -> Rate;

/// Every driver, by the metric prefix it reports under.
pub const DRIVERS: [(&str, Driver); 24] = [
    ("sim.queue", sim_queue),
    ("sim.queue_churn", sim_queue_churn),
    ("sim.sketch_record", sim_sketch_record),
    ("sim.sketch_merge", sim_sketch_merge),
    ("payload.rope_split", payload_rope_split),
    ("net.link_send", net_link_send),
    ("cellular.rrc3g_gate", cellular_rrc3g_gate),
    ("cellular.rrclte_gate", cellular_rrclte_gate),
    ("tcp.bulk", tcp_bulk),
    ("tcp.short", tcp_short),
    ("tcp.lossy", tcp_lossy),
    ("spdy.frame", spdy_frame),
    ("spdy.compress", spdy_compress),
    ("spdy.session_mux", spdy_session_mux),
    ("http1.codec", http1_codec),
    ("http1.pool", http1_pool),
    ("browser.load", browser_load),
    ("origin.handle", origin_handle),
    ("workload.synth", workload_synth),
    ("trace.emit_off", trace_emit_off),
    ("trace.emit_full", trace_emit_full),
    ("trace.jsonl_write", trace_jsonl_write),
    ("scenario.manifest_decode", scenario_manifest_decode),
    ("scenario.cell_codec", scenario_cell_codec),
];

#[derive(Debug, Clone)]
pub struct Substrate {
    pub rates: Vec<(&'static str, Rate)>,
    pub compress_ratio: f64,
    pub empty_loop_ns_per_op: f64,
}

pub fn run_all(effort: Effort) -> Substrate {
    Substrate {
        rates: DRIVERS
            .iter()
            .map(|&(name, driver)| (name, driver(effort)))
            .collect(),
        compress_ratio: spdy_compress_ratio(),
        empty_loop_ns_per_op: empty_loop(effort).ns_per_op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_driver_completes_one_batch() {
        let substrate = run_all(Effort::OneBatch);
        assert_eq!(substrate.rates.len(), DRIVERS.len());
        for (name, rate) in &substrate.rates {
            assert!(rate.ns_per_op.is_finite() && rate.ns_per_op > 0.0, "{name}");
            assert!(rate.allocs_per_op.is_finite(), "{name}");
        }
        assert!(
            (0.0..1.0).contains(&substrate.compress_ratio),
            "header compression shrinks its input: {}",
            substrate.compress_ratio
        );
    }

    #[test]
    fn lossy_transfer_takes_the_retransmit_paths() {
        let mut rng = DetRng::new(0xD20B);
        let mut pair = TcpPair::connect(SimTime::ZERO);
        pair.client.write(Payload::synthetic(256 << 10));
        pair.run_until(
            |seg| !seg.is_empty() && rng.chance(0.02),
            |p| p.server_read >= 256 << 10,
        );
        let stats = pair.client.stats();
        assert_eq!(pair.server_read, 256 << 10);
        assert!(stats.retransmissions > 0, "{stats:?}");
    }
}
