//! The SPDY session: prioritized stream multiplexing over one byte stream.
//!
//! This is the mechanism the paper's Figure 1(d) illustrates — many
//! concurrent request streams share a single TCP connection, higher
//! priority responses pre-empt lower ones in the send queue, and several
//! small responses may coalesce into one packet.
//!
//! Queued stream data is a per-stream [`Payload`] rope: slicing DATA
//! frames off the front is chunk bookkeeping, so synthetic (length-only)
//! bodies multiplex without being copied or materialized.

use crate::compress::{Compressor, Decompressor};
use crate::frame::{Frame, FrameError, FrameParser};
use crate::hash::U32Map;
use serde::Serialize;
use spdyier_bytes::{Headers, Payload};
use std::collections::VecDeque;

/// Session tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SpdyConfig {
    /// Initial per-stream flow-control window, bytes (SPDY/3: 64 KiB).
    pub initial_window: u32,
    /// Maximum payload per DATA frame.
    pub max_data_frame: usize,
    /// Send WINDOW_UPDATE after consuming this many bytes on a stream.
    pub window_update_threshold: u32,
}

impl Default for SpdyConfig {
    fn default() -> Self {
        SpdyConfig {
            initial_window: 64 * 1024,
            max_data_frame: 4096,
            window_update_threshold: 32 * 1024,
        }
    }
}

/// Which end of the session this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Opens odd-numbered streams.
    Client,
    /// Opens even-numbered streams.
    Server,
}

/// Events surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpdyEvent {
    /// A peer-initiated stream opened (server sees client requests).
    StreamOpened {
        /// New stream.
        stream_id: u32,
        /// SPDY priority, 0 highest.
        priority: u8,
        /// Peer half-closed immediately.
        fin: bool,
        /// Request headers.
        headers: Headers,
    },
    /// The reply headers for a stream we opened.
    Reply {
        /// Stream being answered.
        stream_id: u32,
        /// Peer half-closed (no body follows).
        fin: bool,
        /// Response headers.
        headers: Headers,
    },
    /// Payload on a stream.
    Data {
        /// Stream carrying data.
        stream_id: u32,
        /// Payload rope.
        payload: Payload,
        /// Peer finished this stream.
        fin: bool,
    },
    /// Peer reset a stream.
    Reset {
        /// Stream reset.
        stream_id: u32,
        /// Status code.
        status: u32,
    },
    /// A PING arrived (sessions answer pings automatically).
    Ping(u32),
    /// Peer is going away.
    Goaway,
}

/// Session counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SpdyStats {
    /// Streams opened locally.
    pub streams_opened: u64,
    /// Streams opened by the peer.
    pub streams_accepted: u64,
    /// DATA payload bytes sent.
    pub data_bytes_sent: u64,
    /// DATA payload bytes received.
    pub data_bytes_rcvd: u64,
    /// Frames sent (all kinds).
    pub frames_sent: u64,
    /// Frames received.
    pub frames_rcvd: u64,
    /// Times a stream stalled on flow control.
    pub flow_control_stalls: u64,
}

#[derive(Debug)]
struct StreamState {
    priority: u8,
    send_window: i64,
    /// Bytes received and consumed since the last WINDOW_UPDATE we sent.
    consumed_unacked: u32,
    /// Queued-but-unsent stream data, as one rope.
    send_queue: Payload,
    fin_pending: bool,
    local_closed: bool,
    remote_closed: bool,
}

/// A SPDY/3 session endpoint.
#[derive(Debug)]
pub struct SpdySession {
    cfg: SpdyConfig,
    role: Role,
    next_stream_id: u32,
    /// Open streams by id. Iterated only by `pending_bytes`, whose sum
    /// does not depend on order, so the hasher's iteration order cannot
    /// reach any output.
    streams: U32Map<StreamState>,
    comp: Compressor,
    decomp: Decompressor,
    parser: FrameParser,
    /// Encoded control frames awaiting transmission (FIFO — their header
    /// blocks were compressed in this order).
    control_out: VecDeque<Payload>,
    /// Streams with sendable data, per priority level (0 = highest).
    ready: [VecDeque<u32>; 8],
    stats: SpdyStats,
}

impl SpdySession {
    /// Create an endpoint.
    pub fn new(role: Role, cfg: SpdyConfig) -> SpdySession {
        SpdySession {
            cfg,
            role,
            next_stream_id: match role {
                Role::Client => 1,
                Role::Server => 2,
            },
            streams: U32Map::default(),
            comp: Compressor::new(),
            decomp: Decompressor::new(),
            parser: FrameParser::new(),
            control_out: VecDeque::new(),
            ready: Default::default(),
            stats: SpdyStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> SpdyStats {
        self.stats
    }

    /// Open a new stream with `headers` at `priority` (0 = highest).
    /// `fin` half-closes immediately (a bodyless request).
    pub fn open_stream(&mut self, headers: impl Into<Headers>, priority: u8, fin: bool) -> u32 {
        let stream_id = self.next_stream_id;
        self.next_stream_id += 2;
        let priority = priority.min(7);
        self.streams.insert(
            stream_id,
            StreamState {
                priority,
                send_window: i64::from(self.cfg.initial_window),
                consumed_unacked: 0,
                send_queue: Payload::new(),
                fin_pending: false,
                local_closed: fin,
                remote_closed: false,
            },
        );
        self.stats.streams_opened += 1;
        self.queue_control(Frame::SynStream {
            stream_id,
            priority,
            fin,
            headers: headers.into(),
        });
        stream_id
    }

    /// Encode a control frame and queue it behind those already waiting
    /// (header blocks must reach the wire in the order they were
    /// compressed).
    fn queue_control(&mut self, frame: Frame) {
        let wire = frame.encode(&mut self.comp);
        self.control_out.push_back(wire);
    }

    /// Answer a peer-opened stream with reply headers.
    pub fn reply(&mut self, stream_id: u32, headers: impl Into<Headers>, fin: bool) {
        self.queue_control(Frame::SynReply {
            stream_id,
            fin,
            headers: headers.into(),
        });
        if fin {
            if let Some(st) = self.streams.get_mut(&stream_id) {
                st.local_closed = true;
            }
            self.gc_stream(stream_id);
        }
    }

    /// Queue payload on a stream; `fin` closes our half after this data.
    pub fn send_data(&mut self, stream_id: u32, payload: Payload, fin: bool) {
        let Some(st) = self.streams.get_mut(&stream_id) else {
            return;
        };
        debug_assert!(
            !st.local_closed,
            "send on locally-closed stream {stream_id}"
        );
        let priority = st.priority;
        st.send_queue.append(payload);
        if fin {
            st.fin_pending = true;
        }
        if !self.ready[priority as usize].contains(&stream_id) {
            self.ready[priority as usize].push_back(stream_id);
        }
    }

    /// Reset a stream.
    pub fn rst(&mut self, stream_id: u32, status: u32) {
        self.queue_control(Frame::RstStream { stream_id, status });
        self.streams.remove(&stream_id);
    }

    /// Send a PING probe.
    pub fn ping(&mut self, id: u32) {
        self.queue_control(Frame::Ping(id));
    }

    /// Announce session teardown.
    pub fn goaway(&mut self) {
        let last = self.next_stream_id.saturating_sub(2);
        self.queue_control(Frame::Goaway {
            last_stream_id: last,
            status: 0,
        });
    }

    /// The application consumed `n` received bytes on `stream_id`; may emit
    /// a WINDOW_UPDATE.
    pub fn consume(&mut self, stream_id: u32, n: u32) {
        let threshold = self.cfg.window_update_threshold;
        let Some(st) = self.streams.get_mut(&stream_id) else {
            return;
        };
        st.consumed_unacked += n;
        if st.consumed_unacked >= threshold {
            let delta = st.consumed_unacked;
            st.consumed_unacked = 0;
            self.queue_control(Frame::WindowUpdate { stream_id, delta });
        }
    }

    /// Total bytes queued for transmission (control + data).
    pub fn pending_bytes(&self) -> u64 {
        let control: u64 = self.control_out.iter().map(|b| b.len()).sum();
        let data: u64 = self.streams.values().map(|s| s.send_queue.len()).sum();
        control + data
    }

    /// Produce the next wire bytes to write, if any. Control frames drain
    /// first (FIFO — compression order); then DATA by priority, 0 first,
    /// round-robin within a level, honouring per-stream send windows.
    pub fn poll_wire(&mut self) -> Option<Payload> {
        if let Some(frame) = self.control_out.pop_front() {
            self.stats.frames_sent += 1;
            return Some(frame);
        }
        for pri in 0..8 {
            let mut inspected = 0;
            while inspected < self.ready[pri].len() {
                let stream_id = self.ready[pri][0];
                match self.try_emit_data(stream_id) {
                    EmitOutcome::Frame(wire, exhausted) => {
                        // Round-robin: rotate the stream to the back unless done.
                        self.ready[pri].pop_front();
                        if !exhausted {
                            self.ready[pri].push_back(stream_id);
                        }
                        self.stats.frames_sent += 1;
                        return Some(wire);
                    }
                    EmitOutcome::Blocked => {
                        // Flow-controlled: rotate and try the next stream.
                        self.ready[pri].rotate_left(1);
                        inspected += 1;
                    }
                    EmitOutcome::Nothing => {
                        self.ready[pri].pop_front();
                    }
                }
            }
        }
        None
    }

    fn try_emit_data(&mut self, stream_id: u32) -> EmitOutcome {
        let Some(st) = self.streams.get_mut(&stream_id) else {
            return EmitOutcome::Nothing;
        };
        if st.send_queue.is_empty() {
            if st.fin_pending {
                st.fin_pending = false;
                st.local_closed = true;
                let wire = Frame::<Headers>::Data {
                    stream_id,
                    fin: true,
                    payload: Payload::new(),
                }
                .encode(&mut self.comp);
                self.gc_stream(stream_id);
                return EmitOutcome::Frame(wire, true);
            }
            return EmitOutcome::Nothing;
        }
        if st.send_window <= 0 {
            self.stats.flow_control_stalls += 1;
            return EmitOutcome::Blocked;
        }
        let budget = (st.send_window as u64).min(self.cfg.max_data_frame as u64);
        let take = st.send_queue.len().min(budget);
        let payload = st.send_queue.split_to(take);
        st.send_window -= payload.len() as i64;
        self.stats.data_bytes_sent += payload.len();
        let exhausted = st.send_queue.is_empty() && !st.fin_pending;
        let fin = st.send_queue.is_empty() && st.fin_pending;
        if fin {
            st.fin_pending = false;
            st.local_closed = true;
        }
        let wire = Frame::<Headers>::Data {
            stream_id,
            fin,
            payload,
        }
        .encode(&mut self.comp);
        if fin {
            self.gc_stream(stream_id);
            return EmitOutcome::Frame(wire, true);
        }
        EmitOutcome::Frame(wire, exhausted)
    }

    fn gc_stream(&mut self, stream_id: u32) {
        if let Some(st) = self.streams.get(&stream_id) {
            if st.local_closed && st.remote_closed && st.send_queue.is_empty() && !st.fin_pending {
                self.streams.remove(&stream_id);
            }
        }
    }

    /// Feed data read from the transport; returns application events.
    pub fn on_bytes(&mut self, data: Payload) -> Result<Vec<SpdyEvent>, FrameError> {
        self.parser.push(data);
        let mut events = Vec::new();
        while let Some(frame) = self.parser.next_frame(&mut self.decomp)? {
            self.stats.frames_rcvd += 1;
            match frame {
                Frame::SynStream {
                    stream_id,
                    priority,
                    fin,
                    headers,
                } => {
                    self.streams.insert(
                        stream_id,
                        StreamState {
                            priority,
                            send_window: i64::from(self.cfg.initial_window),
                            consumed_unacked: 0,
                            send_queue: Payload::new(),
                            fin_pending: false,
                            local_closed: false,
                            remote_closed: fin,
                        },
                    );
                    self.stats.streams_accepted += 1;
                    events.push(SpdyEvent::StreamOpened {
                        stream_id,
                        priority,
                        fin,
                        headers,
                    });
                }
                Frame::SynReply {
                    stream_id,
                    fin,
                    headers,
                } => {
                    if fin {
                        if let Some(st) = self.streams.get_mut(&stream_id) {
                            st.remote_closed = true;
                        }
                        self.gc_stream(stream_id);
                    }
                    events.push(SpdyEvent::Reply {
                        stream_id,
                        fin,
                        headers,
                    });
                }
                Frame::Data {
                    stream_id,
                    fin,
                    payload,
                } => {
                    self.stats.data_bytes_rcvd += payload.len();
                    if let Some(st) = self.streams.get_mut(&stream_id) {
                        if fin {
                            st.remote_closed = true;
                        }
                    }
                    if fin {
                        self.gc_stream(stream_id);
                    }
                    events.push(SpdyEvent::Data {
                        stream_id,
                        payload,
                        fin,
                    });
                }
                Frame::RstStream { stream_id, status } => {
                    self.streams.remove(&stream_id);
                    events.push(SpdyEvent::Reset { stream_id, status });
                }
                Frame::WindowUpdate { stream_id, delta } => {
                    if let Some(st) = self.streams.get_mut(&stream_id) {
                        st.send_window += i64::from(delta);
                        if !st.send_queue.is_empty() || st.fin_pending {
                            let pri = st.priority as usize;
                            if !self.ready[pri].contains(&stream_id) {
                                self.ready[pri].push_back(stream_id);
                            }
                        }
                    }
                }
                Frame::Ping(id) => {
                    // Sessions echo pings from the peer; our own echoes come
                    // back with ids we issued (odd/even split by role).
                    let ours = match self.role {
                        Role::Client => id % 2 == 1,
                        Role::Server => id % 2 == 0,
                    };
                    if !ours {
                        self.queue_control(Frame::Ping(id));
                    }
                    events.push(SpdyEvent::Ping(id));
                }
                Frame::Goaway { .. } => events.push(SpdyEvent::Goaway),
                Frame::Settings(_) => {}
            }
        }
        Ok(events)
    }
}

enum EmitOutcome {
    Frame(Payload, bool),
    Blocked,
    Nothing,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SpdySession, SpdySession) {
        (
            SpdySession::new(Role::Client, SpdyConfig::default()),
            SpdySession::new(Role::Server, SpdyConfig::default()),
        )
    }

    fn pump(from: &mut SpdySession, to: &mut SpdySession) -> Vec<SpdyEvent> {
        let mut events = Vec::new();
        while let Some(wire) = from.poll_wire() {
            events.extend(to.on_bytes(wire).expect("valid frames"));
        }
        events
    }

    fn req_headers(path: &str) -> Vec<(String, String)> {
        vec![
            (":method".into(), "GET".into()),
            (":path".into(), path.into()),
            (":host".into(), "example.com".into()),
        ]
    }

    #[test]
    fn request_reply_data_roundtrip() {
        let (mut c, mut s) = pair();
        let sid = c.open_stream(req_headers("/"), 0, true);
        assert_eq!(sid, 1, "client streams are odd");
        let events = pump(&mut c, &mut s);
        assert!(matches!(
            &events[..],
            [SpdyEvent::StreamOpened {
                stream_id: 1,
                fin: true,
                ..
            }]
        ));
        s.reply(sid, vec![(":status".to_string(), "200".to_string())], false);
        s.send_data(sid, Payload::from(vec![9u8; 10_000]), true);
        let events = pump(&mut s, &mut c);
        let mut data = 0u64;
        let mut fin_seen = false;
        for e in &events {
            if let SpdyEvent::Data { payload, fin, .. } = e {
                data += payload.len();
                fin_seen |= fin;
            }
        }
        assert_eq!(data, 10_000);
        assert!(fin_seen);
    }

    #[test]
    fn data_frames_respect_max_size() {
        let (mut c, mut s) = pair();
        let sid = c.open_stream(req_headers("/"), 0, true);
        pump(&mut c, &mut s);
        s.reply(sid, Headers::new(), false);
        s.send_data(sid, Payload::from(vec![1u8; 20_000]), true);
        let mut frames = 0;
        while let Some(wire) = s.poll_wire() {
            assert!(wire.len() <= 8 + 4096 + 64, "frame size bounded");
            frames += 1;
            c.on_bytes(wire).unwrap();
        }
        assert!(frames >= 5, "20 KB at ≤4 KiB per DATA frame");
    }

    #[test]
    fn synthetic_body_multiplexes_without_materializing() {
        let (mut c, mut s) = pair();
        let sid = c.open_stream(req_headers("/"), 0, true);
        pump(&mut c, &mut s);
        s.reply(sid, Headers::new(), false);
        s.send_data(sid, Payload::synthetic(20_000), true);
        while let Some(wire) = s.poll_wire() {
            for e in c.on_bytes(wire).unwrap() {
                if let SpdyEvent::Data { payload, .. } = e {
                    assert!(
                        payload.chunk_count() <= 1,
                        "DATA bodies stay synthetic end to end"
                    );
                }
            }
        }
    }

    #[test]
    fn priority_zero_preempts_lower() {
        let (mut c, mut s) = pair();
        let low = c.open_stream(req_headers("/img"), 3, true);
        let high = c.open_stream(req_headers("/css"), 0, true);
        pump(&mut c, &mut s);
        // Server queues big low-priority data first, then high.
        s.reply(low, Headers::new(), false);
        s.reply(high, Headers::new(), false);
        s.send_data(low, Payload::from(vec![1u8; 8_000]), true);
        s.send_data(high, Payload::from(vec![2u8; 8_000]), true);
        // Skip the control frames (replies).
        let mut first_data_stream = None;
        while let Some(wire) = s.poll_wire() {
            for e in c.on_bytes(wire).unwrap() {
                if let SpdyEvent::Data { stream_id, .. } = e {
                    if first_data_stream.is_none() {
                        first_data_stream = Some(stream_id);
                    }
                }
            }
        }
        assert_eq!(first_data_stream, Some(high), "priority 0 drains before 3");
    }

    #[test]
    fn round_robin_within_priority() {
        let (mut c, mut s) = pair();
        let a = c.open_stream(req_headers("/a"), 2, true);
        let b = c.open_stream(req_headers("/b"), 2, true);
        pump(&mut c, &mut s);
        s.reply(a, Headers::new(), false);
        s.reply(b, Headers::new(), false);
        s.send_data(a, Payload::from(vec![1u8; 12_000]), true);
        s.send_data(b, Payload::from(vec![2u8; 12_000]), true);
        let mut order = Vec::new();
        while let Some(wire) = s.poll_wire() {
            for e in c.on_bytes(wire).unwrap() {
                if let SpdyEvent::Data { stream_id, .. } = e {
                    order.push(stream_id);
                }
            }
        }
        // Interleaved, not all-of-a-then-all-of-b.
        let first_b = order.iter().position(|&x| x == b).unwrap();
        let last_a = order.iter().rposition(|&x| x == a).unwrap();
        assert!(first_b < last_a, "streams interleave: {order:?}");
    }

    #[test]
    fn flow_control_blocks_and_window_update_unblocks() {
        let small = SpdyConfig {
            initial_window: 4096,
            window_update_threshold: 2048,
            ..SpdyConfig::default()
        };
        let mut c = SpdySession::new(Role::Client, small);
        let mut s = SpdySession::new(Role::Server, small);
        let sid = c.open_stream(req_headers("/"), 0, true);
        pump(&mut c, &mut s);
        s.reply(sid, Headers::new(), false);
        s.send_data(sid, Payload::from(vec![3u8; 10_000]), true);
        // Drain: only 4096 bytes may fly before the window empties.
        let mut delivered = 0u64;
        while let Some(wire) = s.poll_wire() {
            for e in c.on_bytes(wire).unwrap() {
                if let SpdyEvent::Data { payload, .. } = e {
                    delivered += payload.len();
                }
            }
        }
        assert_eq!(delivered, 4096, "window exhausted");
        assert!(s.stats().flow_control_stalls > 0);
        // Client consumes, crossing the update threshold.
        c.consume(sid, 4096);
        let more = pump(&mut c, &mut s); // delivers WINDOW_UPDATE
        assert!(more.is_empty());
        let mut delivered2 = 0u64;
        while let Some(wire) = s.poll_wire() {
            for e in c.on_bytes(wire).unwrap() {
                if let SpdyEvent::Data { payload, .. } = e {
                    delivered2 += payload.len();
                }
            }
        }
        assert!(delivered2 > 0, "window update released more data");
    }

    #[test]
    fn ping_is_echoed_by_peer() {
        let (mut c, mut s) = pair();
        c.ping(1);
        let events = pump(&mut c, &mut s);
        assert_eq!(events, vec![SpdyEvent::Ping(1)]);
        // Server echoes it back automatically.
        let events = pump(&mut s, &mut c);
        assert_eq!(events, vec![SpdyEvent::Ping(1)]);
    }

    #[test]
    fn rst_tears_down_stream() {
        let (mut c, mut s) = pair();
        let sid = c.open_stream(req_headers("/"), 0, false);
        pump(&mut c, &mut s);
        c.rst(sid, 5);
        let events = pump(&mut c, &mut s);
        assert!(
            matches!(events[..], [SpdyEvent::Reset { stream_id, status: 5 }] if stream_id == sid)
        );
    }

    #[test]
    fn many_concurrent_streams() {
        // SPDY's "unlimited concurrent streams" versus HTTP's 6.
        let (mut c, mut s) = pair();
        let ids: Vec<u32> = (0..100)
            .map(|i| c.open_stream(req_headers(&format!("/obj/{i}")), 2, true))
            .collect();
        let events = pump(&mut c, &mut s);
        assert_eq!(events.len(), 100);
        for (i, sid) in ids.iter().enumerate() {
            s.reply(*sid, Headers::new(), false);
            s.send_data(*sid, Payload::from(vec![i as u8; 500]), true);
        }
        let events = pump(&mut s, &mut c);
        let done = events
            .iter()
            .filter(|e| matches!(e, SpdyEvent::Data { fin: true, .. }))
            .count();
        assert_eq!(done, 100);
    }

    #[test]
    fn goaway_event() {
        let (mut c, mut s) = pair();
        c.goaway();
        let events = pump(&mut c, &mut s);
        assert_eq!(events, vec![SpdyEvent::Goaway]);
    }
}
