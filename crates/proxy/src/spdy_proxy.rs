//! The SPDY proxy core (the Chromium-tree SPDY server the paper deployed,
//! extended for proxying).
//!
//! One SPDY session per client TCP connection; every request stream maps to
//! an origin fetch; responses multiplex back over the single connection
//! with SPDY priorities deciding who drains first. §5.3's observation —
//! responses queue *at the proxy* because the client link is the
//! bottleneck — emerges from exactly this structure.

use crate::record::{FetchId, ProxyObjectRecord};
use spdyier_bytes::{Headers, Payload};
use spdyier_http::{Request, Response};
use spdyier_sim::SimTime;
use spdyier_spdy::{Role, SpdyConfig, SpdyEvent, SpdySession};
use std::collections::{HashMap, VecDeque};

/// Driver actions requested by the SPDY proxy.
#[derive(Debug)]
pub enum SpdyProxyOutput {
    /// Fetch an object from its origin.
    Fetch {
        /// Fetch handle.
        fetch: FetchId,
        /// Origin request.
        request: Request,
    },
}

/// The SPDY proxy core for one client session.
#[derive(Debug)]
pub struct SpdyProxyCore {
    session: SpdySession,
    stream_of: HashMap<FetchId, u32>,
    records: HashMap<FetchId, ProxyObjectRecord>,
    /// A fetch gets no record (see [`Self::keep_records`]).
    skip_records: bool,
    outputs: VecDeque<SpdyProxyOutput>,
    next_fetch: u64,
    /// Ping ids seen (for the Fig. 14 keepalive experiment).
    pings_seen: u64,
}

impl SpdyProxyCore {
    /// A proxy endpoint for one freshly accepted client session.
    pub fn new(cfg: SpdyConfig) -> SpdyProxyCore {
        SpdyProxyCore {
            session: SpdySession::new(Role::Server, cfg),
            stream_of: HashMap::new(),
            records: HashMap::new(),
            skip_records: false,
            outputs: VecDeque::new(),
            next_fetch: 0,
            pings_seen: 0,
        }
    }

    /// Build with a fetch-id offset so several sessions (the §6.1
    /// multi-connection variant) can share one fetch-id space.
    pub fn with_fetch_offset(cfg: SpdyConfig, offset: u64) -> SpdyProxyCore {
        let mut p = Self::new(cfg);
        p.next_fetch = offset;
        p
    }

    /// Keep a [`ProxyObjectRecord`] per fetch only when `keep`: a run
    /// nothing reads them from skips their two strings per fetch.
    pub fn keep_records(mut self, keep: bool) -> SpdyProxyCore {
        self.skip_records = !keep;
        self
    }

    /// The underlying session (stats, compression counters).
    pub fn session(&self) -> &SpdySession {
        &self.session
    }

    /// PINGs received from the client.
    pub fn pings_seen(&self) -> u64 {
        self.pings_seen
    }

    /// Bytes arrived from the client connection.
    pub fn on_client_bytes(&mut self, data: Payload, now: SimTime) {
        let events = match self.session.on_bytes(data) {
            Ok(ev) => ev,
            Err(e) => {
                debug_assert!(false, "proxy session frame error: {e}");
                return;
            }
        };
        for ev in events {
            match ev {
                SpdyEvent::StreamOpened {
                    stream_id, headers, ..
                } => {
                    let get = |k: &str| headers.get(k).unwrap_or_default().to_owned();
                    let host = get(":host");
                    let path = get(":path");
                    let fetch = FetchId(self.next_fetch);
                    self.next_fetch += 1;
                    self.stream_of.insert(fetch, stream_id);
                    if !self.skip_records {
                        self.records.insert(
                            fetch,
                            ProxyObjectRecord::new(fetch, host.clone(), path.clone(), now),
                        );
                    }
                    self.outputs.push_back(SpdyProxyOutput::Fetch {
                        fetch,
                        request: Request::get(host, path),
                    });
                }
                SpdyEvent::Ping(_) => {
                    self.pings_seen += 1;
                    // The session echoes automatically.
                }
                SpdyEvent::Data { .. }
                | SpdyEvent::Reply { .. }
                | SpdyEvent::Reset { .. }
                | SpdyEvent::Goaway => {}
            }
        }
    }

    /// The origin's first byte arrived for `fetch`.
    pub fn on_fetch_first_byte(&mut self, fetch: FetchId, now: SimTime) {
        if let Some(r) = self.records.get_mut(&fetch) {
            if r.origin_first_byte.is_none() {
                r.origin_first_byte = Some(now);
            }
        }
    }

    /// The origin's response completed: reply on the stream and queue the
    /// body (the session's priority scheduler decides drain order).
    pub fn on_fetch_complete(&mut self, fetch: FetchId, response: Response, now: SimTime) {
        if let Some(r) = self.records.get_mut(&fetch) {
            r.origin_done = Some(now);
            if r.origin_first_byte.is_none() {
                r.origin_first_byte = Some(now);
            }
            r.queued_to_client = Some(now);
        }
        let Some(&stream_id) = self.stream_of.get(&fetch) else {
            return;
        };
        let status = response.status.to_string();
        let headers =
            Headers::from_pairs(&[(":status", status.as_str()), (":version", "HTTP/1.1")]);
        if response.body.is_empty() {
            self.session.reply(stream_id, headers, true);
        } else {
            self.session.reply(stream_id, headers, false);
            self.session.send_data(stream_id, response.body, true);
        }
    }

    /// The driver observed the client finishing receipt of `fetch`.
    pub fn on_client_received(&mut self, fetch: FetchId, now: SimTime) {
        if let Some(r) = self.records.get_mut(&fetch) {
            r.client_done = Some(now);
        }
    }

    /// Flow-control credit from the client side is handled inside the
    /// session via `on_client_bytes`; this exposes pending wire bytes.
    pub fn poll_wire(&mut self) -> Option<Payload> {
        self.session.poll_wire()
    }

    /// Server-initiated data (SPDY server push): ad refreshes, analytics
    /// long-polls — the periodic site traffic of the paper's §5.7 that
    /// wakes an idle radio *from the proxy side*.
    pub fn push_data(&mut self, path: &str, body: Payload) -> u32 {
        let headers =
            Headers::from_pairs(&[(":status", "200"), (":path", path), ("x-pushed", "1")]);
        self.push_with_headers(headers, body, 4)
    }

    /// Open a server-initiated stream with arbitrary headers and send
    /// `body` on it (the §6.1 late-binding delivery vehicle).
    pub fn push_with_headers(
        &mut self,
        headers: impl Into<Headers>,
        body: Payload,
        priority: u8,
    ) -> u32 {
        let stream_id = self.session.open_stream(headers, priority, false);
        self.session.send_data(stream_id, body, true);
        stream_id
    }

    /// Stamp a fetch's completion instants *without* sending anything —
    /// used when a different session (late binding) carries the response.
    pub fn stamp_complete(&mut self, fetch: FetchId, now: SimTime) {
        if let Some(r) = self.records.get_mut(&fetch) {
            r.origin_done = Some(now);
            if r.origin_first_byte.is_none() {
                r.origin_first_byte = Some(now);
            }
            r.queued_to_client = Some(now);
        }
    }

    /// Drain pending fetch intents.
    pub fn poll_output(&mut self) -> Option<SpdyProxyOutput> {
        self.outputs.pop_front()
    }

    /// Stream id serving `fetch`.
    pub fn stream_of(&self, fetch: FetchId) -> Option<u32> {
        self.stream_of.get(&fetch).copied()
    }

    /// Fetch served on `stream_id` (reverse lookup).
    pub fn fetch_for_stream(&self, stream_id: u32) -> Option<FetchId> {
        self.stream_of
            .iter()
            .find(|(_, &s)| s == stream_id)
            .map(|(&f, _)| f)
    }

    /// Move every object record out, in fetch order.
    pub fn take_records(&mut self) -> Vec<ProxyObjectRecord> {
        let mut v: Vec<ProxyObjectRecord> = self.records.drain().map(|(_, r)| r).collect();
        v.sort_by_key(|r| r.fetch);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_spdy::{Role, SpdySession};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn client_and_proxy() -> (SpdySession, SpdyProxyCore) {
        (
            SpdySession::new(Role::Client, SpdyConfig::default()),
            SpdyProxyCore::new(SpdyConfig::default()),
        )
    }

    fn open_request(
        client: &mut SpdySession,
        proxy: &mut SpdyProxyCore,
        host: &str,
        path: &str,
        pri: u8,
    ) -> u32 {
        let sid = client.open_stream(
            vec![
                (":method".to_string(), "GET".to_string()),
                (":host".to_string(), host.to_string()),
                (":path".to_string(), path.to_string()),
            ],
            pri,
            true,
        );
        while let Some(wire) = client.poll_wire() {
            proxy.on_client_bytes(wire, t(0));
        }
        sid
    }

    #[test]
    fn stream_becomes_fetch_and_response_returns() {
        let (mut client, mut proxy) = client_and_proxy();
        let sid = open_request(&mut client, &mut proxy, "o.example", "/img.png", 3);
        let fetch = match proxy.poll_output() {
            Some(SpdyProxyOutput::Fetch { fetch, request }) => {
                assert_eq!(request.host, "o.example");
                assert_eq!(request.path, "/img.png");
                fetch
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(proxy.stream_of(fetch), Some(sid));
        proxy.on_fetch_first_byte(fetch, t(14));
        proxy.on_fetch_complete(fetch, Response::ok(Payload::synthetic(9_000)), t(18));
        // Drain proxy wire to client; count delivered payload.
        let mut body = 0u64;
        let mut replied = false;
        while let Some(wire) = proxy.poll_wire() {
            for ev in client.on_bytes(wire).unwrap() {
                match ev {
                    SpdyEvent::Reply { stream_id, .. } => {
                        assert_eq!(stream_id, sid);
                        replied = true;
                    }
                    SpdyEvent::Data { payload, .. } => body += payload.len(),
                    _ => {}
                }
            }
        }
        assert!(replied);
        assert_eq!(body, 9_000);
        let rec = &proxy.take_records()[0];
        assert_eq!(rec.origin_wait().unwrap().as_millis(), 14);
    }

    #[test]
    fn high_priority_response_drains_first() {
        let (mut client, mut proxy) = client_and_proxy();
        let low = open_request(&mut client, &mut proxy, "o", "/img", 3);
        let high = open_request(&mut client, &mut proxy, "o", "/css", 0);
        let f_low = match proxy.poll_output() {
            Some(SpdyProxyOutput::Fetch { fetch, .. }) => fetch,
            _ => panic!(),
        };
        let f_high = match proxy.poll_output() {
            Some(SpdyProxyOutput::Fetch { fetch, .. }) => fetch,
            _ => panic!(),
        };
        // Low-priority response ready first.
        proxy.on_fetch_complete(f_low, Response::ok(Payload::synthetic(30_000)), t(5));
        proxy.on_fetch_complete(f_high, Response::ok(Payload::synthetic(30_000)), t(6));
        let mut finish_order = Vec::new();
        while let Some(wire) = proxy.poll_wire() {
            for ev in client.on_bytes(wire).unwrap() {
                if let SpdyEvent::Data {
                    stream_id,
                    fin: true,
                    ..
                } = ev
                {
                    finish_order.push(stream_id);
                }
            }
        }
        assert_eq!(
            finish_order,
            vec![high, low],
            "CSS beats image despite arriving later"
        );
    }

    #[test]
    fn empty_body_closes_with_reply() {
        let (mut client, mut proxy) = client_and_proxy();
        let sid = open_request(&mut client, &mut proxy, "o", "/204", 1);
        let fetch = match proxy.poll_output() {
            Some(SpdyProxyOutput::Fetch { fetch, .. }) => fetch,
            _ => panic!(),
        };
        proxy.on_fetch_complete(
            fetch,
            Response {
                status: 204,
                headers: Headers::new(),
                body: Payload::new(),
            },
            t(5),
        );
        let mut got_fin_reply = false;
        while let Some(wire) = proxy.poll_wire() {
            for ev in client.on_bytes(wire).unwrap() {
                if let SpdyEvent::Reply {
                    stream_id,
                    fin: true,
                    headers,
                } = ev
                {
                    assert_eq!(stream_id, sid);
                    assert_eq!(headers.get(":status"), Some("204"));
                    got_fin_reply = true;
                }
            }
        }
        assert!(got_fin_reply);
    }

    #[test]
    fn pings_are_counted_and_echoed() {
        let (mut client, mut proxy) = client_and_proxy();
        client.ping(1);
        while let Some(wire) = client.poll_wire() {
            proxy.on_client_bytes(wire, t(0));
        }
        assert_eq!(proxy.pings_seen(), 1);
        let mut echoed = false;
        while let Some(wire) = proxy.poll_wire() {
            for ev in client.on_bytes(wire).unwrap() {
                if matches!(ev, SpdyEvent::Ping(1)) {
                    echoed = true;
                }
            }
        }
        assert!(echoed);
    }

    #[test]
    fn push_data_opens_even_stream_and_delivers() {
        let (mut client, mut proxy) = client_and_proxy();
        let sid = proxy.push_data("/refresh", Payload::synthetic(3_000));
        assert_eq!(sid % 2, 0, "server-initiated streams are even");
        let mut opened = false;
        let mut bytes = 0u64;
        while let Some(wire) = proxy.poll_wire() {
            for ev in client.on_bytes(wire).unwrap() {
                match ev {
                    SpdyEvent::StreamOpened {
                        stream_id, headers, ..
                    } => {
                        assert_eq!(stream_id, sid);
                        assert_eq!(headers.get("x-pushed"), Some("1"));
                        opened = true;
                    }
                    SpdyEvent::Data { payload, .. } => bytes += payload.len(),
                    _ => {}
                }
            }
        }
        assert!(opened);
        assert_eq!(bytes, 3_000);
    }

    #[test]
    fn push_with_headers_carries_tags() {
        let (mut client, mut proxy) = client_and_proxy();
        let headers = vec![
            (":status".to_string(), "200".to_string()),
            ("x-late-gen".to_string(), "3".to_string()),
            ("x-late-tag".to_string(), "17".to_string()),
        ];
        proxy.push_with_headers(headers, Payload::from("body"), 2);
        let mut seen = false;
        while let Some(wire) = proxy.poll_wire() {
            for ev in client.on_bytes(wire).unwrap() {
                if let SpdyEvent::StreamOpened { headers, .. } = ev {
                    assert_eq!(headers.get("x-late-gen"), Some("3"));
                    assert_eq!(headers.get("x-late-tag"), Some("17"));
                    seen = true;
                }
            }
        }
        assert!(seen);
    }

    #[test]
    fn stamp_complete_fills_record_without_wire_output() {
        let (mut client, mut proxy) = client_and_proxy();
        open_request(&mut client, &mut proxy, "o", "/x", 1);
        let fetch = match proxy.poll_output() {
            Some(SpdyProxyOutput::Fetch { fetch, .. }) => fetch,
            _ => panic!(),
        };
        proxy.stamp_complete(fetch, t(25));
        assert!(proxy.poll_wire().is_none(), "stamping sends nothing");
        let rec = &proxy.take_records()[0];
        assert_eq!(rec.origin_done, Some(t(25)));
        assert_eq!(rec.queued_to_client, Some(t(25)));
    }

    #[test]
    fn a_proxy_that_keeps_no_records_still_fetches() {
        let mut client = SpdySession::new(Role::Client, SpdyConfig::default());
        let mut proxy = SpdyProxyCore::new(SpdyConfig::default()).keep_records(false);
        open_request(&mut client, &mut proxy, "o", "/x", 1);
        let fetch = match proxy.poll_output() {
            Some(SpdyProxyOutput::Fetch { fetch, request }) => {
                assert_eq!((request.host.as_str(), request.path.as_str()), ("o", "/x"));
                fetch
            }
            other => panic!("{other:?}"),
        };
        proxy.on_fetch_complete(fetch, Response::ok(Payload::synthetic(10)), t(5));
        proxy.on_client_received(fetch, t(9));
        assert!(proxy.poll_wire().is_some(), "the response still goes out");
        assert!(proxy.take_records().is_empty());
    }

    #[test]
    fn fetch_for_stream_reverse_lookup() {
        let (mut client, mut proxy) = client_and_proxy();
        let sid = open_request(&mut client, &mut proxy, "o", "/x", 1);
        let fetch = match proxy.poll_output() {
            Some(SpdyProxyOutput::Fetch { fetch, .. }) => fetch,
            _ => panic!(),
        };
        assert_eq!(proxy.fetch_for_stream(sid), Some(fetch));
        assert_eq!(proxy.fetch_for_stream(9999), None);
    }

    #[test]
    fn fetch_offset_separates_id_spaces() {
        let a = SpdyProxyCore::with_fetch_offset(SpdyConfig::default(), 0);
        let b = SpdyProxyCore::with_fetch_offset(SpdyConfig::default(), 1_000_000);
        let mut client_a = SpdySession::new(Role::Client, SpdyConfig::default());
        let mut client_b = SpdySession::new(Role::Client, SpdyConfig::default());
        let mut a = a;
        let mut b = b;
        open_request(&mut client_a, &mut a, "o", "/1", 1);
        open_request(&mut client_b, &mut b, "o", "/2", 1);
        let fa = match a.poll_output() {
            Some(SpdyProxyOutput::Fetch { fetch, .. }) => fetch,
            _ => panic!(),
        };
        let fb = match b.poll_output() {
            Some(SpdyProxyOutput::Fetch { fetch, .. }) => fetch,
            _ => panic!(),
        };
        assert_ne!(fa, fb, "sessions never collide on fetch ids");
        assert_eq!(fb.0, 1_000_000);
    }

    #[test]
    fn many_streams_share_the_fetch_space() {
        let (mut client, mut proxy) = client_and_proxy();
        for i in 0..50 {
            open_request(&mut client, &mut proxy, "o", &format!("/{i}"), 2);
        }
        let mut fetches = Vec::new();
        while let Some(SpdyProxyOutput::Fetch { fetch, .. }) = proxy.poll_output() {
            fetches.push(fetch);
        }
        assert_eq!(fetches.len(), 50);
        assert_eq!(proxy.take_records().len(), 50);
        assert!(proxy.take_records().is_empty(), "taken once");
    }
}
