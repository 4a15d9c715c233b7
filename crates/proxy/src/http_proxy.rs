//! The Squid-like HTTP proxy core.
//!
//! Persistent connections on both sides, **no pipelining** (the paper kept
//! it off because Squid's support was rudimentary): each client connection
//! carries one outstanding request at a time, answered in order.

use crate::record::{FetchId, ProxyObjectRecord};
use spdyier_bytes::Payload;
use spdyier_http::{Request, RequestParser, Response};
use spdyier_sim::SimTime;
use std::collections::{HashMap, VecDeque};

/// Driver-assigned id for a client-side TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientConnId(pub u64);

/// Something the proxy wants the driver to do.
#[derive(Debug)]
pub enum HttpProxyOutput {
    /// Fetch `http://domain/path` from its origin.
    Fetch {
        /// Fetch handle to report results against.
        fetch: FetchId,
        /// Origin request to issue.
        request: Request,
    },
    /// Write bytes to a client connection.
    ToClient {
        /// Destination client connection.
        conn: ClientConnId,
        /// Wire data (an encoded HTTP response).
        bytes: Payload,
        /// The fetch these bytes answer.
        fetch: FetchId,
    },
}

#[derive(Debug)]
struct ClientState {
    parser: RequestParser,
    /// Fetches owed to this connection, in request order.
    order: VecDeque<FetchId>,
}

#[derive(Debug)]
struct FetchState {
    conn: ClientConnId,
    response: Option<Response>,
}

/// The HTTP proxy state machine.
#[derive(Debug, Default)]
pub struct HttpProxyCore {
    clients: HashMap<ClientConnId, ClientState>,
    fetches: HashMap<FetchId, FetchState>,
    records: HashMap<FetchId, ProxyObjectRecord>,
    /// A fetch gets no record (see [`Self::keep_records`]).
    skip_records: bool,
    outputs: VecDeque<HttpProxyOutput>,
    next_fetch: u64,
}

impl HttpProxyCore {
    /// An empty proxy that keeps a record per fetch.
    pub fn new() -> HttpProxyCore {
        HttpProxyCore::default()
    }

    /// Keep a [`ProxyObjectRecord`] per fetch only when `keep`: a run
    /// nothing reads them from skips their two strings per fetch.
    pub fn keep_records(mut self, keep: bool) -> HttpProxyCore {
        self.skip_records = !keep;
        self
    }

    /// A client connection was accepted.
    pub fn on_client_connected(&mut self, conn: ClientConnId) {
        self.clients.insert(
            conn,
            ClientState {
                parser: RequestParser::new(),
                order: VecDeque::new(),
            },
        );
    }

    /// A client connection closed; pending fetches for it are dropped.
    pub fn on_client_closed(&mut self, conn: ClientConnId) {
        if let Some(state) = self.clients.remove(&conn) {
            for fetch in state.order {
                self.fetches.remove(&fetch);
            }
        }
    }

    /// Bytes arrived from a client connection.
    pub fn on_client_bytes(&mut self, conn: ClientConnId, data: Payload, now: SimTime) {
        let Some(state) = self.clients.get_mut(&conn) else {
            return;
        };
        state.parser.push(data);
        while let Ok(Some(req)) = state.parser.next_request() {
            let fetch = FetchId(self.next_fetch);
            self.next_fetch += 1;
            state.order.push_back(fetch);
            self.fetches.insert(
                fetch,
                FetchState {
                    conn,
                    response: None,
                },
            );
            if !self.skip_records {
                self.records.insert(
                    fetch,
                    ProxyObjectRecord::new(fetch, req.host.clone(), req.path.clone(), now),
                );
            }
            self.outputs.push_back(HttpProxyOutput::Fetch {
                fetch,
                request: req,
            });
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

    /// The origin's response completed for `fetch`. Responses flush to the
    /// client strictly in request order per connection.
    pub fn on_fetch_complete(&mut self, fetch: FetchId, response: Response, now: SimTime) {
        if let Some(r) = self.records.get_mut(&fetch) {
            r.origin_done = Some(now);
            if r.origin_first_byte.is_none() {
                r.origin_first_byte = Some(now);
            }
        }
        let Some(state) = self.fetches.get_mut(&fetch) else {
            return;
        };
        state.response = Some(response);
        let conn = state.conn;
        self.flush_conn(conn, now);
    }

    /// The driver observed the client finishing receipt of `fetch`'s bytes.
    pub fn on_client_received(&mut self, fetch: FetchId, now: SimTime) {
        if let Some(r) = self.records.get_mut(&fetch) {
            r.client_done = Some(now);
        }
    }

    /// Drain pending outputs.
    pub fn poll_output(&mut self) -> Option<HttpProxyOutput> {
        self.outputs.pop_front()
    }

    /// Move every object record out, in request order.
    pub fn take_records(&mut self) -> Vec<ProxyObjectRecord> {
        let mut v: Vec<ProxyObjectRecord> = self.records.drain().map(|(_, r)| r).collect();
        v.sort_by_key(|r| r.fetch);
        v
    }

    fn flush_conn(&mut self, conn: ClientConnId, now: SimTime) {
        let Some(state) = self.clients.get_mut(&conn) else {
            return;
        };
        while let Some(&front) = state.order.front() {
            let ready = self
                .fetches
                .get(&front)
                .is_some_and(|f| f.response.is_some());
            if !ready {
                break;
            }
            state.order.pop_front();
            let response = self
                .fetches
                .remove(&front)
                .and_then(|f| f.response)
                .expect("checked ready");
            if let Some(r) = self.records.get_mut(&front) {
                r.queued_to_client = Some(now);
            }
            self.outputs.push_back(HttpProxyOutput::ToClient {
                conn,
                bytes: response.encode(),
                fetch: front,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn fetch_of(out: Option<HttpProxyOutput>) -> (FetchId, Request) {
        match out {
            Some(HttpProxyOutput::Fetch { fetch, request }) => (fetch, request),
            other => panic!("expected Fetch, got {other:?}"),
        }
    }

    #[test]
    fn request_becomes_fetch_then_response_flows_back() {
        let mut p = HttpProxyCore::new();
        let conn = ClientConnId(1);
        p.on_client_connected(conn);
        p.on_client_bytes(conn, Request::get("o.example", "/x").encode(), t(10));
        let (fetch, req) = fetch_of(p.poll_output());
        assert_eq!(req.host, "o.example");
        p.on_fetch_first_byte(fetch, t(24));
        p.on_fetch_complete(fetch, Response::ok(Payload::synthetic(100)), t(28));
        match p.poll_output() {
            Some(HttpProxyOutput::ToClient {
                conn: c,
                bytes,
                fetch: f,
            }) => {
                assert_eq!(c, conn);
                assert_eq!(f, fetch);
                assert!(bytes.len() > 100);
            }
            other => panic!("expected ToClient, got {other:?}"),
        }
        let records = p.take_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].origin_wait().unwrap().as_millis(), 14);
        assert_eq!(records[0].origin_download().unwrap().as_millis(), 4);
    }

    #[test]
    fn responses_stay_in_request_order_per_connection() {
        let mut p = HttpProxyCore::new();
        let conn = ClientConnId(1);
        p.on_client_connected(conn);
        // Two requests on one connection (the driver wouldn't normally do
        // this without pipelining, but order must hold regardless).
        let mut wire = Request::get("a", "/1").encode();
        wire.append(Request::get("a", "/2").encode());
        p.on_client_bytes(conn, wire, t(0));
        let (f1, _) = fetch_of(p.poll_output());
        let (f2, _) = fetch_of(p.poll_output());
        // Second fetch completes first: nothing flushes yet.
        p.on_fetch_complete(f2, Response::ok(Payload::from("b")), t(5));
        assert!(p.poll_output().is_none(), "HOL: waiting for f1");
        p.on_fetch_complete(f1, Response::ok(Payload::from("a")), t(9));
        let first = match p.poll_output() {
            Some(HttpProxyOutput::ToClient { fetch, .. }) => fetch,
            other => panic!("{other:?}"),
        };
        let second = match p.poll_output() {
            Some(HttpProxyOutput::ToClient { fetch, .. }) => fetch,
            other => panic!("{other:?}"),
        };
        assert_eq!((first, second), (f1, f2));
    }

    #[test]
    fn connections_are_independent() {
        let mut p = HttpProxyCore::new();
        p.on_client_connected(ClientConnId(1));
        p.on_client_connected(ClientConnId(2));
        p.on_client_bytes(ClientConnId(1), Request::get("a", "/1").encode(), t(0));
        p.on_client_bytes(ClientConnId(2), Request::get("a", "/2").encode(), t(0));
        let (f1, _) = fetch_of(p.poll_output());
        let (f2, _) = fetch_of(p.poll_output());
        // Conn 2's response is not blocked by conn 1's pending fetch.
        p.on_fetch_complete(f2, Response::ok(Payload::new()), t(5));
        assert!(matches!(
            p.poll_output(),
            Some(HttpProxyOutput::ToClient {
                conn: ClientConnId(2),
                ..
            })
        ));
        let _ = f1;
    }

    #[test]
    fn closed_connection_drops_pending_fetches() {
        let mut p = HttpProxyCore::new();
        let conn = ClientConnId(1);
        p.on_client_connected(conn);
        p.on_client_bytes(conn, Request::get("a", "/1").encode(), t(0));
        let (f, _) = fetch_of(p.poll_output());
        p.on_client_closed(conn);
        p.on_fetch_complete(f, Response::ok(Payload::new()), t(5));
        assert!(p.poll_output().is_none(), "no output for a gone client");
    }

    #[test]
    fn client_done_stamps_record() {
        let mut p = HttpProxyCore::new();
        let conn = ClientConnId(1);
        p.on_client_connected(conn);
        p.on_client_bytes(conn, Request::get("a", "/1").encode(), t(0));
        let (f, _) = fetch_of(p.poll_output());
        p.on_fetch_complete(f, Response::ok(Payload::synthetic(10)), t(5));
        let _ = p.poll_output();
        p.on_client_received(f, t(900));
        let rec = &p.take_records()[0];
        assert_eq!(rec.client_transfer().unwrap().as_millis(), 895);
    }

    #[test]
    fn a_proxy_that_keeps_no_records_still_proxies() {
        let mut p = HttpProxyCore::new().keep_records(false);
        let conn = ClientConnId(1);
        p.on_client_connected(conn);
        p.on_client_bytes(conn, Request::get("a", "/1").encode(), t(0));
        let (f, _) = fetch_of(p.poll_output());
        p.on_fetch_first_byte(f, t(2));
        p.on_fetch_complete(f, Response::ok(Payload::synthetic(10)), t(5));
        assert!(matches!(
            p.poll_output(),
            Some(HttpProxyOutput::ToClient { fetch, .. }) if fetch == f
        ));
        p.on_client_received(f, t(9));
        assert!(p.take_records().is_empty());
    }
}
