//! Persistent-connection state machines over a TCP byte stream.
//!
//! [`HttpClientConn`] enforces HTTP/1.1 ordering: requests on one
//! connection are answered FIFO, and — matching the study's configuration —
//! at most `pipeline_depth` requests may be outstanding (1 unless
//! pipelining is enabled; the paper kept it off because Squid's support was
//! rudimentary).

use crate::codec::{ParseError, RequestParser, ResponseParser};
use crate::message::{Request, Response};
use spdyier_bytes::Payload;
use std::collections::VecDeque;

/// Client side of one persistent connection.
#[derive(Debug)]
pub struct HttpClientConn {
    parser: ResponseParser,
    outstanding: VecDeque<u64>,
    pipeline_depth: usize,
}

impl HttpClientConn {
    /// A connection allowing one outstanding request (no pipelining).
    pub fn new() -> HttpClientConn {
        Self::with_pipelining(1)
    }

    /// A connection allowing up to `depth` outstanding requests.
    pub fn with_pipelining(depth: usize) -> HttpClientConn {
        HttpClientConn {
            parser: ResponseParser::new(),
            outstanding: VecDeque::new(),
            pipeline_depth: depth.max(1),
        }
    }

    /// May another request be issued right now?
    pub fn can_send(&self) -> bool {
        self.outstanding.len() < self.pipeline_depth
    }

    /// Requests in flight on this connection.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Encode and account a request tagged `tag` (the caller writes the
    /// returned rope to its TCP connection).
    pub fn send_request(&mut self, tag: u64, req: &Request) -> Payload {
        assert!(self.can_send(), "pipeline depth exceeded");
        self.outstanding.push_back(tag);
        req.encode()
    }

    /// Feed data read from TCP; returns completed `(tag, response)` pairs
    /// in request order. A pushed response ([`Response::push`]) that
    /// arrives with nothing outstanding is dropped; any other response
    /// without a request is an error.
    pub fn on_bytes(&mut self, data: Payload) -> Result<Vec<(u64, Response)>, ParseError> {
        self.parser.push(data);
        let mut done = Vec::new();
        while let Some(resp) = self.parser.next_response()? {
            match self.outstanding.pop_front() {
                Some(tag) => done.push((tag, resp)),
                None if resp.is_push() => {}
                None => return Err(ParseError("response without a request".into())),
            }
        }
        Ok(done)
    }
}

impl Default for HttpClientConn {
    fn default() -> Self {
        Self::new()
    }
}

/// Server side of one persistent connection.
#[derive(Debug, Default)]
pub struct HttpServerConn {
    parser: RequestParser,
}

impl HttpServerConn {
    /// A fresh server-side connection.
    pub fn new() -> HttpServerConn {
        HttpServerConn::default()
    }

    /// Feed data read from TCP; returns completed requests in order.
    pub fn on_bytes(&mut self, data: Payload) -> Result<Vec<Request>, ParseError> {
        self.parser.push(data);
        let mut out = Vec::new();
        while let Some(req) = self.parser.next_request()? {
            out.push(req);
        }
        Ok(out)
    }

    /// Encode a response for the wire. Responses must be written in the
    /// order their requests arrived (HTTP/1.1 has no other way — the
    /// head-of-line blocking the paper contrasts with SPDY).
    pub fn encode_response(&self, resp: &Response) -> Payload {
        resp.encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_roundtrip() {
        let mut client = HttpClientConn::new();
        let mut server = HttpServerConn::new();
        assert!(client.can_send());
        let wire = client.send_request(7, &Request::get("e.com", "/x"));
        assert!(!client.can_send(), "depth 1: now blocked");
        let reqs = server.on_bytes(wire).unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].path, "/x");
        let resp_wire = server.encode_response(&Response::ok(Payload::synthetic(42)));
        let done = client.on_bytes(resp_wire).unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 7);
        assert_eq!(done[0].1.body.len(), 42);
        assert!(client.can_send(), "slot freed");
    }

    #[test]
    fn pipelining_matches_fifo() {
        let mut client = HttpClientConn::with_pipelining(3);
        let mut server = HttpServerConn::new();
        let mut wire = Payload::new();
        for (tag, path) in [(1, "/a"), (2, "/b"), (3, "/c")] {
            wire.append(client.send_request(tag, &Request::get("e.com", path)));
        }
        assert!(!client.can_send());
        let reqs = server.on_bytes(wire).unwrap();
        assert_eq!(reqs.len(), 3);
        // Server answers in order with distinguishable bodies.
        let mut resp_wire = Payload::new();
        for n in [10u64, 20, 30] {
            resp_wire.append(server.encode_response(&Response::ok(Payload::synthetic(n))));
        }
        let done = client.on_bytes(resp_wire).unwrap();
        let tags: Vec<u64> = done.iter().map(|(t, _)| *t).collect();
        let lens: Vec<u64> = done.iter().map(|(_, r)| r.body.len()).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(lens, vec![10, 20, 30]);
    }

    #[test]
    fn response_without_request_is_an_error() {
        let mut client = HttpClientConn::new();
        let err = client.on_bytes(Response::ok(Payload::new()).encode());
        assert!(err.is_err());
    }

    #[test]
    fn a_push_with_nothing_outstanding_is_dropped() {
        let mut client = HttpClientConn::new();
        let push = Response::push(Payload::synthetic(762));
        assert!(push.is_push());
        assert!(client.on_bytes(push.encode()).unwrap().is_empty());
        // The connection stays usable, and a later answer pairs normally.
        let _ = client.send_request(4, &Request::get("e.com", "/x"));
        let done = client.on_bytes(Response::ok(Payload::synthetic(5)).encode());
        assert_eq!(done.unwrap()[0].0, 4);
    }

    #[test]
    #[should_panic]
    fn overfilling_pipeline_panics() {
        let mut client = HttpClientConn::new();
        let _ = client.send_request(1, &Request::get("a", "/"));
        let _ = client.send_request(2, &Request::get("a", "/"));
    }

    #[test]
    fn fragmented_delivery() {
        let mut client = HttpClientConn::new();
        let mut server = HttpServerConn::new();
        let wire = client.send_request(9, &Request::get("e.com", "/big"));
        server.on_bytes(wire).unwrap();
        let mut resp_wire = server.encode_response(&Response::ok(Payload::synthetic(10_000)));
        let mut got = Vec::new();
        while !resp_wire.is_empty() {
            let chunk = resp_wire.split_to(1380.min(resp_wire.len()));
            got.extend(client.on_bytes(chunk).unwrap());
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.body.len(), 10_000);
    }
}
