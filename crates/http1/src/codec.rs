//! Incremental HTTP/1.1 parsers.
//!
//! Bytes arrive from TCP in arbitrary chunks; these parsers buffer until a
//! complete head (`\r\n\r\n`) and `Content-Length` body are available, then
//! yield whole messages.
//!
//! The buffer is a [`Payload`] rope. Heads are real bytes and small: the
//! scan for `\r\n\r\n` walks real chunks and the head is materialized once
//! for parsing (the control path). Bodies are never inspected — they are
//! consumed by `Content-Length` with an O(1) rope split, so synthetic
//! (length-only) bodies flow through without a single byte copied.

use crate::message::{Request, Response};
use spdyier_bytes::{Chunk, Headers, HeadersBuilder, Payload};

/// Error raised on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HTTP parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Where the search for the end of a head (`\r\n\r\n`) stands. A head
/// arrives over several reads and the parser is asked after each one;
/// keeping the position means every buffered byte is looked at once.
#[derive(Debug, Default)]
struct HeadScan {
    /// Bytes of the buffer already matched against.
    scanned: u64,
    /// How many bytes of `\r\n\r\n` the last `scanned` bytes end with.
    matched: u8,
}

impl HeadScan {
    /// Resume the search over `buf`; `Some(end)` (inclusive of the
    /// `\r\n\r\n`) resets the scan for the next head. A head never
    /// extends into synthetic data (synthetic bytes are zeros), so the
    /// scan waits at the first synthetic chunk.
    fn find_head_end(&mut self, buf: &Payload) -> Option<u64> {
        let mut skip = self.scanned;
        for chunk in buf.chunks() {
            let bytes = match chunk {
                Chunk::Real(b) => &b[..],
                Chunk::Synthetic(_) => return None,
            };
            if skip >= bytes.len() as u64 {
                skip -= bytes.len() as u64;
                continue;
            }
            let mut rest = &bytes[skip as usize..];
            while let Some((&c, tail)) = rest.split_first() {
                if self.matched == 0 && c != b'\r' {
                    // With nothing matched, only a `\r` changes anything:
                    // step over the run of text before the next one.
                    let run = tail.iter().position(|&c| c == b'\r').unwrap_or(tail.len());
                    self.scanned += 1 + run as u64;
                    rest = &tail[run..];
                    continue;
                }
                self.matched = match (self.matched, c) {
                    (1, b'\n') => 2,
                    (2, b'\r') => 3,
                    (3, b'\n') => 4,
                    (_, b'\r') => 1,
                    _ => 0,
                };
                self.scanned += 1;
                rest = tail;
                if self.matched == 4 {
                    return Some(std::mem::take(self).scanned);
                }
            }
            skip = 0;
        }
        None
    }
}

/// A parsed head: the start line, the headers other than `lifted`, and
/// the first `lifted` header's value.
type HeadParts<'a> = (&'a str, Headers, Option<&'a str>);

/// Split a head into its start line and its headers, names and values
/// trimmed, written straight into one [`Headers`] block. The header named
/// `lifted` (any case, every occurrence) is the codec's own — `Host`,
/// `Content-Length` — and is returned beside the block, not in it.
fn split_headers<'a>(head: &'a str, lifted: &str) -> Result<HeadParts<'a>, ParseError> {
    let mut lines = head.split("\r\n");
    let start = lines
        .next()
        .ok_or_else(|| ParseError("empty head".into()))?;
    // A trimmed pair costs 8 bytes of lengths where its line spent 4 on
    // `: ` and `\r\n`: room for a dozen headers before the block grows.
    let mut headers = HeadersBuilder::with_capacity(head.len() + 64);
    let mut first_lifted = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError(format!("bad header line: {line}")))?;
        let (name, value) = (name.trim(), value.trim());
        if !name.eq_ignore_ascii_case(lifted) {
            headers.push(name, value);
        } else if first_lifted.is_none() {
            first_lifted = Some(value);
        }
    }
    Ok((start, headers.finish(), first_lifted))
}

/// Split the head off the rope and materialize it (minus the trailing
/// `\r\n\r\n`) for string parsing — the one deliberate copy on the
/// control path.
fn take_head(buf: &mut Payload, head_end: u64) -> Result<String, ParseError> {
    let mut head = buf.split_to(head_end).to_vec();
    head.truncate(head.len() - 4);
    String::from_utf8(head).map_err(|_| ParseError("non-UTF8 head".into()))
}

/// The start line's space-separated tokens, as error messages show them.
fn tokens(start: &str) -> Vec<&str> {
    start.split(' ').collect()
}

/// Incremental parser for a stream of requests (server side).
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Payload,
    scan: HeadScan,
}

impl RequestParser {
    /// A parser with an empty buffer.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Feed newly received data (chunks are adopted, not copied).
    pub fn push(&mut self, data: Payload) {
        self.buf.append(data);
    }

    /// Extract the next complete request, if buffered.
    pub fn next_request(&mut self) -> Result<Option<Request>, ParseError> {
        let Some(head_end) = self.scan.find_head_end(&self.buf) else {
            return Ok(None);
        };
        let head_str = take_head(&mut self.buf, head_end)?;
        let (start, headers, host_header) = split_headers(&head_str, "host")?;
        let mut parts = start.split(' ');
        let (Some(method), Some(target), Some(_version), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(ParseError(format!("bad request line: {:?}", tokens(start))));
        };
        // Absolute-form (proxy) or origin-form.
        let (host, path) = if let Some(rest) = target.strip_prefix("http://") {
            match rest.find('/') {
                Some(idx) => (&rest[..idx], &rest[idx..]),
                None => (rest, "/"),
            }
        } else {
            (host_header.unwrap_or_default(), target)
        };
        Ok(Some(Request {
            method: method.to_owned(),
            host: host.to_owned(),
            path: path.to_owned(),
            headers,
        }))
    }
}

/// Incremental parser for a stream of responses (client side).
#[derive(Debug, Default)]
pub struct ResponseParser {
    buf: Payload,
    scan: HeadScan,
    /// Set once a head has been parsed; `(response-so-far, body_len)`.
    pending: Option<(Response, u64)>,
}

impl ResponseParser {
    /// A parser with an empty buffer.
    pub fn new() -> ResponseParser {
        ResponseParser::default()
    }

    /// Feed newly received data (chunks are adopted, not copied).
    pub fn push(&mut self, data: Payload) {
        self.buf.append(data);
    }

    /// Bytes buffered but not yet consumed into a message.
    pub fn buffered(&self) -> u64 {
        self.buf.len()
    }

    /// Extract the next complete response, if buffered.
    pub fn next_response(&mut self) -> Result<Option<Response>, ParseError> {
        if self.pending.is_none() {
            let Some(head_end) = self.scan.find_head_end(&self.buf) else {
                return Ok(None);
            };
            let head_str = take_head(&mut self.buf, head_end)?;
            let (start, headers, content_length) = split_headers(&head_str, "content-length")?;
            let Some(status) = start.split(' ').nth(1) else {
                return Err(ParseError(format!("bad status line: {:?}", tokens(start))));
            };
            let status: u16 = status
                .parse()
                .map_err(|_| ParseError(format!("bad status: {status}")))?;
            let body_len: u64 = content_length
                .map(|v| {
                    v.parse()
                        .map_err(|_| ParseError("bad content-length".into()))
                })
                .transpose()?
                .unwrap_or(0);
            self.pending = Some((
                Response {
                    status,
                    headers,
                    body: Payload::new(),
                },
                body_len,
            ));
        }
        let (_, body_len) = self.pending.as_ref().expect("set above");
        if self.buf.len() < *body_len {
            return Ok(None);
        }
        let (mut resp, body_len) = self.pending.take().expect("checked");
        resp.body = self.buf.split_to(body_len);
        Ok(Some(resp))
    }

    /// True while a head has been parsed but its body is still arriving —
    /// lets a client observe first-byte timing.
    pub fn in_progress(&self) -> bool {
        self.pending.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Request, Response};
    use bytes::Bytes;

    fn real(data: &'static [u8]) -> Payload {
        Payload::real(Bytes::from_static(data))
    }

    #[test]
    fn request_roundtrip() {
        let req = Request::get("example.com", "/a/b?c=1").with_header("X-Id", "7");
        let wire = req.encode();
        let mut p = RequestParser::new();
        p.push(wire);
        let got = p.next_request().unwrap().expect("complete");
        assert_eq!(got.method, "GET");
        assert_eq!(got.host, "example.com");
        assert_eq!(got.path, "/a/b?c=1");
        assert_eq!(got.header("X-Id"), Some("7"));
        assert!(p.next_request().unwrap().is_none());
    }

    #[test]
    fn request_split_across_chunks() {
        let wire = Request::get("h.example", "/x").encode().to_vec();
        let mut p = RequestParser::new();
        for b in wire.chunks(3) {
            p.push(Payload::from(b.to_vec()));
        }
        let got = p.next_request().unwrap().expect("complete");
        assert_eq!(got.host, "h.example");
    }

    #[test]
    fn multiple_pipelined_requests() {
        let mut p = RequestParser::new();
        p.push(Request::get("a", "/1").encode());
        p.push(Request::get("b", "/2").encode());
        assert_eq!(p.next_request().unwrap().unwrap().path, "/1");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/2");
        assert!(p.next_request().unwrap().is_none());
    }

    #[test]
    fn origin_form_uses_host_header() {
        let mut p = RequestParser::new();
        p.push(real(b"GET /path HTTP/1.1\r\nHost: o.example\r\n\r\n"));
        let got = p.next_request().unwrap().unwrap();
        assert_eq!(got.host, "o.example");
        assert_eq!(got.path, "/path");
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok(Payload::from(vec![7u8; 5000])).with_header("X-Obj", "3");
        let wire = resp.encode();
        let mut p = ResponseParser::new();
        p.push(wire);
        let got = p.next_response().unwrap().expect("complete");
        assert_eq!(got.status, 200);
        assert_eq!(got.body.len(), 5000);
        assert_eq!(got.header("X-Obj"), Some("3"));
    }

    #[test]
    fn synthetic_body_passes_through_without_materializing() {
        let resp = Response::ok(Payload::synthetic(1 << 20));
        let mut p = ResponseParser::new();
        p.push(resp.encode());
        let got = p.next_response().unwrap().expect("complete");
        assert_eq!(got.body.len(), 1 << 20);
        assert_eq!(got.body.chunk_count(), 1, "body stayed one synthetic run");
    }

    #[test]
    fn response_body_arrives_incrementally() {
        let resp = Response::ok(Payload::from(vec![1u8; 100]));
        let mut wire = resp.encode();
        let tail = wire.split_to(wire.len() - 40);
        // `tail` is the first part; `wire` now holds the last 40 bytes.
        let mut p = ResponseParser::new();
        p.push(tail);
        assert!(p.next_response().unwrap().is_none(), "body incomplete");
        assert!(p.in_progress(), "head parsed");
        p.push(wire);
        let got = p.next_response().unwrap().expect("now complete");
        assert_eq!(got.body.len(), 100);
        assert!(!p.in_progress());
    }

    #[test]
    fn back_to_back_responses() {
        let mut p = ResponseParser::new();
        p.push(Response::ok(Payload::from(vec![1u8; 10])).encode());
        p.push(Response::ok(Payload::from(vec![2u8; 20])).encode());
        assert_eq!(p.next_response().unwrap().unwrap().body.len(), 10);
        assert_eq!(p.next_response().unwrap().unwrap().body.len(), 20);
        assert!(p.next_response().unwrap().is_none());
    }

    #[test]
    fn empty_body_response() {
        let mut p = ResponseParser::new();
        p.push(real(
            b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n",
        ));
        let got = p.next_response().unwrap().unwrap();
        assert_eq!(got.status, 204);
        assert!(got.body.is_empty());
    }

    #[test]
    fn malformed_status_is_an_error() {
        let mut p = ResponseParser::new();
        p.push(real(b"HTTP/1.1 abc OK\r\n\r\n"));
        assert!(p.next_response().is_err());
    }

    #[test]
    fn malformed_header_is_an_error() {
        let mut p = RequestParser::new();
        p.push(real(b"GET / HTTP/1.1\r\nbad header line\r\n\r\n"));
        assert!(p.next_request().is_err());
    }

    #[test]
    fn head_end_scan_stops_at_synthetic_data() {
        let mut buf = Payload::synthetic(100);
        buf.push_bytes(Bytes::from_static(b"\r\n\r\n"));
        assert_eq!(HeadScan::default().find_head_end(&buf), None);
    }

    #[test]
    fn head_end_scan_spans_chunk_boundaries() {
        let mut buf = Payload::from("HTTP/1.1 200 OK\r\n");
        buf.push_bytes(Bytes::from_static(b"\r"));
        buf.push_bytes(Bytes::from_static(b"\nrest"));
        assert_eq!(HeadScan::default().find_head_end(&buf), Some(19));
    }
}
