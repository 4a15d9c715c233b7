//! HTTP/1.1 message types and wire encoding.
//!
//! Requests use the absolute-URI form (`GET http://host/path HTTP/1.1`)
//! because — exactly as in the paper's testbed — clients talk to a proxy,
//! not to origins directly.
//!
//! Encoding produces [`Payload`] ropes: heads are always real bytes (the
//! control path the parsers inspect), while bodies ride along as whatever
//! chunks they already are — synthetic length-only runs in the common
//! simulated case — without being copied into the head buffer.

use bytes::{BufMut, BytesMut};
use spdyier_bytes::{Headers, Payload};

/// An HTTP request line + headers (bodies are not used by the workload:
/// page loads are GETs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET` throughout the study).
    pub method: String,
    /// Origin host (the `Host` header / authority of the absolute URI).
    pub host: String,
    /// Path on the origin.
    pub path: String,
    /// Additional headers.
    pub headers: Headers,
}

impl Request {
    /// A GET for `http://host/path`.
    pub fn get(host: impl Into<String>, path: impl Into<String>) -> Request {
        Request {
            method: "GET".into(),
            host: host.into(),
            path: path.into(),
            headers: Headers::new(),
        }
    }

    /// Append a header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers = self.headers.with(name, value);
        self
    }

    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    /// Encode in proxy (absolute-URI) form.
    pub fn encode(&self) -> Payload {
        let mut out = BytesMut::with_capacity(256);
        out.put_slice(self.method.as_bytes());
        out.put_slice(b" http://");
        out.put_slice(self.host.as_bytes());
        out.put_slice(self.path.as_bytes());
        out.put_slice(b" HTTP/1.1\r\nHost: ");
        out.put_slice(self.host.as_bytes());
        out.put_slice(b"\r\n");
        put_header_lines(&mut out, &self.headers);
        Payload::real(out.freeze())
    }
}

/// One `name: value` line per header, then the blank line ending a head.
fn put_header_lines(out: &mut BytesMut, headers: &Headers) {
    for (n, v) in headers.iter() {
        out.put_slice(n.as_bytes());
        out.put_slice(b": ");
        out.put_slice(v.as_bytes());
        out.put_slice(b"\r\n");
    }
    out.put_slice(b"\r\n");
}

/// `v` in decimal, without a `String` in between.
fn put_decimal(out: &mut BytesMut, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.put_slice(&digits[at..]);
}

/// The header marking a response the server sent unasked.
const PUSH_HEADER: &str = "X-Pushed";

/// An HTTP response with a `Content-Length`-framed body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200 throughout the study).
    pub status: u16,
    /// Headers excluding `Content-Length` (added at encode time).
    pub headers: Headers,
    /// Response body — a rope; synthetic (length-only) for simulated
    /// objects, real bytes where content matters.
    pub body: Payload,
}

impl Response {
    /// A 200 OK carrying `body`.
    pub fn ok(body: impl Into<Payload>) -> Response {
        Response {
            status: 200,
            headers: Headers::new(),
            body: body.into(),
        }
    }

    /// A 200 OK the server sends unasked (a long-poll completing, §5.7):
    /// it answers no request, so a client with nothing outstanding drops
    /// it ([`HttpClientConn::on_bytes`](crate::HttpClientConn::on_bytes)).
    pub fn push(body: impl Into<Payload>) -> Response {
        Response::ok(body).with_header(PUSH_HEADER, "1")
    }

    /// Whether this response was sent unasked ([`Response::push`]).
    pub fn is_push(&self) -> bool {
        self.header(PUSH_HEADER).is_some()
    }

    /// Append a header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers = self.headers.with(name, value);
        self
    }

    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    /// Wire encoding with `Content-Length` framing: a real head chunk
    /// followed by the body rope (no body copy).
    pub fn encode(&self) -> Payload {
        let mut out = BytesMut::with_capacity(128);
        out.put_slice(b"HTTP/1.1 ");
        put_decimal(&mut out, u64::from(self.status));
        out.put_slice(b" ");
        out.put_slice(reason(self.status).as_bytes());
        out.put_slice(b"\r\nContent-Length: ");
        put_decimal(&mut out, self.body.len());
        out.put_slice(b"\r\n");
        put_header_lines(&mut out, &self.headers);
        let mut wire = Payload::real(out.freeze());
        wire.append(self.body.clone());
        wire
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        404 => "Not Found",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn request_encodes_absolute_form() {
        let r = Request::get("example.com", "/index.html").with_header("Accept", "*/*");
        let wire = r.encode().to_vec();
        let text = std::str::from_utf8(&wire).unwrap();
        assert!(text.starts_with("GET http://example.com/index.html HTTP/1.1\r\n"));
        assert!(text.contains("Host: example.com\r\n"));
        assert!(text.contains("Accept: */*\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn response_encodes_content_length() {
        let r = Response::ok(Payload::real(Bytes::from_static(b"hello")));
        let wire = r.encode().to_vec();
        let text = std::str::from_utf8(&wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn response_encode_keeps_synthetic_body_synthetic() {
        let r = Response::ok(Payload::synthetic(100_000));
        let wire = r.encode();
        assert_eq!(wire.chunk_count(), 2, "real head + untouched body rope");
        assert!(wire.len() > 100_000);
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let r = Request::get("h", "/").with_header("X-Object-Id", "42");
        assert_eq!(r.header("x-object-id"), Some("42"));
        assert_eq!(r.header("missing"), None);
        let resp = Response::ok(Payload::new()).with_header("X-Foo", "bar");
        assert_eq!(resp.header("x-foo"), Some("bar"));
    }

    #[test]
    fn decimals_print_as_to_string_does() {
        for v in [0, 7, 10, 200, 404, 65_535, 1 << 20, u64::MAX] {
            let mut out = BytesMut::new();
            put_decimal(&mut out, v);
            assert_eq!(&out[..], v.to_string().as_bytes());
        }
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(reason(200), "OK");
        assert_eq!(reason(404), "Not Found");
        assert_eq!(reason(999), "Unknown");
    }
}
