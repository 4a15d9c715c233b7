//! A parser is fed whatever TCP hands over, and remembers how far into
//! an incomplete head it has looked. However a stream of messages is cut
//! into pushes — mid-`\r\n\r\n`, a byte at a time, heads and bodies in
//! one piece — it must yield the messages one push of the whole yields.

use proptest::prelude::*;
use spdyier_bytes::Payload;
use spdyier_http::{Request, RequestParser, Response, ResponseParser};

/// Message `i` of a stream: headers that end in `\r`, contain `\r\n`-free
/// near misses of the terminator, or are absent.
fn request(i: usize, shape: u64) -> Request {
    let mut req = Request::get(format!("h{}.example", shape % 3), format!("/obj/{i}"));
    for h in 0..shape % 4 {
        req = req.with_header(
            &format!("X-H{h}"),
            &"v\r".repeat((shape >> 8) as usize % 3 + 1),
        );
    }
    req
}

/// Response `i`: a real body that itself contains head terminators, or
/// a synthetic one, or none.
fn response(i: usize, shape: u64) -> Response {
    let body = match shape % 3 {
        0 => Payload::new(),
        1 => Payload::from(b"\r\n\r\nHTTP/1.1 200 OK\r\n\r\n".repeat(i % 3 + 1)),
        _ => Payload::synthetic(shape >> 16 & 0xFFF),
    };
    Response::ok(body).with_header("X-Obj", &i.to_string())
}

/// Cut `wire` at the given strides (cycled), hand each piece to `push`
/// and collect what `drain` yields after every one.
fn feed<T>(
    mut wire: Payload,
    strides: &[u64],
    mut push: impl FnMut(Payload),
    mut drain: impl FnMut() -> Vec<T>,
) -> Vec<T> {
    let mut out = Vec::new();
    for &stride in strides.iter().cycle() {
        if wire.is_empty() {
            break;
        }
        push(wire.split_to(stride.min(wire.len())));
        out.extend(drain());
    }
    out
}

fn requests(wire: Payload, strides: &[u64]) -> Vec<Request> {
    let parser = std::cell::RefCell::new(RequestParser::new());
    feed(
        wire,
        strides,
        |piece| parser.borrow_mut().push(piece),
        || {
            let mut parser = parser.borrow_mut();
            std::iter::from_fn(|| parser.next_request().expect("own encoding parses")).collect()
        },
    )
}

fn responses(wire: Payload, strides: &[u64]) -> Vec<Response> {
    let parser = std::cell::RefCell::new(ResponseParser::new());
    let got = feed(
        wire,
        strides,
        |piece| parser.borrow_mut().push(piece),
        || {
            let mut parser = parser.borrow_mut();
            std::iter::from_fn(|| parser.next_response().expect("own encoding parses")).collect()
        },
    );
    assert_eq!(parser.borrow().buffered(), 0, "nothing left over");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_split_of_a_request_stream_parses_alike(
        shapes in prop::collection::vec(any::<u64>(), 1..8),
        strides in prop::collection::vec(1u64..200, 1..12),
    ) {
        let mut wire = Payload::new();
        for (i, &shape) in shapes.iter().enumerate() {
            wire.append(request(i, shape).encode());
        }
        let whole = requests(wire.clone(), &[u64::MAX]);
        prop_assert_eq!(whole.len(), shapes.len());
        prop_assert_eq!(requests(wire, &strides), whole);
    }

    #[test]
    fn any_split_of_a_response_stream_parses_alike(
        shapes in prop::collection::vec(any::<u64>(), 1..8),
        strides in prop::collection::vec(1u64..200, 1..12),
    ) {
        let mut wire = Payload::new();
        for (i, &shape) in shapes.iter().enumerate() {
            wire.append(response(i, shape).encode());
        }
        let whole = responses(wire.clone(), &[u64::MAX]);
        prop_assert_eq!(whole.len(), shapes.len());
        prop_assert_eq!(responses(wire, &strides), whole);
    }
}
