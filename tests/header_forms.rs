//! One header list, every form it takes: string pairs, a [`Headers`]
//! block, an HTTP/1 head, a compressed SPDY block. Order, duplicates,
//! empty values and name case must survive each crossing, and a block
//! from a peer that is cut short or not UTF-8 must be refused with the
//! framing layer's errors.

use bytes::Bytes;
use proptest::prelude::*;
use spdyier::http::{Request, RequestParser, Response, ResponseParser};
use spdyier::payload::{Headers, HeadersError, Payload};
use spdyier::spdy::{Compressor, Decompressor, Frame, FrameParser};

/// Few letters in both cases: names collide, exactly and by case.
const NAME_ALPHABET: &[u8] = b"abAB-x";
/// What header values are made of, colons and inner spaces included.
const VALUE_ALPHABET: &[u8] = b"az09 :;,=/*.\"-";

type Drawn = Vec<(Vec<usize>, Vec<usize>)>;

fn pairs_of(drawn: &Drawn) -> Vec<(String, String)> {
    let text = |alphabet: &[u8], ix: &[usize]| -> String {
        ix.iter().map(|&i| char::from(alphabet[i])).collect()
    };
    drawn
        .iter()
        .map(|(n, v)| {
            (
                text(NAME_ALPHABET, n),
                // An HTTP/1 head cannot carry outer whitespace.
                text(VALUE_ALPHABET, v).trim().to_string(),
            )
        })
        .collect()
}

fn listed(headers: &Headers) -> Vec<(String, String)> {
    headers
        .iter()
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .collect()
}

/// The SPDY/3 name/value block, written out longhand.
fn block_of(pairs: &[(String, String)]) -> Vec<u8> {
    let mut block = (pairs.len() as u32).to_be_bytes().to_vec();
    for (name, value) in pairs {
        for field in [name, value] {
            block.extend((field.len() as u32).to_be_bytes());
            block.extend(field.bytes());
        }
    }
    block
}

const REFUSALS: [&str; 7] = [
    "header count missing",
    "truncated header name len",
    "truncated header name",
    "non-UTF8 header name",
    "truncated header value len",
    "truncated header value",
    "non-UTF8 header value",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_header_list_survives_every_form(
        drawn in prop::collection::vec(
            (
                prop::collection::vec(0usize..NAME_ALPHABET.len(), 1..4),
                prop::collection::vec(0usize..VALUE_ALPHABET.len(), 0..40),
            ),
            0..12,
        )
    ) {
        let pairs = pairs_of(&drawn);
        let headers = Headers::from(pairs.clone());

        // Pairs <-> block.
        prop_assert_eq!(listed(&headers), pairs.clone());
        prop_assert_eq!(headers.len(), pairs.len());
        prop_assert_eq!(headers.as_block(), &block_of(&pairs)[..]);
        prop_assert_eq!(
            Headers::from_block(Bytes::from(block_of(&pairs))),
            Ok(headers.clone())
        );
        for (name, _) in &pairs {
            let first = pairs.iter().find(|(n, _)| n.eq_ignore_ascii_case(name));
            prop_assert_eq!(headers.get(&name.to_uppercase()), first.map(|(_, v)| v.as_str()));
        }
        prop_assert_eq!(headers.get("absent"), None);

        // Block <-> HTTP/1 head, both directions of a connection.
        let request = Request { headers: headers.clone(), ..Request::get("h.example", "/p") };
        let mut parser = RequestParser::new();
        parser.push(request.encode());
        prop_assert_eq!(parser.next_request(), Ok(Some(request)));
        let response = Response { headers: headers.clone(), ..Response::ok(Payload::synthetic(9)) };
        let mut parser = ResponseParser::new();
        parser.push(response.encode());
        prop_assert_eq!(parser.next_response(), Ok(Some(response)));

        // Block <-> compressed SPDY block, from either carrier.
        let frame: Frame = Frame::SynStream { stream_id: 1, priority: 3, fin: true, headers };
        let wire = frame.encode(&mut Compressor::new());
        let by_pairs = Frame::SynStream { stream_id: 1, priority: 3, fin: true, headers: pairs };
        prop_assert_eq!(by_pairs.encode(&mut Compressor::new()), wire.clone());
        let mut parser = FrameParser::new();
        parser.push(wire);
        prop_assert_eq!(parser.next_frame(&mut Decompressor::new()), Ok(Some(frame)));
    }

    #[test]
    fn a_damaged_block_is_refused(
        drawn in prop::collection::vec(
            (
                prop::collection::vec(0usize..NAME_ALPHABET.len(), 1..4),
                prop::collection::vec(0usize..VALUE_ALPHABET.len(), 1..10),
            ),
            1..6,
        ),
        at in any::<usize>(),
    ) {
        let block = block_of(&pairs_of(&drawn));
        // Cut anywhere short of the end: some length no longer holds.
        let cut = at % block.len();
        match Headers::from_block(Bytes::from(block[..cut].to_vec())) {
            Err(HeadersError(why)) => prop_assert!(REFUSALS.contains(&why), "{}", why),
            Ok(kept) => prop_assert!(false, "kept {:?} of a block cut at {}", kept, cut),
        }
        // Spoil the first name's first byte.
        let mut spoiled = block.clone();
        spoiled[8] = 0xFF;
        prop_assert_eq!(
            Headers::from_block(Bytes::from(spoiled)),
            Err(HeadersError("non-UTF8 header name"))
        );
        // Bytes after the last pair are not part of the block.
        let mut padded = block.clone();
        padded.extend([0xFF; 3]);
        let kept = Headers::from_block(Bytes::from(padded)).expect("the pairs are whole");
        prop_assert_eq!(kept.as_block(), &block[..]);
    }
}
