//! Property test pitting the incremental header [`Compressor`] against
//! the original clone-and-rebuild implementation as an oracle: for any
//! session of header blocks the two must emit identical bytes, block by
//! block. Compressed sizes set wire timing, so every golden artifact
//! depends on the token stream, not just on the round trip.
//!
//! The oracle rebuilds the whole 4-gram index on every call, in window
//! order — static dictionary, the grams straddling the static/history
//! boundary, history oldest first, then the block's own grams as the
//! encoder passes them — keeping the first 32 positions per gram and,
//! among equally long matches, the latest candidate.

use proptest::prelude::*;
use spdyier_spdy::compress::STATIC_DICTIONARY;
use spdyier_spdy::{Compressor, Decompressor};
use std::collections::HashMap;

const MAX_HISTORY: usize = 16 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1024;
const MAX_CANDIDATES: usize = 32;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn put_literals(out: &mut Vec<u8>, lit: &[u8]) {
    if !lit.is_empty() {
        out.push(0x00);
        put_varint(out, lit.len() as u64);
        out.extend_from_slice(lit);
    }
}

/// The pre-incremental compressor, verbatim in behaviour.
struct OracleCompressor {
    /// Static dictionary followed by up to `MAX_HISTORY` session bytes.
    window: Vec<u8>,
    /// Positions kept per gram ([`MAX_CANDIDATES`] in production).
    cap: usize,
}

impl OracleCompressor {
    fn new() -> Self {
        Self::with_cap(MAX_CANDIDATES)
    }

    fn with_cap(cap: usize) -> Self {
        OracleCompressor {
            window: STATIC_DICTIONARY.to_vec(),
            cap,
        }
    }

    fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        let mut space = self.window.clone();
        let base = space.len();
        space.extend_from_slice(input);

        let cap = self.cap;
        let mut index: HashMap<[u8; MIN_MATCH], Vec<usize>> = HashMap::new();
        let insert = |index: &mut HashMap<[u8; MIN_MATCH], Vec<usize>>, at: usize| {
            if let Some(key) = space.get(at..at + MIN_MATCH) {
                let slot = index.entry(key.try_into().expect("4 bytes")).or_default();
                if slot.len() < cap {
                    slot.push(at);
                }
            }
        };
        for i in 0..base.saturating_sub(MIN_MATCH - 1) {
            insert(&mut index, i);
        }

        let mut out = Vec::new();
        let mut literal_start = 0usize;
        let mut pos = 0usize;
        while pos < input.len() {
            let abs = base + pos;
            let mut best: Option<(usize, usize)> = None;
            if let Some(cands) = input
                .get(pos..pos + MIN_MATCH)
                .and_then(|key| index.get(key))
            {
                for &src in cands.iter().rev() {
                    let mut l = 0usize;
                    while l < MAX_MATCH
                        && pos + l < input.len()
                        && space[src + l] == input[pos + l]
                        && src + l < abs
                    {
                        l += 1;
                    }
                    if l >= MIN_MATCH && best.is_none_or(|(_, bl)| l > bl) {
                        best = Some((src, l));
                    }
                }
            }
            match best {
                Some((src, len)) => {
                    put_literals(&mut out, &input[literal_start..pos]);
                    out.push(0x01);
                    put_varint(&mut out, (abs - src) as u64);
                    put_varint(&mut out, len as u64);
                    for a in abs..abs + len {
                        insert(&mut index, a);
                    }
                    pos += len;
                    literal_start = pos;
                }
                None => {
                    insert(&mut index, abs);
                    pos += 1;
                }
            }
        }
        put_literals(&mut out, &input[literal_start..]);

        self.window.extend_from_slice(input);
        let overflow = self
            .window
            .len()
            .saturating_sub(STATIC_DICTIONARY.len() + MAX_HISTORY);
        self.window
            .drain(STATIC_DICTIONARY.len()..STATIC_DICTIONARY.len() + overflow);
        out
    }
}

/// Deterministic pseudo-random byte for incompressible content.
fn mix(i: u64) -> u8 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as u8
}

/// A SPDY/3 name/value block, the layout real header blocks have.
fn name_value_block(headers: &[(&str, String)]) -> Vec<u8> {
    let mut block = (headers.len() as u32).to_be_bytes().to_vec();
    for (name, value) in headers {
        for field in [name.as_bytes(), value.as_bytes()] {
            block.extend((field.len() as u32).to_be_bytes());
            block.extend(field);
        }
    }
    block
}

/// One block of a generated session. `kind` picks the shape, `a` and
/// `b` vary it, `i` is the block's ordinal, `earlier` the blocks so far.
fn block(kind: u8, a: u64, b: usize, i: u64, earlier: &[Vec<u8>]) -> Vec<u8> {
    match kind {
        // A browser request: few hosts, a long per-host cookie, a fresh path.
        0 | 1 => name_value_block(&[
            (":method", "GET".into()),
            (":host", format!("cdn{}.site.example", a % 5)),
            (":path", format!("/assets/{i}/obj_{}.js", a % 977)),
            (":scheme", "https".into()),
            (
                "user-agent",
                "Mozilla/5.0 (Windows NT 6.1) Chrome/23.0".into(),
            ),
            ("accept-encoding", "gzip,deflate,sdch".into()),
            (
                "cookie",
                format!("sid={:016x}{}", a % 5, "c0ffee".repeat(b % 40)),
            ),
        ]),
        // A response: dictionary-heavy, small numeric differences.
        2 => name_value_block(&[
            (":status", "200 OK".into()),
            (":version", "HTTP/1.1".into()),
            (
                "content-type",
                ["text/html", "image/png", "application/xml"][(a % 3) as usize].into(),
            ),
            ("content-length", (a % 100_000).to_string()),
            ("cache-control", format!("public, max-age={}", b * 60)),
        ]),
        // Shorter than a gram: grams complete across block boundaries.
        3 => (0..b % 7)
            .map(|j| b'a' + ((a + j as u64) % 3) as u8)
            .collect(),
        // One long run: self-overlapping sources.
        4 => vec![b'a' + (a % 3) as u8; 40 + b % 1500],
        // Noise: nothing to find, every byte a literal.
        5 => (0..b % 400)
            .map(|j| mix(a ^ (i << 20) ^ j as u64))
            .collect(),
        // An earlier block again: the longest matches there are.
        _ => match earlier.len() {
            0 => Vec::new(),
            n => earlier[a as usize % n].clone(),
        },
    }
}

/// Feed `blocks` to both compressors and a decompressor.
fn assert_session_agrees(blocks: &[Vec<u8>]) -> Result<(), String> {
    let mut production = Compressor::new();
    let mut oracle = OracleCompressor::new();
    let mut inflate = Decompressor::new();
    for (i, block) in blocks.iter().enumerate() {
        let got = production.compress(block);
        let want = oracle.compress(block);
        if got[..] != want[..] {
            return Err(format!(
                "block {i} (len {}) diverged: {} vs {} bytes",
                block.len(),
                got.len(),
                want.len()
            ));
        }
        let plain = inflate
            .decompress(&got)
            .map_err(|e| format!("block {i}: {e}"))?;
        if plain[..] != block[..] {
            return Err(format!("block {i} did not round-trip"));
        }
    }
    Ok(())
}

// Shapes are drawn as `(kind, a, b)` tuples (the vendored proptest stub
// has no `prop_oneof`) and cycled until the session has overflowed the
// window twice over, so positions have left the index from every kind
// of chain.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_compressor_matches_rebuild_oracle(
        shapes in prop::collection::vec((0u8..7, any::<u64>(), 0usize..2000), 8..64)
    ) {
        let mut blocks: Vec<Vec<u8>> = Vec::new();
        let mut total = 0usize;
        for (i, &(kind, a, b)) in shapes.iter().cycle().enumerate() {
            if total > 3 * MAX_HISTORY {
                break;
            }
            // Past the first lap the ordinal keeps repeats from being
            // byte-identical to their first appearance.
            let next = block(kind, a.wrapping_add(i as u64 / 7), b, i as u64, &blocks);
            // Keep all-tiny draws from spinning.
            total += next.len().max(16);
            blocks.push(next);
        }
        if let Err(e) = assert_session_agrees(&blocks) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// A fixed session over every shape, so a failure here reproduces
/// without the property harness.
#[test]
fn fixed_churn_session_matches_oracle() {
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    for i in 0u64..500 {
        let next = block((i % 7) as u8, i * 31, (i * 13 % 2000) as usize, i, &blocks);
        blocks.push(next);
    }
    let total: usize = blocks.iter().map(Vec::len).sum();
    assert!(total > 3 * MAX_HISTORY, "session too short: {total}");
    assert_session_agrees(&blocks).unwrap();
}

/// The index names a position by its slot in a ring of forward links,
/// at most 32 Ki slots while blocks stay small. A session several rings
/// long reuses every slot several times over, with the window's live
/// span straddling the wrap point again and again.
#[test]
fn a_session_wrapping_the_link_ring_three_times_matches_oracle() {
    const RING: usize = 2 * MAX_HISTORY;
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    let mut total = 0usize;
    for i in 0u64.. {
        if total > 3 * RING + MAX_HISTORY {
            break;
        }
        let next = block((i % 7) as u8, i * 37, (i * 11 % 2000) as usize, i, &blocks);
        assert!(next.len() < MAX_HISTORY, "a block this long grows the ring");
        total += next.len();
        blocks.push(next);
    }
    assert_session_agrees(&blocks).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same, over generated sessions (few cases: the oracle rebuilds
    /// a full window's index for every block).
    #[test]
    fn generated_sessions_wrapping_the_link_ring_match_oracle(
        shapes in prop::collection::vec((0u8..7, any::<u64>(), 200usize..2000), 16..64)
    ) {
        let mut blocks: Vec<Vec<u8>> = Vec::new();
        let mut total = 0usize;
        for (i, &(kind, a, b)) in shapes.iter().cycle().enumerate() {
            if total > 7 * MAX_HISTORY {
                break;
            }
            let next = block(kind, a.wrapping_add(i as u64 / 5), b, i as u64, &blocks);
            total += next.len().max(64);
            blocks.push(next);
        }
        if let Err(e) = assert_session_agrees(&blocks) {
            prop_assert!(false, "{}", e);
        }
    }
}

/// A block longer than the ring outgrows it mid-session: the index is
/// rebuilt from the window, and must come back holding what it held.
#[test]
fn a_block_that_outgrows_the_ring_matches_oracle() {
    let small = |i: u64| block((i % 3) as u8, i * 31, (i * 13 % 2000) as usize, i, &[]);
    let mut blocks: Vec<Vec<u8>> = (0..40).map(small).collect();
    // Compressible (it quotes the blocks before it) and 70 KB long.
    let long: Vec<u8> = blocks
        .iter()
        .flatten()
        .copied()
        .cycle()
        .take(70_000)
        .collect();
    blocks.push(long);
    blocks.extend((40..120).map(small));
    assert_session_agrees(&blocks).unwrap();
}

/// One gram with more live positions than [`MAX_CANDIDATES`]: the
/// candidate list is the *oldest* 32, so a later, longer match goes
/// unseen — as it did when the index was rebuilt per call. An index that
/// offered the newest positions, or all of them, would compress better
/// and emit different bytes (the uncapped oracle shows the session does
/// tell the two apart).
#[test]
fn a_gram_with_more_live_positions_than_the_cap_keeps_the_oldest() {
    let value = |i: u64| -> String {
        (0..24)
            .map(|j| char::from(b'A' + mix(i * 64 + j) % 26))
            .collect()
    };
    let mut blocks: Vec<Vec<u8>> = (0..3 * MAX_CANDIDATES as u64)
        .map(|i| format!("|x-session-key={}|", value(i)).into_bytes())
        .collect();
    // Quote recent blocks: findable whole only past the cap.
    for i in [40, 70, 95] {
        blocks.push(blocks[i].clone());
    }
    assert_session_agrees(&blocks).unwrap();

    let mut capped = OracleCompressor::new();
    let mut uncapped = OracleCompressor::with_cap(usize::MAX);
    let differs = blocks
        .iter()
        .filter(|block| capped.compress(block) != uncapped.compress(block))
        .count();
    assert!(differs >= 3, "the cap never bound: {differs}");

    // The same once the window has turned over and the oldest positions
    // of the chain have left it.
    let filler = (0..400u64).map(|i| block(5, i, 399, i, &[]));
    let mut late: Vec<Vec<u8>> = blocks.iter().cloned().chain(filler).collect();
    late.extend(blocks.iter().cloned());
    assert_session_agrees(&late).unwrap();
}

/// A codec's window and index ring are taken from the last ones this
/// thread dropped, reset rather than reallocated. Whatever the donor
/// went through — a short life, a window turned over three times, a
/// block that outgrew the ring — the next compressor and decompressor
/// must behave as the first ever built on the thread did, which is what
/// the oracle, sharing nothing, emits.
#[test]
fn a_compressor_built_from_recycled_storage_matches_oracle() {
    let session = |blocks: u64, stride: u64| -> Vec<Vec<u8>> {
        let mut made: Vec<Vec<u8>> = Vec::new();
        for i in 0..blocks {
            let next = block(
                (i % 7) as u8,
                i * stride,
                (i * 13 % 2000) as usize,
                i,
                &made,
            );
            made.push(next);
        }
        made
    };
    let short = session(12, 31);
    let long = session(500, 37);
    assert!(long.iter().map(Vec::len).sum::<usize>() > 3 * MAX_HISTORY);
    let mut outgrown = session(40, 41);
    outgrown.push(long.iter().flatten().copied().take(70_000).collect());
    outgrown.extend(session(40, 43));

    // A thread of its own: nothing is parked when it starts.
    std::thread::spawn(move || {
        let first_ever: Vec<_> = {
            let mut fresh = Compressor::new();
            short.iter().map(|b| fresh.compress(b)).collect()
        };
        for donor in [&short, &long, &outgrown, &short] {
            assert_session_agrees(donor).unwrap();
            let mut recycled = Compressor::new();
            let again: Vec<_> = short.iter().map(|b| recycled.compress(b)).collect();
            assert_eq!(again, first_ever);
        }
        // Two alive at once take two parked rings; neither sees the other.
        let (mut a, mut b) = (Compressor::new(), Compressor::new());
        let (mut oracle_a, mut oracle_b) = (OracleCompressor::new(), OracleCompressor::new());
        for (x, y) in long.iter().zip(outgrown.iter()) {
            assert_eq!(a.compress(x)[..], oracle_a.compress(x)[..]);
            assert_eq!(b.compress(y)[..], oracle_b.compress(y)[..]);
        }
    })
    .join()
    .expect("the recycled sessions agree");
}
