//! The one in-memory form of a header block.
//!
//! A [`Headers`] *is* the SPDY/3 name/value block — a big-endian `u32`
//! pair count, then per pair a `u32` length and the name, a `u32` length
//! and the value — in one shared buffer. The browser renders a domain's
//! header set into that layout once; an HTTP/1 head is parsed straight
//! into it; a SPDY session hands the very bytes to its compressor and
//! wraps what its decompressor returns. So a message costs a fixed number
//! of allocator calls however many headers it carries, and passing one on
//! is a reference-count bump.
//!
//! Every field of a `Headers` is UTF-8 and every length is in bounds:
//! [`HeadersBuilder`] takes `&str`s, and [`Headers::from_block`] — the
//! only way in for bytes from a peer — checks the block once. A reader
//! that finds otherwise has found a bug, not bad input, and panics.

use bytes::Bytes;
use std::sync::OnceLock;

/// Why a byte block is not a header block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadersError(pub &'static str);

impl std::fmt::Display for HeadersError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for HeadersError {}

/// What can be wrong with a length-prefixed field: its length is cut
/// short, its bytes are, or they are not UTF-8.
type FieldErrors = [&'static str; 3];

const NAME_ERRORS: FieldErrors = [
    "truncated header name len",
    "truncated header name",
    "non-UTF8 header name",
];
const VALUE_ERRORS: FieldErrors = [
    "truncated header value len",
    "truncated header value",
    "non-UTF8 header value",
];

/// Split one length-prefixed string off the front of `rest`.
fn take_field<'a>(rest: &mut &'a [u8], errors: &FieldErrors) -> Result<&'a str, HeadersError> {
    let (len, tail) = rest
        .split_first_chunk::<4>()
        .ok_or(HeadersError(errors[0]))?;
    let len = u32::from_be_bytes(*len) as usize;
    if tail.len() < len {
        return Err(HeadersError(errors[1]));
    }
    let (field, tail) = tail.split_at(len);
    *rest = tail;
    std::str::from_utf8(field).map_err(|_| HeadersError(errors[2]))
}

/// An ordered list of header name/value pairs; duplicates and empty
/// values are kept as given. Cloning shares the buffer.
#[derive(Clone, PartialEq, Eq)]
pub struct Headers {
    /// Count, then length-prefixed names and values; checked.
    block: Bytes,
}

impl Headers {
    /// No headers. Shares one block process-wide, so it allocates
    /// nothing.
    pub fn new() -> Headers {
        static EMPTY: OnceLock<Headers> = OnceLock::new();
        EMPTY
            .get_or_init(|| HeadersBuilder::with_capacity(0).finish())
            .clone()
    }

    /// The given pairs, in one buffer sized for them.
    pub fn from_pairs<N: AsRef<str>, V: AsRef<str>>(pairs: &[(N, V)]) -> Headers {
        let text = |(n, v): &(N, V)| 8 + n.as_ref().len() + v.as_ref().len();
        let mut b = HeadersBuilder::with_capacity(4 + pairs.iter().map(text).sum::<usize>());
        for (name, value) in pairs {
            b.push(name.as_ref(), value.as_ref());
        }
        b.finish()
    }

    /// Adopt a name/value block received from a peer, checking it once:
    /// the count, every length and every field's UTF-8. Bytes past the
    /// last pair are dropped.
    pub fn from_block(mut block: Bytes) -> Result<Headers, HeadersError> {
        let mut rest = &block[..];
        let (count, tail) = rest
            .split_first_chunk::<4>()
            .ok_or(HeadersError("header count missing"))?;
        rest = tail;
        for _ in 0..u32::from_be_bytes(*count) {
            take_field(&mut rest, &NAME_ERRORS)?;
            take_field(&mut rest, &VALUE_ERRORS)?;
        }
        let used = block.len() - rest.len();
        block.truncate(used);
        Ok(Headers { block })
    }

    /// The name/value block, as a SPDY session compresses it.
    pub fn as_block(&self) -> &[u8] {
        &self.block
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        let count = self.block.first_chunk::<4>().expect("a block has a count");
        u32::from_be_bytes(*count) as usize
    }

    /// Whether there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pairs, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let mut rest = &self.block[4..];
        std::iter::from_fn(move || {
            (!rest.is_empty()).then(|| {
                let mut field = |errors| take_field(&mut rest, errors).expect("a checked block");
                (field(&NAME_ERRORS), field(&VALUE_ERRORS))
            })
        })
    }

    /// First value of header `name` (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// These headers followed by one more pair.
    pub fn with(&self, name: &str, value: &str) -> Headers {
        let mut b = HeadersBuilder::with_capacity(self.block.len() + 8 + name.len() + value.len());
        b.extend(self);
        b.push(name, value);
        b.finish()
    }
}

impl Default for Headers {
    fn default() -> Headers {
        Headers::new()
    }
}

impl std::fmt::Debug for Headers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Writes a [`Headers`] block pair by pair into one buffer.
#[derive(Debug)]
pub struct HeadersBuilder {
    /// The block so far; the count is written by `finish`.
    block: Vec<u8>,
    pairs: u32,
}

impl HeadersBuilder {
    /// A builder whose buffer holds a block of `bytes` without growing
    /// (4 for the count and 8 a pair, plus the text).
    pub fn with_capacity(bytes: usize) -> HeadersBuilder {
        let mut block = Vec::with_capacity(bytes.max(4));
        block.extend_from_slice(&[0; 4]);
        HeadersBuilder { block, pairs: 0 }
    }

    /// Append one pair.
    pub fn push(&mut self, name: &str, value: &str) {
        for field in [name, value] {
            self.block
                .extend_from_slice(&(field.len() as u32).to_be_bytes());
            self.block.extend_from_slice(field.as_bytes());
        }
        self.pairs += 1;
    }

    /// Append every pair of `headers`, as one copy.
    pub fn extend(&mut self, headers: &Headers) {
        self.block.extend_from_slice(&headers.block[4..]);
        self.pairs += headers.len() as u32;
    }

    /// The finished block.
    pub fn finish(mut self) -> Headers {
        self.block[..4].copy_from_slice(&self.pairs.to_be_bytes());
        Headers {
            block: Bytes::from(self.block),
        }
    }
}

impl From<&Vec<(String, String)>> for Headers {
    fn from(pairs: &Vec<(String, String)>) -> Headers {
        Headers::from_pairs(pairs)
    }
}

impl From<Vec<(String, String)>> for Headers {
    fn from(pairs: Vec<(String, String)>) -> Headers {
        Headers::from(&pairs)
    }
}

impl From<&Headers> for Headers {
    fn from(headers: &Headers) -> Headers {
        headers.clone()
    }
}
