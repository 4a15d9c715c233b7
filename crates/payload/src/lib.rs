//! # spdyier-bytes
//!
//! The data-plane byte representation for the testbed: a [`Payload`] rope
//! whose chunks are either *real* bytes ([`Chunk::Real`], backed by the
//! `bytes` crate) or *synthetic* runs of zero bytes described only by
//! their length ([`Chunk::Synthetic`]).
//!
//! The simulation's clocks depend only on byte **counts** — segment wire
//! sizes, link serialization, window arithmetic — never on body
//! contents. Control information (HTTP heads, SPDY frame headers and
//! compressed header blocks) must stay real because it is parsed, but
//! bulk bodies are all zero-filled by the workload generator. A
//! `Payload` keeps exactly that split: headers ride as `Real` chunks,
//! bodies as `Synthetic { len }`, and segmentation/reassembly at every
//! hop is chunk bookkeeping with no memcpy.
//!
//! Semantically a `Payload` **is** a byte string: `Synthetic(n)` is
//! indistinguishable from `n` zero bytes. Every reading API (iteration,
//! [`Payload::to_vec`], [`Payload::copy_out`], equality) honours that,
//! so a materialized run and a synthetic run of a simulation produce
//! byte-identical outputs — which `crates/experiments/tests/cli.rs`
//! checks on a paired dump (`SPDYIER_MATERIALIZE_BODIES=1` vs default).
//!
//! Header blocks have one form too: [`Headers`], the SPDY/3 name/value
//! block in one shared buffer (see [`headers`]).
//!
//! The rope stores up to two chunks inline. The hot paths — a TCP
//! segment split off a send buffer (`[Real head]` or
//! `[Real head, Synthetic body]`), a reassembled receive run — nearly
//! always fit, so segmentation allocates nothing.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod headers;

pub use headers::{Headers, HeadersBuilder, HeadersError};

use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// One run of bytes in a [`Payload`] rope.
#[derive(Clone)]
pub enum Chunk {
    /// Actual bytes (control data: headers, framing, test content).
    Real(Bytes),
    /// A run of this many zero bytes, represented by length alone.
    Synthetic(u64),
}

impl Chunk {
    /// Length of the run in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Chunk::Real(b) => b.len() as u64,
            Chunk::Synthetic(n) => *n,
        }
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split off and return the first `n` bytes, keeping the rest.
    fn split_to(&mut self, n: u64) -> Chunk {
        debug_assert!(n <= self.len());
        match self {
            Chunk::Real(b) => Chunk::Real(b.split_to(n as usize)),
            Chunk::Synthetic(len) => {
                *len -= n;
                Chunk::Synthetic(n)
            }
        }
    }

    /// Drop the first `n` bytes.
    fn advance(&mut self, n: u64) {
        debug_assert!(n <= self.len());
        match self {
            Chunk::Real(b) => b.advance(n as usize),
            Chunk::Synthetic(len) => *len -= n,
        }
    }

    /// Keep at most the first `n` bytes.
    fn truncate(&mut self, n: u64) {
        match self {
            Chunk::Real(b) => b.truncate(n as usize),
            Chunk::Synthetic(len) => *len = (*len).min(n),
        }
    }
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Chunk::Real(b) => write!(f, "Real({})", b.len()),
            Chunk::Synthetic(n) => write!(f, "Synthetic({n})"),
        }
    }
}

/// Chunk storage with the first two chunks inline (no heap allocation
/// until a rope exceeds two runs).
#[derive(Clone, Debug, Default)]
enum Inner {
    #[default]
    Empty,
    One(Chunk),
    Two(Chunk, Chunk),
    Many(VecDeque<Chunk>),
}

/// A rope of [`Chunk`]s with O(1) length and no-memcpy
/// `split_to`/`advance`/`truncate`.
///
/// Invariants: no empty chunks; adjacent `Synthetic` runs are merged;
/// adjacent `Real` runs that are contiguous views of one allocation are
/// re-joined (`Bytes::try_unsplit`).
#[derive(Clone, Default)]
pub struct Payload {
    len: u64,
    chunks: Inner,
}

impl Payload {
    /// The empty rope.
    pub fn new() -> Payload {
        Payload::default()
    }

    /// A rope of one real chunk.
    pub fn real(bytes: Bytes) -> Payload {
        let mut p = Payload::new();
        p.push_bytes(bytes);
        p
    }

    /// A rope of `len` synthetic (zero) bytes.
    pub fn synthetic(len: u64) -> Payload {
        let mut p = Payload::new();
        p.push_synthetic(len);
        p
    }

    /// A simulated body of `len` zero bytes: synthetic by default, real
    /// zero-filled memory when `SPDYIER_MATERIALIZE_BODIES=1`. The two
    /// modes are byte-for-byte equivalent; the materialized one exists so
    /// the bench harness and a workspace test can verify that equivalence
    /// (and measure what the zero-copy path saves).
    pub fn body(len: u64) -> Payload {
        if materialize_bodies() {
            Payload::real(Bytes::from(vec![0u8; len as usize]))
        } else {
            Payload::synthetic(len)
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the rope is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks (diagnostics/tests).
    pub fn chunk_count(&self) -> usize {
        match &self.chunks {
            Inner::Empty => 0,
            Inner::One(_) => 1,
            Inner::Two(..) => 2,
            Inner::Many(q) => q.len(),
        }
    }

    /// Iterate over the chunks.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        let (a, b, q): (Option<&Chunk>, Option<&Chunk>, Option<&VecDeque<Chunk>>) =
            match &self.chunks {
                Inner::Empty => (None, None, None),
                Inner::One(a) => (Some(a), None, None),
                Inner::Two(a, b) => (Some(a), Some(b), None),
                Inner::Many(q) => (None, None, Some(q)),
            };
        a.into_iter()
            .chain(b)
            .chain(q.into_iter().flat_map(|q| q.iter()))
    }

    /// Append one chunk, merging with the tail where possible.
    pub fn push_chunk(&mut self, chunk: Chunk) {
        if chunk.is_empty() {
            return;
        }
        self.len += chunk.len();
        // Try to merge into the current tail chunk.
        let chunk = match (self.back_mut(), chunk) {
            (Some(Chunk::Synthetic(tail)), Chunk::Synthetic(n)) => {
                *tail += n;
                return;
            }
            (Some(Chunk::Real(tail)), Chunk::Real(b)) => match tail.try_unsplit(b) {
                Ok(()) => return,
                Err(b) => Chunk::Real(b),
            },
            (_, c) => c,
        };
        self.chunks = match std::mem::take(&mut self.chunks) {
            Inner::Empty => Inner::One(chunk),
            Inner::One(a) => Inner::Two(a, chunk),
            Inner::Two(a, b) => {
                let mut q = VecDeque::with_capacity(4);
                q.push_back(a);
                q.push_back(b);
                q.push_back(chunk);
                Inner::Many(q)
            }
            Inner::Many(mut q) => {
                q.push_back(chunk);
                Inner::Many(q)
            }
        };
    }

    /// Append real bytes.
    pub fn push_bytes(&mut self, bytes: Bytes) {
        self.push_chunk(Chunk::Real(bytes));
    }

    /// Append `len` synthetic bytes.
    pub fn push_synthetic(&mut self, len: u64) {
        self.push_chunk(Chunk::Synthetic(len));
    }

    /// Append all of `other` (consumed) to the end.
    pub fn append(&mut self, other: Payload) {
        match other.chunks {
            Inner::Empty => {}
            Inner::One(a) => self.push_chunk(a),
            Inner::Two(a, b) => {
                self.push_chunk(a);
                self.push_chunk(b);
            }
            Inner::Many(q) => {
                for c in q {
                    self.push_chunk(c);
                }
            }
        }
    }

    fn back_mut(&mut self) -> Option<&mut Chunk> {
        match &mut self.chunks {
            Inner::Empty => None,
            Inner::One(a) => Some(a),
            Inner::Two(_, b) => Some(b),
            Inner::Many(q) => q.back_mut(),
        }
    }

    fn front_mut(&mut self) -> Option<&mut Chunk> {
        match &mut self.chunks {
            Inner::Empty => None,
            Inner::One(a) | Inner::Two(a, _) => Some(a),
            Inner::Many(q) => q.front_mut(),
        }
    }

    fn pop_front(&mut self) -> Option<Chunk> {
        let (chunk, rest) = match std::mem::take(&mut self.chunks) {
            Inner::Empty => (None, Inner::Empty),
            Inner::One(a) => (Some(a), Inner::Empty),
            Inner::Two(a, b) => (Some(a), Inner::One(b)),
            Inner::Many(mut q) => {
                let a = q.pop_front();
                (a, Inner::Many(q))
            }
        };
        self.chunks = rest;
        if let Some(c) = &chunk {
            self.len -= c.len();
        }
        chunk
    }

    fn pop_back(&mut self) -> Option<Chunk> {
        let (chunk, rest) = match std::mem::take(&mut self.chunks) {
            Inner::Empty => (None, Inner::Empty),
            Inner::One(a) => (Some(a), Inner::Empty),
            Inner::Two(a, b) => (Some(b), Inner::One(a)),
            Inner::Many(mut q) => {
                let b = q.pop_back();
                (b, Inner::Many(q))
            }
        };
        self.chunks = rest;
        if let Some(c) = &chunk {
            self.len -= c.len();
        }
        chunk
    }

    /// Split off and return the first `n` bytes as their own rope,
    /// keeping the rest. O(chunks crossed), no byte copies.
    pub fn split_to(&mut self, n: u64) -> Payload {
        assert!(n <= self.len, "split_to out of bounds");
        let mut head = Payload::new();
        while head.len < n {
            let need = n - head.len;
            let front_len = self
                .front_mut()
                .expect("length invariant guarantees a chunk")
                .len();
            if front_len <= need {
                let c = self.pop_front().expect("front exists");
                head.push_chunk(c);
            } else {
                let part = self.front_mut().expect("front exists").split_to(need);
                self.len -= need;
                head.push_chunk(part);
            }
        }
        head
    }

    /// Drop the first `n` bytes.
    pub fn advance(&mut self, n: u64) {
        assert!(n <= self.len, "advance out of bounds");
        let mut left = n;
        while left > 0 {
            let front_len = self
                .front_mut()
                .expect("length invariant guarantees a chunk")
                .len();
            if front_len <= left {
                self.pop_front();
                left -= front_len;
            } else {
                self.front_mut().expect("front exists").advance(left);
                self.len -= left;
                left = 0;
            }
        }
    }

    /// Keep at most the first `n` bytes.
    pub fn truncate(&mut self, n: u64) {
        while self.len > n {
            let over = self.len - n;
            let back_len = self.back_mut().expect("length invariant").len();
            if back_len <= over {
                self.pop_back();
            } else {
                self.back_mut()
                    .expect("back exists")
                    .truncate(back_len - over);
                self.len -= over;
            }
        }
    }

    /// Take the whole rope, leaving `self` empty.
    pub fn take(&mut self) -> Payload {
        std::mem::take(self)
    }

    /// Copy `dst.len()` bytes starting at `offset` into `dst` (synthetic
    /// regions read as zeros). Panics when the range exceeds the rope.
    pub fn copy_out(&self, offset: u64, dst: &mut [u8]) {
        assert!(
            offset + dst.len() as u64 <= self.len,
            "copy_out out of bounds"
        );
        let mut pos = 0u64; // absolute offset of the current chunk
        let mut written = 0usize;
        for c in self.chunks() {
            let clen = c.len();
            let chunk_end = pos + clen;
            if chunk_end > offset && written < dst.len() {
                let skip = offset.saturating_sub(pos);
                let take = ((clen - skip) as usize).min(dst.len() - written);
                match c {
                    Chunk::Real(b) => dst[written..written + take]
                        .copy_from_slice(&b[skip as usize..skip as usize + take]),
                    Chunk::Synthetic(_) => dst[written..written + take].fill(0),
                }
                written += take;
            }
            pos = chunk_end;
            if written == dst.len() {
                break;
            }
        }
    }

    /// Materialize the whole rope into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len as usize];
        self.copy_out(0, &mut out);
        out
    }

    /// Materialize the whole rope into contiguous `Bytes`.
    pub fn to_bytes(&self) -> Bytes {
        // Fast path: a single real chunk needs no copy.
        if let Inner::One(Chunk::Real(b)) = &self.chunks {
            return b.clone();
        }
        Bytes::from(self.to_vec())
    }
}

impl PartialEq for Payload {
    /// Semantic byte-string equality: `Synthetic(n)` equals `n` zero
    /// bytes regardless of chunking. Synthetic↔synthetic overlap is
    /// compared run-wise in O(chunks), not O(bytes).
    fn eq(&self, other: &Payload) -> bool {
        if self.len != other.len {
            return false;
        }
        let mut a = self.chunks().peekable();
        let mut b = other.chunks().peekable();
        let (mut a_off, mut b_off) = (0u64, 0u64); // progress into current chunks
        loop {
            let (Some(ca), Some(cb)) = (a.peek(), b.peek()) else {
                return a.peek().is_none() && b.peek().is_none();
            };
            let take = (ca.len() - a_off).min(cb.len() - b_off);
            let equal = match (ca, cb) {
                (Chunk::Synthetic(_), Chunk::Synthetic(_)) => true,
                (Chunk::Real(ra), Chunk::Synthetic(_)) => ra
                    [a_off as usize..(a_off + take) as usize]
                    .iter()
                    .all(|&x| x == 0),
                (Chunk::Synthetic(_), Chunk::Real(rb)) => rb
                    [b_off as usize..(b_off + take) as usize]
                    .iter()
                    .all(|&x| x == 0),
                (Chunk::Real(ra), Chunk::Real(rb)) => {
                    ra[a_off as usize..(a_off + take) as usize]
                        == rb[b_off as usize..(b_off + take) as usize]
                }
            };
            if !equal {
                return false;
            }
            a_off += take;
            b_off += take;
            if a_off == ca.len() {
                a.next();
                a_off = 0;
            }
            if b_off == cb.len() {
                b.next();
                b_off = 0;
            }
        }
    }
}

impl Eq for Payload {}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload[{}b:", self.len)?;
        for c in self.chunks() {
            write!(f, " {c:?}")?;
        }
        write!(f, "]")
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Payload {
        Payload::real(b)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::real(Bytes::from(v))
    }
}

impl From<&'static str> for Payload {
    fn from(s: &'static str) -> Payload {
        Payload::real(Bytes::from(s))
    }
}

static MATERIALIZE: OnceLock<bool> = OnceLock::new();

/// Whether `SPDYIER_MATERIALIZE_BODIES=1` is set: simulated bodies are
/// then built from real zero-filled memory instead of synthetic runs.
/// Read once per process.
pub fn materialize_bodies() -> bool {
    *MATERIALIZE.get_or_init(|| std::env::var("SPDYIER_MATERIALIZE_BODIES").is_ok_and(|v| v == "1"))
}

/// Shared test-support helpers (used by several crates' unit tests).
pub mod testsupport {
    use bytes::Bytes;

    /// A `Bytes` of `len` bytes all set to `fill`.
    pub fn bytes_of(len: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; len])
    }
}

#[cfg(test)]
mod tests {
    use super::testsupport::bytes_of;
    use super::*;

    #[test]
    fn lengths_and_inline_chunks() {
        let mut p = Payload::new();
        assert!(p.is_empty());
        p.push_bytes(bytes_of(3, 7));
        p.push_synthetic(10);
        assert_eq!(p.len(), 13);
        assert_eq!(p.chunk_count(), 2);
        // Adjacent synthetics merge; empty chunks are dropped.
        p.push_synthetic(5);
        p.push_bytes(Bytes::new());
        p.push_synthetic(0);
        assert_eq!(p.len(), 18);
        assert_eq!(p.chunk_count(), 2);
    }

    #[test]
    fn split_advance_truncate() {
        let mut p = Payload::new();
        p.push_bytes(Bytes::from(vec![1, 2, 3, 4]));
        p.push_synthetic(6);
        let head = p.split_to(2);
        assert_eq!(head.to_vec(), vec![1, 2]);
        assert_eq!(p.to_vec(), vec![3, 4, 0, 0, 0, 0, 0, 0]);
        p.advance(3);
        assert_eq!(p.to_vec(), vec![0, 0, 0, 0, 0]);
        p.truncate(2);
        assert_eq!(p.len(), 2);
        p.truncate(100);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn split_across_many_chunks() {
        let mut p = Payload::new();
        p.push_bytes(Bytes::from(vec![1, 1]));
        p.push_synthetic(2);
        p.push_bytes(Bytes::from(vec![2, 2]));
        p.push_synthetic(3);
        assert_eq!(p.chunk_count(), 4);
        let head = p.split_to(5);
        assert_eq!(head.to_vec(), vec![1, 1, 0, 0, 2]);
        assert_eq!(p.to_vec(), vec![2, 0, 0, 0]);
    }

    #[test]
    fn contiguous_real_chunks_unsplit() {
        let mut p = Payload::real(Bytes::from(vec![1, 2, 3, 4, 5]));
        let head = p.split_to(2);
        let mut joined = head;
        joined.append(p);
        // The two views share one allocation and re-join into one chunk.
        assert_eq!(joined.chunk_count(), 1);
        assert_eq!(joined.to_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn semantic_equality_ignores_chunking() {
        let mut a = Payload::new();
        a.push_bytes(Bytes::from(vec![0, 0, 9]));
        a.push_synthetic(2);
        let mut b = Payload::new();
        b.push_synthetic(2);
        b.push_bytes(Bytes::from(vec![9, 0]));
        b.push_bytes(Bytes::from(vec![0]));
        assert_eq!(a, b);
        let c = Payload::synthetic(5);
        assert_ne!(a, c);
        assert_eq!(Payload::synthetic(4), Payload::real(bytes_of(4, 0)));
        assert_ne!(Payload::synthetic(4), Payload::synthetic(5));
    }

    #[test]
    fn copy_out_spans_chunks() {
        let mut p = Payload::new();
        p.push_bytes(Bytes::from(vec![1, 2]));
        p.push_synthetic(3);
        p.push_bytes(Bytes::from(vec![7]));
        let mut buf = [9u8; 4];
        p.copy_out(1, &mut buf);
        assert_eq!(buf, [2, 0, 0, 0]);
        let mut all = [9u8; 6];
        p.copy_out(0, &mut all);
        assert_eq!(all, [1, 2, 0, 0, 0, 7]);
    }

    #[test]
    fn to_bytes_single_real_is_zero_copy_len() {
        let p = Payload::real(Bytes::from(vec![1, 2, 3]));
        assert_eq!(&p.to_bytes()[..], &[1, 2, 3]);
        let s = Payload::synthetic(4);
        assert_eq!(&s.to_bytes()[..], &[0, 0, 0, 0]);
    }

    #[test]
    fn take_empties_the_rope() {
        let mut p = Payload::synthetic(8);
        let t = p.take();
        assert_eq!(t.len(), 8);
        assert!(p.is_empty());
    }

    #[test]
    fn body_is_synthetic_by_default() {
        // The test environment does not set SPDYIER_MATERIALIZE_BODIES.
        let b = Payload::body(16);
        assert_eq!(b, Payload::synthetic(16));
    }
}
