//! Header-block compression.
//!
//! Real SPDY/3 compresses name/value blocks with a zlib stream that stays
//! open for the whole session, primed with a protocol dictionary — so the
//! second request's headers compress against the first's. zlib itself is
//! out of scope for this workspace, so this module implements an
//! equivalent-in-spirit scheme from scratch: LZ77 over a **rolling shared
//! history window** primed with a static dictionary of common header text.
//! Compressor and decompressor evolve their windows in lockstep, giving the
//! same cross-request redundancy elimination the paper credits SPDY with.
//!
//! Token format (all integers LEB128 varints):
//! * `0x00, len, <len raw bytes>` — literal run;
//! * `0x01, dist, len` — copy `len` bytes from `dist` bytes back in the
//!   window (which includes previously processed blocks).

use crate::hash::U32Map;
use bytes::{BufMut, Bytes, BytesMut};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Static dictionary: common header names/values, as in the SPDY/3 spec's
/// compression dictionary (abbreviated but representative).
pub const STATIC_DICTIONARY: &[u8] = b"optionsgetheadpostputdeletetraceacceptaccept-charsetaccept-encodingaccept-languageaccept-rangesageallowauthorizationcache-controlconnectioncontent-basecontent-encodingcontent-languagecontent-lengthcontent-locationcontent-md5content-rangecontent-typedateetagexpectexpiresfromhostif-matchif-modified-sinceif-none-matchif-rangeif-unmodified-sincelast-modifiedlocationmax-forwardspragmaproxy-authenticateproxy-authorizationrangerefererretry-afterserverteuser-agent100101200201202203204205206300301302303304305306307400401402403404405406407408409410411412413414415416417500501502503504505accept-rangesageetaglocationproxy-authenticatepublicretry-afterservervarywarningwww-authenticateallowcontent-basecontent-encodingcache-controlconnectiondatetrailertransfer-encodingupgradeviawarningcontent-languagecontent-lengthcontent-locationcontent-md5content-rangecontent-typeetagexpireslast-modifiedset-cookieMondayTuesdayWednesdayThursdayFridaySaturdaySundayJanFebMarAprMayJunJulAugSepOctNovDecchunkedtext/htmlimage/pngimage/jpgimage/gifapplication/xmlapplication/xhtmltext/plainpublicmax-agecharset=iso-8859-1utf-8gzipdeflateHTTP/1.1statusversionurl:method:path:host:scheme:statushttphttps200 OKGET";

/// Maximum rolling-history bytes retained beyond the static dictionary.
const MAX_HISTORY: usize = 16 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 1024;

fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(b);
            break;
        }
        out.put_u8(b | 0x80);
    }
}

fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// What the codecs dropped on this thread have left for the next ones
/// created here. A sweep worker builds and drops two sessions a cell,
/// thousands of cells in a row; their windows and index rings are the
/// largest blocks a cell would otherwise request, so a new codec takes
/// a parked one and resets it instead. Storage only ever grows, and
/// the pool holds no more than were live at once.
#[derive(Default)]
struct Parked {
    windows: Vec<Vec<u8>>,
    chains: Vec<Chains>,
}

thread_local! {
    static PARKED: RefCell<Parked> = RefCell::new(Parked::default());
}

/// The shared rolling window, identical on both sides.
#[derive(Debug)]
struct Window {
    /// Static dictionary followed by session history.
    buf: Vec<u8>,
}

impl Window {
    fn new() -> Window {
        let mut buf = PARKED
            .with(|parked| parked.borrow_mut().windows.pop())
            .unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(STATIC_DICTIONARY);
        Window { buf }
    }

    fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        let overflow = self
            .buf
            .len()
            .saturating_sub(STATIC_DICTIONARY.len() + MAX_HISTORY);
        if overflow > 0 {
            // Drop the oldest history (keep the static dictionary intact).
            self.buf
                .drain(STATIC_DICTIONARY.len()..STATIC_DICTIONARY.len() + overflow);
        }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // A thread that is exiting has no pool left to park in.
        let _ = PARKED.try_with(|parked| parked.borrow_mut().windows.push(buf));
    }
}

/// Per-key candidate cap: the 4-gram index offers at most this many
/// positions per key, oldest first (matching the original per-call
/// rebuild, which stopped inserting once a slot was full).
const MAX_CANDIDATES: usize = 32;

/// A 4-gram packed into one integer; only equality matters.
type Gram = u32;

fn gram(b: &[u8]) -> Gram {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Positions of every 4-gram fully inside the static dictionary,
/// ascending, capped at [`MAX_CANDIDATES`] per key. The dictionary is a
/// constant, so this is computed once per process and shared.
fn static_index() -> &'static U32Map<Vec<u32>> {
    static INDEX: OnceLock<U32Map<Vec<u32>>> = OnceLock::new();
    INDEX.get_or_init(|| {
        let d = STATIC_DICTIONARY;
        let mut index: U32Map<Vec<u32>> = U32Map::default();
        for i in 0..d.len().saturating_sub(MIN_MATCH - 1) {
            let slot = index.entry(gram(&d[i..])).or_default();
            if slot.len() < MAX_CANDIDATES {
                slot.push(i as u32);
            }
        }
        index
    })
}

/// An empty chain's `oldest`.
const NO_SLOT: u32 = u32::MAX;
/// Slots in a new ring: a full window and a block as long again. Every
/// live span a session of header blocks can reach fits, so the ring is
/// sized once; only a block longer than [`MAX_HISTORY`] outgrows it.
const RING: usize = 2 * MAX_HISTORY;

/// The history half of the candidate index: every indexed history
/// position, chained oldest to newest with the positions whose gram
/// hashes to the same bucket.
///
/// Two flat arrays, no allocation per gram and no sweep. `ends[bucket]`
/// holds a chain's oldest and newest position, `next[slot]` a position's
/// successor. A position is named by its slot in the `next` ring — its
/// *stream* position (stable as the window drains) modulo the ring
/// length — which is unambiguous because the ring is kept at least as
/// long as the span of live positions. A position is unlinked the moment
/// its byte leaves the window, when it is necessarily the oldest of its
/// chain, so chains hold live positions only.
///
/// A chain mixes the grams that share its bucket; the walk checks each
/// position's bytes against the key. Oldest-first order is load-bearing:
/// the candidate list is cut at [`MAX_CANDIDATES`], and the cut must
/// fall where the original per-call rebuild — which inserted positions
/// in window order and stopped once a key was full — let it fall, or the
/// token stream changes, and with it every wire time downstream.
#[derive(Debug, Default)]
struct Chains {
    /// `(oldest, newest)` slot per bucket; [`RING`] buckets.
    ends: Vec<(u32, u32)>,
    /// Forward links; the length is a power of two, [`RING`] or more.
    next: Vec<u32>,
}

impl Chains {
    /// An empty index: a dropped compressor's, reset, when this thread
    /// has one parked.
    fn new() -> Chains {
        match PARKED.with(|parked| parked.borrow_mut().chains.pop()) {
            Some(mut chains) => {
                // Links are only ever reached from a bucket.
                chains.ends.fill((NO_SLOT, NO_SLOT));
                chains
            }
            None => Chains {
                ends: vec![(NO_SLOT, NO_SLOT); RING],
                next: vec![0; RING],
            },
        }
    }

    fn bucket(&self, key: Gram) -> usize {
        // The high bits of one multiply: as many as there are buckets.
        let h = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.ends.len().trailing_zeros())) as usize
    }

    fn slot(&self, s: u64) -> u32 {
        (s & (self.next.len() as u64 - 1)) as u32
    }

    /// The stream position in `hist_start..hist_start + ring length`
    /// that `slot` names.
    fn position(&self, slot: u32, hist_start: u64) -> u64 {
        hist_start + (u64::from(slot).wrapping_sub(hist_start) & (self.next.len() as u64 - 1))
    }

    /// Link stream position `s` in as the newest of `key`'s chain.
    fn push(&mut self, key: Gram, s: u64) {
        let slot = self.slot(s);
        let bucket = self.bucket(key);
        let (oldest, newest) = &mut self.ends[bucket];
        if *oldest == NO_SLOT {
            *oldest = slot;
        } else {
            self.next[*newest as usize] = slot;
        }
        *newest = slot;
    }

    /// Unlink stream position `s`, the oldest of `key`'s chain.
    fn pop_oldest(&mut self, key: Gram, s: u64) {
        let slot = self.slot(s);
        let bucket = self.bucket(key);
        let (oldest, newest) = &mut self.ends[bucket];
        debug_assert_eq!(*oldest, slot, "positions leave in the order they came");
        *oldest = if slot == *newest {
            NO_SLOT
        } else {
            self.next[slot as usize]
        };
    }

    /// Make room for `span` live positions, of which the `live` from
    /// `hist_start` on are linked so far. A block longer than the ring
    /// was sized for outgrows it: the links move to a longer ring under
    /// the slot names they have there. The buckets stay as they are, so
    /// no gram is hashed again.
    fn reserve(&mut self, span: usize, hist_start: u64, live: usize) {
        if span <= self.next.len() {
            return;
        }
        let mask = span.next_power_of_two() as u64 - 1;
        let renamed = |slot: u32| match slot {
            NO_SLOT => NO_SLOT,
            _ => (self.position(slot, hist_start) & mask) as u32,
        };
        let mut next = vec![0; mask as usize + 1];
        for s in hist_start..hist_start + live as u64 {
            next[(s & mask) as usize] = renamed(self.next[self.slot(s) as usize]);
        }
        let ends = self.ends.iter();
        self.ends = ends.map(|&(o, n)| (renamed(o), renamed(n))).collect();
        self.next = next;
    }
}

/// The compressing half of a session's header codec.
///
/// The candidate index is persistent and incremental: static-dictionary
/// grams are computed once per process, history grams live in
/// [`Chains`], and the three grams spanning the static/history boundary
/// — whose bytes change every time the history head shifts — are
/// recomputed per call. A gram joins its chain the moment the encoder
/// has passed it, so the block being compressed and the blocks before
/// it share one index. The assembled candidate list for a key is
/// byte-for-byte the list the original per-call index rebuild produced,
/// so compressed output is unchanged.
#[derive(Debug)]
pub struct Compressor {
    window: Window,
    /// History bytes dropped from the window so far; stream position `s`
    /// of a retained history byte maps to window position `s - drained`.
    drained: u64,
    history: Chains,
    /// Reusable candidate-assembly buffer.
    scratch: Vec<usize>,
    stats_in: u64,
    stats_out: u64,
}

impl Default for Compressor {
    fn default() -> Self {
        Self::new()
    }
}

/// Stream coordinates of one `compress` call.
struct StreamCoords {
    /// History bytes drained before this call.
    drained: u64,
    /// Stream position of the history head.
    hist_start: u64,
    /// Stream position of the block's first byte.
    stream_len: u64,
    /// First stream position whose gram runs past the window's end into
    /// the block: indexed, but not a candidate until the next call.
    hidden_from: u64,
}

/// Assemble the candidate list for `key` exactly as the original
/// per-call index held it: static-interior positions, then the (up to
/// three) static/history boundary grams, then history and in-block
/// positions ascending — truncated to the first [`MAX_CANDIDATES`].
fn assemble_candidates(
    scratch: &mut Vec<usize>,
    key: Gram,
    win: &[u8],
    input: &[u8],
    at: &StreamCoords,
    history: &Chains,
) {
    scratch.clear();
    let s_len = STATIC_DICTIONARY.len();
    if let Some(stat) = static_index().get(&key) {
        scratch.extend(stat.iter().map(|&p| p as usize));
    }
    // Grams straddling the static/history boundary (window positions
    // S-3..S-1); their bytes depend on the current history head.
    for i in (s_len - (MIN_MATCH - 1))..s_len {
        if scratch.len() >= MAX_CANDIDATES {
            break;
        }
        if i + MIN_MATCH <= win.len() && gram(&win[i..]) == key {
            scratch.push(i);
        }
    }
    if scratch.len() >= MAX_CANDIDATES {
        return;
    }
    let (oldest, newest) = history.ends[history.bucket(key)];
    if oldest == NO_SLOT {
        return;
    }
    let mut slot = oldest;
    loop {
        let s = history.position(slot, at.hist_start);
        if s < at.hidden_from || s >= at.stream_len {
            // Visible positions have their whole gram on one side of
            // the window/block seam.
            let p = (s - at.drained) as usize;
            let bytes = match p.checked_sub(win.len()) {
                None => &win[p..],
                Some(in_block) => &input[in_block..],
            };
            if gram(bytes) == key {
                scratch.push(p);
                if scratch.len() >= MAX_CANDIDATES {
                    return;
                }
            }
        }
        if slot == newest {
            return;
        }
        slot = history.next[slot as usize];
    }
}

/// Length of the common prefix of `a` and `b`, eight bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// How many of `input[pos..pos + limit]` equal the bytes from position
/// `src` of the search space `win ++ input`. `src + limit` must not pass
/// `win.len() + pos`: a source may run from the window into the block
/// but never into the bytes it is matched against.
fn match_len(win: &[u8], input: &[u8], src: usize, pos: usize, limit: usize) -> usize {
    let target = &input[pos..pos + limit];
    let Some(in_win) = win.len().checked_sub(src) else {
        return common_prefix(&input[src - win.len()..], target);
    };
    let in_win = in_win.min(limit);
    let l = common_prefix(&win[src..src + in_win], target);
    if l < in_win {
        return l;
    }
    l + common_prefix(input, &target[in_win..])
}

impl Compressor {
    /// A compressor primed with the static dictionary.
    pub fn new() -> Compressor {
        Compressor {
            window: Window::new(),
            drained: 0,
            history: Chains::new(),
            scratch: Vec::new(),
            stats_in: 0,
            stats_out: 0,
        }
    }

    /// `(plaintext_bytes, compressed_bytes)` totals so far.
    pub fn ratio_counters(&self) -> (u64, u64) {
        (self.stats_in, self.stats_out)
    }

    /// Compress one header block, updating the shared window.
    pub fn compress(&mut self, input: &[u8]) -> Bytes {
        let s_len = STATIC_DICTIONARY.len();
        let base = self.window.buf.len();
        let drained = self.drained;
        let stream_len = drained + base as u64; // before this input
        let stream_end = stream_len + input.len() as u64;
        let at = StreamCoords {
            drained,
            hist_start: s_len as u64 + drained,
            stream_len,
            hidden_from: stream_len
                .saturating_sub(MIN_MATCH as u64 - 1)
                .max(s_len as u64),
        };

        // Split borrows so the index can grow while the window stays
        // readable.
        let Compressor {
            window,
            history,
            scratch,
            ..
        } = &mut *self;
        let win: &[u8] = &window.buf;
        let hist_len = base - s_len;
        history.reserve(
            hist_len + input.len(),
            at.hist_start,
            hist_len.saturating_sub(MIN_MATCH - 1),
        );
        // Search space = window ++ input, addressed without materializing.
        let byte = |p: usize| -> u8 {
            if p < base {
                win[p]
            } else {
                input[p - base]
            }
        };

        // Grams that began in the last bytes of the window complete with
        // this block's first bytes. They take their place in the index
        // now, ahead of the block's own grams, and `hidden_from` keeps
        // them out of this call's candidate lists.
        for s in at.hidden_from..stream_len {
            if s + MIN_MATCH as u64 > stream_end {
                break;
            }
            let tail = &win[(s - drained) as usize..];
            let mut g = [0u8; MIN_MATCH];
            g[..tail.len()].copy_from_slice(tail);
            g[tail.len()..].copy_from_slice(&input[..MIN_MATCH - tail.len()]);
            history.push(gram(&g), s);
        }
        // Positions below this start a whole gram inside the block; each
        // is indexed as the encoder passes it.
        let grams_end = input.len().saturating_sub(MIN_MATCH - 1);

        let mut out = BytesMut::with_capacity(input.len() / 2 + 16);
        let mut literal_start = 0usize; // within input
        let mut pos = 0usize;
        while pos < input.len() {
            let abs = base + pos;
            // A match must beat MIN_MATCH - 1 to count.
            let (mut best_src, mut best_len) = (0usize, MIN_MATCH - 1);
            if pos < grams_end {
                assemble_candidates(scratch, gram(&input[pos..]), win, input, &at, history);
                let longest = MAX_MATCH.min(input.len() - pos);
                for &src in scratch.iter().rev() {
                    // Matches may run into the current input but the
                    // source must end before `abs`.
                    let limit = longest.min(abs - src);
                    // Only a strictly longer match replaces the best, so
                    // a candidate that cannot reach past it, or differs
                    // where the best one ended, is out.
                    if limit <= best_len || byte(src + best_len) != input[pos + best_len] {
                        continue;
                    }
                    let l = match_len(win, input, src, pos, limit);
                    if l > best_len {
                        (best_src, best_len) = (src, l);
                        if l == longest {
                            break;
                        }
                    }
                }
            }
            if best_len >= MIN_MATCH {
                // Flush pending literals.
                if literal_start < pos {
                    let lit = &input[literal_start..pos];
                    out.put_u8(0x00);
                    put_varint(&mut out, lit.len() as u64);
                    out.put_slice(lit);
                }
                out.put_u8(0x01);
                put_varint(&mut out, (abs - best_src) as u64);
                put_varint(&mut out, best_len as u64);
                // Newly emitted input becomes searchable.
                for i in pos..(pos + best_len).min(grams_end) {
                    history.push(gram(&input[i..]), stream_len + i as u64);
                }
                pos += best_len;
                literal_start = pos;
            } else {
                if pos < grams_end {
                    history.push(gram(&input[pos..]), stream_len + pos as u64);
                }
                pos += 1;
            }
        }
        if literal_start < input.len() {
            let lit = &input[literal_start..];
            out.put_u8(0x00);
            put_varint(&mut out, lit.len() as u64);
            out.put_slice(lit);
        }

        // Bytes about to leave the window take their index entries with
        // them. Every one of them is indexed by now: at least
        // `MAX_HISTORY` bytes of stream lie past it.
        let leaving = (base + input.len()).saturating_sub(s_len + MAX_HISTORY);
        for p in s_len..s_len + leaving {
            let key = match p.checked_sub(base) {
                Some(in_block) => gram(&input[in_block..]),
                None if p + MIN_MATCH <= base => gram(&win[p..]),
                None => gram(&[byte(p), byte(p + 1), byte(p + 2), byte(p + 3)]),
            };
            history.pop_oldest(key, drained + p as u64);
        }
        self.window.extend(input);
        self.drained += leaving as u64;

        self.stats_in += input.len() as u64;
        self.stats_out += out.len() as u64;
        out.freeze()
    }
}

impl Drop for Compressor {
    fn drop(&mut self) {
        let chains = std::mem::take(&mut self.history);
        // A thread that is exiting has no pool left to park in.
        let _ = PARKED.try_with(|parked| parked.borrow_mut().chains.push(chains));
    }
}

/// Error raised on a malformed compressed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompressError(pub String);

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decompress error: {}", self.0)
    }
}

impl std::error::Error for DecompressError {}

/// The decompressing half; must see blocks in the order they were
/// compressed (like SPDY's session-long zlib stream).
#[derive(Debug)]
pub struct Decompressor {
    window: Window,
    /// Reusable plaintext buffer; match sources address the conceptual
    /// `window ++ out` space without cloning the window per block.
    out: Vec<u8>,
}

impl Default for Decompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Decompressor {
    /// A decompressor primed with the static dictionary.
    pub fn new() -> Decompressor {
        Decompressor {
            window: Window::new(),
            out: Vec::new(),
        }
    }

    /// Decompress one block, updating the shared window.
    pub fn decompress(&mut self, data: &[u8]) -> Result<Bytes, DecompressError> {
        let base = self.window.buf.len();
        self.out.clear();
        let mut pos = 0usize;
        while pos < data.len() {
            let tag = data[pos];
            pos += 1;
            match tag {
                0x00 => {
                    let len = get_varint(data, &mut pos)
                        .ok_or_else(|| DecompressError("truncated literal len".into()))?
                        as usize;
                    if pos + len > data.len() {
                        return Err(DecompressError("truncated literal body".into()));
                    }
                    self.out.extend_from_slice(&data[pos..pos + len]);
                    pos += len;
                }
                0x01 => {
                    let dist = get_varint(data, &mut pos)
                        .ok_or_else(|| DecompressError("truncated match dist".into()))?
                        as usize;
                    let len = get_varint(data, &mut pos)
                        .ok_or_else(|| DecompressError("truncated match len".into()))?
                        as usize;
                    if dist == 0 || dist > base + self.out.len() || len > MAX_MATCH {
                        return Err(DecompressError(format!("bad match dist={dist} len={len}")));
                    }
                    // Byte-by-byte copy supports overlapping matches.
                    let start = base + self.out.len() - dist;
                    for i in 0..len {
                        let p = start + i;
                        let b = if p < base {
                            self.window.buf[p]
                        } else {
                            self.out[p - base]
                        };
                        self.out.push(b);
                    }
                }
                other => return Err(DecompressError(format!("bad token {other}"))),
            }
        }
        let plain = Bytes::copy_from_slice(&self.out);
        self.window.extend(&plain);
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(blocks: &[&[u8]]) {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        for b in blocks {
            let comp = c.compress(b);
            let plain = d.decompress(&comp).expect("valid stream");
            assert_eq!(&plain[..], *b);
        }
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip(&[b"hello world, hello world, hello world"]);
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        roundtrip(&[b"", b"a", b"ab", b"abc"]);
    }

    #[test]
    fn dictionary_helps_header_text() {
        let mut c = Compressor::new();
        let headers =
            b"accept-encoding: gzipdeflate\r\ncontent-type: text/html\r\nuser-agent: test\r\n";
        let comp = c.compress(headers);
        assert!(
            comp.len() < headers.len(),
            "dictionary text should compress: {} vs {}",
            comp.len(),
            headers.len()
        );
    }

    #[test]
    fn cross_block_history_compresses_repeats() {
        let mut c = Compressor::new();
        let block = b"x-custom-nonsense-header-zzqy: 1234567890abcdefgh\r\nanother-weird-one-qqq: value-value-value\r\n";
        let first = c.compress(block);
        let second = c.compress(block);
        assert!(
            second.len() < first.len() / 2,
            "second identical block must compress against history: {} vs {}",
            second.len(),
            first.len()
        );
        // And the decompressor tracks it.
        let mut d = Decompressor::new();
        assert_eq!(&d.decompress(&first).unwrap()[..], &block[..]);
        assert_eq!(&d.decompress(&second).unwrap()[..], &block[..]);
    }

    #[test]
    fn overlapping_match_roundtrip() {
        // "aaaa..." triggers overlapping copies.
        let data = vec![b'a'; 500];
        roundtrip(&[&data]);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes with no 4-gram repeats.
        let data: Vec<u8> = (0..1000u32)
            .map(|i| ((i.wrapping_mul(2654435761)) >> 13) as u8)
            .collect();
        roundtrip(&[&data]);
    }

    #[test]
    fn long_session_stays_in_sync_despite_window_cap() {
        let mut c = Compressor::new();
        let mut d = Decompressor::new();
        for i in 0..200 {
            let block = format!(
                "get /object/{i} http/1.1\r\nhost: site-{}.example\r\ncookie: session=abcdef{i}\r\n",
                i % 7
            );
            let comp = c.compress(block.as_bytes());
            let plain = d.decompress(&comp).expect("in sync");
            assert_eq!(&plain[..], block.as_bytes());
        }
        let (inb, outb) = c.ratio_counters();
        assert!(outb < inb / 2, "sustained compression: {outb}/{inb}");
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        let mut d = Decompressor::new();
        assert!(d.decompress(&[0x01, 0x00, 0x05]).is_err(), "zero distance");
        assert!(d.decompress(&[0x00, 0xFF]).is_err(), "truncated literal");
        assert!(d.decompress(&[0x07]).is_err(), "unknown token");
    }

    #[test]
    fn desync_produces_wrong_output_demonstrating_statefulness() {
        let mut c = Compressor::new();
        let block = b"some repeated header value 12345 some repeated header value 12345";
        let _skipped = c.compress(block);
        let second = c.compress(block);
        let mut d = Decompressor::new();
        // Decoding the second block without the first either errors or
        // yields different text — proof the codec is genuinely stateful.
        match d.decompress(&second) {
            Err(_) => {}
            Ok(plain) => assert_ne!(&plain[..], &block[..]),
        }
    }
}
