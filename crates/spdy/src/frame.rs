//! SPDY/3 binary framing.
//!
//! Control frames: `1 | version(15) | type(16) | flags(8) | length(24)`;
//! data frames: `0 | stream-id(31) | flags(8) | length(24)`. Header blocks
//! inside SYN_STREAM / SYN_REPLY are compressed with the session's
//! [`crate::compress`] codec (stateful, like SPDY's session zlib stream).
//!
//! Frames encode to [`Payload`] ropes: control frames and frame headers
//! are real bytes (the control path), while DATA bodies are appended as
//! the rope they already are — synthetic length-only runs in the common
//! simulated case — so segmentation and reassembly never copy them.

use crate::compress::{Compressor, DecompressError, Decompressor};
use bytes::{BufMut, BytesMut};
use spdyier_bytes::{Headers, Payload};

/// SPDY protocol version emitted in control frames.
pub const SPDY_VERSION: u16 = 3;

/// FLAG_FIN: the sender half-closes the stream.
pub const FLAG_FIN: u8 = 0x01;

/// A SPDY frame. The parser yields `Frame<Headers>`; `H` is whatever a
/// caller building one by hand holds its headers in, so long as
/// [`Headers`] converts from a reference to it — `Headers` itself (a shared
/// buffer, nothing copied) or a `Vec` of `(String, String)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<H = Headers> {
    /// Open a stream (client request).
    SynStream {
        /// Odd ids from clients, even from servers.
        stream_id: u32,
        /// SPDY/3 priority: 0 is *highest*, 7 lowest.
        priority: u8,
        /// Sender half-closes immediately (pure GET).
        fin: bool,
        /// Header name/value pairs.
        headers: H,
    },
    /// First response frame on a stream.
    SynReply {
        /// Stream being answered.
        stream_id: u32,
        /// Sender half-closes immediately (empty body).
        fin: bool,
        /// Header name/value pairs.
        headers: H,
    },
    /// Stream payload.
    Data {
        /// Stream carrying the payload.
        stream_id: u32,
        /// Final frame of this direction.
        fin: bool,
        /// Payload rope.
        payload: Payload,
    },
    /// Abort a stream.
    RstStream {
        /// Stream being reset.
        stream_id: u32,
        /// Status code (1 = PROTOCOL_ERROR, 3 = REFUSED_STREAM, ...).
        status: u32,
    },
    /// Session settings (id → value pairs).
    Settings(Vec<(u32, u32)>),
    /// Liveness probe.
    Ping(u32),
    /// Session teardown notice.
    Goaway {
        /// Last accepted stream.
        last_stream_id: u32,
        /// Status code.
        status: u32,
    },
    /// Per-stream flow-control credit.
    WindowUpdate {
        /// Stream receiving credit.
        stream_id: u32,
        /// Bytes of credit.
        delta: u32,
    },
}

const T_SYN_STREAM: u16 = 1;
const T_SYN_REPLY: u16 = 2;
const T_RST: u16 = 3;
const T_SETTINGS: u16 = 4;
const T_PING: u16 = 6;
const T_GOAWAY: u16 = 7;
const T_WINDOW_UPDATE: u16 = 9;

fn decode_headers(data: &[u8], decomp: &mut Decompressor) -> Result<Headers, FrameError> {
    // The decompressor's output is the name/value block: checked once
    // here, then carried as it is.
    Headers::from_block(decomp.decompress(data)?).map_err(|e| FrameError::Malformed(e.0.into()))
}

/// Framing error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Structurally invalid frame.
    Malformed(String),
    /// Header block failed to decompress.
    Compression(String),
}

impl From<DecompressError> for FrameError {
    fn from(e: DecompressError) -> Self {
        FrameError::Compression(e.0)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Malformed(m) => write!(f, "malformed SPDY frame: {m}"),
            FrameError::Compression(m) => write!(f, "SPDY header compression error: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl<H> Frame<H>
where
    for<'a> Headers: From<&'a H>,
{
    /// Encode to a wire rope, compressing header blocks with `comp`. For
    /// DATA frames the 8-byte header is real and the body rides along
    /// unchanged; control frames are entirely real bytes.
    pub fn encode(&self, comp: &mut Compressor) -> Payload {
        let mut out = BytesMut::with_capacity(64);
        match self {
            Frame::Data {
                stream_id,
                fin,
                payload,
            } => {
                out.put_u32(stream_id & 0x7FFF_FFFF);
                out.put_u8(if *fin { FLAG_FIN } else { 0 });
                put_u24(&mut out, payload.len() as u32);
                let mut wire = Payload::real(out.freeze());
                wire.append(payload.clone());
                return wire;
            }
            Frame::SynStream {
                stream_id,
                priority,
                fin,
                headers,
            } => {
                let block = comp.compress(Headers::from(headers).as_block());
                control_header(
                    &mut out,
                    T_SYN_STREAM,
                    if *fin { FLAG_FIN } else { 0 },
                    10 + block.len() as u32,
                );
                out.put_u32(stream_id & 0x7FFF_FFFF);
                out.put_u32(0); // associated stream
                out.put_u8(priority << 5);
                out.put_u8(0); // credential slot
                out.put_slice(&block);
            }
            Frame::SynReply {
                stream_id,
                fin,
                headers,
            } => {
                let block = comp.compress(Headers::from(headers).as_block());
                control_header(
                    &mut out,
                    T_SYN_REPLY,
                    if *fin { FLAG_FIN } else { 0 },
                    4 + block.len() as u32,
                );
                out.put_u32(stream_id & 0x7FFF_FFFF);
                out.put_slice(&block);
            }
            Frame::RstStream { stream_id, status } => {
                control_header(&mut out, T_RST, 0, 8);
                out.put_u32(stream_id & 0x7FFF_FFFF);
                out.put_u32(*status);
            }
            Frame::Settings(entries) => {
                control_header(&mut out, T_SETTINGS, 0, 4 + 8 * entries.len() as u32);
                out.put_u32(entries.len() as u32);
                for (id, value) in entries {
                    out.put_u32(id & 0x00FF_FFFF);
                    out.put_u32(*value);
                }
            }
            Frame::Ping(id) => {
                control_header(&mut out, T_PING, 0, 4);
                out.put_u32(*id);
            }
            Frame::Goaway {
                last_stream_id,
                status,
            } => {
                control_header(&mut out, T_GOAWAY, 0, 8);
                out.put_u32(last_stream_id & 0x7FFF_FFFF);
                out.put_u32(*status);
            }
            Frame::WindowUpdate { stream_id, delta } => {
                control_header(&mut out, T_WINDOW_UPDATE, 0, 8);
                out.put_u32(stream_id & 0x7FFF_FFFF);
                out.put_u32(delta & 0x7FFF_FFFF);
            }
        }
        Payload::real(out.freeze())
    }
}

fn control_header(out: &mut BytesMut, frame_type: u16, flags: u8, length: u32) {
    out.put_u16(0x8000 | SPDY_VERSION);
    out.put_u16(frame_type);
    out.put_u8(flags);
    put_u24(out, length);
}

fn put_u24(out: &mut BytesMut, v: u32) {
    out.put_u8(((v >> 16) & 0xFF) as u8);
    out.put_u8(((v >> 8) & 0xFF) as u8);
    out.put_u8((v & 0xFF) as u8);
}

/// Incremental frame parser: buffers TCP chunks, yields whole frames.
///
/// The buffer is a [`Payload`] rope: frame headers (8 real bytes) are
/// peeked with a bounded copy, control-frame bodies are materialized for
/// parsing, and DATA bodies are split off as ropes without copying.
#[derive(Debug, Default)]
pub struct FrameParser {
    buf: Payload,
}

impl FrameParser {
    /// An empty parser.
    pub fn new() -> FrameParser {
        FrameParser::default()
    }

    /// Feed data read from the transport (chunks are adopted, not copied).
    pub fn push(&mut self, data: Payload) {
        self.buf.append(data);
    }

    /// Bytes buffered and not yet parsed.
    pub fn buffered(&self) -> u64 {
        self.buf.len()
    }

    /// Extract the next complete frame, decompressing header blocks with
    /// `decomp`.
    pub fn next_frame(&mut self, decomp: &mut Decompressor) -> Result<Option<Frame>, FrameError> {
        if self.buf.len() < 8 {
            return Ok(None);
        }
        let mut head = [0u8; 8];
        self.buf.copy_out(0, &mut head);
        let word0 = u32::from_be_bytes([head[0], head[1], head[2], head[3]]);
        let flags = head[4];
        let length = u32::from_be_bytes([0, head[5], head[6], head[7]]) as u64;
        if self.buf.len() < 8 + length {
            return Ok(None);
        }
        self.buf.advance(8);
        let fin = flags & FLAG_FIN != 0;
        if word0 & 0x8000_0000 == 0 {
            // Data frame: the body is handed off as the rope it arrived as.
            return Ok(Some(Frame::Data {
                stream_id: word0 & 0x7FFF_FFFF,
                fin,
                payload: self.buf.split_to(length),
            }));
        }
        // Control frame: small and real — materialize the body to parse it.
        let body = self.buf.split_to(length).to_vec();
        let body = &body[..];
        let frame_type = (word0 & 0xFFFF) as u16;
        let need = |n: usize| -> Result<(), FrameError> {
            if body.len() < n {
                Err(FrameError::Malformed(format!(
                    "type {frame_type} needs {n} bytes, has {}",
                    body.len()
                )))
            } else {
                Ok(())
            }
        };
        let frame = match frame_type {
            T_SYN_STREAM => {
                need(10)?;
                let stream_id =
                    u32::from_be_bytes([body[0], body[1], body[2], body[3]]) & 0x7FFF_FFFF;
                let priority = body[8] >> 5;
                let headers = decode_headers(&body[10..], decomp)?;
                Frame::SynStream {
                    stream_id,
                    priority,
                    fin,
                    headers,
                }
            }
            T_SYN_REPLY => {
                need(4)?;
                let stream_id =
                    u32::from_be_bytes([body[0], body[1], body[2], body[3]]) & 0x7FFF_FFFF;
                let headers = decode_headers(&body[4..], decomp)?;
                Frame::SynReply {
                    stream_id,
                    fin,
                    headers,
                }
            }
            T_RST => {
                need(8)?;
                Frame::RstStream {
                    stream_id: u32::from_be_bytes([body[0], body[1], body[2], body[3]])
                        & 0x7FFF_FFFF,
                    status: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                }
            }
            T_SETTINGS => {
                need(4)?;
                let count = u32::from_be_bytes([body[0], body[1], body[2], body[3]]) as usize;
                need(4 + count * 8)?;
                let mut entries = Vec::with_capacity(count);
                for i in 0..count {
                    let off = 4 + i * 8;
                    entries.push((
                        u32::from_be_bytes([
                            body[off],
                            body[off + 1],
                            body[off + 2],
                            body[off + 3],
                        ]) & 0x00FF_FFFF,
                        u32::from_be_bytes([
                            body[off + 4],
                            body[off + 5],
                            body[off + 6],
                            body[off + 7],
                        ]),
                    ));
                }
                Frame::Settings(entries)
            }
            T_PING => {
                need(4)?;
                Frame::Ping(u32::from_be_bytes([body[0], body[1], body[2], body[3]]))
            }
            T_GOAWAY => {
                need(8)?;
                Frame::Goaway {
                    last_stream_id: u32::from_be_bytes([body[0], body[1], body[2], body[3]])
                        & 0x7FFF_FFFF,
                    status: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                }
            }
            T_WINDOW_UPDATE => {
                need(8)?;
                Frame::WindowUpdate {
                    stream_id: u32::from_be_bytes([body[0], body[1], body[2], body[3]])
                        & 0x7FFF_FFFF,
                    delta: u32::from_be_bytes([body[4], body[5], body[6], body[7]]) & 0x7FFF_FFFF,
                }
            }
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown control type {other}"
                )))
            }
        };
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) -> Frame {
        let mut comp = Compressor::new();
        let mut decomp = Decompressor::new();
        let wire = frame.encode(&mut comp);
        let mut p = FrameParser::new();
        p.push(wire);
        let got = p
            .next_frame(&mut decomp)
            .expect("parse ok")
            .expect("complete frame");
        assert_eq!(p.buffered(), 0, "no trailing bytes");
        got
    }

    #[test]
    fn syn_stream_roundtrip() {
        let f = Frame::SynStream {
            stream_id: 7,
            priority: 3,
            fin: true,
            headers: Headers::from_pairs(&[
                (":method", "GET"),
                (":path", "/img/1.png"),
                (":host", "photos.example"),
            ]),
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn syn_reply_roundtrip() {
        let f = Frame::SynReply {
            stream_id: 9,
            fin: false,
            headers: Headers::from_pairs(&[(":status", "200"), ("content-type", "text/html")]),
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn data_roundtrip() {
        let f = Frame::Data {
            stream_id: 5,
            fin: true,
            payload: Payload::from(vec![0xEE; 5000]),
        };
        assert_eq!(roundtrip(f.clone()), f);
    }

    #[test]
    fn synthetic_data_stays_synthetic_through_parse() {
        let f = Frame::Data {
            stream_id: 5,
            fin: false,
            payload: Payload::synthetic(200_000),
        };
        match roundtrip(f) {
            Frame::Data { payload, .. } => {
                assert_eq!(payload.len(), 200_000);
                assert_eq!(payload.chunk_count(), 1, "body was never materialized");
            }
            other => panic!("expected Data, got {other:?}"),
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        for f in [
            Frame::RstStream {
                stream_id: 3,
                status: 1,
            },
            Frame::Settings(vec![(4, 100), (7, 65536)]),
            Frame::Ping(0xDEAD_BEEF),
            Frame::Goaway {
                last_stream_id: 41,
                status: 0,
            },
            Frame::WindowUpdate {
                stream_id: 11,
                delta: 32768,
            },
        ] {
            assert_eq!(roundtrip(f.clone()), f);
        }
    }

    #[test]
    fn parser_handles_fragmentation() {
        let mut comp = Compressor::new();
        let mut decomp = Decompressor::new();
        let f: Frame = Frame::Data {
            stream_id: 1,
            fin: false,
            payload: Payload::from(vec![1u8; 100]),
        };
        let mut wire = f.encode(&mut comp);
        let mut p = FrameParser::new();
        while !wire.is_empty() {
            p.push(wire.split_to(7.min(wire.len())));
        }
        assert_eq!(p.next_frame(&mut decomp).unwrap().unwrap(), f);
    }

    #[test]
    fn parser_handles_back_to_back_frames() {
        let mut comp = Compressor::new();
        let mut decomp = Decompressor::new();
        let a = Frame::<Headers>::Ping(1).encode(&mut comp);
        let b = Frame::<Headers>::Ping(2).encode(&mut comp);
        let mut p = FrameParser::new();
        p.push(a);
        p.push(b);
        assert_eq!(p.next_frame(&mut decomp).unwrap(), Some(Frame::Ping(1)));
        assert_eq!(p.next_frame(&mut decomp).unwrap(), Some(Frame::Ping(2)));
        assert_eq!(p.next_frame(&mut decomp).unwrap(), None);
    }

    #[test]
    fn headers_compress_across_requests() {
        // The SPDY claim the paper cites: repeated header sets shrink.
        let mut comp = Compressor::new();
        let headers = Headers::from_pairs(&[
            (":method", "GET"),
            (":host", "news.example"),
            ("user-agent", "Chrome/23.0 (Windows NT 6.1) AppleWebKit"),
            ("cookie", "sid=0123456789abcdef0123456789abcdef"),
        ]);
        let first = Frame::SynStream {
            stream_id: 1,
            priority: 0,
            fin: true,
            headers: headers.clone(),
        }
        .encode(&mut comp);
        let second = Frame::SynStream {
            stream_id: 3,
            priority: 0,
            fin: true,
            headers,
        }
        .encode(&mut comp);
        assert!(
            second.len() * 2 < first.len(),
            "repeat headers must shrink: {} then {}",
            first.len(),
            second.len()
        );
    }

    #[test]
    fn a_hand_built_frame_may_carry_string_pairs() {
        let headers = vec![
            (":status".to_string(), "200 OK".to_string()),
            ("set-cookie".to_string(), String::new()),
            ("set-cookie".to_string(), "a=b".to_string()),
        ];
        let by_pairs = Frame::SynReply {
            stream_id: 3,
            fin: false,
            headers: headers.clone(),
        };
        let by_block: Frame = Frame::SynReply {
            stream_id: 3,
            fin: false,
            headers: Headers::from(headers),
        };
        let wire = by_pairs.encode(&mut Compressor::new());
        assert_eq!(wire, by_block.encode(&mut Compressor::new()));
        let mut p = FrameParser::new();
        p.push(wire);
        assert_eq!(p.next_frame(&mut Decompressor::new()), Ok(Some(by_block)));
    }

    #[test]
    fn malformed_header_blocks_are_rejected_by_name() {
        let reply_with = |block: &[u8]| {
            let mut comp = Compressor::new();
            let z = comp.compress(block);
            let mut out = BytesMut::new();
            control_header(&mut out, T_SYN_REPLY, 0, 4 + z.len() as u32);
            out.put_u32(1);
            out.put_slice(&z);
            let mut p = FrameParser::new();
            p.push(Payload::real(out.freeze()));
            p.next_frame(&mut Decompressor::new())
        };
        let malformed = |m: &str| Err(FrameError::Malformed(m.into()));
        assert_eq!(reply_with(&[0, 0]), malformed("header count missing"));
        assert_eq!(
            reply_with(&[0, 0, 0, 1, 0]),
            malformed("truncated header name len")
        );
        assert_eq!(
            reply_with(&[0, 0, 0, 1, 0, 0, 0, 2, b'a']),
            malformed("truncated header name")
        );
        assert_eq!(
            reply_with(&[0, 0, 0, 1, 0, 0, 0, 1, 0xFF, 0, 0, 0, 0]),
            malformed("non-UTF8 header name")
        );
        assert_eq!(
            reply_with(&[0, 0, 0, 1, 0, 0, 0, 1, b'a', 0]),
            malformed("truncated header value len")
        );
        assert_eq!(
            reply_with(&[0, 0, 0, 1, 0, 0, 0, 1, b'a', 0, 0, 0, 2, b'v']),
            malformed("truncated header value")
        );
        assert_eq!(
            reply_with(&[0, 0, 0, 1, 0, 0, 0, 1, b'a', 0, 0, 0, 1, 0xC0]),
            malformed("non-UTF8 header value")
        );
    }

    #[test]
    fn unknown_control_type_is_an_error() {
        let mut out = BytesMut::new();
        control_header(&mut out, 99, 0, 0);
        let mut p = FrameParser::new();
        p.push(Payload::real(out.freeze()));
        let mut d = Decompressor::new();
        assert!(p.next_frame(&mut d).is_err());
    }

    #[test]
    fn priority_range_is_preserved() {
        for pri in 0..8u8 {
            let f = Frame::SynStream {
                stream_id: 1,
                priority: pri,
                fin: false,
                headers: Headers::new(),
            };
            match roundtrip(f) {
                Frame::SynStream { priority, .. } => assert_eq!(priority, pri),
                _ => panic!(),
            }
        }
    }
}
