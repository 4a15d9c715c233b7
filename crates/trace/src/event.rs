//! The typed cross-layer event vocabulary.
//!
//! Every layer of the testbed — cellular radio, link, TCP, SPDY/HTTP,
//! browser, proxy — emits into one stream of [`TraceEvent`]s, each
//! stamped with the simulated time it occurred at ([`TraceRecord`]).
//! Events are keyed by the identifiers the layers already share:
//! connection index (pipe slot in the `World`), visit index, stream id
//! or object tag. Serialization is externally tagged
//! (`{"VariantName": {...}}`), one JSON object per record, which is
//! one line of [`crate::to_jsonl`]'s output.

use serde::Serialize;
use spdyier_sim::SimTime;

/// How much of the event vocabulary a run records.
///
/// Levels are cumulative: `Transport` includes everything `Lifecycle`
/// records, `Full` includes everything. `Off` is the zero-cost default —
/// the recorder short-circuits before any event is even constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum TraceLevel {
    /// Record nothing; the recorder is a no-op.
    Off,
    /// Visit, object, request/response, stream, and connection lifecycle
    /// plus proxy routing decisions — what a HAR waterfall needs.
    Lifecycle,
    /// Lifecycle plus radio promotions, link drops, RTO fires, idle
    /// restarts, and retransmissions — what stall attribution needs.
    Transport,
    /// Everything, including per-segment sends, cwnd/ssthresh samples,
    /// and per-frame SPDY receives.
    Full,
}

impl TraceLevel {
    /// Parse a level name or digit (a manifest's `trace` field); `None`
    /// for unrecognized input.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "none" => Some(TraceLevel::Off),
            "1" | "lifecycle" => Some(TraceLevel::Lifecycle),
            "2" | "transport" => Some(TraceLevel::Transport),
            "3" | "full" | "frames" => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

/// One event, from whichever layer produced it.
///
/// Field conventions: `conn` is the pipe index in the `World`, `visit`
/// the visit index in the schedule, `tag` the object tag carried in
/// request/response framing, `down` distinguishes downlink from uplink
/// on the access path, and `b_side` marks the proxy/origin end of a
/// pipe (as opposed to the device end).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TraceEvent {
    // -- Lifecycle -------------------------------------------------------
    /// A page visit began.
    VisitStart { visit: usize, site: usize },
    /// A page visit finished (or was abandoned at its deadline).
    VisitEnd {
        visit: usize,
        completed: bool,
        plt_us: u64,
    },
    /// The browser asked for an object (it left the parse queue).
    ObjectRequested { visit: usize, object: u32 },
    /// First response byte for an object reached the browser.
    ObjectFirstByte { visit: usize, object: u32 },
    /// The last byte of an object arrived; the fetch is done.
    ObjectComplete { visit: usize, object: u32 },
    /// An HTTP request was written to a connection. `gen` is the visit
    /// generation the request belongs to (tags are per-generation).
    HttpRequestSent { conn: usize, gen: u64, tag: u64 },
    /// An HTTP response body completed on a connection.
    HttpResponseDone { conn: usize, gen: u64, tag: u64 },
    /// A SPDY stream was opened for an object.
    SpdyStreamOpen {
        conn: usize,
        stream: u32,
        gen: u64,
        tag: u64,
    },
    /// A transport connection was opened.
    ConnOpened {
        conn: usize,
        over_access: bool,
        label: String,
    },
    /// A transport connection was closed and harvested.
    ConnClosed { conn: usize },
    /// The TLS-equivalent handshake finished; the pipe is usable.
    SslReady { conn: usize },
    /// The proxy routed an origin fetch onto a wired connection.
    ProxyFetchDispatch {
        fetch: u64,
        conn: usize,
        fresh_pipe: bool,
        domain: String,
    },
    /// The proxy late-bound a finished origin fetch to a device session.
    ProxyLateBind {
        fetch: u64,
        owner_session: usize,
        chosen_session: usize,
    },
    /// The origin is "thinking" (server-side latency) until `until`.
    OriginThink { conn: usize, until: SimTime },

    // -- Transport -------------------------------------------------------
    /// An RRC promotion interval (IDLE/FACH -> DCH and similar).
    RrcPromotion {
        kind: String,
        start: SimTime,
        done: SimTime,
    },
    /// The access link dropped a segment.
    LinkDrop {
        conn: usize,
        down: bool,
        queue_overflow: bool,
    },
    /// A TCP retransmission timeout fired.
    TcpRto {
        conn: usize,
        b_side: bool,
        silent_since: SimTime,
    },
    /// TCP restarted from idle (cwnd collapsed after quiescence).
    TcpIdleRestart { conn: usize, b_side: bool },
    /// TCP retransmitted a data segment.
    TcpRetransmit { conn: usize, down: bool },

    // -- Full ------------------------------------------------------------
    /// A congestion-window sample (emitted when the tuple changes).
    TcpCwnd {
        conn: usize,
        cwnd: u64,
        ssthresh: Option<u64>,
        inflight: u64,
    },
    /// A segment entered the link; `deliver` is its arrival time and
    /// `ser_us` the serialization (transmission) share of that journey.
    SegmentSent {
        conn: usize,
        down: bool,
        bytes: u64,
        deliver: SimTime,
        ser_us: u64,
        retransmit: bool,
    },
    /// A SPDY frame reached the device.
    SpdyFrameRecv {
        conn: usize,
        stream: u32,
        kind: String,
        fin: bool,
    },
}

impl TraceEvent {
    /// The minimum [`TraceLevel`] at which this event is recorded.
    pub fn level(&self) -> TraceLevel {
        use TraceEvent::*;
        match self {
            VisitStart { .. }
            | VisitEnd { .. }
            | ObjectRequested { .. }
            | ObjectFirstByte { .. }
            | ObjectComplete { .. }
            | HttpRequestSent { .. }
            | HttpResponseDone { .. }
            | SpdyStreamOpen { .. }
            | ConnOpened { .. }
            | ConnClosed { .. }
            | SslReady { .. }
            | ProxyFetchDispatch { .. }
            | ProxyLateBind { .. }
            | OriginThink { .. } => TraceLevel::Lifecycle,
            RrcPromotion { .. }
            | LinkDrop { .. }
            | TcpRto { .. }
            | TcpIdleRestart { .. }
            | TcpRetransmit { .. } => TraceLevel::Transport,
            TcpCwnd { .. } | SegmentSent { .. } | SpdyFrameRecv { .. } => TraceLevel::Full,
        }
    }
}

/// An event plus the simulated instant it happened.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceRecord {
    /// Simulated time of the event, microseconds since run start.
    pub t: SimTime,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// One JSONL line (no trailing newline) for this record.
    pub fn to_jsonl_line(&self) -> String {
        let mut out = String::new();
        self.write_jsonl_line(&mut out);
        out
    }

    /// Append this record's JSONL line (no trailing newline) to `out`.
    ///
    /// Byte-identical to `serde_json::to_string(self)` — the test suite
    /// pins that equivalence for every variant — but serializes straight
    /// into the caller's buffer instead of building a `Value` tree and a
    /// fresh `String` per record, so [`crate::to_jsonl`] renders a whole
    /// log into one growing string.
    pub fn write_jsonl_line(&self, out: &mut String) {
        out.push_str("{\"t\":");
        push_u64(out, self.t.as_micros());
        out.push_str(",\"event\":");
        self.event.write_json(out);
        out.push('}');
    }
}

/// Append `v` in decimal. `fmt::Write` into a `String` never errors and
/// never allocates a temporary, unlike `v.to_string()`.
fn push_u64(out: &mut String, v: u64) {
    use std::fmt::Write;
    let _ = write!(out, "{v}");
}

/// Append a JSON string literal, matching the vendored renderer's
/// escaping byte for byte: named escapes for `"` `\` `\n` `\r` `\t`,
/// `\u00XX` for other control characters, everything else verbatim.
fn push_json_str(out: &mut String, s: &str) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Emit `{"Variant":{"field":value,...}}` for one event. The macro
/// keeps each arm a literal transcription of the derive output —
/// externally tagged, fields in declaration order, `usize`/`u32`/`u64`
/// as bare decimals, `SimTime` transparent (bare microseconds),
/// `Option<u64>` as `null`/decimal — with all the punctuation assembled
/// at compile time via `concat!`.
macro_rules! emit_variant {
    ($out:ident, $tag:literal {
        $first:literal => $fpush:ident($fv:expr)
        $(, $rest:literal => $rpush:ident($rv:expr))*
    }) => {{
        $out.push_str(concat!("{\"", $tag, "\":{\"", $first, "\":"));
        $fpush($out, $fv);
        $(
            $out.push_str(concat!(",\"", $rest, "\":"));
            $rpush($out, $rv);
        )*
        $out.push_str("}}");
    }};
}

fn push_usize(out: &mut String, v: usize) {
    push_u64(out, v as u64);
}

fn push_u32(out: &mut String, v: u32) {
    push_u64(out, u64::from(v));
}

fn push_bool(out: &mut String, v: bool) {
    out.push_str(if v { "true" } else { "false" });
}

fn push_time(out: &mut String, v: SimTime) {
    push_u64(out, v.as_micros());
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => push_u64(out, v),
        None => out.push_str("null"),
    }
}

impl TraceEvent {
    /// Append this event's externally-tagged JSON object to `out`.
    fn write_json(&self, out: &mut String) {
        use TraceEvent::*;
        match self {
            VisitStart { visit, site } => emit_variant!(out, "VisitStart" {
                "visit" => push_usize(*visit), "site" => push_usize(*site)
            }),
            VisitEnd {
                visit,
                completed,
                plt_us,
            } => emit_variant!(out, "VisitEnd" {
                "visit" => push_usize(*visit), "completed" => push_bool(*completed),
                "plt_us" => push_u64(*plt_us)
            }),
            ObjectRequested { visit, object } => emit_variant!(out, "ObjectRequested" {
                "visit" => push_usize(*visit), "object" => push_u32(*object)
            }),
            ObjectFirstByte { visit, object } => emit_variant!(out, "ObjectFirstByte" {
                "visit" => push_usize(*visit), "object" => push_u32(*object)
            }),
            ObjectComplete { visit, object } => emit_variant!(out, "ObjectComplete" {
                "visit" => push_usize(*visit), "object" => push_u32(*object)
            }),
            HttpRequestSent { conn, gen, tag } => emit_variant!(out, "HttpRequestSent" {
                "conn" => push_usize(*conn), "gen" => push_u64(*gen), "tag" => push_u64(*tag)
            }),
            HttpResponseDone { conn, gen, tag } => emit_variant!(out, "HttpResponseDone" {
                "conn" => push_usize(*conn), "gen" => push_u64(*gen), "tag" => push_u64(*tag)
            }),
            SpdyStreamOpen {
                conn,
                stream,
                gen,
                tag,
            } => emit_variant!(out, "SpdyStreamOpen" {
                "conn" => push_usize(*conn), "stream" => push_u32(*stream),
                "gen" => push_u64(*gen), "tag" => push_u64(*tag)
            }),
            ConnOpened {
                conn,
                over_access,
                label,
            } => emit_variant!(out, "ConnOpened" {
                "conn" => push_usize(*conn), "over_access" => push_bool(*over_access),
                "label" => push_json_str(label)
            }),
            ConnClosed { conn } => emit_variant!(out, "ConnClosed" {
                "conn" => push_usize(*conn)
            }),
            SslReady { conn } => emit_variant!(out, "SslReady" {
                "conn" => push_usize(*conn)
            }),
            ProxyFetchDispatch {
                fetch,
                conn,
                fresh_pipe,
                domain,
            } => emit_variant!(out, "ProxyFetchDispatch" {
                "fetch" => push_u64(*fetch), "conn" => push_usize(*conn),
                "fresh_pipe" => push_bool(*fresh_pipe), "domain" => push_json_str(domain)
            }),
            ProxyLateBind {
                fetch,
                owner_session,
                chosen_session,
            } => emit_variant!(out, "ProxyLateBind" {
                "fetch" => push_u64(*fetch), "owner_session" => push_usize(*owner_session),
                "chosen_session" => push_usize(*chosen_session)
            }),
            OriginThink { conn, until } => emit_variant!(out, "OriginThink" {
                "conn" => push_usize(*conn), "until" => push_time(*until)
            }),
            RrcPromotion { kind, start, done } => emit_variant!(out, "RrcPromotion" {
                "kind" => push_json_str(kind), "start" => push_time(*start),
                "done" => push_time(*done)
            }),
            LinkDrop {
                conn,
                down,
                queue_overflow,
            } => emit_variant!(out, "LinkDrop" {
                "conn" => push_usize(*conn), "down" => push_bool(*down),
                "queue_overflow" => push_bool(*queue_overflow)
            }),
            TcpRto {
                conn,
                b_side,
                silent_since,
            } => emit_variant!(out, "TcpRto" {
                "conn" => push_usize(*conn), "b_side" => push_bool(*b_side),
                "silent_since" => push_time(*silent_since)
            }),
            TcpIdleRestart { conn, b_side } => emit_variant!(out, "TcpIdleRestart" {
                "conn" => push_usize(*conn), "b_side" => push_bool(*b_side)
            }),
            TcpRetransmit { conn, down } => emit_variant!(out, "TcpRetransmit" {
                "conn" => push_usize(*conn), "down" => push_bool(*down)
            }),
            TcpCwnd {
                conn,
                cwnd,
                ssthresh,
                inflight,
            } => emit_variant!(out, "TcpCwnd" {
                "conn" => push_usize(*conn), "cwnd" => push_u64(*cwnd),
                "ssthresh" => push_opt_u64(*ssthresh), "inflight" => push_u64(*inflight)
            }),
            SegmentSent {
                conn,
                down,
                bytes,
                deliver,
                ser_us,
                retransmit,
            } => emit_variant!(out, "SegmentSent" {
                "conn" => push_usize(*conn), "down" => push_bool(*down),
                "bytes" => push_u64(*bytes), "deliver" => push_time(*deliver),
                "ser_us" => push_u64(*ser_us), "retransmit" => push_bool(*retransmit)
            }),
            SpdyFrameRecv {
                conn,
                stream,
                kind,
                fin,
            } => emit_variant!(out, "SpdyFrameRecv" {
                "conn" => push_usize(*conn), "stream" => push_u32(*stream),
                "kind" => push_json_str(kind), "fin" => push_bool(*fin)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_parseable() {
        assert!(TraceLevel::Off < TraceLevel::Lifecycle);
        assert!(TraceLevel::Lifecycle < TraceLevel::Transport);
        assert!(TraceLevel::Transport < TraceLevel::Full);
        assert_eq!(TraceLevel::parse("transport"), Some(TraceLevel::Transport));
        assert_eq!(TraceLevel::parse("3"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("OFF"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("verbose"), None);
    }

    #[test]
    fn event_levels_match_vocabulary_tiers() {
        let start = TraceEvent::VisitStart { visit: 0, site: 3 };
        assert_eq!(start.level(), TraceLevel::Lifecycle);
        let rto = TraceEvent::TcpRto {
            conn: 1,
            b_side: true,
            silent_since: SimTime::from_micros(10),
        };
        assert_eq!(rto.level(), TraceLevel::Transport);
        let seg = TraceEvent::SegmentSent {
            conn: 1,
            down: true,
            bytes: 1400,
            deliver: SimTime::from_micros(500),
            ser_us: 120,
            retransmit: false,
        };
        assert_eq!(seg.level(), TraceLevel::Full);
    }

    /// One exemplar per variant, with string fields that exercise the
    /// escaping rules (quotes, backslashes, named escapes, raw control
    /// characters) and numeric extremes.
    fn exemplars() -> Vec<TraceEvent> {
        use TraceEvent::*;
        vec![
            VisitStart { visit: 0, site: 19 },
            VisitEnd {
                visit: usize::MAX,
                completed: false,
                plt_us: u64::MAX,
            },
            ObjectRequested {
                visit: 3,
                object: u32::MAX,
            },
            ObjectFirstByte {
                visit: 4,
                object: 0,
            },
            ObjectComplete {
                visit: 5,
                object: 77,
            },
            HttpRequestSent {
                conn: 1,
                gen: 2,
                tag: 3,
            },
            HttpResponseDone {
                conn: 9,
                gen: 0,
                tag: u64::MAX,
            },
            SpdyStreamOpen {
                conn: 2,
                stream: 41,
                gen: 7,
                tag: 8,
            },
            ConnOpened {
                conn: 6,
                over_access: true,
                label: "dev\"ice\\a[3]\n\t\r\u{1}\u{1F}é".to_string(),
            },
            ConnClosed { conn: 11 },
            SslReady { conn: 12 },
            ProxyFetchDispatch {
                fetch: 99,
                conn: 4,
                fresh_pipe: true,
                domain: "static.example.org".to_string(),
            },
            ProxyLateBind {
                fetch: 100,
                owner_session: 1,
                chosen_session: 2,
            },
            OriginThink {
                conn: 3,
                until: SimTime::from_micros(123_456_789),
            },
            RrcPromotion {
                kind: "idle->dch".to_string(),
                start: SimTime::ZERO,
                done: SimTime::from_micros(u64::MAX),
            },
            LinkDrop {
                conn: 5,
                down: true,
                queue_overflow: false,
            },
            TcpRto {
                conn: 6,
                b_side: true,
                silent_since: SimTime::from_micros(42),
            },
            TcpIdleRestart {
                conn: 7,
                b_side: false,
            },
            TcpRetransmit {
                conn: 8,
                down: false,
            },
            TcpCwnd {
                conn: 9,
                cwnd: 14_600,
                ssthresh: None,
                inflight: 2_920,
            },
            TcpCwnd {
                conn: 9,
                cwnd: 29_200,
                ssthresh: Some(u64::MAX),
                inflight: 0,
            },
            SegmentSent {
                conn: 10,
                down: true,
                bytes: 1_400,
                deliver: SimTime::from_micros(987_654),
                ser_us: 120,
                retransmit: true,
            },
            SpdyFrameRecv {
                conn: 11,
                stream: 13,
                kind: "SYN_REPLY".to_string(),
                fin: true,
            },
        ]
    }

    #[test]
    fn manual_serializer_matches_serde_for_every_variant() {
        for (i, event) in exemplars().into_iter().enumerate() {
            let rec = TraceRecord {
                t: SimTime::from_micros(1_000 + i as u64),
                event,
            };
            let via_serde = serde_json::to_string(&rec).expect("serialize");
            assert_eq!(
                rec.to_jsonl_line(),
                via_serde,
                "variant {i} diverged from the derive output"
            );
        }
    }

    #[test]
    fn write_jsonl_line_appends_without_clearing() {
        let rec = TraceRecord {
            t: SimTime::from_micros(7),
            event: TraceEvent::ConnClosed { conn: 1 },
        };
        let mut out = String::from("prefix:");
        rec.write_jsonl_line(&mut out);
        assert_eq!(out, format!("prefix:{}", rec.to_jsonl_line()));
    }

    #[test]
    fn records_serialize_as_externally_tagged_jsonl() {
        let rec = TraceRecord {
            t: SimTime::from_micros(1500),
            event: TraceEvent::VisitEnd {
                visit: 2,
                completed: true,
                plt_us: 1_200_000,
            },
        };
        let line = rec.to_jsonl_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"VisitEnd\""), "line: {line}");
        assert!(line.contains("\"plt_us\":1200000"), "line: {line}");
        assert!(!line.contains('\n'));
    }
}
