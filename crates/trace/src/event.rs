//! The typed cross-layer event vocabulary.
//!
//! Every layer of the testbed — cellular radio, link, TCP, SPDY/HTTP,
//! browser, proxy — emits into one stream of [`TraceEvent`]s, each
//! stamped with the simulated time it occurred at ([`TraceRecord`]).
//! Events are keyed by the identifiers the layers already share:
//! connection index (pipe slot in the `World`), visit index, stream id
//! or object tag. Serialization is externally tagged
//! (`{"VariantName": {...}}`), one JSON object per record, which is
//! one line of [`crate::to_jsonl`]'s output. Both directions are
//! derived, so the variants and their fields are spelled once, here.

use serde::{Deserialize, Serialize};
use spdyier_sim::SimTime;

/// Whether a run records the event vocabulary: not at all, or all of it.
///
/// `Off` is the zero-cost default — the recorder short-circuits before
/// any event is even constructed. `Full` records every event, including
/// per-segment sends, cwnd/ssthresh samples, and per-frame SPDY receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum TraceLevel {
    /// Record nothing; the recorder is a no-op.
    Off,
    /// Record every event and metric.
    Full,
}

impl TraceLevel {
    /// Parse a manifest's `trace` field: `"off"` or `"full"`; `None` for
    /// anything else.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "full" => Some(TraceLevel::Full),
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    // -- Visits, objects, requests, connections, proxy ---------------------
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

    // -- Radio, link, and TCP recovery -----------------------------------
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

    // -- Per-segment, per-window, and per-frame samples ------------------
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

/// An event plus the simulated instant it happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Simulated time of the event, microseconds since run start.
    pub t: SimTime,
    /// The event itself.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_from_their_manifest_names_only() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("full"), Some(TraceLevel::Full));
        for refused in ["", "none", "frames", "0", "3", "OFF", " full", "transport"] {
            assert_eq!(TraceLevel::parse(refused), None, "{refused:?}");
        }
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
        assert_eq!(
            crate::to_jsonl(&[rec]),
            "{\"t\":1500,\"event\":{\"VisitEnd\":{\"visit\":2,\"completed\":true,\"plt_us\":1200000}}}\n"
        );
    }
}
