//! Strict JSONL trace parsing: the inverse of the flight recorder's
//! `trace_*.jsonl` writer ([`spdyier_trace::to_jsonl`]).
//!
//! Each line is `{"t":<µs>,"event":{"Variant":{...}}}`, decoded by the
//! `Deserialize` that [`TraceRecord`] derives beside its `Serialize`, so
//! the vocabulary is spelled once, in `spdyier_trace`. Decoding is
//! strict — malformed JSON, an unknown variant, a missing or unknown
//! field is an error naming the line number and the field path
//! (`line 7: … event.TcpRto.conn: missing key`), never a silently
//! skipped record — because the causal engine must refuse to explain an
//! event stream it does not fully understand.

use spdyier_trace::TraceRecord;

/// Parse a whole `trace_*.jsonl` document (blank lines allowed).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = serde_json::from_str(line).and_then(serde_json::from_value);
        out.push(record.map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_sim::SimTime;
    use spdyier_trace::{to_jsonl, TraceEvent};

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
    fn every_exemplar_round_trips_through_the_writer() {
        let recs: Vec<TraceRecord> = exemplars()
            .into_iter()
            .enumerate()
            .map(|(i, event)| TraceRecord {
                t: SimTime::from_micros(1_000 + i as u64),
                event,
            })
            .collect();
        let text = to_jsonl(&recs);
        assert_eq!(
            text.lines().nth(8),
            Some(
                r#"{"t":1008,"event":{"ConnOpened":{"conn":6,"over_access":true,"label":"dev\"ice\\a[3]\n\t\r\u0001\u001fé"}}}"#
            )
        );
        assert_eq!(parse_jsonl(&format!("\n{text}\n")).unwrap(), recs);
    }

    #[test]
    fn unknown_variants_and_missing_or_extra_fields_are_errors() {
        let cases = [
            (
                "{\"t\":1,\"event\":{\"Mystery\":{}}}",
                "event: unknown variant \"Mystery\"",
            ),
            (
                "{\"t\":1,\"event\":{\"ConnClosed\":{}}}",
                "event.ConnClosed.conn: missing key",
            ),
            (
                "{\"t\":1,\"event\":{\"ConnClosed\":{\"conn\":1,\"x\":2}}}",
                "event.ConnClosed.x: unknown key",
            ),
            (
                "{\"t\":-1,\"event\":{\"SslReady\":{\"conn\":1}}}",
                "t: expected an unsigned",
            ),
            ("not json", "at line 1 column 1"),
        ];
        for (line, want) in cases {
            let e = parse_jsonl(&format!("\n{line}")).unwrap_err();
            assert!(e.starts_with("line 2: ") && e.contains(want), "{e}");
        }
    }
}
