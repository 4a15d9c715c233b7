//! Where trace records go.
//!
//! A [`TraceSink`] receives fully-formed [`TraceRecord`]s from the
//! recorder. Two built-ins: [`NullSink`] discards everything (the
//! zero-cost default — the recorder never even constructs events when
//! the level is `Off`) and [`MemorySink`] keeps everything for
//! in-process consumers like the stall attributor. The third sink a run
//! is ever lent, `spdyier_causal::ModelBuilder`, folds records into the
//! causal event model instead of retaining them.

use crate::event::TraceRecord;
use serde::{Serialize, Writer};

/// A destination for trace records.
///
/// Sinks must be `Send` so traced runs can still ride the parallel
/// sweep executor. `drain` hands back whatever the sink retained (sinks
/// that retain nothing return an empty vec) and `dropped` reports how
/// many records the sink shed under pressure.
pub trait TraceSink: Send {
    /// Accept one record.
    fn record(&mut self, rec: TraceRecord);

    /// Take all retained records out of the sink, oldest first.
    fn drain(&mut self) -> Vec<TraceRecord> {
        Vec::new()
    }

    /// How many records this sink has discarded (capacity, not level,
    /// filtering — the recorder never sends events above its level).
    fn dropped(&self) -> u64 {
        0
    }
}

/// Discards every record. The `Off` configuration.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _rec: TraceRecord) {}
}

/// Retains every record in memory, unbounded.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: TraceRecord) {
        self.records.push(rec);
    }

    fn drain(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Print records as one JSONL string (one line per record, trailing
/// newline after each), through the derived `Serialize`. The canonical
/// on-disk trace format; `spdyier_causal::parse_jsonl` reads it back.
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        rec.serialize(&mut Writer::new(&mut out, false));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use spdyier_sim::SimTime;

    fn rec(us: u64, visit: usize) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_micros(us),
            event: TraceEvent::VisitStart { visit, site: 0 },
        }
    }

    #[test]
    fn memory_sink_retains_in_order() {
        let mut sink = MemorySink::new();
        sink.record(rec(1, 0));
        sink.record(rec(2, 1));
        let drained = sink.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].t, SimTime::from_micros(1));
        assert!(sink.drain().is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn null_sink_retains_nothing() {
        let mut sink = NullSink;
        sink.record(rec(1, 0));
        assert!(sink.drain().is_empty());
        assert_eq!(sink.dropped(), 0);
    }
}
