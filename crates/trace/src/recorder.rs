//! The recorder that the simulation carries around.
//!
//! [`Tracer`] is the single object threaded through the `World`: it
//! owns the on/off switch, the sink, and the metrics registry, which it
//! folds from each event it takes (`crate::metrics`). Emission
//! sites call [`Tracer::active`] first (an inlined compare) so that at
//! `Off` no event — and none of its `String` fields — is ever
//! constructed. When a run finishes, [`Tracer::finish`] folds
//! everything into a [`FlightLog`], the self-contained artifact the
//! consumers (stall attributor, waterfall exporter, JSONL dump) read.

use std::any::Any;

use spdyier_sim::SimTime;

use crate::event::{TraceEvent, TraceLevel, TraceRecord};
use crate::metrics::{Books, MetricsRegistry};
use crate::sink::{self, MemorySink, NullSink, TraceSink};

/// A sink the recorder can hand back as the concrete type it was lent
/// as ([`Tracer::finish_into`]). Implemented for every `'static` sink.
trait LentSink: TraceSink {
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<S: TraceSink + 'static> LentSink for S {
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The per-run event recorder: on/off switch + sink + metrics.
pub struct Tracer {
    level: TraceLevel,
    sink: Box<dyn LentSink>,
    books: Books,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("level", &self.level)
            .finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::off()
    }
}

impl Tracer {
    /// A disabled recorder: `Off` level, [`NullSink`], no metrics.
    pub fn off() -> Tracer {
        Tracer::with_sink(TraceLevel::Off, Box::new(NullSink))
    }

    /// A recorder for `level`, retaining events in memory (the default
    /// for in-process consumers). `Off` degenerates to [`Tracer::off`].
    pub fn for_level(level: TraceLevel) -> Tracer {
        if level == TraceLevel::Off {
            return Tracer::off();
        }
        Tracer::with_sink(level, Box::new(MemorySink::new()))
    }

    /// A recorder for `level` writing into a caller-supplied sink
    /// (at `Off` the sink is held but never written to).
    pub fn with_sink<S: TraceSink + 'static>(level: TraceLevel, sink: Box<S>) -> Tracer {
        Tracer {
            level,
            sink,
            books: Books::default(),
        }
    }

    /// Whether events needing `level` are being recorded: at `Full`
    /// every event is. Emission sites check this before constructing an
    /// event, so `Off` costs one integer compare per site.
    #[inline]
    pub fn active(&self, level: TraceLevel) -> bool {
        level <= self.level && self.level != TraceLevel::Off
    }

    /// Record `event` at time `t` if the recorder is on: fold it into
    /// the metrics registry, then hand it to the sink.
    #[inline]
    pub fn emit(&mut self, t: SimTime, event: TraceEvent) {
        if self.level == TraceLevel::Off {
            return;
        }
        self.books.fold(t, &event);
        self.sink.record(TraceRecord { t, event });
    }

    /// Close out the run: drain the sink and package everything. The
    /// recorder's own throughput (`trace.emitted`) and the sink's loss
    /// (`trace.sink_dropped`) land in the metrics registry so
    /// `metrics_*.json` surfaces trace loss without consumers having to
    /// inspect the sink. Drain first: a sink that buffers may only learn
    /// what it lost while draining.
    pub fn finish(self) -> FlightLog {
        self.close().0
    }

    /// [`Tracer::finish`] for a recorder built by [`Tracer::with_sink`]
    /// around an `S`: the log holds what `S::drain` gave (nothing, for a
    /// sink that folds records instead of retaining them) and the sink
    /// itself is handed back. The recorder's books — `dropped` and the
    /// metrics registry — do not depend on the sink.
    ///
    /// # Panics
    /// If the recorder's sink is not an `S`.
    pub fn finish_into<S: TraceSink + 'static>(self) -> (FlightLog, S) {
        let (log, sink) = self.close();
        let sink = sink
            .into_any()
            .downcast::<S>()
            .expect("finish_into::<S> on a recorder whose sink is not an S");
        (log, *sink)
    }

    fn close(mut self) -> (FlightLog, Box<dyn LentSink>) {
        let events = self.sink.drain();
        let dropped = self.sink.dropped();
        let metrics = if self.level == TraceLevel::Off {
            MetricsRegistry::new()
        } else {
            self.books.close(dropped)
        };
        let log = FlightLog {
            events,
            dropped,
            metrics,
        };
        (log, self.sink)
    }
}

/// Everything a traced run recorded: the event stream, shed count,
/// and the metrics registry. Self-contained input for the consumers.
#[derive(Debug)]
pub struct FlightLog {
    /// All retained records, in emission (= simulated time) order.
    pub events: Vec<TraceRecord>,
    /// Records the sink shed ([`TraceSink::dropped`]).
    pub dropped: u64,
    /// The run's metrics registry; its `trace.emitted` counter is the
    /// number of records the recorder took (>= `events.len()`).
    pub metrics: MetricsRegistry,
}

impl FlightLog {
    /// The whole event stream as JSONL (one record per line).
    pub fn to_jsonl(&self) -> String {
        sink::to_jsonl(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keeps the first record and sheds the rest: the loss accounting's
    /// test double (no sink a run is lent sheds today).
    #[derive(Default)]
    struct Shedding {
        kept: Vec<TraceRecord>,
        shed: u64,
    }

    impl TraceSink for Shedding {
        fn record(&mut self, rec: TraceRecord) {
            if self.kept.is_empty() {
                self.kept.push(rec);
            } else {
                self.shed += 1;
            }
        }

        fn drain(&mut self) -> Vec<TraceRecord> {
            std::mem::take(&mut self.kept)
        }

        fn dropped(&self) -> u64 {
            self.shed
        }
    }

    fn visit_start(visit: usize) -> TraceEvent {
        TraceEvent::VisitStart { visit, site: 0 }
    }

    fn cwnd_sample() -> TraceEvent {
        TraceEvent::TcpCwnd {
            conn: 0,
            cwnd: 14_600,
            ssthresh: None,
            inflight: 0,
        }
    }

    #[test]
    fn off_tracer_materializes_nothing() {
        let mut tr = Tracer::off();
        assert!(!tr.active(TraceLevel::Full));
        tr.emit(SimTime::ZERO, visit_start(0));
        let log = tr.finish();
        assert!(log.events.is_empty());
        assert!(log.metrics.is_empty());
    }

    #[test]
    fn finish_reports_ring_shedding() {
        let mut tr = Tracer::with_sink(TraceLevel::Full, Box::<Shedding>::default());
        tr.emit(SimTime::ZERO, visit_start(0));
        tr.emit(SimTime::from_micros(1), visit_start(1));
        let log = tr.finish();
        assert_eq!(log.metrics.counter("trace.emitted"), 2);
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.dropped, 1);
    }

    #[test]
    fn finish_publishes_throughput_and_loss_metrics() {
        let mut tr = Tracer::with_sink(TraceLevel::Full, Box::<Shedding>::default());
        tr.emit(SimTime::ZERO, visit_start(0));
        tr.emit(SimTime::from_micros(1), visit_start(1));
        let log = tr.finish();
        assert_eq!(log.metrics.counter("trace.emitted"), 2);
        assert_eq!(log.metrics.counter("trace.sink_dropped"), 1);
    }

    #[test]
    fn jsonl_roundtrip_has_one_line_per_event() {
        let mut tr = Tracer::for_level(TraceLevel::Full);
        tr.emit(SimTime::ZERO, visit_start(0));
        tr.emit(SimTime::from_micros(1), cwnd_sample());
        let log = tr.finish();
        assert_eq!(log.to_jsonl().lines().count(), 2);
    }
}
