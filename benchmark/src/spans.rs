//! Harness-side spans around calls into the layers' public functions.
//!
//! The spans live in this benchmark, not in the program: they are kept in
//! memory while a pass runs and written out as `spans.jsonl` afterwards.
//! A span's self time is its duration minus the part its direct children
//! cover, so the self times of a pass partition its wall time exactly.

use spdyier_prof::global_counts;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The cell the span belongs to; spans of one cell share it.
    pub cell: Option<usize>,
    /// Allocator calls made while the span was open (children included).
    pub allocs: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log that records (`enabled`) or passes calls straight through.
    /// `capacity` spans are reserved up front so recording never
    /// allocates inside a measured call.
    pub fn new(enabled: bool, capacity: usize) -> SpanLog {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::with_capacity(8),
        }
    }

    pub fn open(&mut self, name: &'static str, cell: Option<usize>) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            cell,
            allocs: global_counts().allocs,
        });
        // Clock read last on entry and first on exit: the span times the
        // call, not the bookkeeping.
        let started = self.origin.elapsed().as_nanos() as u64;
        self.spans.last_mut().expect("just pushed").start_ns = started;
    }

    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let ended = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[self.open.pop().expect("close matches an open")];
        span.end_ns = ended;
        span.allocs = global_counts().allocs.wrapping_sub(span.allocs);
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, cell: Option<usize>, f: impl FnOnce() -> T) -> T {
        self.open(name, cell);
        let out = f();
        self.close();
        out
    }

    /// Self time per span name, nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] -= span.end_ns - span.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            *by_name.entry(span.name).or_insert(0) += ns;
        }
        by_name
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"cell\":{},\"allocs\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.cell),
                s.allocs
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut log = SpanLog::new(true, 16);
        log.open("pass", None);
        for cell in 0..3 {
            log.open("cell", Some(cell));
            log.time("stage.a", Some(cell), || {
                std::hint::black_box(vec![0u8; 64])
            });
            log.time("stage.b", Some(cell), || ());
            log.close();
        }
        log.close();
        let spans = &log.spans;
        assert_eq!(spans.len(), 10);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].cell, Some(0));
        assert!(
            spans[2].allocs >= 1,
            "the vec allocation is charged to stage.a"
        );
        let by_name = log.self_ns_by_name();
        let total: u64 = by_name.values().sum();
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        let lines = log.to_jsonl();
        assert_eq!(lines.lines().count(), 10);
        for line in lines.lines() {
            let v = serde_json::from_str(line).expect("span line is JSON");
            assert!(v.get("name").is_some() && v.get("parent").is_some());
        }
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, 16);
        log.open("pass", None);
        assert_eq!(log.time("stage", None, || 7), 7);
        log.close();
        assert!(log.spans.is_empty());
    }
}
