//! Mergeable span statistics and the machine-readable self-report.
//!
//! [`ProfileReport`] is what [`crate::take_thread_profile`] drains into:
//! per-span call counts, inclusive/self nanoseconds, self-attributed
//! allocations, and a power-of-two duration histogram (reusing
//! [`spdyier_trace::Histogram`], the same shape the metrics registry
//! uses). Reports merge across threads/shards, and roll up into
//! per-subsystem rows (everything before the first `.` of a span name),
//! which — because self-columns exclude nested spans — partition the
//! profiled wall-time and allocations exactly.
//!
//! [`SelfReport`] is the `profile_*.json` artifact: schema-versioned,
//! `BTreeMap`-keyed (so the key set and order are deterministic even
//! though the host timings inside are not), combining the span table
//! with run-level facts (wall-time, total allocations, events/s, trace
//! sink throughput and drops, peak RSS).

use std::collections::BTreeMap;

use serde::Serialize;
use spdyier_trace::Histogram;

/// Schema version stamped into `profile_*.json` (bump on breaking
/// key-set changes; golden tests pin it).
pub const PROFILE_SCHEMA_VERSION: u32 = 1;

/// Accumulated statistics for one span name.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SpanStats {
    /// Times the span was entered.
    pub calls: u64,
    /// Inclusive host nanoseconds (contains nested spans).
    pub total_ns: u64,
    /// Self host nanoseconds (nested spans excluded).
    pub self_ns: u64,
    /// Allocations attributed to the span itself.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Power-of-two histogram of per-call inclusive nanoseconds.
    pub ns: Histogram,
}

impl SpanStats {
    /// Fold another span's statistics into this one.
    pub fn merge(&mut self, other: &SpanStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.ns.merge(&other.ns);
    }
}

/// A span table: scope name → statistics, deterministically ordered.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ProfileReport {
    /// Per-span statistics keyed by scope name.
    pub spans: BTreeMap<String, SpanStats>,
}

impl ProfileReport {
    /// An empty report.
    pub fn new() -> ProfileReport {
        ProfileReport::default()
    }

    /// True when no span recorded anything.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Fold another report into this one (span-wise merge). Shard-level
    /// reports combine without retaining anything per cell.
    pub fn merge(&mut self, other: &ProfileReport) {
        for (name, stats) in &other.spans {
            self.spans.entry(name.clone()).or_default().merge(stats);
        }
    }

    /// Roll spans up by subsystem — the prefix before the first `.` of
    /// the span name (`"driver.deliver"` → `"driver"`). Self-columns
    /// partition exactly, so subsystem rows sum to the profiled totals.
    pub fn subsystems(&self) -> BTreeMap<String, SubsystemStats> {
        let mut out: BTreeMap<String, SubsystemStats> = BTreeMap::new();
        for (name, stats) in &self.spans {
            let key = name.split('.').next().unwrap_or(name).to_string();
            let row = out.entry(key).or_default();
            row.calls += stats.calls;
            row.self_ns += stats.self_ns;
            row.allocs += stats.allocs;
            row.alloc_bytes += stats.alloc_bytes;
        }
        out
    }
}

/// One subsystem row of the rollup (self-attributed, so rows partition
/// the profiled time and allocations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SubsystemStats {
    /// Spans entered under this subsystem.
    pub calls: u64,
    /// Self host nanoseconds.
    pub self_ns: u64,
    /// Self-attributed allocations.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Trace-sink throughput facts for the self-report.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SinkReport {
    /// Events that passed the recorder's level gate.
    pub emitted: u64,
    /// Events held in memory at the end of the run (0 for a sink that
    /// folds records as they arrive instead of retaining them).
    pub retained: u64,
    /// Events the sink shed (ring overflow / write failures).
    pub dropped: u64,
    /// Emitted events per host second over the profiled window.
    pub events_per_sec: f64,
}

/// The end-of-run `profile_*.json` artifact.
#[derive(Debug, Clone, Serialize)]
pub struct SelfReport {
    /// [`PROFILE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Whether the span profiler was enabled for the run.
    pub profiler_enabled: bool,
    /// What was profiled (`"http 3g seeds=1"` style, caller-defined).
    pub workload: String,
    /// Host wall-time of the profiled window, milliseconds.
    pub wall_ms: f64,
    /// Simulated visits completed in the window.
    pub visits: u64,
    /// Process-wide allocations over the window.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// `allocs / visits` (0 when no visit completed).
    pub allocs_per_visit: f64,
    /// Trace events emitted in the window.
    pub events: u64,
    /// Trace events per host second.
    pub events_per_sec: f64,
    /// Trace sink throughput and loss.
    pub sink: SinkReport,
    /// Peak resident set size, kilobytes.
    pub peak_rss_kb: u64,
    /// Per-subsystem rollup of the span table.
    pub subsystems: BTreeMap<String, SubsystemStats>,
    /// The full span table.
    pub spans: BTreeMap<String, SpanStats>,
}

impl SelfReport {
    /// Assemble a self-report from a merged span table and run-level
    /// facts. `wall_ms` of 0 yields 0 rates rather than infinities.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        workload: String,
        profile: &ProfileReport,
        wall_ms: f64,
        visits: u64,
        alloc_delta: crate::AllocCounts,
        events: u64,
        sink: SinkReport,
    ) -> SelfReport {
        let secs = wall_ms / 1e3;
        let rate = |n: u64| if secs > 0.0 { n as f64 / secs } else { 0.0 };
        SelfReport {
            schema_version: PROFILE_SCHEMA_VERSION,
            profiler_enabled: crate::enabled(),
            workload,
            wall_ms,
            visits,
            allocs: alloc_delta.allocs,
            alloc_bytes: alloc_delta.bytes,
            allocs_per_visit: if visits > 0 {
                alloc_delta.allocs as f64 / visits as f64
            } else {
                0.0
            },
            events,
            events_per_sec: rate(events),
            sink,
            peak_rss_kb: peak_rss_kb(),
            subsystems: profile.subsystems(),
            spans: profile.spans.clone(),
        }
    }

    /// Render as pretty JSON (deterministic key set and order).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("self-report serializes")
    }
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`; 0 where unavailable).
pub fn peak_rss_kb() -> u64 {
    PeakRss::open().kb()
}

/// `/proc/self/status` held open, for a caller that asks again and
/// again (a heartbeat per cell): each reading is a seek and one read
/// into a fixed buffer, where [`peak_rss_kb`] opens, fills a fresh
/// `String` and closes.
#[derive(Debug)]
pub struct PeakRss {
    status: Option<std::fs::File>,
}

impl PeakRss {
    /// Open the status file; readings are 0 where there is none.
    pub fn open() -> PeakRss {
        PeakRss {
            status: std::fs::File::open("/proc/self/status").ok(),
        }
    }

    /// `VmHWM` now, in kilobytes.
    pub fn kb(&mut self) -> u64 {
        use std::io::{Read, Seek, SeekFrom};
        let Some(status) = self.status.as_mut() else {
            return 0;
        };
        // The file is about 1.5 KB and `VmHWM` sits in its first third.
        let mut buf = [0u8; 4096];
        let mut len = 0;
        if status.seek(SeekFrom::Start(0)).is_err() {
            return 0;
        }
        while len < buf.len() {
            match status.read(&mut buf[len..]) {
                Ok(0) | Err(_) => break,
                Ok(n) => len += n,
            }
        }
        vm_hwm_kb(&buf[..len])
    }
}

/// The number on the `VmHWM:` line of a `/proc/<pid>/status` image.
fn vm_hwm_kb(status: &[u8]) -> u64 {
    status
        .split(|&b| b == b'\n')
        .find_map(|line| line.strip_prefix(b"VmHWM:"))
        .map_or(0, |rest| {
            rest.iter()
                .filter(|b| b.is_ascii_digit())
                .fold(0, |kb, &d| kb * 10 + u64::from(d - b'0'))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_the_status_image() {
        let status =
            b"Name:\texperiments\nVmPeak:\t  300000 kB\nVmHWM:\t   26812 kB\nVmRSS:\t   20000 kB\n";
        assert_eq!(vm_hwm_kb(status), 26_812);
        assert_eq!(vm_hwm_kb(b"Name:\tx\n"), 0);
        if cfg!(target_os = "linux") {
            let text = std::fs::read_to_string("/proc/self/status").expect("procfs");
            let line = text
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .expect("VmHWM");
            let want: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
            let got = PeakRss::open().kb();
            assert!(got >= want && got > 0, "{got} vs {want}");
        }
    }

    fn span(calls: u64, self_ns: u64, allocs: u64) -> SpanStats {
        let mut s = SpanStats {
            calls,
            total_ns: self_ns,
            self_ns,
            allocs,
            alloc_bytes: allocs * 8,
            ns: Histogram::default(),
        };
        s.ns.observe(self_ns);
        s
    }

    #[test]
    fn merge_accumulates_span_wise() {
        let mut a = ProfileReport::new();
        a.spans.insert("tcp.deliver".into(), span(2, 100, 4));
        let mut b = ProfileReport::new();
        b.spans.insert("tcp.deliver".into(), span(3, 50, 1));
        b.spans.insert("driver.timer".into(), span(1, 10, 0));
        a.merge(&b);
        assert_eq!(a.spans.len(), 2);
        let t = &a.spans["tcp.deliver"];
        assert_eq!(t.calls, 5);
        assert_eq!(t.self_ns, 150);
        assert_eq!(t.allocs, 5);
        assert_eq!(t.ns.count, 2);
    }

    #[test]
    fn subsystem_rollup_groups_by_prefix() {
        let mut r = ProfileReport::new();
        r.spans.insert("driver.deliver".into(), span(1, 100, 2));
        r.spans.insert("driver.timer".into(), span(1, 50, 1));
        r.spans.insert("world.drain_tx".into(), span(4, 25, 7));
        let subs = r.subsystems();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs["driver"].self_ns, 150);
        assert_eq!(subs["driver"].calls, 2);
        assert_eq!(subs["world"].allocs, 7);
    }

    #[test]
    fn self_report_has_stable_schema() {
        let report = SelfReport::assemble(
            "test".into(),
            &ProfileReport::new(),
            1000.0,
            10,
            crate::AllocCounts {
                allocs: 100,
                bytes: 800,
            },
            5000,
            SinkReport::default(),
        );
        assert_eq!(report.schema_version, PROFILE_SCHEMA_VERSION);
        assert!((report.allocs_per_visit - 10.0).abs() < 1e-9);
        assert!((report.events_per_sec - 5000.0).abs() < 1e-6);
        let json = report.to_json();
        for key in [
            "\"schema_version\"",
            "\"profiler_enabled\"",
            "\"workload\"",
            "\"wall_ms\"",
            "\"visits\"",
            "\"allocs\"",
            "\"alloc_bytes\"",
            "\"allocs_per_visit\"",
            "\"events\"",
            "\"events_per_sec\"",
            "\"sink\"",
            "\"peak_rss_kb\"",
            "\"subsystems\"",
            "\"spans\"",
        ] {
            assert!(json.contains(key), "profile json missing {key}: {json}");
        }
    }

    #[test]
    fn zero_wall_time_yields_zero_rates() {
        let r = SelfReport::assemble(
            "t".into(),
            &ProfileReport::new(),
            0.0,
            0,
            crate::AllocCounts::default(),
            100,
            SinkReport::default(),
        );
        assert_eq!(r.events_per_sec, 0.0);
        assert_eq!(r.allocs_per_visit, 0.0);
    }
}
