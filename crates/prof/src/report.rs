//! Span statistics and the peak-RSS reader.
//!
//! [`ProfileReport`] is what [`crate::take_thread_profile`] drains into:
//! per-span call counts and self nanoseconds. It rolls up into
//! per-subsystem rows (everything before the first `.` of a span name),
//! which — because self time excludes nested spans — partition the
//! profiled time exactly.

use std::collections::BTreeMap;

/// Accumulated statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Times the span was entered.
    pub calls: u64,
    /// Self host nanoseconds (nested spans excluded).
    pub self_ns: u64,
}

/// A span table: scope name → statistics, deterministically ordered.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Per-span statistics keyed by scope name.
    pub spans: BTreeMap<String, SpanStats>,
}

impl ProfileReport {
    /// Roll spans up by subsystem — the prefix before the first `.` of
    /// the span name (`"driver.deliver"` → `"driver"`). Self time
    /// partitions exactly, so subsystem rows sum to the profiled total.
    pub fn subsystems(&self) -> BTreeMap<String, SubsystemStats> {
        let mut out: BTreeMap<String, SubsystemStats> = BTreeMap::new();
        for (name, stats) in &self.spans {
            let key = name.split('.').next().unwrap_or(name).to_string();
            let row = out.entry(key).or_default();
            row.calls += stats.calls;
            row.self_ns += stats.self_ns;
        }
        out
    }
}

/// One subsystem row of the rollup (self time, so rows partition the
/// profiled time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubsystemStats {
    /// Spans entered under this subsystem.
    pub calls: u64,
    /// Self host nanoseconds.
    pub self_ns: u64,
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

    #[test]
    fn subsystem_rollup_groups_by_prefix() {
        let span = |calls, self_ns| SpanStats { calls, self_ns };
        let mut r = ProfileReport::default();
        r.spans.insert("driver.deliver".into(), span(1, 100));
        r.spans.insert("driver.timer".into(), span(1, 50));
        r.spans.insert("world.drain_tx".into(), span(4, 25));
        let subs = r.subsystems();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs["driver"].self_ns, 150);
        assert_eq!(subs["driver"].calls, 2);
        assert_eq!(subs["world"].calls, 4);
    }
}
