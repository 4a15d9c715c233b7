//! Run results: everything the paper's figures are computed from.

use serde::Serialize;
use spdyier_browser::ObjectTiming;
use spdyier_cellular::PromotionEvent;
use spdyier_proxy::ProxyObjectRecord;
use spdyier_sim::{EventMarks, SimDuration, SimTime, TimeSeries};
use spdyier_tcp::{TcpStats, TcpTrace};

/// Outcome of one page visit.
#[derive(Debug, Serialize)]
pub struct VisitResult {
    /// 1-based Table 1 site index.
    pub site: u32,
    /// Visit start instant.
    pub start: SimTime,
    /// onLoad instant, if the page finished before the deadline.
    pub onload: Option<SimTime>,
    /// Page load time, ms (censored at the visit timeout when unfinished).
    pub plt_ms: f64,
    /// Whether the load finished before the deadline.
    pub completed: bool,
    /// Per-object timing records (index = object id).
    pub object_timings: Vec<ObjectTiming>,
    /// Objects on the page.
    pub object_count: usize,
    /// Total body bytes on the page.
    pub total_bytes: u64,
}

/// Per-connection trace bundle.
#[derive(Debug, Serialize)]
pub struct ConnTraceResult {
    /// Label (`"spdy-0"`, `"http-17"`).
    pub label: String,
    /// When the connection was opened.
    pub opened: SimTime,
    /// TCP counters at close/end.
    pub stats: TcpStats,
    /// Full trace if tracing was on.
    pub trace: Option<TcpTrace>,
}

/// Everything measured during one run (one pass over the schedule).
#[derive(Debug, Default, Serialize)]
pub struct RunResult {
    /// Protocol label.
    pub protocol: String,
    /// Network label.
    pub network: String,
    /// Root seed.
    pub seed: u64,
    /// Per-visit outcomes in schedule order.
    pub visits: Vec<VisitResult>,
    /// Downlink payload bytes delivered to the device, one sample per
    /// segment arrival (bin for Fig. 9).
    pub client_downlink_bytes: TimeSeries,
    /// Total unacknowledged bytes across device↔proxy connections,
    /// sampled on change (Fig. 10).
    pub inflight_bytes: TimeSeries,
    /// Retransmission instants of both sides of every access-path
    /// connection, pure FINs left out (Figs. 11–13).
    pub retransmissions: EventMarks,
    /// Traces of the device↔proxy connections (proxy side — the bulk
    /// sender).
    pub conn_traces: Vec<ConnTraceResult>,
    /// RRC promotions taken by the device radio.
    pub promotions: Vec<PromotionEvent>,
    /// Proxy-side object records (Fig. 8); empty unless
    /// [`crate::ExperimentConfig::record_series`].
    pub proxy_records: Vec<ProxyObjectRecord>,
    /// Downlink drops `(queue, loss)` on the access path.
    pub downlink_drops: (u64, u64),
    /// Radio energy over the run, mJ.
    pub energy_mj: f64,
    /// Client↔proxy connections opened over the run. Proxy↔origin pipes
    /// are not counted: the registry's `conn.opened` counts every pipe.
    pub connections_opened: u64,
    /// How many instants `retransmissions` holds.
    pub total_retransmissions: u64,
    /// RTO firings of both sides of every access-path connection, pure
    /// FINs left out: the ones that can stall a page (the headline's
    /// divisor).
    pub total_timeouts: u64,
    /// Aggregate idle restarts.
    pub total_idle_restarts: u64,
}

impl RunResult {
    /// An empty result stamped with the run's identity triple.
    pub fn new(protocol: &str, network: &str, seed: u64) -> RunResult {
        RunResult {
            protocol: protocol.to_string(),
            network: network.to_string(),
            seed,
            ..RunResult::default()
        }
    }

    /// Page load times in ms, completed visits only.
    pub fn plts_ms(&self) -> Vec<f64> {
        self.visits
            .iter()
            .filter(|v| v.completed)
            .map(|v| v.plt_ms)
            .collect()
    }

    /// Page load times in ms for a specific site across this run.
    pub fn plts_for_site(&self, site: u32) -> Vec<f64> {
        self.visits
            .iter()
            .filter(|v| v.site == site && v.completed)
            .map(|v| v.plt_ms)
            .collect()
    }

    /// Mean over per-visit mean throughput (bytes/s) while loading.
    pub fn mean_load_throughput(&self) -> f64 {
        let mut rates = Vec::new();
        for v in &self.visits {
            if let Some(onload) = v.onload {
                let dur = onload.saturating_since(v.start).as_secs_f64();
                if dur > 0.0 {
                    rates.push(v.total_bytes as f64 / dur);
                }
            }
        }
        if rates.is_empty() {
            0.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        }
    }

    /// Visits completed / total.
    pub fn completion_rate(&self) -> f64 {
        if self.visits.is_empty() {
            return 0.0;
        }
        self.visits.iter().filter(|v| v.completed).count() as f64 / self.visits.len() as f64
    }

    /// Retransmissions whose instant falls inside (or within `slack` after)
    /// a recorded RRC promotion — the spurious-by-promotion signature.
    pub fn promotion_correlated_rtx(&self, slack: SimDuration) -> usize {
        self.retransmissions
            .times()
            .filter(|&t| {
                self.promotions
                    .iter()
                    .any(|p| t >= p.start && t <= p.done + slack)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_cellular::PromotionKind;

    fn visit(site: u32, plt_ms: f64, completed: bool) -> VisitResult {
        VisitResult {
            site,
            start: SimTime::ZERO,
            onload: completed.then(|| SimTime::from_millis(plt_ms as u64)),
            plt_ms,
            completed,
            object_timings: vec![],
            object_count: 10,
            total_bytes: 100_000,
        }
    }

    #[test]
    fn plts_filter_incomplete() {
        let mut r = RunResult::default();
        r.visits.push(visit(1, 5_000.0, true));
        r.visits.push(visit(2, 60_000.0, false));
        r.visits.push(visit(1, 7_000.0, true));
        assert_eq!(r.plts_ms(), vec![5_000.0, 7_000.0]);
        assert_eq!(r.plts_for_site(1), vec![5_000.0, 7_000.0]);
        assert!((r.completion_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_uses_load_window() {
        let mut r = RunResult::default();
        let mut v = visit(1, 2_000.0, true);
        v.onload = Some(SimTime::from_secs(2));
        v.total_bytes = 1_000_000;
        r.visits.push(v);
        assert!((r.mean_load_throughput() - 500_000.0).abs() < 1.0);
    }

    #[test]
    fn promotion_correlation_counts_rtx_in_windows() {
        let mut r = RunResult::default();
        r.promotions.push(PromotionEvent {
            start: SimTime::from_secs(10),
            done: SimTime::from_secs(12),
            kind: PromotionKind::IdleToDch,
        });
        r.retransmissions.mark(SimTime::from_secs(11)); // inside
        r.retransmissions.mark(SimTime::from_millis(12_500)); // within slack
        r.retransmissions.mark(SimTime::from_secs(30)); // outside
        assert_eq!(r.promotion_correlated_rtx(SimDuration::from_secs(1)), 2);
    }
}
