//! Experiment configuration.
//!
//! Every knob the paper turns is a field here: access network (3G / LTE /
//! WiFi / 3G-pinned-in-DCH), protocol (HTTP pool vs one-or-many SPDY
//! sessions, with or without late binding), the TCP sysctls, the metrics
//! cache and the Fig. 14 keepalive ping. What the paper holds fixed, its
//! SSL setup cost and §5.7's beacon cadence, are constants beside the
//! code that uses them (`session.rs`, `visits.rs`).

use spdyier_cellular::{presets as cell_presets, CellularPath, Radio};
use spdyier_net::{presets as net_presets, Direction, LossModel};
use spdyier_sim::SimDuration;
use spdyier_tcp::TcpConfig;
use spdyier_trace::TraceLevel;
use spdyier_workload::VisitSchedule;

/// The access network between device and proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// Production 3G UMTS with the IDLE/FACH/DCH RRC machine.
    Umts3G,
    /// The same bearer with the radio pinned active (Fig. 14's ideal).
    Umts3GPinned,
    /// LTE with its faster RRC machine (§5.6.2).
    Lte,
    /// The §4.0.1 residential 802.11g/broadband control environment.
    Wifi,
}

/// Canonical CLI/manifest spelling of every access network, in the order
/// they are listed in usage strings and parse errors.
pub const NETWORK_NAMES: [(&str, NetworkKind); 4] = [
    ("3g", NetworkKind::Umts3G),
    ("3g-pinned", NetworkKind::Umts3GPinned),
    ("lte", NetworkKind::Lte),
    ("wifi", NetworkKind::Wifi),
];

/// The one place `"3g" | "lte" | "wifi" | "3g-pinned"` strings become a
/// [`NetworkKind`]: scenario manifests and assertions parse through it.
impl std::str::FromStr for NetworkKind {
    type Err = String;

    fn from_str(s: &str) -> Result<NetworkKind, String> {
        NETWORK_NAMES
            .iter()
            .find(|(name, _)| *name == s)
            .map(|&(_, kind)| kind)
            .ok_or_else(|| {
                let names: Vec<&str> = NETWORK_NAMES.iter().map(|&(n, _)| n).collect();
                format!(
                    "unknown network {s:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

impl NetworkKind {
    /// The canonical CLI/manifest name ([`FromStr`] parses it back).
    pub fn cli_name(self) -> &'static str {
        NETWORK_NAMES
            .iter()
            .find(|&&(_, kind)| kind == self)
            .map(|&(name, _)| name)
            .expect("every NetworkKind is in NETWORK_NAMES")
    }

    /// Instantiate the access path. WiFi is the broadband path's two
    /// links behind [`Radio::AlwaysOn`], which gates nothing.
    pub fn build(self) -> CellularPath {
        match self {
            NetworkKind::Umts3G => cell_presets::umts_3g(),
            NetworkKind::Umts3GPinned => cell_presets::umts_3g_pinned(),
            NetworkKind::Lte => cell_presets::lte(),
            NetworkKind::Wifi => {
                let wifi = net_presets::broadband_wifi();
                let link = |dir| *wifi.link(dir).config();
                CellularPath::new(link(Direction::Down), link(Direction::Up), Radio::AlwaysOn)
            }
        }
    }

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            NetworkKind::Umts3G => "3G",
            NetworkKind::Umts3GPinned => "3G-pinned",
            NetworkKind::Lte => "LTE",
            NetworkKind::Wifi => "WiFi",
        }
    }
}

/// Protocol under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMode {
    /// HTTP/1.1 through the Squid-like proxy, Chrome pool limits.
    Http,
    /// SPDY/3 through the SPDY proxy.
    Spdy {
        /// Number of parallel SPDY sessions (1 in the paper's baseline;
        /// 20 in the §6.1 experiment).
        connections: usize,
        /// §6.1's late binding: responses return on whichever session can
        /// transmit, not the one that carried the request.
        late_binding: bool,
    },
}

impl ProtocolMode {
    /// The paper's baseline SPDY configuration.
    pub fn spdy() -> ProtocolMode {
        ProtocolMode::Spdy {
            connections: 1,
            late_binding: false,
        }
    }

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolMode::Http => "HTTP",
            ProtocolMode::Spdy {
                connections: 1,
                late_binding: false,
            } => "SPDY",
            ProtocolMode::Spdy {
                late_binding: true, ..
            } => "SPDY-latebind",
            ProtocolMode::Spdy { .. } => "SPDY-multi",
        }
    }
}

/// Where visited pages come from.
#[derive(Debug, Clone)]
pub enum PageSource {
    /// Synthesize from the Table 1 site specs (schedule indices are
    /// 1-based Table 1 rows); each visit uses a fresh seed fork.
    Table1,
    /// One custom page every visit loads (the §5.2 synthetic test
    /// pages).
    Custom(spdyier_workload::WebPage),
}

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Root seed; everything stochastic forks from it.
    pub seed: u64,
    /// Access network.
    pub network: NetworkKind,
    /// Protocol under test.
    pub protocol: ProtocolMode,
    /// TCP configuration for the device↔proxy leg. Its `trace` flag
    /// records a full cwnd/ssthresh/inflight trace of every access
    /// connection; the wired leg never traces.
    pub tcp: TcpConfig,
    /// Cache ssthresh/RTT per destination across connections (Linux
    /// default; §6.2.4 tests disabling it).
    pub cache_metrics: bool,
    /// Background ping keeping the radio in DCH (Fig. 14).
    pub keepalive_ping: Option<SimDuration>,
    /// Page visit schedule.
    pub schedule: VisitSchedule,
    /// Where pages come from.
    pub pages: PageSource,
    /// Abandon a visit (censored PLT) at this deadline.
    pub visit_timeout: SimDuration,
    /// Record the two per-segment series, [`RunResult::client_downlink_bytes`]
    /// and [`RunResult::inflight_bytes`] (Figs. 9–10), and the proxy's
    /// per-fetch [`RunResult::proxy_records`] (Fig. 8). On by default; a
    /// manifest's cell turns it off unless one of its outputs reads them
    /// (`spdyier_scenario::Cell::build_config`). Off, all three stay
    /// empty and nothing else a run computes changes.
    ///
    /// [`RunResult::client_downlink_bytes`]: crate::RunResult::client_downlink_bytes
    /// [`RunResult::inflight_bytes`]: crate::RunResult::inflight_bytes
    /// [`RunResult::proxy_records`]: crate::RunResult::proxy_records
    pub record_series: bool,
    /// Flight-recorder level for the cross-layer event stream
    /// ([`TraceLevel::Off`] costs nothing; see `spdyier-trace`).
    pub trace_level: TraceLevel,
    /// Outstanding requests per HTTP connection. 1 reproduces the paper
    /// (Squid's pipelining was too rudimentary to enable); larger values
    /// test the Fig. 1(c) pipelining the paper could not measure.
    pub http_pipelining: usize,
    /// Override the radio's idle→active promotion delay (sensitivity
    /// sweeps; `None` keeps the preset's value).
    pub rrc_promotion_override: Option<SimDuration>,
    /// Inject random loss on the access path (fault injection; residual
    /// loss the radio link layer failed to hide).
    pub access_loss: Option<LossModel>,
    /// Dispatch at most this many events before declaring the run
    /// livelocked. Exhaustion is reported as a structured
    /// [`RunError`](crate::driver::RunError) from
    /// [`Testbed::try_run_traced`](crate::Testbed::try_run_traced) (and a
    /// panic from the infallible [`Testbed::run`](crate::Testbed::run)).
    pub event_budget: u64,
}

impl ExperimentConfig {
    /// The paper's baseline 3G configuration for the given protocol,
    /// visiting `schedule`. A scenario manifest's cell
    /// (`spdyier_scenario::Cell::build_config`) is what picks the
    /// schedule and sets every other field from the manifest.
    pub fn paper_3g(
        protocol: ProtocolMode,
        seed: u64,
        schedule: VisitSchedule,
    ) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            network: NetworkKind::Umts3G,
            protocol,
            tcp: TcpConfig::default(),
            cache_metrics: true,
            keepalive_ping: None,
            schedule,
            pages: PageSource::Table1,
            visit_timeout: SimDuration::from_secs(60),
            record_series: true,
            trace_level: TraceLevel::Off,
            http_pipelining: 1,
            rrc_promotion_override: None,
            access_loss: None,
            event_budget: 200_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_names_round_trip_and_errors_list_choices() {
        for (name, kind) in NETWORK_NAMES {
            assert_eq!(name.parse::<NetworkKind>().unwrap(), kind);
            assert_eq!(kind.cli_name(), name);
        }
        let err = "4g".parse::<NetworkKind>().unwrap_err();
        assert!(err.contains("unknown network \"4g\""), "{err}");
        for name in ["3g", "3g-pinned", "lte", "wifi"] {
            assert!(err.contains(name), "error lists {name}: {err}");
        }
    }

    #[test]
    fn network_builders_produce_expected_paths() {
        assert!(matches!(
            NetworkKind::Umts3G.build().radio(),
            Radio::ThreeG(_)
        ));
        let wifi = NetworkKind::Wifi.build();
        assert!(matches!(wifi.radio(), Radio::AlwaysOn));
        assert_eq!(wifi.base_rtt(), net_presets::broadband_wifi().base_rtt());
        assert_eq!(NetworkKind::Lte.label(), "LTE");
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(ProtocolMode::Http.label(), "HTTP");
        assert_eq!(ProtocolMode::spdy().label(), "SPDY");
        assert_eq!(
            ProtocolMode::Spdy {
                connections: 20,
                late_binding: false
            }
            .label(),
            "SPDY-multi"
        );
        assert_eq!(
            ProtocolMode::Spdy {
                connections: 20,
                late_binding: true
            }
            .label(),
            "SPDY-latebind"
        );
    }

    #[test]
    fn paper_3g_defaults_match_methodology() {
        let schedule = VisitSchedule::sequential(vec![9, 4], SimDuration::from_secs(60));
        let cfg = ExperimentConfig::paper_3g(ProtocolMode::Http, 7, schedule);
        assert_eq!(cfg.schedule.order, [9, 4], "the caller's schedule is kept");
        assert_eq!(cfg.network, NetworkKind::Umts3G);
        assert_eq!(cfg.visit_timeout, SimDuration::from_secs(60));
        assert!(cfg.cache_metrics);
        assert!(cfg.keepalive_ping.is_none());
    }
}
