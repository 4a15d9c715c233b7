//! The scenario manifest: one experiment, declared as data.
//!
//! A manifest is a JSON document that names everything a run of the
//! testbed depends on: the access network, the workload, the protocol
//! side(s), the §6 mitigation knobs, an optional knob matrix, seeds,
//! trace level, limits, and the assertions the run must satisfy. This
//! module is the decoded model and the knob table; `decode.rs` reads a
//! document into it (strictly: every malformed input is one
//! [`ManifestError`](crate::ManifestError), scenario exit code 3), and
//! `cells.rs` expands it into the run cells.
//!
//! Every name is declared once. A knob is one row of [`KNOBS`] (setter,
//! home section, the values it takes) plus one [`Settings`] field; every
//! other key is read once, where the decoder reads its section.
//!
//! The defaults of every optional section reproduce
//! [`ExperimentConfig::paper_3g`] over the seed's Table 1 schedule
//! exactly; a manifest that only names a network and protocols runs at
//! the paper's operating point, so every figure, scenario and
//! `explain`/`diff` input is a manifest over the same defaults.
//!
//! [`ExperimentConfig::paper_3g`]: spdyier_core::ExperimentConfig::paper_3g

use crate::assertions::Assertion;
use serde::{Deserialize, Serialize};
use spdyier_core::{NetworkKind, ProtocolMode};
use spdyier_tcp::CcAlgorithm;
use spdyier_trace::TraceLevel;
use std::ops::RangeInclusive;

/// Current manifest schema version; decoding rejects any other.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Longest duration a single field may name, seconds (~31 years). With
/// [`MAX_HORIZON_S`] it keeps every simulated instant — the last visit's
/// start, plus its timeout, plus any timer armed behind it — inside
/// `SimTime`'s `u64` microseconds (1.8e13 s) with a decade to spare.
pub(crate) const MAX_DURATION_S: u64 = 1_000_000_000;

/// Longest schedule (`visits × interval_s`) a workload may span, seconds.
pub(crate) const MAX_HORIZON_S: u64 = 1_000_000_000_000;

/// Most images a synthetic page may hold. The page's object table is
/// built before the first event, at ~100 bytes an object: the bound keeps
/// it near 100 MB instead of letting a typo ask the allocator for
/// hundreds of gigabytes.
pub(crate) const MAX_OBJECTS: u32 = 1_000_000;

// ---------------------------------------------------------------------
// Protocol specs
// ---------------------------------------------------------------------

/// One protocol side under test, carried as the compact manifest string
/// (`"http"`, `"spdy"`, `"spdy:20"`, `"spdy:20:late"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// The resolved testbed protocol mode.
    pub mode: ProtocolMode,
}

impl ProtocolSpec {
    /// Parse the compact form.
    pub fn parse(s: &str) -> Result<ProtocolSpec, String> {
        let spdy = |n: &str, late_binding| {
            let connections = n.parse().ok().filter(|&n: &usize| n >= 1)?;
            Some(ProtocolMode::Spdy {
                connections,
                late_binding,
            })
        };
        let mode = match s.split(':').collect::<Vec<_>>()[..] {
            ["http"] => Some(ProtocolMode::Http),
            ["spdy"] => Some(ProtocolMode::spdy()),
            ["spdy", n] => spdy(n, false),
            ["spdy", n, "late"] => spdy(n, true),
            _ => None,
        };
        let unknown = || {
            format!(
                "unknown protocol {s:?} (expected http, spdy, spdy:<connections>, or spdy:<connections>:late)"
            )
        };
        mode.map(|mode| ProtocolSpec { mode }).ok_or_else(unknown)
    }

    /// Render back to the compact form ([`Self::parse`] inverts it).
    pub fn compact(&self) -> String {
        match self.mode {
            ProtocolMode::Http => "http".to_string(),
            mode if mode == ProtocolMode::spdy() => "spdy".to_string(),
            ProtocolMode::Spdy {
                connections,
                late_binding,
            } => format!(
                "spdy:{connections}{}",
                if late_binding { ":late" } else { "" }
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------

/// The `network` section (its `rrc_promotion_ms` key is a knob, so it
/// decodes into [`Settings`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkSection {
    /// Which access network (`"3g"`, `"3g-pinned"`, `"lte"`, `"wifi"`).
    pub kind: NetworkKind,
}

/// The `workload` section: what pages the schedule visits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// The paper methodology: all 20 Table 1 sites in a seeded random
    /// order, 60 s apart (the schedule is a function of the seed alone).
    Table1,
    /// One Table 1 site, visited `visits` times, `interval_s` apart.
    Site {
        /// 1-based Table 1 row.
        site: u32,
        /// Number of visits.
        visits: u32,
        /// Seconds between visit starts.
        interval_s: u64,
    },
    /// A §5.2-style synthetic page of `objects` equal-size images.
    Synthetic {
        /// Images on the page.
        objects: u32,
        /// Bytes per image.
        object_bytes: u64,
        /// All objects on one domain (vs one domain per object).
        same_domain: bool,
        /// Number of visits.
        visits: u32,
        /// Seconds between visit starts.
        interval_s: u64,
    },
}

/// Declares [`Settings`] with each knob's paper-baseline default beside
/// its field, so a knob's storage is one line.
macro_rules! settings {
    ($($(#[$doc:meta])* $field:ident: $ty:ty = $default:expr,)*) => {
        /// What one cell runs with: every §6 mitigation knob plus the
        /// radio override, typed. The manifest's `mitigations` and
        /// `network` sections set the baseline, `matrix` overrides it per
        /// variant, and [`Cell::build_config`](crate::Cell::build_config)
        /// maps it onto the testbed. The default is the paper's baseline
        /// ([`ExperimentConfig::paper_3g`](spdyier_core::ExperimentConfig::paper_3g)).
        #[derive(Debug, Clone, PartialEq)]
        pub struct Settings {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Default for Settings {
            fn default() -> Self {
                Settings { $($field: $default,)* }
            }
        }
    };
}

settings! {
    /// §6.2.1: reset the RTT estimate across idle periods.
    rtt_reset_after_idle: bool = false,
    /// RFC 2861 `tcp_slow_start_after_idle` (§6.2.2).
    slow_start_after_idle: bool = true,
    /// Destination metrics cache (§6.2.4).
    metrics_cache: bool = true,
    /// Fig. 14 keepalive ping interval, seconds (absent = off).
    keepalive_ping_s: Option<f64> = None,
    /// Outstanding requests per HTTP connection (1 = paper).
    http_pipelining: u64 = 1,
    /// Congestion control: `"cubic"` (paper testbed) or `"reno"`.
    cc: CcAlgorithm = CcAlgorithm::Cubic,
    /// Override the radio's idle→active promotion delay, ms.
    rrc_promotion_ms: Option<u64> = None,
}

/// One knob value: a JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum KnobValue {
    /// Boolean knob setting.
    Bool(bool),
    /// Numeric knob setting.
    Number(f64),
    /// String knob setting (e.g. a `cc` algorithm name).
    Str(String),
    /// Null — disables an optional knob (e.g. `keepalive_ping_s`).
    Null,
}

impl KnobValue {
    /// Render for variant names (`slow_start_after_idle=false`).
    pub fn render(&self) -> String {
        match self {
            KnobValue::Bool(b) => b.to_string(),
            KnobValue::Number(x) if x.fract() == 0.0 => format!("{}", *x as i64),
            KnobValue::Number(x) => format!("{x}"),
            KnobValue::Str(s) => s.clone(),
            KnobValue::Null => "off".to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// The knob table
// ---------------------------------------------------------------------

/// Where a knob lives in [`Settings`], which is also what values it
/// takes.
enum Slot {
    Flag(fn(&mut Settings) -> &mut bool),
    /// A whole number within the range.
    Count(fn(&mut Settings) -> &mut u64, RangeInclusive<u64>),
    /// Seconds from 1 ms (a shorter interval would round to a timer that
    /// re-arms at the instant it fires) up to [`MAX_DURATION_S`]; null
    /// is off.
    Seconds(fn(&mut Settings) -> &mut Option<f64>),
    /// Whole milliseconds up to [`MAX_DURATION_S`]; null is "as preset".
    Millis(fn(&mut Settings) -> &mut Option<u64>),
    Cc(fn(&mut Settings) -> &mut CcAlgorithm),
}

const CC_NAMES: [(&str, CcAlgorithm); 2] =
    [("cubic", CcAlgorithm::Cubic), ("reno", CcAlgorithm::Reno)];

/// One knob: a manifest key, a matrix axis, and a typed [`Settings`] field.
pub struct Knob {
    /// Manifest key, and matrix axis name.
    pub name: &'static str,
    /// The section that may set it outside `matrix` (`network` or
    /// `mitigations`).
    pub home: &'static str,
    slot: Slot,
}

const fn knob(name: &'static str, home: &'static str, slot: Slot) -> Knob {
    Knob { name, home, slot }
}

/// Every knob, in the order a section reads them. Adding one is a row
/// here, a [`Settings`] field, and a line in
/// [`Cell::build_config`](crate::Cell::build_config).
#[rustfmt::skip]
pub const KNOBS: &[Knob] = {
    use Slot::*;
    let (mitigations, network) = ("mitigations", "network");
    &[
        knob("rtt_reset_after_idle", mitigations, Flag(|s| &mut s.rtt_reset_after_idle)),
        knob("slow_start_after_idle", mitigations, Flag(|s| &mut s.slow_start_after_idle)),
        knob("metrics_cache", mitigations, Flag(|s| &mut s.metrics_cache)),
        knob("keepalive_ping_s", mitigations, Seconds(|s| &mut s.keepalive_ping_s)),
        knob("http_pipelining", mitigations, Count(|s| &mut s.http_pipelining, 1..=65_535)),
        knob("cc", mitigations, Cc(|s| &mut s.cc)),
        knob("rrc_promotion_ms", network, Millis(|s| &mut s.rrc_promotion_ms)),
    ]
};

/// Whether `x` is a whole number within `range`.
fn is_whole(x: f64, range: &RangeInclusive<u64>) -> bool {
    x >= 0.0 && x.fract() == 0.0 && range.contains(&(x as u64))
}

impl Knob {
    pub(crate) fn named(name: &str) -> Option<&'static Knob> {
        KNOBS.iter().find(|k| k.name == name)
    }

    /// What a value of the wrong type or range is told the knob takes.
    pub fn takes(&self) -> String {
        match &self.slot {
            Slot::Flag(_) => "a boolean".into(),
            Slot::Count(_, range) => {
                format!("an integer from {} to {}", range.start(), range.end())
            }
            Slot::Seconds(_) => "a number of seconds from 0.001 to 1e9, or null".into(),
            Slot::Millis(_) => "a whole number of milliseconds (at most 1e12) or null".into(),
            Slot::Cc(_) => CC_NAMES.map(|(name, _)| format!("{name:?}")).join(" or "),
        }
    }

    /// Store `value`, or say what the knob takes instead.
    pub fn set(&self, s: &mut Settings, value: &KnobValue) -> Result<(), String> {
        use KnobValue::{Bool, Null, Number, Str};
        let refused = || Err(format!("knob {:?} takes {}", self.name, self.takes()));
        let seconds = 0.001..=MAX_DURATION_S as f64;
        match (&self.slot, value) {
            (Slot::Flag(at), Bool(b)) => *at(s) = *b,
            (Slot::Count(at, range), &Number(x)) if is_whole(x, range) => *at(s) = x as u64,
            (Slot::Seconds(at), Null) => *at(s) = None,
            (Slot::Seconds(at), Number(x)) if seconds.contains(x) => *at(s) = Some(*x),
            (Slot::Millis(at), Null) => *at(s) = None,
            (Slot::Millis(at), &Number(x)) if is_whole(x, &(0..=MAX_DURATION_S * 1_000)) => {
                *at(s) = Some(x as u64);
            }
            (Slot::Cc(at), Str(name)) => {
                let Some(&(_, cc)) = CC_NAMES.iter().find(|(n, _)| n == name) else {
                    return refused();
                };
                *at(s) = cc;
            }
            _ => return refused(),
        }
        Ok(())
    }
}

/// The `seeds` section (and `result.json`'s `seeds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct Seeds {
    /// First seed.
    pub base: u64,
    /// Number of seeds (each seed runs every protocol × variant cell).
    pub count: u64,
}

impl Default for Seeds {
    fn default() -> Self {
        Seeds { base: 0, count: 1 }
    }
}

/// The `limits` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
#[serde(default)]
pub struct Limits {
    /// Per-run dispatched-event budget; exhaustion is scenario exit 2.
    pub event_budget: u64,
    /// Per-visit deadline, seconds (censored PLT past it).
    pub visit_timeout_s: u64,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            event_budget: 200_000_000,
            visit_timeout_s: 60,
        }
    }
}

/// The `outputs` section: which artifacts the runner writes besides
/// `result.json` and `junit.xml`. `paired_dump` and `plot_data` are the
/// outputs that print the per-segment downlink and bytes-in-flight
/// series, so a cell records those only under one of them or
/// [`Manifest::tcp_traces`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Deserialize)]
#[serde(default)]
pub struct Outputs {
    /// Write the legacy paired-sweep JSONL dump (`paired_<net>.jsonl`
    /// plus its schema-versioned `.meta.json` sidecar).
    pub paired_dump: bool,
    /// Write per-cell trace artifacts (`trace_*.jsonl`, waterfall,
    /// stall table + sidecar, metrics registry).
    pub trace_artifacts: bool,
    /// Write each cell's gnuplot-ready `.dat` set (PLTs, per-second
    /// downlink, bytes in flight, retransmissions, promotions, proxy
    /// timeline, per-connection cwnd with `tcp_traces`). The file names
    /// carry only the protocol, so decode allows one seed, no matrix, and
    /// at most one http and one spdy protocol.
    pub plot_data: bool,
}

// ---------------------------------------------------------------------
// The manifest
// ---------------------------------------------------------------------

/// A fully decoded scenario manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Manifest schema version (currently always 1).
    pub schema_version: u64,
    /// Scenario name (used in artifacts and JUnit suite names).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Access network.
    pub network: NetworkSection,
    /// What pages are loaded.
    pub workload: Workload,
    /// Protocol sides, in run order within a seed.
    pub protocols: Vec<ProtocolSpec>,
    /// Knob settings every cell starts from (baseline defaults).
    pub settings: Settings,
    /// Knob matrix: each entry is a knob name and its value list; the
    /// cross product (insertion order) defines the variants.
    pub matrix: Vec<(String, Vec<KnobValue>)>,
    /// Seed range.
    pub seeds: Seeds,
    /// Flight-recorder level for every cell.
    pub trace: TraceLevel,
    /// Record full per-connection TCP traces (cwnd/ssthresh) and the
    /// per-segment downlink and bytes-in-flight series (Figs. 9–10; the
    /// figures that read either set this). `outputs.paired_dump` and
    /// `outputs.plot_data` record the series too; a manifest with none of
    /// the three records neither.
    pub tcp_traces: bool,
    /// Run limits.
    pub limits: Limits,
    /// Assertions evaluated against the pooled cell metrics.
    pub assertions: Vec<Assertion>,
    /// Extra artifact toggles.
    pub outputs: Outputs,
}

impl Manifest {
    /// A minimal manifest at the paper's 3G operating point: Table 1
    /// workload, paired HTTP/SPDY, baseline settings, one seed.
    pub fn paper_baseline(name: &str) -> Manifest {
        Manifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            name: name.to_string(),
            description: String::new(),
            network: NetworkSection {
                kind: NetworkKind::Umts3G,
            },
            workload: Workload::Table1,
            protocols: [ProtocolMode::Http, ProtocolMode::spdy()]
                .map(|mode| ProtocolSpec { mode })
                .to_vec(),
            settings: Settings::default(),
            matrix: Vec::new(),
            seeds: Seeds::default(),
            trace: TraceLevel::Off,
            tcp_traces: false,
            limits: Limits::default(),
            assertions: Vec::new(),
            outputs: Outputs::default(),
        }
    }

    /// Whether this is a strict legacy pairing: exactly `[http, spdy]`
    /// with no matrix (the shape the paired dump format assumes).
    pub fn is_paired(&self) -> bool {
        self.matrix.is_empty()
            && self.protocols.len() == 2
            && self.protocols[0].mode == ProtocolMode::Http
            && self.protocols[1].mode == ProtocolMode::spdy()
    }

    /// The trace level the runner actually uses: the declared level,
    /// raised to `Full` when an assertion names a metric the recorder
    /// feeds — stall attribution, critical-path metrics, `trace_dropped`
    /// or a counter passthrough (the flight recorder is passive, so
    /// raising it never perturbs the simulation — the determinism suite
    /// pins that).
    pub fn effective_trace(&self) -> TraceLevel {
        let needed = self
            .assertions
            .iter()
            .map(|a| a.required_trace())
            .max()
            .unwrap_or(TraceLevel::Off);
        self.trace.max(needed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_compact_round_trips() {
        for s in ["http", "spdy", "spdy:20", "spdy:20:late", "spdy:1:late"] {
            let p = ProtocolSpec::parse(s).unwrap();
            assert_eq!(p.compact(), s);
        }
        assert!(ProtocolSpec::parse("spdy:0").is_err());
        assert!(ProtocolSpec::parse("spdy:2:early").is_err());
        assert!(ProtocolSpec::parse("h2").is_err());
    }

    /// A seconds knob takes 1 ms and up: anything shorter would round to
    /// a 0 ms timer that re-arms at the instant it fires.
    #[test]
    fn a_seconds_knob_refuses_intervals_under_a_millisecond() {
        let ping = Knob::named("keepalive_ping_s").unwrap();
        let mut s = Settings::default();
        for refused in [0.0, 0.0004, 0.000_999, -1.0, 1e300] {
            assert!(ping.set(&mut s, &KnobValue::Number(refused)).is_err());
        }
        assert_eq!(ping.set(&mut s, &KnobValue::Number(0.001)), Ok(()));
        assert_eq!(s.keepalive_ping_s, Some(0.001));
    }
}
