//! The scenario manifest: one experiment, declared as data.
//!
//! A manifest is a JSON document that names everything a run of the
//! testbed depends on: the access network, the workload, the protocol
//! side(s), the §6 mitigation knobs, an optional knob matrix, seeds,
//! trace level, limits, and the assertions the run must satisfy.
//! Decoding is *strict*: unknown keys, wrong types, and out-of-range
//! values are one-line [`ManifestError`]s naming the offending field —
//! they map to the scenario exit code 3 (config error), never to a
//! half-configured run.
//!
//! Every name is declared once. A knob is one row of [`KNOBS`] (setter,
//! getter, home section) plus one [`Settings`] field; every other key is
//! spelled where [`Manifest::decode`] reads it — through a section
//! reader that builds the `manifest.<section>.<key>` path, checks the
//! declared range and rejects the keys nobody asked for — and once more
//! where [`Manifest::to_value`] writes it.
//!
//! The defaults of every optional section reproduce
//! [`ExperimentConfig::paper_3g`] exactly; a manifest that only names a
//! network and protocols runs at the paper's operating point, so every
//! figure, scenario and `explain`/`diff` input is a manifest over the
//! same defaults.

use crate::assertions::Assertion;
use serde::Value;
use spdyier_core::{ExperimentConfig, NetworkKind, ProtocolMode};
use spdyier_sim::{DetRng, SimDuration};
use spdyier_tcp::CcAlgorithm;
use spdyier_trace::TraceLevel;
use spdyier_workload::{test_page, VisitSchedule};
use std::fmt::Display;
use std::ops::RangeInclusive;

/// Current manifest schema version; decoding rejects any other.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// Longest duration a single field may name, seconds (~31 years). With
/// [`MAX_HORIZON_S`] it keeps every simulated instant — the last visit's
/// start, plus its timeout, plus any timer armed behind it — inside
/// `SimTime`'s `u64` microseconds (1.8e13 s) with a decade to spare.
const MAX_DURATION_S: u64 = 1_000_000_000;

/// Longest schedule (`visits × interval_s`) a workload may span, seconds.
const MAX_HORIZON_S: u64 = 1_000_000_000_000;

/// A one-line manifest decoding/validation error. The message always
/// names the offending field path (`scenario error at
/// manifest.workload.objects: expected an unsigned integer, got a string`).
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestError(pub String);

impl Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ManifestError {}

fn err(path: &str, msg: impl Display) -> ManifestError {
    ManifestError(format!("scenario error at {path}: {msg}"))
}

type DResult<T> = Result<T, ManifestError>;

// ---------------------------------------------------------------------
// The section reader
// ---------------------------------------------------------------------

fn kind_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::I64(_) | Value::U64(_) | Value::F64(_) => "a number",
        Value::Str(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

fn typed<T>(want: &str, v: &Value, got: Option<T>) -> Result<T, String> {
    got.ok_or_else(|| format!("expected {want}, got {}", kind_of(v)))
}

fn as_str(v: &Value) -> Result<&str, String> {
    typed("a string", v, v.as_str())
}

/// One object-valued manifest section being decoded. An accessor looks
/// its key up, builds the `manifest.<section>.<key>` path, checks the
/// type and the declared range, and remembers that the key was asked
/// for, so [`Fields::finish`] can reject every key nobody asked for —
/// the strictness that turns typos into exit-code-3 diagnostics instead
/// of silently-defaulted runs.
///
/// Errors are sticky, not returned on the spot: a failing accessor
/// records its diagnostic (the first one wins) and hands back a
/// placeholder, and `finish` reports unknown and duplicate keys ahead of
/// it, so a typo'd required key reads as the typo it is rather than as a
/// missing field. Nothing read through a `Fields` may be used until its
/// `finish` (or the parent's, after [`Fields::absorb`]) returned `Ok`.
struct Fields<'a> {
    entries: &'a [(String, Value)],
    path: String,
    /// What a key is called in diagnostics (`field`, or `knob` in `matrix`).
    noun: &'static str,
    asked: Vec<&'static str>,
    error: Option<ManifestError>,
}

impl<'a> Fields<'a> {
    /// The section at `path`. An absent section reads as an empty one:
    /// every field takes its default and a required field is missing.
    fn new(v: Option<&'a Value>, path: String) -> Fields<'a> {
        let (entries, error) = match v {
            None => (&[][..], None),
            Some(Value::Object(entries)) => (&entries[..], None),
            Some(other) => {
                let msg = format!("expected an object, got {}", kind_of(other));
                (&[][..], Some(err(&path, msg)))
            }
        };
        Fields {
            entries,
            path,
            noun: "field",
            asked: Vec::new(),
            error,
        }
    }

    fn at(&self, key: &str) -> String {
        format!("{}.{key}", self.path)
    }

    /// Record a diagnostic about `key` (or `key[i]`).
    fn fail(&mut self, key: &str, msg: impl Display) {
        let e = err(&self.at(key), msg);
        self.error.get_or_insert(e);
    }

    /// Record a diagnostic about the section as a whole.
    fn reject(&mut self, msg: impl Display) {
        let e = err(&self.path, msg);
        self.error.get_or_insert(e);
    }

    fn get(&mut self, key: &'static str) -> Option<&'a Value> {
        self.asked.push(key);
        let entry = self.entries.iter().find(|(k, _)| k == key);
        entry.map(|(_, v)| v)
    }

    /// The nested section under `key`.
    fn child(&mut self, key: &'static str) -> Fields<'a> {
        Fields::new(self.get(key), self.at(key))
    }

    /// Finish a nested section and take over its diagnostic.
    fn absorb(&mut self, child: Fields<'_>) {
        if let Err(e) = child.finish() {
            self.error.get_or_insert(e);
        }
    }

    /// The value under `key` as `pick` reads it: `default` when the key
    /// is absent (a missing required field when there is none), `None`
    /// behind a recorded diagnostic.
    fn read<T>(
        &mut self,
        key: &'static str,
        default: Option<T>,
        pick: impl FnOnce(&'a Value) -> Result<T, String>,
    ) -> Option<T> {
        let Some(v) = self.get(key) else {
            if default.is_none() {
                self.fail(key, "missing required field");
            }
            return default;
        };
        pick(v).map_err(|msg| self.fail(key, msg)).ok()
    }

    /// An unsigned integer within `range`; required when `default` is `None`.
    fn int<T>(&mut self, key: &'static str, range: RangeInclusive<T>, default: Option<T>) -> T
    where
        T: Copy + Display + PartialOrd + TryFrom<u64>,
    {
        let (lo, hi) = (*range.start(), *range.end());
        let pick = |v: &Value| {
            let n = typed("an unsigned integer", v, v.as_u64())?;
            let fits = T::try_from(n).ok().filter(|t| range.contains(t));
            fits.ok_or_else(|| format!("{n} is outside {lo}..={hi}"))
        };
        self.read(key, default, pick).unwrap_or(lo)
    }

    fn flag(&mut self, key: &'static str, default: bool) -> bool {
        let pick = |v: &Value| typed("a boolean", v, v.as_bool());
        self.read(key, Some(default), pick).unwrap_or(default)
    }

    /// The array of strings under `key`, each parsed by `parse` (an
    /// element's diagnostic names `key[i]`); absent means empty unless
    /// the array is `required`, which also rules out an empty one.
    fn strings<T>(
        &mut self,
        key: &'static str,
        required: bool,
        parse: fn(&str) -> Result<T, String>,
    ) -> Vec<T> {
        let pick = |v: &'a Value| match v.as_array() {
            Some(items) if required && items.is_empty() => Err("needs at least one entry".into()),
            items => typed("an array", v, items.map(Vec::as_slice)),
        };
        let absent = (!required).then_some(&[][..]);
        let items = self.read(key, absent, pick).unwrap_or_default();
        let mut parsed = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            match as_str(item).and_then(parse) {
                Ok(t) => parsed.push(t),
                Err(msg) => self.fail(&format!("{key}[{i}]"), msg),
            }
        }
        parsed
    }

    /// Reject unknown and duplicate keys, then report the first recorded
    /// diagnostic.
    fn finish(self) -> DResult<()> {
        for (i, (key, _)) in self.entries.iter().enumerate() {
            if !self.asked.contains(&key.as_str()) {
                let known = self.asked.join(", ");
                let msg = format!("unknown {} (expected one of: {known})", self.noun);
                return Err(err(&self.at(key), msg));
            }
            if self.entries[..i].iter().any(|(prev, _)| prev == key) {
                return Err(err(&self.at(key), format!("duplicate {}", self.noun)));
            }
        }
        self.error.map_or(Ok(()), Err)
    }
}

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
        let bad = || {
            format!(
                "unknown protocol {s:?} (expected http, spdy, spdy:<connections>, or spdy:<connections>:late)"
            )
        };
        let mode = match s {
            "http" => ProtocolMode::Http,
            "spdy" => ProtocolMode::spdy(),
            other => {
                let mut parts = other.split(':');
                if parts.next() != Some("spdy") {
                    return Err(bad());
                }
                let connections: usize = parts
                    .next()
                    .and_then(|n| n.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(bad)?;
                let late_binding = match parts.next() {
                    None => false,
                    Some("late") => true,
                    Some(_) => return Err(bad()),
                };
                if parts.next().is_some() {
                    return Err(bad());
                }
                ProtocolMode::Spdy {
                    connections,
                    late_binding,
                }
            }
        };
        Ok(ProtocolSpec { mode })
    }

    /// Render back to the compact form ([`Self::parse`] inverts it).
    pub fn compact(&self) -> String {
        match self.mode {
            ProtocolMode::Http => "http".to_string(),
            ProtocolMode::Spdy {
                connections: 1,
                late_binding: false,
            } => "spdy".to_string(),
            ProtocolMode::Spdy {
                connections,
                late_binding: false,
            } => format!("spdy:{connections}"),
            ProtocolMode::Spdy {
                connections,
                late_binding: true,
            } => format!("spdy:{connections}:late"),
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
        /// variant, and [`Cell::build_config`] maps it onto the testbed.
        /// The default is the paper's baseline
        /// ([`ExperimentConfig::paper_3g`]).
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
    /// Close idle HTTP connections after this many seconds (JSON `null`
    /// disables the reaper; absent = the 10 s default).
    http_idle_close_s: Option<f64> = Some(10.0),
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
    /// Null — disables an optional knob (e.g. `http_idle_close_s`).
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

    fn to_value(&self) -> Value {
        match self {
            KnobValue::Bool(b) => Value::Bool(*b),
            KnobValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 => Value::U64(*x as u64),
            KnobValue::Number(x) => Value::F64(*x),
            KnobValue::Str(s) => Value::Str(s.clone()),
            KnobValue::Null => Value::Null,
        }
    }

    fn decode(v: &Value) -> Result<KnobValue, String> {
        Ok(match v {
            Value::Null => KnobValue::Null,
            Value::Bool(b) => KnobValue::Bool(*b),
            Value::U64(n) => KnobValue::Number(*n as f64),
            Value::I64(n) => KnobValue::Number(*n as f64),
            Value::F64(x) => KnobValue::Number(*x),
            Value::Str(s) => KnobValue::Str(s.clone()),
            other => return Err(format!("expected a scalar, got {}", kind_of(other))),
        })
    }
}

// ---------------------------------------------------------------------
// The knob table
// ---------------------------------------------------------------------

/// The manifest section that may carry a knob as a plain key. Every knob
/// is also a `matrix` axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Home {
    /// The `network` section.
    Network,
    /// The `mitigations` section.
    Mitigations,
}

impl Home {
    /// The section's manifest key.
    pub fn key(self) -> &'static str {
        match self {
            Home::Network => "network",
            Home::Mitigations => "mitigations",
        }
    }
}

/// Where a knob lives in [`Settings`], which is also what values it
/// takes. One projection serves both directions: [`Knob::set`] writes
/// through it, [`Knob::get`] reads through it on a copy.
enum Slot {
    Flag(fn(&mut Settings) -> &mut bool),
    /// A whole number within the range.
    Count(fn(&mut Settings) -> &mut u64, RangeInclusive<u64>),
    /// A positive number of seconds up to [`MAX_DURATION_S`]; null is off.
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
    /// The section that may set it outside `matrix`.
    pub home: Home,
    slot: Slot,
}

const fn knob(name: &'static str, home: Home, slot: Slot) -> Knob {
    Knob { name, home, slot }
}

/// Every knob, in the order `mitigations` renders them. Adding one is a
/// row here, a [`Settings`] field, and a line in [`Cell::build_config`].
#[rustfmt::skip]
pub const KNOBS: &[Knob] = {
    use {Home::*, Slot::*};
    &[
        knob("rtt_reset_after_idle", Mitigations, Flag(|s| &mut s.rtt_reset_after_idle)),
        knob("slow_start_after_idle", Mitigations, Flag(|s| &mut s.slow_start_after_idle)),
        knob("metrics_cache", Mitigations, Flag(|s| &mut s.metrics_cache)),
        knob("keepalive_ping_s", Mitigations, Seconds(|s| &mut s.keepalive_ping_s)),
        knob("http_pipelining", Mitigations, Count(|s| &mut s.http_pipelining, 1..=65_535)),
        knob("http_idle_close_s", Mitigations, Seconds(|s| &mut s.http_idle_close_s)),
        knob("cc", Mitigations, Cc(|s| &mut s.cc)),
        knob("rrc_promotion_ms", Network, Millis(|s| &mut s.rrc_promotion_ms)),
    ]
};

/// `x` as a whole number within `range`.
fn whole(x: f64, range: &RangeInclusive<u64>) -> Option<u64> {
    Some(x as u64).filter(|n| x >= 0.0 && x.fract() == 0.0 && range.contains(n))
}

impl Knob {
    fn named(name: &str) -> Option<&'static Knob> {
        KNOBS.iter().find(|k| k.name == name)
    }

    /// What a value of the wrong type or range is told the knob takes.
    pub fn takes(&self) -> String {
        match &self.slot {
            Slot::Flag(_) => "a boolean".into(),
            Slot::Count(_, range) => {
                format!("an integer from {} to {}", range.start(), range.end())
            }
            Slot::Seconds(_) => "a positive number of seconds (at most 1e9) or null".into(),
            Slot::Millis(_) => "a whole number of milliseconds (at most 1e12) or null".into(),
            Slot::Cc(_) => CC_NAMES.map(|(name, _)| format!("{name:?}")).join(" or "),
        }
    }

    /// Store `value`; `false` when it is not one the knob takes.
    pub fn set(&self, s: &mut Settings, value: &KnobValue) -> bool {
        use KnobValue::{Bool, Null, Number, Str};
        match (&self.slot, value) {
            (Slot::Flag(at), Bool(b)) => *at(s) = *b,
            (Slot::Count(at, range), Number(x)) => match whole(*x, range) {
                Some(n) => *at(s) = n,
                None => return false,
            },
            (Slot::Seconds(at), Null) => *at(s) = None,
            (Slot::Seconds(at), Number(x)) if *x > 0.0 && *x <= MAX_DURATION_S as f64 => {
                *at(s) = Some(*x);
            }
            (Slot::Millis(at), Null) => *at(s) = None,
            (Slot::Millis(at), Number(x)) => match whole(*x, &(0..=MAX_DURATION_S * 1_000)) {
                Some(ms) => *at(s) = Some(ms),
                None => return false,
            },
            (Slot::Cc(at), Str(name)) => match CC_NAMES.iter().find(|(n, _)| n == name) {
                Some(&(_, cc)) => *at(s) = cc,
                None => return false,
            },
            _ => return false,
        }
        true
    }

    /// The stored value, as the manifest spells it.
    pub fn get(&self, s: &Settings) -> KnobValue {
        let s = &mut s.clone();
        match &self.slot {
            Slot::Flag(at) => KnobValue::Bool(*at(s)),
            Slot::Count(at, _) => KnobValue::Number(*at(s) as f64),
            Slot::Seconds(at) => at(s).map_or(KnobValue::Null, KnobValue::Number),
            Slot::Millis(at) => at(s).map_or(KnobValue::Null, |ms| KnobValue::Number(ms as f64)),
            Slot::Cc(at) => {
                let named = CC_NAMES.iter().find(|(_, cc)| cc == at(s));
                KnobValue::Str(named.expect("every CcAlgorithm is named").0.to_string())
            }
        }
    }

    fn apply(&self, settings: &mut Settings, value: &KnobValue) -> Result<(), String> {
        if self.set(settings, value) {
            Ok(())
        } else {
            Err(format!("knob {:?} takes {}", self.name, self.takes()))
        }
    }
}

/// The `seeds` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// `result.json` and `junit.xml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    /// Run under the host-side span profiler and write
    /// `profile_<name>.json`, `heartbeat_<name>.jsonl` (one line per
    /// cell) and the cells' merged `metrics_<name>.json`.
    pub profile: bool,
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
    /// Record full per-connection TCP traces (cwnd/ssthresh) — the
    /// legacy paired dump serializes them, so its manifest sets this.
    pub tcp_traces: bool,
    /// Run limits.
    pub limits: Limits,
    /// Assertions evaluated against the pooled cell metrics.
    pub assertions: Vec<Assertion>,
    /// Extra artifact toggles.
    pub outputs: Outputs,
}

/// One resolved run cell: a (variant, seed, protocol) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Index in execution order.
    pub index: usize,
    /// Variant name (`""` when the matrix is empty, else
    /// `knob=value+knob=value` in matrix order).
    pub variant: String,
    /// Protocol side.
    pub protocol: ProtocolSpec,
    /// Root seed for this cell.
    pub seed: u64,
    /// Knob settings after applying the variant's overrides.
    pub settings: Settings,
}

/// The shared Table 1 schedule for seed `s` — the single source of truth
/// for the paper's alternating methodology (HTTP and SPDY see the same
/// order): every manifest cell, figure and test takes its schedule here.
pub fn table1_schedule_for_seed(s: u64) -> VisitSchedule {
    let mut rng = DetRng::new(0x5C_u64 ^ (s.wrapping_mul(0x9E37_79B9))).fork("schedule");
    VisitSchedule::paper_default(&mut rng)
}

fn check_name(name: &str) -> Result<String, String> {
    let legal = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    if name.is_empty() || !name.chars().all(legal) {
        return Err(
            "must be a non-empty [A-Za-z0-9_-]+ identifier (it names artifact files)".into(),
        );
    }
    Ok(name.to_string())
}

/// Read every knob whose home is `f`'s section.
fn decode_knobs(f: &mut Fields<'_>, home: Home, settings: &mut Settings) {
    for knob in KNOBS.iter().filter(|k| k.home == home) {
        if let Some(v) = f.get(knob.name) {
            if let Err(msg) = KnobValue::decode(v).and_then(|v| knob.apply(settings, &v)) {
                f.fail(knob.name, msg);
            }
        }
    }
}

/// How often and how far apart a `site` / `synthetic` page is visited.
fn decode_pacing(f: &mut Fields<'_>) -> (u32, u64) {
    let visits: u32 = f.int("visits", 1..=u32::MAX, Some(1));
    let interval_s = f.int("interval_s", 0..=MAX_DURATION_S, Some(60));
    if u64::from(visits) * interval_s > MAX_HORIZON_S {
        f.reject(format!(
            "{visits} visits {interval_s} s apart span more than {MAX_HORIZON_S} s"
        ));
    }
    (visits, interval_s)
}

fn decode_workload(top: &mut Fields<'_>) -> Workload {
    let mut f = top.child("workload");
    let kind = f.read("kind", Some("table1"), |v| match as_str(v)? {
        known @ ("table1" | "site" | "synthetic") => Ok(known),
        other => Err(format!(
            "unknown workload {other:?} (expected table1, site, or synthetic)"
        )),
    });
    let workload = match kind {
        Some("site") => {
            let site = f.int("site", 1..=20, None);
            let (visits, interval_s) = decode_pacing(&mut f);
            Workload::Site {
                site,
                visits,
                interval_s,
            }
        }
        Some("synthetic") => {
            let objects = f.int("objects", 1..=u32::MAX, None);
            let object_bytes = f.int("object_bytes", 0..=u64::MAX, Some(2_500));
            let same_domain = f.flag("same_domain", false);
            let (visits, interval_s) = decode_pacing(&mut f);
            Workload::Synthetic {
                objects,
                object_bytes,
                same_domain,
                visits,
                interval_s,
            }
        }
        _ => Workload::Table1,
    };
    if kind.is_none() {
        // Which keys are legal depends on the kind: behind a bad one the
        // others are not judged.
        f.entries = &[];
    }
    top.absorb(f);
    workload
}

fn decode_matrix(top: &mut Fields<'_>) -> Vec<(String, Vec<KnobValue>)> {
    let mut f = top.child("matrix");
    f.noun = "knob";
    f.asked.extend(KNOBS.iter().map(|k| k.name));
    // Type-check eagerly on a scratch copy so bad matrix values are
    // exit-3 config errors, not mid-run failures.
    let mut scratch = Settings::default();
    let mut matrix = Vec::with_capacity(f.entries.len());
    for (name, values) in f.entries {
        let Some(knob) = Knob::named(name) else {
            continue; // `finish` names it
        };
        let mut decoded = Vec::new();
        match typed("an array of knob values", values, values.as_array()) {
            Err(msg) => f.fail(name, msg),
            Ok(items) if items.is_empty() => f.fail(name, "needs at least one value"),
            Ok(items) => {
                for (j, item) in items.iter().enumerate() {
                    let checked = KnobValue::decode(item)
                        .and_then(|v| knob.apply(&mut scratch, &v).map(|()| v));
                    match checked {
                        Ok(v) => decoded.push(v),
                        Err(msg) => f.fail(&format!("{name}[{j}]"), msg),
                    }
                }
            }
        }
        matrix.push((name.clone(), decoded));
    }
    top.absorb(f);
    matrix
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
            protocols: vec![
                ProtocolSpec::parse("http").expect("http parses"),
                ProtocolSpec::parse("spdy").expect("spdy parses"),
            ],
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

    /// Decode a manifest from JSON text.
    pub fn from_json(text: &str) -> DResult<Manifest> {
        let value = serde_json::from_str(text)
            .map_err(|e| ManifestError(format!("scenario error: invalid JSON: {e}")))?;
        Manifest::decode(&value)
    }

    /// Decode a manifest from a JSON file.
    pub fn from_file(path: &std::path::Path) -> DResult<Manifest> {
        if let Some("yaml" | "yml") = path.extension().and_then(|e| e.to_str()) {
            return Err(ManifestError(
                "scenario error: manifests are JSON (.yaml and .yml files are not accepted)".into(),
            ));
        }
        let text = std::fs::read_to_string(path).map_err(|e| {
            ManifestError(format!(
                "scenario error: cannot read {}: {e}",
                path.display()
            ))
        })?;
        Manifest::from_json(&text)
    }

    /// Decode a manifest from a parsed `Value` tree.
    pub fn decode(v: &Value) -> DResult<Manifest> {
        let mut top = Fields::new(Some(v), "manifest".into());
        let version = |v: &Value| match typed("an unsigned integer", v, v.as_u64())? {
            MANIFEST_SCHEMA_VERSION => Ok(MANIFEST_SCHEMA_VERSION),
            other => Err(format!(
                "unsupported version {other} (this build speaks {MANIFEST_SCHEMA_VERSION})"
            )),
        };
        let schema_version = top.read("schema_version", None, version);
        let name = top.read("name", None, |v| as_str(v).and_then(check_name));
        let description = top.read("description", Some(""), as_str);

        let mut settings = Settings::default();
        let mut f = top.child(Home::Network.key());
        let kind = f.read("kind", None, |v| as_str(v)?.parse::<NetworkKind>());
        decode_knobs(&mut f, Home::Network, &mut settings);
        top.absorb(f);

        let workload = decode_workload(&mut top);

        let protocols = top.strings("protocols", true, ProtocolSpec::parse);

        let mut f = top.child(Home::Mitigations.key());
        decode_knobs(&mut f, Home::Mitigations, &mut settings);
        top.absorb(f);

        let matrix = decode_matrix(&mut top);

        let (mut f, d) = (top.child("seeds"), Seeds::default());
        let seeds = Seeds {
            base: f.int("base", 0..=u64::MAX, Some(d.base)),
            count: f.int("count", 1..=u64::MAX, Some(d.count)),
        };
        if seeds.base.checked_add(seeds.count).is_none() {
            f.reject("base + count overflows a 64-bit seed");
        }
        top.absorb(f);

        let trace = top.read("trace", Some(TraceLevel::Off), |v| {
            let s = as_str(v)?;
            TraceLevel::parse(s).ok_or_else(|| {
                format!("unknown level {s:?} (expected off, lifecycle, transport, or full)")
            })
        });
        let tcp_traces = top.flag("tcp_traces", false);

        let (mut f, d) = (top.child("limits"), Limits::default());
        let limits = Limits {
            event_budget: f.int("event_budget", 1..=u64::MAX, Some(d.event_budget)),
            visit_timeout_s: f.int(
                "visit_timeout_s",
                1..=MAX_DURATION_S,
                Some(d.visit_timeout_s),
            ),
        };
        top.absorb(f);

        let assertions = top.strings("assertions", false, Assertion::parse);

        let mut f = top.child("outputs");
        let outputs = Outputs {
            paired_dump: f.flag("paired_dump", false),
            trace_artifacts: f.flag("trace_artifacts", false),
            plot_data: f.flag("plot_data", false),
            profile: f.flag("profile", false),
        };
        let manifest = Manifest {
            schema_version: schema_version.unwrap_or_default(),
            name: name.unwrap_or_default(),
            description: description.unwrap_or_default().to_string(),
            network: NetworkSection {
                kind: kind.unwrap_or(NetworkKind::Umts3G),
            },
            workload,
            protocols,
            settings,
            matrix,
            seeds,
            trace: trace.unwrap_or(TraceLevel::Off),
            tcp_traces,
            limits,
            assertions,
            outputs,
        };
        if outputs.paired_dump && !manifest.is_paired() {
            f.reject(
                "paired_dump requires protocols [\"http\", \"spdy\"] and an empty matrix (the legacy dump format is strictly paired)",
            );
        }
        let spdy_sides = manifest
            .protocols
            .iter()
            .filter(|p| p.mode != ProtocolMode::Http)
            .count();
        let one_cell_per_file = manifest.seeds.count == 1
            && manifest.matrix.is_empty()
            && spdy_sides <= 1
            && manifest.protocols.len() - spdy_sides <= 1;
        if outputs.plot_data && !one_cell_per_file {
            f.fail(
                "plot_data",
                "the .dat files are named by protocol alone (plt_spdy.dat, cwnd_spdy-0.dat), so it needs one seed, an empty matrix, and at most one http and one spdy protocol",
            );
        }
        top.absorb(f);
        // Every placeholder above sits behind a recorded diagnostic.
        top.finish()?;
        Ok(manifest)
    }

    /// Whether this is a strict legacy pairing: exactly `[http, spdy]`
    /// with no matrix (the shape the paired dump format assumes).
    pub fn is_paired(&self) -> bool {
        self.matrix.is_empty()
            && self.protocols.len() == 2
            && self.protocols[0].mode == ProtocolMode::Http
            && self.protocols[1].mode == ProtocolMode::spdy()
    }

    /// Matrix variants in cross-product order. An empty matrix yields one
    /// unnamed variant with no overrides.
    pub fn variants(&self) -> Vec<(String, Vec<(String, KnobValue)>)> {
        let mut variants: Vec<(String, Vec<(String, KnobValue)>)> =
            vec![(String::new(), Vec::new())];
        for (knob, values) in &self.matrix {
            let mut next = Vec::with_capacity(variants.len() * values.len());
            for (name, overrides) in &variants {
                for value in values {
                    let part = format!("{knob}={}", value.render());
                    let name = if name.is_empty() {
                        part
                    } else {
                        format!("{name}+{part}")
                    };
                    let mut overrides = overrides.clone();
                    overrides.push((knob.clone(), value.clone()));
                    next.push((name, overrides));
                }
            }
            variants = next;
        }
        variants
    }

    /// All run cells in execution order: variant-outer, then seed, then
    /// protocol — so a paired manifest's cells interleave exactly like the
    /// legacy dump (HTTP line then SPDY line per seed).
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for (variant, overrides) in self.variants() {
            let mut settings = self.settings.clone();
            for (name, value) in &overrides {
                Knob::named(name)
                    .ok_or_else(|| format!("unknown knob {name:?}"))
                    .and_then(|knob| knob.apply(&mut settings, value))
                    .expect("decode checks matrix knobs; a hand-built matrix must name real ones");
            }
            for seed in self.seeds.base..self.seeds.base + self.seeds.count {
                for &protocol in &self.protocols {
                    cells.push(Cell {
                        index: cells.len(),
                        variant: variant.clone(),
                        protocol,
                        seed,
                        settings: settings.clone(),
                    });
                }
            }
        }
        cells
    }

    /// The trace level the runner actually uses: the declared level,
    /// raised to whatever the assertions demand — `Transport` for stall
    /// attribution, `Full` for critical-path metrics, `Lifecycle` for
    /// `trace_dropped` / counter passthroughs (the flight recorder is
    /// passive, so raising it never perturbs the simulation — the
    /// determinism suite pins that).
    pub fn effective_trace(&self) -> TraceLevel {
        let needed = self
            .assertions
            .iter()
            .map(|a| a.required_trace())
            .max()
            .unwrap_or(TraceLevel::Off);
        self.trace.max(needed)
    }

    /// Render the manifest back to its canonical `Value` tree
    /// ([`Manifest::decode`] inverts it — the round-trip property the
    /// proptest suite pins). Optional keys at their defaults are omitted.
    pub fn to_value(&self) -> Value {
        let baseline = Settings::default();
        let knobs = |home: Home| {
            let differs = |k: &&Knob| k.get(&self.settings) != k.get(&baseline);
            KNOBS
                .iter()
                .filter(move |k| k.home == home)
                .filter(differs)
                .map(|k| (k.name, k.get(&self.settings).to_value()))
        };
        let text = |s: &str| Value::Str(s.to_string());

        let mut top = vec![
            ("schema_version", Value::U64(self.schema_version)),
            ("name", text(&self.name)),
        ];
        if !self.description.is_empty() {
            top.push(("description", text(&self.description)));
        }
        let kind = ("kind", text(self.network.kind.cli_name()));
        top.push((
            Home::Network.key(),
            object(std::iter::once(kind).chain(knobs(Home::Network))),
        ));
        let (kind, fields, pacing) = match &self.workload {
            Workload::Table1 => ("table1", Vec::new(), None),
            Workload::Site {
                site,
                visits,
                interval_s,
            } => (
                "site",
                vec![("site", Value::U64(u64::from(*site)))],
                Some((*visits, *interval_s)),
            ),
            Workload::Synthetic {
                objects,
                object_bytes,
                same_domain,
                visits,
                interval_s,
            } => (
                "synthetic",
                vec![
                    ("objects", Value::U64(u64::from(*objects))),
                    ("object_bytes", Value::U64(*object_bytes)),
                    ("same_domain", Value::Bool(*same_domain)),
                ],
                Some((*visits, *interval_s)),
            ),
        };
        let mut workload = vec![("kind", text(kind))];
        workload.extend(fields);
        if let Some((visits, interval_s)) = pacing {
            workload.push(("visits", Value::U64(u64::from(visits))));
            workload.push(("interval_s", Value::U64(interval_s)));
        }
        top.push(("workload", object(workload)));
        let protocols = self.protocols.iter().map(|p| Value::Str(p.compact()));
        top.push(("protocols", Value::Array(protocols.collect())));
        if knobs(Home::Mitigations).next().is_some() {
            top.push((Home::Mitigations.key(), object(knobs(Home::Mitigations))));
        }
        if !self.matrix.is_empty() {
            let axes = self.matrix.iter().map(|(knob, values)| {
                let values = values.iter().map(KnobValue::to_value).collect();
                (knob.as_str(), Value::Array(values))
            });
            top.push(("matrix", object(axes)));
        }
        if self.seeds != Seeds::default() {
            let seeds = [
                ("base", Value::U64(self.seeds.base)),
                ("count", Value::U64(self.seeds.count)),
            ];
            top.push(("seeds", object(seeds)));
        }
        if self.trace != TraceLevel::Off {
            let name = match self.trace {
                TraceLevel::Off => "off",
                TraceLevel::Lifecycle => "lifecycle",
                TraceLevel::Transport => "transport",
                TraceLevel::Full => "full",
            };
            top.push(("trace", text(name)));
        }
        if self.tcp_traces {
            top.push(("tcp_traces", Value::Bool(true)));
        }
        if self.limits != Limits::default() {
            let limits = [
                ("event_budget", Value::U64(self.limits.event_budget)),
                ("visit_timeout_s", Value::U64(self.limits.visit_timeout_s)),
            ];
            top.push(("limits", object(limits)));
        }
        if !self.assertions.is_empty() {
            let exprs = self.assertions.iter().map(|a| text(&a.expr));
            top.push(("assertions", Value::Array(exprs.collect())));
        }
        if self.outputs != Outputs::default() {
            let set = [
                ("paired_dump", self.outputs.paired_dump),
                ("trace_artifacts", self.outputs.trace_artifacts),
                ("plot_data", self.outputs.plot_data),
                ("profile", self.outputs.profile),
            ];
            let set = set.into_iter().filter(|&(_, on)| on);
            top.push(("outputs", object(set.map(|(k, on)| (k, Value::Bool(on))))));
        }
        object(top)
    }

    /// Render as pretty JSON (the committed `scenarios/*.json` format).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_value()).expect("manifest serializes");
        s.push('\n');
        s
    }
}

fn object<'k>(entries: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Whether `filter` — one term of an assertion reference or of a
/// `--cell` selector — names the cell with this identity: its protocol
/// compact name, its variant name, or `seed<N>` (all case-insensitive).
pub(crate) fn filter_selects(filter: &str, protocol: &str, variant: &str, seed: u64) -> bool {
    let f = filter.to_ascii_lowercase();
    f == protocol.to_ascii_lowercase()
        || (!variant.is_empty() && f == variant.to_ascii_lowercase())
        || f == format!("seed{seed}")
}

impl Cell {
    /// Whether the filter term `filter` selects this cell (the same
    /// predicate as [`crate::CellMetrics::matches`]).
    pub fn matches(&self, filter: &str) -> bool {
        filter_selects(filter, &self.protocol.compact(), &self.variant, self.seed)
    }

    /// Build the full [`ExperimentConfig`] for this cell. Defaults match
    /// [`ExperimentConfig::paper_3g`] exactly, with the schedule the
    /// workload and seed name.
    pub fn build_config(&self, manifest: &Manifest) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_3g(self.protocol.mode, self.seed)
            .with_network(manifest.network.kind);
        match &manifest.workload {
            Workload::Table1 => {
                cfg = cfg.with_schedule(table1_schedule_for_seed(self.seed));
            }
            Workload::Site {
                site,
                visits,
                interval_s,
            } => {
                cfg = cfg.with_schedule(VisitSchedule::sequential(
                    vec![*site; *visits as usize],
                    SimDuration::from_secs(*interval_s),
                ));
            }
            Workload::Synthetic {
                objects,
                object_bytes,
                same_domain,
                visits,
                interval_s,
            } => {
                cfg = cfg
                    .with_custom_pages(vec![test_page(
                        *objects as usize,
                        *object_bytes,
                        *same_domain,
                    )])
                    .with_schedule(VisitSchedule::sequential(
                        vec![1; *visits as usize],
                        SimDuration::from_secs(*interval_s),
                    ));
            }
        }
        let s = &self.settings;
        cfg.tcp.reset_rtt_after_idle = s.rtt_reset_after_idle;
        cfg.tcp.slow_start_after_idle = s.slow_start_after_idle;
        cfg.tcp.cc = s.cc;
        cfg.cache_metrics = s.metrics_cache;
        cfg.keepalive_ping = s.keepalive_ping_s.map(secs_f64);
        cfg.http_pipelining = s.http_pipelining as usize;
        cfg.http_idle_close = s.http_idle_close_s.map(secs_f64);
        cfg.rrc_promotion_override = s.rrc_promotion_ms.map(SimDuration::from_millis);
        cfg.trace_level = manifest.effective_trace();
        cfg.record_traces = manifest.tcp_traces;
        cfg.event_budget = manifest.limits.event_budget;
        cfg.visit_timeout = SimDuration::from_secs(manifest.limits.visit_timeout_s);
        cfg
    }

    /// Artifact label for this cell: the protocol compact name, extended
    /// with the seed when the manifest has several seeds and with the
    /// variant under a matrix (one cell per protocol stays `<proto>`, as
    /// in `trace_spdy.jsonl`).
    pub fn artifact_label(&self, manifest: &Manifest) -> String {
        let proto = self.protocol.compact().replace(':', "-");
        let mut label = proto;
        if manifest.seeds.count > 1 {
            label.push_str(&format!("_s{}", self.seed));
        }
        if !self.variant.is_empty() {
            label.push('_');
            label.push_str(&self.variant.replace('=', "-").replace('+', "_"));
        }
        label
    }
}

fn secs_f64(s: f64) -> SimDuration {
    SimDuration::from_millis((s * 1_000.0).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_core::config::PageSource;

    const MINIMAL: &str = r#"{
        "schema_version": 1,
        "name": "paired_3g",
        "network": { "kind": "3g" },
        "protocols": ["http", "spdy"]
    }"#;

    #[test]
    fn minimal_manifest_matches_paper_baseline() {
        let m = Manifest::from_json(MINIMAL).unwrap();
        assert_eq!(m, Manifest::paper_baseline("paired_3g"));
        assert!(m.is_paired());
        assert_eq!(m.effective_trace(), TraceLevel::Off);
    }

    #[test]
    fn baseline_cell_config_equals_paper_3g() {
        let m = Manifest::paper_baseline("x");
        let cells = m.cells();
        assert_eq!(cells.len(), 2);
        let cfg = cells[1].build_config(&m);
        let reference = ExperimentConfig::paper_3g(ProtocolMode::spdy(), 0)
            .with_schedule(table1_schedule_for_seed(0));
        assert_eq!(cfg.seed, reference.seed);
        assert_eq!(cfg.network, reference.network);
        assert_eq!(cfg.protocol, reference.protocol);
        assert_eq!(cfg.tcp, reference.tcp);
        assert_eq!(cfg.cache_metrics, reference.cache_metrics);
        assert_eq!(cfg.keepalive_ping, reference.keepalive_ping);
        assert_eq!(cfg.schedule.order, reference.schedule.order);
        assert_eq!(cfg.visit_timeout, reference.visit_timeout);
        assert_eq!(cfg.record_traces, reference.record_traces);
        assert_eq!(cfg.trace_level, reference.trace_level);
        assert_eq!(cfg.ssl_setup_rtts, reference.ssl_setup_rtts);
        assert_eq!(cfg.http_idle_close, reference.http_idle_close);
        assert_eq!(cfg.http_pipelining, reference.http_pipelining);
        assert_eq!(cfg.rrc_promotion_override, reference.rrc_promotion_override);
        assert_eq!(cfg.event_budget, reference.event_budget);
    }

    #[test]
    fn table1_schedules_are_reproducible_and_shared_by_both_protocols() {
        assert_eq!(
            table1_schedule_for_seed(1).order,
            table1_schedule_for_seed(1).order
        );
        assert_ne!(
            table1_schedule_for_seed(1).order,
            table1_schedule_for_seed(2).order
        );
        let m = Manifest::paper_baseline("x");
        let [http, spdy] = &m.cells()[..] else {
            panic!("the baseline is one HTTP/SPDY pair");
        };
        assert_eq!(
            http.build_config(&m).schedule.order,
            spdy.build_config(&m).schedule.order
        );
    }

    #[test]
    fn unknown_fields_are_rejected_with_path() {
        let text = MINIMAL.replace("\"protocols\"", "\"protocolz\"");
        let e = Manifest::from_json(&text).unwrap_err();
        assert!(e.0.contains("manifest.protocolz"), "{e}");
        assert!(e.0.contains("unknown field"), "{e}");

        let nested = r#"{
            "schema_version": 1, "name": "x",
            "network": { "kind": "3g", "rrc": 1 },
            "protocols": ["http"]
        }"#;
        let e = Manifest::from_json(nested).unwrap_err();
        assert!(e.0.contains("manifest.network.rrc"), "{e}");
    }

    #[test]
    fn bad_values_name_the_field() {
        let e = Manifest::from_json(&MINIMAL.replace("\"3g\"", "\"4g\"")).unwrap_err();
        assert!(e.0.contains("manifest.network.kind"), "{e}");
        assert!(e.0.contains("unknown network \"4g\""), "{e}");

        let e = Manifest::from_json(&MINIMAL.replace("\"spdy\"", "\"quic\"")).unwrap_err();
        assert!(e.0.contains("manifest.protocols[1]"), "{e}");

        let e =
            Manifest::from_json(&MINIMAL.replace("\"schema_version\": 1", "\"schema_version\": 9"))
                .unwrap_err();
        assert!(e.0.contains("unsupported version 9"), "{e}");
    }

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

    #[test]
    fn matrix_cross_product_orders_and_names_variants() {
        let text = r#"{
            "schema_version": 1,
            "name": "matrix",
            "network": { "kind": "3g" },
            "protocols": ["http", "spdy"],
            "matrix": {
                "rtt_reset_after_idle": [false, true],
                "slow_start_after_idle": [true, false]
            }
        }"#;
        let m = Manifest::from_json(text).unwrap();
        let names: Vec<String> = m.variants().into_iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "rtt_reset_after_idle=false+slow_start_after_idle=true",
                "rtt_reset_after_idle=false+slow_start_after_idle=false",
                "rtt_reset_after_idle=true+slow_start_after_idle=true",
                "rtt_reset_after_idle=true+slow_start_after_idle=false",
            ]
        );
        let cells = m.cells();
        assert_eq!(cells.len(), 8);
        // variant-outer, seed, then protocol.
        assert_eq!(cells[0].protocol.compact(), "http");
        assert_eq!(cells[1].protocol.compact(), "spdy");
        assert_eq!(cells[0].variant, cells[1].variant);
        assert!(cells[2].settings.slow_start_after_idle != cells[0].settings.slow_start_after_idle);
        assert!(cells[6].settings.rtt_reset_after_idle);
        assert!(!m.is_paired(), "matrix manifests are not strictly paired");
    }

    #[test]
    fn matrix_values_are_type_checked_at_decode() {
        let text = r#"{
            "schema_version": 1,
            "name": "matrix",
            "network": { "kind": "3g" },
            "protocols": ["http"],
            "matrix": { "rtt_reset_after_idle": [1] }
        }"#;
        let e = Manifest::from_json(text).unwrap_err();
        assert!(
            e.0.contains("manifest.matrix.rtt_reset_after_idle[0]"),
            "{e}"
        );
        assert!(e.0.contains("takes a boolean"), "{e}");

        let text = r#"{
            "schema_version": 1,
            "name": "matrix",
            "network": { "kind": "3g" },
            "protocols": ["http"],
            "matrix": { "mss": [1380] }
        }"#;
        let e = Manifest::from_json(text).unwrap_err();
        assert!(e.0.contains("unknown knob"), "{e}");
    }

    /// `v` with `key: value` appended to its `section` object (created
    /// when absent); `None` is the top level.
    fn with_key(v: &Value, section: Option<&str>, key: &str, value: Value) -> Value {
        let Value::Object(mut top) = v.clone() else {
            panic!("a manifest is an object");
        };
        let entries = match section {
            None => &mut top,
            Some(section) => {
                if !top.iter().any(|(k, _)| k == section) {
                    top.push((section.into(), Value::Object(Vec::new())));
                }
                let slot = top.iter_mut().find(|(k, _)| k == section);
                match slot {
                    Some((_, Value::Object(entries))) => entries,
                    _ => panic!("{section} is an object"),
                }
            }
        };
        entries.push((key.into(), value));
        Value::Object(top)
    }

    /// Every row of [`KNOBS`]: set under its home section it decodes and
    /// round-trips, as a matrix axis it reaches the cell, a value of the
    /// wrong type is refused with the knob's own phrase at its own path,
    /// and either way the testbed config changes — a knob cannot be
    /// declared without reaching [`Cell::build_config`].
    #[test]
    fn every_knob_decodes_round_trips_sweeps_and_reaches_the_testbed() {
        use KnobValue::{Bool, Null, Number, Str};
        let pool = [
            Bool(true),
            Bool(false),
            Number(2.0),
            Str("reno".into()),
            Null,
        ];
        let baseline = Manifest::paper_baseline("knobs");
        let config_of = |m: &Manifest| format!("{:?}", m.cells()[0].build_config(m));
        for knob in KNOBS {
            let name = knob.name;
            let home = knob.home.key();
            let takes = |v: &&KnobValue| knob.set(&mut Settings::default(), v);
            let default = knob.get(&Settings::default());
            let good = pool.iter().find(|v| takes(v) && **v != default);
            let good = good.unwrap_or_else(|| panic!("no pool value suits {name}"));
            let bad = pool
                .iter()
                .find(|v| !takes(v))
                .expect("no knob takes everything");

            let plain = with_key(&baseline.to_value(), Some(home), name, good.to_value());
            let m = Manifest::decode(&plain).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(knob.get(&m.settings), *good, "{name}");
            assert_eq!(Manifest::decode(&m.to_value()).as_ref(), Ok(&m), "{name}");
            assert_ne!(
                config_of(&m),
                config_of(&baseline),
                "{name} never reaches the testbed"
            );

            let axis = Value::Array(vec![good.to_value()]);
            let swept = with_key(&baseline.to_value(), Some("matrix"), name, axis);
            let m = Manifest::decode(&swept).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(knob.get(&m.cells()[0].settings), *good, "{name}");
            assert_ne!(
                config_of(&m),
                config_of(&baseline),
                "{name} never reaches the testbed"
            );

            let axis = Value::Array(vec![bad.to_value()]);
            for (section, value, path) in [
                (home, bad.to_value(), format!("manifest.{home}.{name}: ")),
                ("matrix", axis, format!("manifest.matrix.{name}[0]: ")),
            ] {
                let refused = with_key(&baseline.to_value(), Some(section), name, value);
                let e = Manifest::decode(&refused).unwrap_err();
                assert!(e.0.contains(&path), "{e}");
                assert!(e.0.contains(&format!("takes {}", knob.takes())), "{e}");
            }
        }
    }

    /// Every section rejects a key nobody reads, and a key given twice,
    /// naming `manifest.<section>.<key>` — for all three workload shapes.
    #[test]
    fn every_section_names_its_unknown_and_duplicate_keys() {
        let mut full = Manifest::paper_baseline("full");
        full.settings.rtt_reset_after_idle = true;
        full.settings.rrc_promotion_ms = Some(500);
        full.matrix = vec![("cc".into(), vec![KnobValue::Str("reno".into())])];
        full.seeds.count = 3;
        full.limits.visit_timeout_s = 45;
        full.outputs.trace_artifacts = true;
        let site = Workload::Site {
            site: 9,
            visits: 2,
            interval_s: 30,
        };
        let synthetic = Workload::Synthetic {
            objects: 5,
            object_bytes: 100,
            same_domain: true,
            visits: 2,
            interval_s: 30,
        };
        for workload in [Workload::Table1, site, synthetic] {
            full.workload = workload;
            let v = full.to_value();
            assert_eq!(Manifest::decode(&v).as_ref(), Ok(&full));
            let Value::Object(top) = &v else {
                panic!("a manifest is an object");
            };
            let sections = top.iter().filter_map(|(key, v)| match v {
                Value::Object(entries) => Some((Some(key.as_str()), entries)),
                _ => None,
            });
            let mut walked = 0;
            for (section, entries) in sections.chain([(None, top)]) {
                let at = section.map_or("manifest".into(), |s| format!("manifest.{s}"));
                let e =
                    Manifest::decode(&with_key(&v, section, "bogus", Value::U64(1))).unwrap_err();
                assert!(e.0.contains(&format!("{at}.bogus: unknown ")), "{e}");
                let (first, value) = &entries[0];
                let e = Manifest::decode(&with_key(&v, section, first, value.clone())).unwrap_err();
                assert!(e.0.contains(&format!("{at}.{first}: duplicate ")), "{e}");
                walked += 1;
            }
            assert_eq!(
                walked, 8,
                "network, workload, mitigations, matrix, seeds, limits, outputs, top"
            );
        }
    }

    #[test]
    fn synthetic_workload_builds_custom_pages() {
        let text = r#"{
            "schema_version": 1,
            "name": "synth",
            "network": { "kind": "wifi" },
            "protocols": ["spdy"],
            "workload": { "kind": "synthetic", "objects": 50, "object_bytes": 2500 }
        }"#;
        let m = Manifest::from_json(text).unwrap();
        let cfg = m.cells()[0].build_config(&m);
        assert_eq!(cfg.schedule.order, vec![1]);
        match &cfg.pages {
            PageSource::Custom(pages) => {
                assert_eq!(pages.len(), 1);
                assert_eq!(pages[0].objects.len(), 51);
            }
            PageSource::Table1 => panic!("expected custom pages"),
        }
    }

    #[test]
    fn assertions_raise_trace_level_for_stall_metrics() {
        let text = r#"{
            "schema_version": 1,
            "name": "stalls",
            "network": { "kind": "3g" },
            "protocols": ["http", "spdy"],
            "assertions": ["spdy.rto_stall_ms > http.rto_stall_ms on 3g"]
        }"#;
        let m = Manifest::from_json(text).unwrap();
        assert_eq!(m.trace, TraceLevel::Off);
        assert_eq!(m.effective_trace(), TraceLevel::Transport);
        let cfg = m.cells()[0].build_config(&m);
        assert_eq!(cfg.trace_level, TraceLevel::Transport);
    }

    #[test]
    fn critical_path_assertions_raise_trace_level_to_full() {
        let text = r#"{
            "schema_version": 1,
            "name": "critical",
            "network": { "kind": "3g" },
            "protocols": ["http", "spdy"],
            "assertions": [
                "spdy.critical_rto_stall_ms > http.critical_rto_stall_ms on 3g"
            ]
        }"#;
        let m = Manifest::from_json(text).unwrap();
        assert_eq!(m.trace, TraceLevel::Off);
        assert_eq!(m.effective_trace(), TraceLevel::Full);

        let text = r#"{
            "schema_version": 1,
            "name": "lossless",
            "network": { "kind": "wifi" },
            "protocols": ["http"],
            "assertions": ["trace_dropped <= 0"]
        }"#;
        let m = Manifest::from_json(text).unwrap();
        assert_eq!(m.effective_trace(), TraceLevel::Lifecycle);
    }

    #[test]
    fn paired_dump_requires_paired_shape() {
        let text = r#"{
            "schema_version": 1,
            "name": "bad",
            "network": { "kind": "3g" },
            "protocols": ["spdy"],
            "outputs": { "paired_dump": true }
        }"#;
        let e = Manifest::from_json(text).unwrap_err();
        assert!(e.0.contains("paired_dump"), "{e}");
    }

    #[test]
    fn canonical_json_round_trips() {
        let text = r#"{
            "schema_version": 1,
            "name": "full",
            "description": "everything set",
            "network": { "kind": "lte", "rrc_promotion_ms": 500 },
            "workload": { "kind": "site", "site": 9, "visits": 3, "interval_s": 30 },
            "protocols": ["http", "spdy", "spdy:20:late"],
            "mitigations": { "rtt_reset_after_idle": true, "http_idle_close_s": null, "cc": "reno" },
            "matrix": { "slow_start_after_idle": [true, false] },
            "seeds": { "base": 7, "count": 2 },
            "trace": "transport",
            "tcp_traces": true,
            "limits": { "event_budget": 1000000, "visit_timeout_s": 45 },
            "assertions": ["plt_p50_ms < 9000 on lte"],
            "outputs": { "trace_artifacts": true }
        }"#;
        let m = Manifest::from_json(text).unwrap();
        assert_eq!(m.settings.http_idle_close_s, None);
        assert_eq!(m.settings.cc, CcAlgorithm::Reno);
        let rendered = m.to_json();
        let reparsed = Manifest::from_json(&rendered).unwrap();
        assert_eq!(m, reparsed);
        assert_eq!(
            rendered,
            reparsed.to_json(),
            "canonical form is a fixed point"
        );
    }

    #[test]
    fn artifact_labels_stay_legacy_for_single_cells() {
        let m = Manifest::from_json(MINIMAL).unwrap();
        let cells = m.cells();
        assert_eq!(cells[0].artifact_label(&m), "http");
        assert_eq!(cells[1].artifact_label(&m), "spdy");
        let mut multi = m.clone();
        multi.seeds.count = 2;
        let cells = multi.cells();
        assert_eq!(cells[0].artifact_label(&multi), "http_s0");
        assert_eq!(cells[3].artifact_label(&multi), "spdy_s1");
    }
}
