//! The scenario manifest: one experiment, declared as data.
//!
//! A manifest is a JSON (or strict-subset YAML, see [`crate::yaml`])
//! document that names everything a run of the testbed depends on: the
//! access network, the workload, the protocol side(s), the §6 mitigation
//! knobs, an optional knob matrix, seeds, trace level, limits, and the
//! assertions the run must satisfy. Decoding is *strict*: unknown keys,
//! wrong types, and out-of-range values are one-line
//! [`ManifestError`]s naming the offending field — they map to the
//! scenario exit code 3 (config error), never to a half-configured run.
//!
//! The defaults of every optional section reproduce
//! [`ExperimentConfig::paper_3g`] exactly; a manifest that only names a
//! network and protocols runs at the paper's operating point, which is
//! what lets the legacy `paired`/`trace` subcommands be re-expressed as
//! committed manifests with byte-identical outputs.

use crate::assertions::Assertion;
use serde::{Serialize, Value};
use spdyier_core::{ExperimentConfig, NetworkSpec, ProtocolMode};
use spdyier_sim::{DetRng, SimDuration};
use spdyier_tcp::CcAlgorithm;
use spdyier_trace::TraceLevel;
use spdyier_workload::{test_page, VisitSchedule};

/// Current manifest schema version; decoding rejects any other.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// A one-line manifest decoding/validation error. The message always
/// names the offending field path (`scenario error at workload.objects:
/// expected an unsigned integer`).
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestError(pub String);

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ManifestError {}

fn err(path: &str, msg: impl std::fmt::Display) -> ManifestError {
    ManifestError(format!("scenario error at {path}: {msg}"))
}

type DResult<T> = Result<T, ManifestError>;

// ---------------------------------------------------------------------
// Decode helpers over the serde `Value` tree
// ---------------------------------------------------------------------

fn as_object<'a>(v: &'a Value, path: &str) -> DResult<&'a [(String, Value)]> {
    match v {
        Value::Object(entries) => Ok(entries),
        other => Err(err(
            path,
            format!("expected an object, got {}", kind_of(other)),
        )),
    }
}

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

/// Reject unknown and duplicate keys — the strictness that turns typos
/// into exit-code-3 diagnostics instead of silently-defaulted runs.
fn check_keys(entries: &[(String, Value)], allowed: &[&str], path: &str) -> DResult<()> {
    for (i, (key, _)) in entries.iter().enumerate() {
        if !allowed.contains(&key.as_str()) {
            return Err(err(
                &format!("{path}.{key}"),
                format!("unknown field (expected one of: {})", allowed.join(", ")),
            ));
        }
        if entries[..i].iter().any(|(prev, _)| prev == key) {
            return Err(err(&format!("{path}.{key}"), "duplicate field"));
        }
    }
    Ok(())
}

fn get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_u64(v: &Value, path: &str) -> DResult<u64> {
    match v {
        Value::U64(n) => Ok(*n),
        other => Err(err(
            path,
            format!("expected an unsigned integer, got {}", kind_of(other)),
        )),
    }
}

fn as_bool(v: &Value, path: &str) -> DResult<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(err(
            path,
            format!("expected a boolean, got {}", kind_of(other)),
        )),
    }
}

fn as_str<'a>(v: &'a Value, path: &str) -> DResult<&'a str> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(err(
            path,
            format!("expected a string, got {}", kind_of(other)),
        )),
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

/// The `network` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkSection {
    /// Which access network (`"3g"`, `"3g-pinned"`, `"lte"`, `"wifi"`).
    pub kind: NetworkSpec,
    /// Override the radio's idle→active promotion delay, ms.
    pub rrc_promotion_ms: Option<u64>,
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

/// The `mitigations` section: every §6 knob, defaulted to the paper's
/// baseline (i.e. [`ExperimentConfig::paper_3g`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Mitigations {
    /// §6.2.1: reset the RTT estimate across idle periods.
    pub rtt_reset_after_idle: bool,
    /// RFC 2861 `tcp_slow_start_after_idle` (§6.2.2).
    pub slow_start_after_idle: bool,
    /// Destination metrics cache (§6.2.4).
    pub metrics_cache: bool,
    /// Fig. 14 keepalive ping interval, seconds (absent = off).
    pub keepalive_ping_s: Option<f64>,
    /// Outstanding requests per HTTP connection (1 = paper).
    pub http_pipelining: u64,
    /// Close idle HTTP connections after this many seconds
    /// (JSON `null` disables the reaper; absent = the 10 s default).
    pub http_idle_close_s: Option<f64>,
    /// Congestion control: `"cubic"` (paper testbed) or `"reno"`.
    pub cc: CcAlgorithm,
}

impl Default for Mitigations {
    fn default() -> Self {
        Mitigations {
            rtt_reset_after_idle: false,
            slow_start_after_idle: true,
            metrics_cache: true,
            keepalive_ping_s: None,
            http_pipelining: 1,
            http_idle_close_s: Some(10.0),
            cc: CcAlgorithm::Cubic,
        }
    }
}

/// One matrix knob value: a JSON scalar.
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

    fn decode(v: &Value, path: &str) -> DResult<KnobValue> {
        Ok(match v {
            Value::Null => KnobValue::Null,
            Value::Bool(b) => KnobValue::Bool(*b),
            Value::U64(n) => KnobValue::Number(*n as f64),
            Value::I64(n) => KnobValue::Number(*n as f64),
            Value::F64(x) => KnobValue::Number(*x),
            Value::Str(s) => KnobValue::Str(s.clone()),
            other => {
                return Err(err(
                    path,
                    format!("expected a scalar, got {}", kind_of(other)),
                ))
            }
        })
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
    /// §6 mitigation knobs (baseline defaults).
    pub mitigations: Mitigations,
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
    /// Mitigation knobs after applying the variant's overrides.
    pub settings: Mitigations,
    /// RRC promotion override after variant overrides, ms.
    pub rrc_promotion_ms: Option<u64>,
}

/// The shared Table 1 schedule for seed `s` — the single source of truth
/// for the paper's alternating methodology (HTTP and SPDY see the same
/// order): every manifest cell, figure and test takes its schedule here.
pub fn table1_schedule_for_seed(s: u64) -> VisitSchedule {
    let mut rng = DetRng::new(0x5C_u64 ^ (s.wrapping_mul(0x9E37_79B9))).fork("schedule");
    VisitSchedule::paper_default(&mut rng)
}

/// Matrix knobs and the type each accepts.
const MATRIX_KNOBS: [&str; 8] = [
    "rtt_reset_after_idle",
    "slow_start_after_idle",
    "metrics_cache",
    "keepalive_ping_s",
    "http_pipelining",
    "http_idle_close_s",
    "cc",
    "rrc_promotion_ms",
];

fn apply_knob(
    settings: &mut Mitigations,
    rrc_promotion_ms: &mut Option<u64>,
    knob: &str,
    value: &KnobValue,
    path: &str,
) -> DResult<()> {
    let type_err = |want: &str| err(path, format!("knob {knob:?} takes {want}"));
    match knob {
        "rtt_reset_after_idle" | "slow_start_after_idle" | "metrics_cache" => {
            let KnobValue::Bool(b) = value else {
                return Err(type_err("a boolean"));
            };
            match knob {
                "rtt_reset_after_idle" => settings.rtt_reset_after_idle = *b,
                "slow_start_after_idle" => settings.slow_start_after_idle = *b,
                _ => settings.metrics_cache = *b,
            }
        }
        "keepalive_ping_s" => match value {
            KnobValue::Null => settings.keepalive_ping_s = None,
            KnobValue::Number(x) if *x > 0.0 => settings.keepalive_ping_s = Some(*x),
            _ => return Err(type_err("a positive number of seconds or null")),
        },
        "http_pipelining" => match value {
            KnobValue::Number(x) if *x >= 1.0 && x.fract() == 0.0 => {
                settings.http_pipelining = *x as u64;
            }
            _ => return Err(type_err("an integer >= 1")),
        },
        "http_idle_close_s" => match value {
            KnobValue::Null => settings.http_idle_close_s = None,
            KnobValue::Number(x) if *x > 0.0 => settings.http_idle_close_s = Some(*x),
            _ => return Err(type_err("a positive number of seconds or null")),
        },
        "cc" => match value {
            KnobValue::Str(s) if s == "cubic" => settings.cc = CcAlgorithm::Cubic,
            KnobValue::Str(s) if s == "reno" => settings.cc = CcAlgorithm::Reno,
            _ => return Err(type_err("\"cubic\" or \"reno\"")),
        },
        "rrc_promotion_ms" => match value {
            KnobValue::Null => *rrc_promotion_ms = None,
            KnobValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 => {
                *rrc_promotion_ms = Some(*x as u64);
            }
            _ => return Err(type_err("a non-negative integer of milliseconds or null")),
        },
        _ => {
            return Err(err(
                path,
                format!(
                    "unknown knob {knob:?} (expected one of: {})",
                    MATRIX_KNOBS.join(", ")
                ),
            ))
        }
    }
    Ok(())
}

impl Manifest {
    /// A minimal manifest at the paper's 3G operating point: Table 1
    /// workload, paired HTTP/SPDY, baseline mitigations, one seed.
    pub fn paper_baseline(name: &str) -> Manifest {
        Manifest {
            schema_version: MANIFEST_SCHEMA_VERSION,
            name: name.to_string(),
            description: String::new(),
            network: NetworkSection {
                kind: NetworkSpec::Umts3G,
                rrc_promotion_ms: None,
            },
            workload: Workload::Table1,
            protocols: vec![
                ProtocolSpec::parse("http").expect("http parses"),
                ProtocolSpec::parse("spdy").expect("spdy parses"),
            ],
            mitigations: Mitigations::default(),
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

    /// Decode a manifest from strict-subset YAML text (see [`crate::yaml`]).
    pub fn from_yaml(text: &str) -> DResult<Manifest> {
        let value = crate::yaml::parse(text)
            .map_err(|e| ManifestError(format!("scenario error: invalid YAML: {e}")))?;
        Manifest::decode(&value)
    }

    /// Decode a manifest from a file, dispatching on the `.yaml`/`.yml`
    /// extension (anything else is treated as JSON).
    pub fn from_file(path: &std::path::Path) -> DResult<Manifest> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            ManifestError(format!(
                "scenario error: cannot read {}: {e}",
                path.display()
            ))
        })?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("yaml") | Some("yml") => Manifest::from_yaml(&text),
            _ => Manifest::from_json(&text),
        }
    }

    /// Decode a manifest from a parsed `Value` tree.
    pub fn decode(v: &Value) -> DResult<Manifest> {
        let top = as_object(v, "manifest")?;
        check_keys(
            top,
            &[
                "schema_version",
                "name",
                "description",
                "network",
                "workload",
                "protocols",
                "mitigations",
                "matrix",
                "seeds",
                "trace",
                "tcp_traces",
                "limits",
                "assertions",
                "outputs",
            ],
            "manifest",
        )?;

        let schema_version = as_u64(
            get(top, "schema_version")
                .ok_or_else(|| err("manifest.schema_version", "missing required field"))?,
            "manifest.schema_version",
        )?;
        if schema_version != MANIFEST_SCHEMA_VERSION {
            return Err(err(
                "manifest.schema_version",
                format!("unsupported version {schema_version} (this build speaks {MANIFEST_SCHEMA_VERSION})"),
            ));
        }

        let name = as_str(
            get(top, "name").ok_or_else(|| err("manifest.name", "missing required field"))?,
            "manifest.name",
        )?
        .to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(err(
                "manifest.name",
                "must be a non-empty [A-Za-z0-9_-]+ identifier (it names artifact files)",
            ));
        }

        let description = match get(top, "description") {
            Some(v) => as_str(v, "manifest.description")?.to_string(),
            None => String::new(),
        };

        let network = Self::decode_network(
            get(top, "network").ok_or_else(|| err("manifest.network", "missing required field"))?,
        )?;

        let workload = match get(top, "workload") {
            Some(v) => Self::decode_workload(v)?,
            None => Workload::Table1,
        };

        let protocols_v = get(top, "protocols")
            .ok_or_else(|| err("manifest.protocols", "missing required field"))?;
        let Value::Array(items) = protocols_v else {
            return Err(err(
                "manifest.protocols",
                "expected an array of protocol strings",
            ));
        };
        if items.is_empty() {
            return Err(err(
                "manifest.protocols",
                "at least one protocol is required",
            ));
        }
        let mut protocols = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let path = format!("manifest.protocols[{i}]");
            let s = as_str(item, &path)?;
            protocols.push(ProtocolSpec::parse(s).map_err(|e| err(&path, e))?);
        }

        let mitigations = match get(top, "mitigations") {
            Some(v) => Self::decode_mitigations(v)?,
            None => Mitigations::default(),
        };

        let matrix = match get(top, "matrix") {
            Some(v) => Self::decode_matrix(v, &mitigations, &network)?,
            None => Vec::new(),
        };

        let seeds = match get(top, "seeds") {
            Some(v) => {
                let entries = as_object(v, "manifest.seeds")?;
                check_keys(entries, &["base", "count"], "manifest.seeds")?;
                let base = match get(entries, "base") {
                    Some(v) => as_u64(v, "manifest.seeds.base")?,
                    None => 0,
                };
                let count = match get(entries, "count") {
                    Some(v) => as_u64(v, "manifest.seeds.count")?,
                    None => 1,
                };
                if count == 0 {
                    return Err(err("manifest.seeds.count", "must be at least 1"));
                }
                Seeds { base, count }
            }
            None => Seeds::default(),
        };

        let trace = match get(top, "trace") {
            Some(v) => {
                let s = as_str(v, "manifest.trace")?;
                TraceLevel::parse(s).ok_or_else(|| {
                    err(
                        "manifest.trace",
                        format!(
                            "unknown level {s:?} (expected off, lifecycle, transport, or full)"
                        ),
                    )
                })?
            }
            None => TraceLevel::Off,
        };

        let tcp_traces = match get(top, "tcp_traces") {
            Some(v) => as_bool(v, "manifest.tcp_traces")?,
            None => false,
        };

        let limits = match get(top, "limits") {
            Some(v) => {
                let entries = as_object(v, "manifest.limits")?;
                check_keys(
                    entries,
                    &["event_budget", "visit_timeout_s"],
                    "manifest.limits",
                )?;
                let mut limits = Limits::default();
                if let Some(v) = get(entries, "event_budget") {
                    limits.event_budget = as_u64(v, "manifest.limits.event_budget")?;
                    if limits.event_budget == 0 {
                        return Err(err("manifest.limits.event_budget", "must be positive"));
                    }
                }
                if let Some(v) = get(entries, "visit_timeout_s") {
                    limits.visit_timeout_s = as_u64(v, "manifest.limits.visit_timeout_s")?;
                    if limits.visit_timeout_s == 0 {
                        return Err(err("manifest.limits.visit_timeout_s", "must be positive"));
                    }
                }
                limits
            }
            None => Limits::default(),
        };

        let assertions = match get(top, "assertions") {
            Some(v) => {
                let Value::Array(items) = v else {
                    return Err(err(
                        "manifest.assertions",
                        "expected an array of assertion strings",
                    ));
                };
                let mut assertions = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    let path = format!("manifest.assertions[{i}]");
                    let s = as_str(item, &path)?;
                    assertions.push(Assertion::parse(s).map_err(|e| err(&path, e))?);
                }
                assertions
            }
            None => Vec::new(),
        };

        let outputs = match get(top, "outputs") {
            Some(v) => {
                let entries = as_object(v, "manifest.outputs")?;
                check_keys(
                    entries,
                    &["paired_dump", "trace_artifacts"],
                    "manifest.outputs",
                )?;
                Outputs {
                    paired_dump: match get(entries, "paired_dump") {
                        Some(v) => as_bool(v, "manifest.outputs.paired_dump")?,
                        None => false,
                    },
                    trace_artifacts: match get(entries, "trace_artifacts") {
                        Some(v) => as_bool(v, "manifest.outputs.trace_artifacts")?,
                        None => false,
                    },
                }
            }
            None => Outputs::default(),
        };

        let manifest = Manifest {
            schema_version,
            name,
            description,
            network,
            workload,
            protocols,
            mitigations,
            matrix,
            seeds,
            trace,
            tcp_traces,
            limits,
            assertions,
            outputs,
        };
        if manifest.outputs.paired_dump && !manifest.is_paired() {
            return Err(err(
                "manifest.outputs.paired_dump",
                "requires protocols [\"http\", \"spdy\"] and an empty matrix (the legacy dump format is strictly paired)",
            ));
        }
        Ok(manifest)
    }

    fn decode_network(v: &Value) -> DResult<NetworkSection> {
        let entries = as_object(v, "manifest.network")?;
        check_keys(entries, &["kind", "rrc_promotion_ms"], "manifest.network")?;
        let kind_s = as_str(
            get(entries, "kind")
                .ok_or_else(|| err("manifest.network.kind", "missing required field"))?,
            "manifest.network.kind",
        )?;
        let kind: NetworkSpec = kind_s
            .parse()
            .map_err(|e| err("manifest.network.kind", e))?;
        let rrc_promotion_ms = match get(entries, "rrc_promotion_ms") {
            Some(Value::Null) | None => None,
            Some(v) => Some(as_u64(v, "manifest.network.rrc_promotion_ms")?),
        };
        Ok(NetworkSection {
            kind,
            rrc_promotion_ms,
        })
    }

    fn decode_workload(v: &Value) -> DResult<Workload> {
        let entries = as_object(v, "manifest.workload")?;
        let kind = as_str(
            get(entries, "kind")
                .ok_or_else(|| err("manifest.workload.kind", "missing required field"))?,
            "manifest.workload.kind",
        )?;
        match kind {
            "table1" => {
                check_keys(entries, &["kind"], "manifest.workload")?;
                Ok(Workload::Table1)
            }
            "site" => {
                check_keys(
                    entries,
                    &["kind", "site", "visits", "interval_s"],
                    "manifest.workload",
                )?;
                let site = as_u64(
                    get(entries, "site")
                        .ok_or_else(|| err("manifest.workload.site", "missing required field"))?,
                    "manifest.workload.site",
                )?;
                if !(1..=20).contains(&site) {
                    return Err(err(
                        "manifest.workload.site",
                        "must be a 1-based Table 1 row (1..=20)",
                    ));
                }
                let visits = match get(entries, "visits") {
                    Some(v) => as_u64(v, "manifest.workload.visits")?,
                    None => 1,
                };
                if visits == 0 {
                    return Err(err("manifest.workload.visits", "must be at least 1"));
                }
                let interval_s = match get(entries, "interval_s") {
                    Some(v) => as_u64(v, "manifest.workload.interval_s")?,
                    None => 60,
                };
                Ok(Workload::Site {
                    site: site as u32,
                    visits: visits as u32,
                    interval_s,
                })
            }
            "synthetic" => {
                check_keys(
                    entries,
                    &[
                        "kind",
                        "objects",
                        "object_bytes",
                        "same_domain",
                        "visits",
                        "interval_s",
                    ],
                    "manifest.workload",
                )?;
                let objects = as_u64(
                    get(entries, "objects").ok_or_else(|| {
                        err("manifest.workload.objects", "missing required field")
                    })?,
                    "manifest.workload.objects",
                )?;
                if objects == 0 {
                    return Err(err("manifest.workload.objects", "must be at least 1"));
                }
                let object_bytes = match get(entries, "object_bytes") {
                    Some(v) => as_u64(v, "manifest.workload.object_bytes")?,
                    None => 2_500,
                };
                let same_domain = match get(entries, "same_domain") {
                    Some(v) => as_bool(v, "manifest.workload.same_domain")?,
                    None => false,
                };
                let visits = match get(entries, "visits") {
                    Some(v) => as_u64(v, "manifest.workload.visits")?,
                    None => 1,
                };
                if visits == 0 {
                    return Err(err("manifest.workload.visits", "must be at least 1"));
                }
                let interval_s = match get(entries, "interval_s") {
                    Some(v) => as_u64(v, "manifest.workload.interval_s")?,
                    None => 60,
                };
                Ok(Workload::Synthetic {
                    objects: objects as u32,
                    object_bytes,
                    same_domain,
                    visits: visits as u32,
                    interval_s,
                })
            }
            other => Err(err(
                "manifest.workload.kind",
                format!("unknown workload {other:?} (expected table1, site, or synthetic)"),
            )),
        }
    }

    fn decode_mitigations(v: &Value) -> DResult<Mitigations> {
        let entries = as_object(v, "manifest.mitigations")?;
        check_keys(
            entries,
            &[
                "rtt_reset_after_idle",
                "slow_start_after_idle",
                "metrics_cache",
                "keepalive_ping_s",
                "http_pipelining",
                "http_idle_close_s",
                "cc",
            ],
            "manifest.mitigations",
        )?;
        let mut m = Mitigations::default();
        let mut unused_rrc = None;
        for (key, value) in entries {
            let path = format!("manifest.mitigations.{key}");
            let knob = KnobValue::decode(value, &path)?;
            apply_knob(&mut m, &mut unused_rrc, key, &knob, &path)?;
        }
        Ok(m)
    }

    fn decode_matrix(
        v: &Value,
        base: &Mitigations,
        network: &NetworkSection,
    ) -> DResult<Vec<(String, Vec<KnobValue>)>> {
        let entries = as_object(v, "manifest.matrix")?;
        let mut matrix = Vec::with_capacity(entries.len());
        for (i, (knob, values)) in entries.iter().enumerate() {
            let path = format!("manifest.matrix.{knob}");
            if entries[..i].iter().any(|(prev, _)| prev == knob) {
                return Err(err(&path, "duplicate knob"));
            }
            let Value::Array(items) = values else {
                return Err(err(&path, "expected an array of knob values"));
            };
            if items.is_empty() {
                return Err(err(&path, "needs at least one value"));
            }
            let mut decoded = Vec::with_capacity(items.len());
            for (j, item) in items.iter().enumerate() {
                let vpath = format!("{path}[{j}]");
                let value = KnobValue::decode(item, &vpath)?;
                // Type-check eagerly on a scratch copy so bad matrix
                // values are exit-3 config errors, not mid-run failures.
                let mut scratch = base.clone();
                let mut scratch_rrc = network.rrc_promotion_ms;
                apply_knob(&mut scratch, &mut scratch_rrc, knob, &value, &vpath)?;
                decoded.push(value);
            }
            matrix.push((knob.clone(), decoded));
        }
        Ok(matrix)
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
            let mut settings = self.mitigations.clone();
            let mut rrc = self.network.rrc_promotion_ms;
            for (knob, value) in &overrides {
                apply_knob(&mut settings, &mut rrc, knob, value, "manifest.matrix")
                    .expect("matrix values were type-checked at decode");
            }
            for seed in self.seeds.base..self.seeds.base + self.seeds.count {
                for &protocol in &self.protocols {
                    cells.push(Cell {
                        index: cells.len(),
                        variant: variant.clone(),
                        protocol,
                        seed,
                        settings: settings.clone(),
                        rrc_promotion_ms: rrc,
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
    /// proptest suite pins).
    pub fn to_value(&self) -> Value {
        let mut top: Vec<(String, Value)> = Vec::new();
        top.push(("schema_version".into(), Value::U64(self.schema_version)));
        top.push(("name".into(), Value::Str(self.name.clone())));
        if !self.description.is_empty() {
            top.push(("description".into(), Value::Str(self.description.clone())));
        }
        let mut network: Vec<(String, Value)> = Vec::new();
        network.push((
            "kind".into(),
            Value::Str(self.network.kind.cli_name().into()),
        ));
        if let Some(ms) = self.network.rrc_promotion_ms {
            network.push(("rrc_promotion_ms".into(), Value::U64(ms)));
        }
        top.push(("network".into(), Value::Object(network)));
        match &self.workload {
            Workload::Table1 => {
                top.push((
                    "workload".into(),
                    Value::Object(vec![("kind".into(), Value::Str("table1".into()))]),
                ));
            }
            Workload::Site {
                site,
                visits,
                interval_s,
            } => {
                top.push((
                    "workload".into(),
                    Value::Object(vec![
                        ("kind".into(), Value::Str("site".into())),
                        ("site".into(), Value::U64(u64::from(*site))),
                        ("visits".into(), Value::U64(u64::from(*visits))),
                        ("interval_s".into(), Value::U64(*interval_s)),
                    ]),
                ));
            }
            Workload::Synthetic {
                objects,
                object_bytes,
                same_domain,
                visits,
                interval_s,
            } => {
                top.push((
                    "workload".into(),
                    Value::Object(vec![
                        ("kind".into(), Value::Str("synthetic".into())),
                        ("objects".into(), Value::U64(u64::from(*objects))),
                        ("object_bytes".into(), Value::U64(*object_bytes)),
                        ("same_domain".into(), Value::Bool(*same_domain)),
                        ("visits".into(), Value::U64(u64::from(*visits))),
                        ("interval_s".into(), Value::U64(*interval_s)),
                    ]),
                ));
            }
        }
        top.push((
            "protocols".into(),
            Value::Array(
                self.protocols
                    .iter()
                    .map(|p| Value::Str(p.compact()))
                    .collect(),
            ),
        ));
        let m = &self.mitigations;
        let d = Mitigations::default();
        let mut mit: Vec<(String, Value)> = Vec::new();
        if m.rtt_reset_after_idle != d.rtt_reset_after_idle {
            mit.push((
                "rtt_reset_after_idle".into(),
                Value::Bool(m.rtt_reset_after_idle),
            ));
        }
        if m.slow_start_after_idle != d.slow_start_after_idle {
            mit.push((
                "slow_start_after_idle".into(),
                Value::Bool(m.slow_start_after_idle),
            ));
        }
        if m.metrics_cache != d.metrics_cache {
            mit.push(("metrics_cache".into(), Value::Bool(m.metrics_cache)));
        }
        if let Some(s) = m.keepalive_ping_s {
            mit.push(("keepalive_ping_s".into(), KnobValue::Number(s).to_value()));
        }
        if m.http_pipelining != d.http_pipelining {
            mit.push(("http_pipelining".into(), Value::U64(m.http_pipelining)));
        }
        if m.http_idle_close_s != d.http_idle_close_s {
            mit.push((
                "http_idle_close_s".into(),
                match m.http_idle_close_s {
                    Some(s) => KnobValue::Number(s).to_value(),
                    None => Value::Null,
                },
            ));
        }
        if m.cc != d.cc {
            mit.push(("cc".into(), Value::Str("reno".into())));
        }
        if !mit.is_empty() {
            top.push(("mitigations".into(), Value::Object(mit)));
        }
        if !self.matrix.is_empty() {
            top.push((
                "matrix".into(),
                Value::Object(
                    self.matrix
                        .iter()
                        .map(|(knob, values)| {
                            (
                                knob.clone(),
                                Value::Array(values.iter().map(KnobValue::to_value).collect()),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        if self.seeds != Seeds::default() {
            top.push((
                "seeds".into(),
                Value::Object(vec![
                    ("base".into(), Value::U64(self.seeds.base)),
                    ("count".into(), Value::U64(self.seeds.count)),
                ]),
            ));
        }
        if self.trace != TraceLevel::Off {
            let name = match self.trace {
                TraceLevel::Off => "off",
                TraceLevel::Lifecycle => "lifecycle",
                TraceLevel::Transport => "transport",
                TraceLevel::Full => "full",
            };
            top.push(("trace".into(), Value::Str(name.into())));
        }
        if self.tcp_traces {
            top.push(("tcp_traces".into(), Value::Bool(true)));
        }
        if self.limits != Limits::default() {
            top.push((
                "limits".into(),
                Value::Object(vec![
                    ("event_budget".into(), Value::U64(self.limits.event_budget)),
                    (
                        "visit_timeout_s".into(),
                        Value::U64(self.limits.visit_timeout_s),
                    ),
                ]),
            ));
        }
        if !self.assertions.is_empty() {
            top.push((
                "assertions".into(),
                Value::Array(
                    self.assertions
                        .iter()
                        .map(|a| Value::Str(a.expr.clone()))
                        .collect(),
                ),
            ));
        }
        if self.outputs != Outputs::default() {
            let mut out: Vec<(String, Value)> = Vec::new();
            if self.outputs.paired_dump {
                out.push(("paired_dump".into(), Value::Bool(true)));
            }
            if self.outputs.trace_artifacts {
                out.push(("trace_artifacts".into(), Value::Bool(true)));
            }
            top.push(("outputs".into(), Value::Object(out)));
        }
        Value::Object(top)
    }

    /// Render as pretty JSON (the committed `scenarios/*.json` format).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&SerializeValue(self.to_value()))
            .expect("manifest serializes");
        s.push('\n');
        s
    }
}

/// Newtype bridging an already-built `Value` into the serialize-only
/// vendored serde model.
struct SerializeValue(Value);

impl Serialize for SerializeValue {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Cell {
    /// Build the full [`ExperimentConfig`] for this cell. Defaults match
    /// [`ExperimentConfig::paper_3g`] exactly, so a baseline manifest's
    /// cells are byte-identical to the legacy subcommands' runs.
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
        cfg.rrc_promotion_override = self.rrc_promotion_ms.map(SimDuration::from_millis);
        cfg.trace_level = manifest.effective_trace();
        cfg.record_traces = manifest.tcp_traces;
        cfg.event_budget = manifest.limits.event_budget;
        cfg.visit_timeout = SimDuration::from_secs(manifest.limits.visit_timeout_s);
        cfg
    }

    /// Artifact label for this cell: the protocol compact name, extended
    /// with the seed and variant when the manifest has several cells per
    /// protocol (single-cell-per-protocol manifests keep the legacy
    /// `trace_<proto>.*` names).
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
        assert_eq!(m.mitigations.http_idle_close_s, None);
        assert_eq!(m.mitigations.cc, CcAlgorithm::Reno);
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
