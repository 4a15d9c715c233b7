//! JSON → [`Manifest`]: the strict decoder.
//!
//! Every section is read through `serde::de`, the strict decoder the
//! trace and the checkpoint store use: an unknown or duplicate key, a
//! missing required key and a value of the wrong JSON type are errors
//! naming their path, and an unknown key's error lists the keys its
//! object takes. Ranges are checked after the typed read, and so are the
//! rules that join keys: a seed range past `u64`, a schedule longer than
//! [`MAX_HORIZON_S`], a page whose bytes overflow, an `outputs` key off
//! its shape. A knob's key and the values it takes are its [`KNOBS`] row.
//!
//! Every error is one [`ManifestError`] line rooted at `manifest`
//! (`scenario error at manifest.workload.objects: expected an unsigned
//! integer, got a string`), which maps to the scenario exit code 3
//! (config error), never to a half-configured run.

use crate::assertions::Assertion;
use crate::manifest::{
    Knob, KnobValue, Limits, Manifest, NetworkSection, ProtocolSpec, Seeds, Settings, Workload,
    KNOBS, MANIFEST_SCHEMA_VERSION, MAX_DURATION_S, MAX_HORIZON_S, MAX_OBJECTS,
};
use serde::de::{Error, Fields};
use serde::{Deserialize, Value};
use spdyier_core::{NetworkKind, ProtocolMode};
use spdyier_trace::TraceLevel;
use spdyier_workload::TEST_PAGE_HTML_BYTES;
use std::fmt::Display;
use std::ops::RangeInclusive;

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

impl Manifest {
    /// Decode a manifest from JSON text.
    pub fn from_json(text: &str) -> Result<Manifest, ManifestError> {
        let value = serde_json::from_str(text)
            .map_err(|e| ManifestError(format!("scenario error: invalid JSON: {e}")))?;
        Manifest::decode(&value)
    }

    /// Decode a manifest from a JSON file. A `.yaml`/`.yml` path, and a
    /// `.jsonl` trace a run wrote, are refused by extension before the
    /// file is looked for.
    pub fn from_file(path: &std::path::Path) -> Result<Manifest, ManifestError> {
        let refused = match path.extension().and_then(|e| e.to_str()) {
            Some("yaml" | "yml") => {
                Some("manifests are JSON (.yaml and .yml files are not accepted)")
            }
            Some("jsonl") => {
                Some("a .jsonl trace is an output, not a manifest; pass the manifest that wrote it")
            }
            _ => None,
        };
        if let Some(refused) = refused {
            return Err(ManifestError(format!("scenario error: {refused}")));
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
    pub fn decode(v: &Value) -> Result<Manifest, ManifestError> {
        Manifest::deserialize(v)
            .map_err(|e| ManifestError(format!("scenario error at {}", e.at("manifest"))))
    }
}

/// `Ok` when `v` lies within `range`, else an error at `key`.
fn within<T: PartialOrd + Display>(key: &str, v: T, range: RangeInclusive<T>) -> Result<(), Error> {
    if range.contains(&v) {
        return Ok(());
    }
    let (lo, hi) = (range.start(), range.end());
    Err(Error::new(format!("{v} is outside {lo}..={hi}")).at(key))
}

/// The top-level keys, in the order they are read.
#[rustfmt::skip]
const KEYS: [&str; 14] = [
    "schema_version", "name", "description", "network", "workload", "protocols", "mitigations",
    "matrix", "seeds", "trace", "tcp_traces", "limits", "assertions", "outputs",
];

impl Deserialize for Manifest {
    fn deserialize(v: &Value) -> Result<Manifest, Error> {
        let mut f = Fields::new(v, &KEYS)?;
        let schema_version = f.get("schema_version")?;
        if schema_version != MANIFEST_SCHEMA_VERSION {
            let msg = format!(
                "unsupported version {schema_version} (this build speaks {MANIFEST_SCHEMA_VERSION})"
            );
            return Err(Error::new(msg).at("schema_version"));
        }
        let name: String = f.get("name")?;
        let legal = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
        if name.is_empty() || !name.chars().all(legal) {
            let msg = "must be a non-empty [A-Za-z0-9_-]+ identifier (it names artifact files)";
            return Err(Error::new(msg).at("name"));
        }
        let description = f.opt("description")?.unwrap_or_default();
        let network: Network = f.get("network")?;
        let workload = f.opt("workload")?.unwrap_or(Workload::Table1);
        let protocols: Vec<ProtocolSpec> = f.get("protocols")?;
        if protocols.is_empty() {
            return Err(Error::new("needs at least one entry").at("protocols"));
        }
        let Mitigations(mitigations) = f.opt("mitigations")?.unwrap_or_default();
        let mut settings = Settings::default();
        for (knob, value) in network.knobs.iter().chain(&mitigations) {
            knob.set(&mut settings, value)
                .map_err(|msg| Error::new(msg).at(knob.name).at(knob.home))?;
        }
        let Matrix(matrix) = f.opt("matrix")?.unwrap_or_default();
        let seeds: Seeds = f.opt("seeds")?.unwrap_or_default();
        check_seeds(&seeds).map_err(|e| e.at("seeds"))?;
        let trace = match f.opt::<String>("trace")? {
            None => TraceLevel::Off,
            Some(level) => TraceLevel::parse(&level).ok_or_else(|| {
                let msg = format!(
                    "unknown level {level:?} (expected off, lifecycle, transport, or full)"
                );
                Error::new(msg).at("trace")
            })?,
        };
        let tcp_traces = f.opt("tcp_traces")?.unwrap_or(false);
        let limits: Limits = f.opt("limits")?.unwrap_or_default();
        check_limits(&limits).map_err(|e| e.at("limits"))?;
        let assertions = f.opt("assertions")?.unwrap_or_default();
        let outputs = f.opt("outputs")?.unwrap_or_default();
        let manifest = Manifest {
            schema_version,
            name,
            description,
            network: NetworkSection { kind: network.kind },
            workload,
            protocols,
            settings,
            matrix,
            seeds,
            trace,
            tcp_traces,
            limits,
            assertions,
            outputs,
        };
        check_outputs(&manifest).map_err(|e| e.at("outputs"))?;
        Ok(manifest)
    }
}

impl Deserialize for ProtocolSpec {
    fn deserialize(v: &Value) -> Result<ProtocolSpec, Error> {
        ProtocolSpec::parse(&String::deserialize(v)?).map_err(Error::new)
    }
}

impl Deserialize for Assertion {
    fn deserialize(v: &Value) -> Result<Assertion, Error> {
        Assertion::parse(&String::deserialize(v)?).map_err(Error::new)
    }
}

impl Deserialize for KnobValue {
    fn deserialize(v: &Value) -> Result<KnobValue, Error> {
        match v {
            Value::Null => Ok(KnobValue::Null),
            Value::Bool(b) => Ok(KnobValue::Bool(*b)),
            Value::Str(s) => Ok(KnobValue::Str(s.clone())),
            Value::Array(_) => Err(Error::new("expected a scalar, got an array")),
            Value::Object(_) => Err(Error::new("expected a scalar, got an object")),
            number => f64::deserialize(number).map(KnobValue::Number),
        }
    }
}

/// The keys of `home`'s section: `extra`, then its knobs.
fn section_keys(home: &str, extra: &[&'static str]) -> Vec<&'static str> {
    let knobs = KNOBS.iter().filter(|k| k.home == home).map(|k| k.name);
    extra.iter().copied().chain(knobs).collect()
}

/// The knob values one section sets, each beside its [`KNOBS`] row.
type KnobValues = Vec<(&'static Knob, KnobValue)>;

/// The knob values `home`'s section sets, in [`KNOBS`] order. Whether
/// each is one its knob takes is judged where they are applied.
fn knob_values(f: &mut Fields<'_>, home: &str) -> Result<KnobValues, Error> {
    let mut set = Vec::new();
    for knob in KNOBS.iter().filter(|k| k.home == home) {
        if let Some(value) = f.opt(knob.name)? {
            set.push((knob, value));
        }
    }
    Ok(set)
}

/// The `network` section: the access network and the radio knobs.
struct Network {
    kind: NetworkKind,
    knobs: KnobValues,
}

impl Deserialize for Network {
    fn deserialize(v: &Value) -> Result<Network, Error> {
        let mut f = Fields::new(v, &section_keys("network", &["kind"]))?;
        let kind: String = f.get("kind")?;
        let kind = kind
            .parse::<NetworkKind>()
            .map_err(|msg| Error::new(msg).at("kind"))?;
        let knobs = knob_values(&mut f, "network")?;
        Ok(Network { kind, knobs })
    }
}

/// The `mitigations` section: the §6 knobs.
#[derive(Default)]
struct Mitigations(KnobValues);

impl Deserialize for Mitigations {
    fn deserialize(v: &Value) -> Result<Mitigations, Error> {
        let mut f = Fields::new(v, &section_keys("mitigations", &[]))?;
        knob_values(&mut f, "mitigations").map(Mitigations)
    }
}

/// The `matrix` section: knob axes in document order, every value one
/// its knob takes (checked here, so a bad one is a config error rather
/// than a mid-run failure).
#[derive(Default)]
struct Matrix(Vec<(String, Vec<KnobValue>)>);

impl Deserialize for Matrix {
    fn deserialize(v: &Value) -> Result<Matrix, Error> {
        let names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        let mut f = Fields::new(v, &names)?;
        let Value::Object(axes) = v else {
            unreachable!("Fields::new accepts objects only");
        };
        let mut scratch = Settings::default();
        let mut matrix = Vec::with_capacity(axes.len());
        for (name, _) in axes {
            let knob = Knob::named(name).expect("Fields::new accepts knob names only");
            let values: Vec<KnobValue> = f.get(name)?;
            if values.is_empty() {
                return Err(Error::new("needs at least one value").at(name));
            }
            for (j, value) in values.iter().enumerate() {
                let at = |msg| Error::new(msg).at(&format!("[{j}]")).at(name);
                knob.set(&mut scratch, value).map_err(at)?;
            }
            matrix.push((name.clone(), values));
        }
        Ok(Matrix(matrix))
    }
}

impl Deserialize for Workload {
    fn deserialize(v: &Value) -> Result<Workload, Error> {
        // The kind says which other keys the section takes, so it is read
        // first; behind a bad one the others are not judged.
        let kind = v.get("kind").map(String::deserialize).transpose();
        let kind = kind.map_err(|e| e.at("kind"))?;
        match kind.as_deref().unwrap_or("table1") {
            "table1" => Fields::new(v, &["kind"]).map(|_| Workload::Table1),
            "site" => {
                let mut f = Fields::new(v, &["kind", "site", "visits", "interval_s"])?;
                let site = f.get("site")?;
                within("site", site, 1..=20)?;
                let (visits, interval_s) = pacing(&mut f)?;
                Ok(Workload::Site {
                    site,
                    visits,
                    interval_s,
                })
            }
            "synthetic" => {
                let keys = [
                    "kind",
                    "objects",
                    "object_bytes",
                    "same_domain",
                    "visits",
                    "interval_s",
                ];
                let mut f = Fields::new(v, &keys)?;
                let objects = f.get("objects")?;
                within("objects", objects, 1..=MAX_OBJECTS)?;
                let object_bytes = f.opt("object_bytes")?.unwrap_or(2_500);
                let same_domain = f.opt("same_domain")?.unwrap_or(false);
                let (visits, interval_s) = pacing(&mut f)?;
                let bytes = u64::from(objects)
                    .checked_mul(object_bytes)
                    .and_then(|images| images.checked_add(TEST_PAGE_HTML_BYTES))
                    .and_then(|page| page.checked_mul(u64::from(visits)));
                if bytes.is_none() {
                    let msg = format!(
                        "{visits} visits to {objects} images of {object_bytes} bytes overflow a 64-bit byte count"
                    );
                    return Err(Error::new(msg).at("object_bytes"));
                }
                Ok(Workload::Synthetic {
                    objects,
                    object_bytes,
                    same_domain,
                    visits,
                    interval_s,
                })
            }
            other => {
                let msg =
                    format!("unknown workload {other:?} (expected table1, site, or synthetic)");
                Err(Error::new(msg).at("kind"))
            }
        }
    }
}

/// How often and how far apart a `site` or `synthetic` page is visited.
fn pacing(f: &mut Fields<'_>) -> Result<(u32, u64), Error> {
    let visits: u32 = f.opt("visits")?.unwrap_or(1);
    within("visits", visits, 1..=u32::MAX)?;
    let interval_s = f.opt("interval_s")?.unwrap_or(60);
    within("interval_s", interval_s, 0..=MAX_DURATION_S)?;
    if u64::from(visits) * interval_s > MAX_HORIZON_S {
        let msg = format!("{visits} visits {interval_s} s apart span more than {MAX_HORIZON_S} s");
        return Err(Error::new(msg));
    }
    Ok((visits, interval_s))
}

fn check_seeds(seeds: &Seeds) -> Result<(), Error> {
    within("count", seeds.count, 1..=u64::MAX)?;
    match seeds.base.checked_add(seeds.count) {
        Some(_) => Ok(()),
        None => Err(Error::new("base + count overflows a 64-bit seed")),
    }
}

fn check_limits(l: &Limits) -> Result<(), Error> {
    within("event_budget", l.event_budget, 1..=u64::MAX)?;
    within("visit_timeout_s", l.visit_timeout_s, 1..=MAX_DURATION_S)
}

/// The `outputs` keys that need a shape of the rest of the manifest.
fn check_outputs(m: &Manifest) -> Result<(), Error> {
    if m.outputs.paired_dump && !m.is_paired() {
        return Err(Error::new(
            "paired_dump requires protocols [\"http\", \"spdy\"] and an empty matrix (the legacy dump format is strictly paired)",
        ));
    }
    let spdy_sides = m
        .protocols
        .iter()
        .filter(|p| p.mode != ProtocolMode::Http)
        .count();
    let one_cell_per_file = m.seeds.count == 1
        && m.matrix.is_empty()
        && spdy_sides <= 1
        && m.protocols.len() - spdy_sides <= 1;
    if m.outputs.plot_data && !one_cell_per_file {
        let msg = "the .dat files are named by protocol alone (plt_spdy.dat, cwnd_spdy-0.dat), so it needs one seed, an empty matrix, and at most one http and one spdy protocol";
        return Err(Error::new(msg).at("plot_data"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_tcp::CcAlgorithm;

    const MINIMAL: &str = r#"{
        "schema_version": 1,
        "name": "paired_3g",
        "network": { "kind": "3g" },
        "protocols": ["http", "spdy"]
    }"#;

    fn minimal() -> Value {
        serde_json::from_str(MINIMAL).unwrap()
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

    fn object(entries: &[(&str, Value)]) -> Value {
        let entries = entries.iter().map(|(k, v)| (k.to_string(), v.clone()));
        Value::Object(entries.collect())
    }

    #[test]
    fn minimal_manifest_matches_paper_baseline() {
        let m = Manifest::from_json(MINIMAL).unwrap();
        assert_eq!(m, Manifest::paper_baseline("paired_3g"));
        assert!(m.is_paired());
        assert_eq!(m.effective_trace(), TraceLevel::Off);
    }

    #[test]
    fn unknown_fields_are_rejected_with_path() {
        let text = MINIMAL.replace("\"protocols\"", "\"protocolz\"");
        let e = Manifest::from_json(&text).unwrap_err();
        assert!(e.0.contains("manifest.protocolz"), "{e}");
        assert!(e.0.contains("unknown key (expected one of: "), "{e}");

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
        assert!(e.0.contains("unknown key (expected one of: "), "{e}");
    }

    /// Every row of [`KNOBS`]: set under its home section it decodes, as
    /// a matrix axis it reaches the cell, a value of the wrong type is
    /// refused with the knob's own phrase at its own path, and either way
    /// the testbed config changes — a knob cannot be declared without
    /// reaching [`Cell::build_config`](crate::Cell::build_config).
    #[test]
    fn every_knob_decodes_sweeps_and_reaches_the_testbed() {
        let pool = [
            Value::Bool(true),
            Value::Bool(false),
            Value::U64(2),
            Value::Str("reno".into()),
            Value::Null,
        ];
        let baseline = Manifest::from_json(MINIMAL).unwrap();
        let config_of = |m: &Manifest| format!("{:?}", m.cells()[0].build_config(m));
        for knob in KNOBS {
            let (name, home) = (knob.name, knob.home);
            // The settings a pool value leaves, when the knob takes it.
            let set = |v: &Value| {
                let mut s = Settings::default();
                knob.set(&mut s, &KnobValue::deserialize(v).unwrap())
                    .ok()
                    .map(|()| s)
            };
            let moved = |v| Some((v, set(v).filter(|s| *s != Settings::default())?));
            let (good, expected) = pool
                .iter()
                .find_map(moved)
                .unwrap_or_else(|| panic!("no pool value moves {name}"));
            let bad = pool
                .iter()
                .find(|v| set(v).is_none())
                .expect("no knob takes everything");

            let plain = with_key(&minimal(), Some(home), name, good.clone());
            let m = Manifest::decode(&plain).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(m.settings, expected, "{name}");
            assert_ne!(
                config_of(&m),
                config_of(&baseline),
                "{name} never reaches the testbed"
            );

            let axis = Value::Array(vec![good.clone()]);
            let swept = with_key(&minimal(), Some("matrix"), name, axis);
            let m = Manifest::decode(&swept).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(m.cells()[0].settings, expected, "{name}");
            assert_ne!(
                config_of(&m),
                config_of(&baseline),
                "{name} never reaches the testbed"
            );

            let axis = Value::Array(vec![bad.clone()]);
            for (section, value, path) in [
                (home, bad.clone(), format!("manifest.{home}.{name}: ")),
                ("matrix", axis, format!("manifest.matrix.{name}[0]: ")),
            ] {
                let refused = with_key(&minimal(), Some(section), name, value);
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
        let mut doc = minimal();
        for (section, key, value) in [
            ("network", "rrc_promotion_ms", Value::U64(500)),
            ("mitigations", "rtt_reset_after_idle", Value::Bool(true)),
            (
                "matrix",
                "cc",
                Value::Array(vec![Value::Str("reno".into())]),
            ),
            ("seeds", "count", Value::U64(3)),
            ("limits", "visit_timeout_s", Value::U64(45)),
            ("outputs", "trace_artifacts", Value::Bool(true)),
        ] {
            doc = with_key(&doc, Some(section), key, value);
        }
        let mut full = Manifest::paper_baseline("paired_3g");
        full.settings.rtt_reset_after_idle = true;
        full.settings.rrc_promotion_ms = Some(500);
        full.matrix = vec![("cc".into(), vec![KnobValue::Str("reno".into())])];
        full.seeds.count = 3;
        full.limits.visit_timeout_s = 45;
        full.outputs.trace_artifacts = true;

        let kind = |k: &str| ("kind", Value::Str(k.into()));
        let pacing = [("visits", Value::U64(2)), ("interval_s", Value::U64(30))];
        let site = [
            kind("site"),
            ("site", Value::U64(9)),
            pacing[0].clone(),
            pacing[1].clone(),
        ];
        let synthetic = [
            kind("synthetic"),
            ("objects", Value::U64(5)),
            ("object_bytes", Value::U64(100)),
            ("same_domain", Value::Bool(true)),
            pacing[0].clone(),
            pacing[1].clone(),
        ];
        let shapes = [
            (object(&[kind("table1")]), Workload::Table1),
            (
                object(&site),
                Workload::Site {
                    site: 9,
                    visits: 2,
                    interval_s: 30,
                },
            ),
            (
                object(&synthetic),
                Workload::Synthetic {
                    objects: 5,
                    object_bytes: 100,
                    same_domain: true,
                    visits: 2,
                    interval_s: 30,
                },
            ),
        ];
        for (section, workload) in shapes {
            let v = with_key(&doc, None, "workload", section);
            full.workload = workload;
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
                assert!(
                    e.0.contains(&format!("{at}.bogus: unknown key (expected one of: ")),
                    "{e}"
                );
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

    /// A synthetic page's object table and byte count stay bounded: the
    /// first is built before the run starts, the second is summed in a
    /// `u64` per visit.
    #[test]
    fn a_synthetic_page_is_bounded_in_objects_and_bytes() {
        let page = |objects: u64, object_bytes: u64, visits: u64| {
            let workload = object(&[
                ("kind", Value::Str("synthetic".into())),
                ("objects", Value::U64(objects)),
                ("object_bytes", Value::U64(object_bytes)),
                ("visits", Value::U64(visits)),
            ]);
            Manifest::decode(&with_key(&minimal(), None, "workload", workload))
        };
        assert!(page(u64::from(MAX_OBJECTS), 1, 1).is_ok());
        let e = page(u64::from(MAX_OBJECTS) + 1, 1, 1).unwrap_err();
        assert!(
            e.0.starts_with("scenario error at manifest.workload.objects: 1000001 is outside "),
            "{e}"
        );
        let largest = u64::MAX - TEST_PAGE_HTML_BYTES;
        assert!(page(1, largest, 1).is_ok());
        for (objects, object_bytes, visits) in
            [(1, largest + 1, 1), (2, u64::MAX, 1), (1, largest / 2, 3)]
        {
            let e = page(objects, object_bytes, visits).unwrap_err();
            assert!(
                e.0.starts_with("scenario error at manifest.workload.object_bytes: "),
                "{e}"
            );
        }
    }

    #[test]
    fn null_disables_a_knob_and_a_name_picks_the_algorithm() {
        let doc = with_key(
            &minimal(),
            Some("mitigations"),
            "keepalive_ping_s",
            Value::Null,
        );
        let doc = with_key(&doc, Some("mitigations"), "cc", Value::Str("reno".into()));
        let m = Manifest::decode(&doc).unwrap();
        assert_eq!(m.settings.keepalive_ping_s, None);
        assert_eq!(m.settings.cc, CcAlgorithm::Reno);
        let mut s = Settings {
            keepalive_ping_s: Some(30.0),
            ..Settings::default()
        };
        let knob = Knob::named("keepalive_ping_s").unwrap();
        knob.set(&mut s, &KnobValue::Null).unwrap();
        assert_eq!(s.keepalive_ping_s, None);
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
}
