//! Property test: the generator writes a manifest document and the
//! `Manifest` it means from the same draws, and decoding the document
//! gives exactly that `Manifest`. Each optional key is drawn present or
//! absent on its own, so a default is exercised by absence and an
//! explicit value by presence — at every depth.

use proptest::prelude::*;
use serde::{Serialize, Value};
use spdyier_scenario::KnobValue::{Bool, Null, Number, Str};
use spdyier_scenario::{
    Assertion, Knob, KnobValue, Manifest, ProtocolSpec, Settings, Workload, KNOBS,
};
use spdyier_trace::TraceLevel;

/// SplitMix-style picks derived from one drawn seed: the stub proptest
/// has no `prop_oneof`, so structure is generated from integers.
fn next(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

fn pick(s: &mut u64, n: u64) -> u64 {
    next(s) % n
}

fn chance(s: &mut u64) -> bool {
    next(s) & 1 == 1
}

const PROTOCOL_POOL: [&str; 6] = [
    "http",
    "spdy",
    "spdy:4",
    "spdy:20",
    "spdy:20:late",
    "spdy:2:late",
];

const ASSERTION_POOL: [&str; 6] = [
    "spdy.critical_rto_stall_ms > http.critical_rto_stall_ms on 3g",
    "plt_p50_ms < 9000",
    "completion_rate >= 0.9",
    "http.counter.tcp.rto_fires >= 0",
    "plt_p90_ms <= 60000 on lte",
    "spdy.retransmissions >= 0",
];

const TRACE_POOL: [(&str, TraceLevel); 2] = [("off", TraceLevel::Off), ("full", TraceLevel::Full)];

type Entries = Vec<(String, Value)>;

fn text(s: &str) -> Value {
    Value::Str(s.into())
}

/// With even odds, write `key: value` into `entries` and store `value`
/// in `slot`; otherwise leave `slot` at its default and the key out.
fn maybe<T: Serialize>(s: &mut u64, entries: &mut Entries, key: &str, value: T, slot: &mut T) {
    if chance(s) {
        entries.push((key.into(), value.to_value()));
        *slot = value;
    }
}

/// Write a section object unless it is empty, in which case write `{}`
/// or nothing with even odds.
fn section(s: &mut u64, doc: &mut Entries, key: &str, entries: Entries) {
    if !entries.is_empty() || chance(s) {
        doc.push((key.into(), Value::Object(entries)));
    }
}

/// One or two values `knob` takes, as written and as decoded, drawn from
/// a pool that covers every value type — so a knob added to the table is
/// generated without an edit here.
fn knob_values(knob: &Knob, s: &mut u64) -> Vec<(Value, KnobValue)> {
    let n = pick(s, 240) + 1;
    let b = chance(s);
    let half = n as f64 / 2.0;
    let pool = [
        (Value::Bool(b), Bool(b)),
        (Value::Null, Null),
        (n.to_value(), Number(n as f64)),
        (Value::F64(half), Number(half)),
        (text("reno"), Str("reno".into())),
    ];
    let mut taken: Vec<(Value, KnobValue)> = pool
        .into_iter()
        .filter(|(_, v)| knob.set(&mut Settings::default(), v).is_ok())
        .collect();
    assert!(!taken.is_empty(), "no pool value suits {}", knob.name);
    let first = pick(s, taken.len() as u64) as usize;
    taken.rotate_left(first);
    taken.truncate(2);
    taken
}

fn gen_workload(s: &mut u64, doc: &mut Entries) -> Workload {
    let mut w = Entries::new();
    let workload = match pick(s, 4) {
        0 => return Workload::Table1,
        1 => {
            w.push(("kind".into(), text("table1")));
            Workload::Table1
        }
        2 => {
            let site = pick(s, 20) as u32 + 1;
            w.push(("kind".into(), text("site")));
            w.push(("site".into(), site.to_value()));
            let (mut visits, mut interval_s) = (1, 60);
            let v = pick(s, 3) as u32 + 1;
            maybe(s, &mut w, "visits", v, &mut visits);
            let i = pick(s, 90) + 1;
            maybe(s, &mut w, "interval_s", i, &mut interval_s);
            Workload::Site {
                site,
                visits,
                interval_s,
            }
        }
        _ => {
            let objects = pick(s, 200) as u32 + 1;
            w.push(("kind".into(), text("synthetic")));
            w.push(("objects".into(), objects.to_value()));
            let (mut object_bytes, mut same_domain) = (2_500, false);
            let (mut visits, mut interval_s) = (1, 60);
            let b = pick(s, 50_000) + 100;
            maybe(s, &mut w, "object_bytes", b, &mut object_bytes);
            let d = chance(s);
            maybe(s, &mut w, "same_domain", d, &mut same_domain);
            let v = pick(s, 3) as u32 + 1;
            maybe(s, &mut w, "visits", v, &mut visits);
            let i = pick(s, 90) + 1;
            maybe(s, &mut w, "interval_s", i, &mut interval_s);
            Workload::Synthetic {
                objects,
                object_bytes,
                same_domain,
                visits,
                interval_s,
            }
        }
    };
    doc.push(("workload".into(), Value::Object(w)));
    workload
}

/// A manifest document and the `Manifest` it means, from the same draws.
fn gen_manifest(mut seed: u64) -> (Value, Manifest) {
    let s = &mut seed;
    let mut m = Manifest::paper_baseline("generated");
    let mut doc: Entries = vec![
        ("schema_version".into(), Value::U64(1)),
        ("name".into(), text("generated")),
    ];
    let d = format!("generated manifest #{}", pick(s, 1_000));
    maybe(s, &mut doc, "description", d, &mut m.description);
    // One cell per protocol is the shape `plot_data`'s file names need.
    let plot_data = chance(s) && chance(s);

    let net = ["3g", "3g-pinned", "lte", "wifi"][pick(s, 4) as usize];
    m.network.kind = net.parse().expect("pool entries parse");
    let mut network: Entries = vec![("kind".into(), text(net))];
    let mut mitigations = Entries::new();
    for knob in KNOBS {
        if chance(s) {
            let (json, value) = knob_values(knob, s).swap_remove(0);
            knob.set(&mut m.settings, &value)
                .expect("drawn from what it takes");
            let home = match knob.home {
                "network" => &mut network,
                _ => &mut mitigations,
            };
            home.push((knob.name.into(), json));
        }
    }
    doc.push(("network".into(), Value::Object(network)));
    m.workload = gen_workload(s, &mut doc);

    let sides = if plot_data { 1 } else { pick(s, 3) + 1 };
    let protocols: Vec<&str> = (0..sides)
        .map(|_| PROTOCOL_POOL[pick(s, PROTOCOL_POOL.len() as u64) as usize])
        .collect();
    m.protocols = protocols
        .iter()
        .map(|p| ProtocolSpec::parse(p).expect("pool entries parse"))
        .collect();
    doc.push((
        "protocols".into(),
        Value::Array(protocols.iter().map(|p| text(p)).collect()),
    ));
    section(s, &mut doc, "mitigations", mitigations);

    let mut matrix = Entries::new();
    for _ in 0..if plot_data { 0 } else { pick(s, 3) } {
        let knob = &KNOBS[pick(s, KNOBS.len() as u64) as usize];
        if !m.matrix.iter().any(|(k, _)| k == knob.name) {
            let (json, values): (Vec<Value>, Vec<KnobValue>) =
                knob_values(knob, s).into_iter().unzip();
            matrix.push((knob.name.into(), Value::Array(json)));
            m.matrix.push((knob.name.to_string(), values));
        }
    }
    section(s, &mut doc, "matrix", matrix);

    let mut seeds = Entries::new();
    let base = pick(s, 10);
    maybe(s, &mut seeds, "base", base, &mut m.seeds.base);
    let count = if plot_data { 1 } else { pick(s, 4) + 1 };
    maybe(s, &mut seeds, "count", count, &mut m.seeds.count);
    section(s, &mut doc, "seeds", seeds);

    if chance(s) {
        let (name, level) = TRACE_POOL[pick(s, TRACE_POOL.len() as u64) as usize];
        doc.push(("trace".into(), text(name)));
        m.trace = level;
    }
    let t = chance(s);
    maybe(s, &mut doc, "tcp_traces", t, &mut m.tcp_traces);

    let mut limits = Entries::new();
    let (budget, timeout) = (pick(s, 1_000_000_000) + 1, pick(s, 120) + 1);
    let l = &mut m.limits;
    maybe(s, &mut limits, "event_budget", budget, &mut l.event_budget);
    maybe(
        s,
        &mut limits,
        "visit_timeout_s",
        timeout,
        &mut l.visit_timeout_s,
    );
    section(s, &mut doc, "limits", limits);

    if chance(s) {
        let exprs: Vec<&str> = (0..pick(s, 3))
            .map(|_| ASSERTION_POOL[pick(s, ASSERTION_POOL.len() as u64) as usize])
            .collect();
        let parsed = exprs
            .iter()
            .map(|e| Assertion::parse(e).expect("pool entries parse"));
        m.assertions = parsed.collect();
        doc.push((
            "assertions".into(),
            Value::Array(exprs.iter().map(|e| text(e)).collect()),
        ));
    }

    let mut outputs = Entries::new();
    let paired_dump = m.is_paired() && chance(s);
    let o = &mut m.outputs;
    for (key, on, slot) in [
        ("paired_dump", paired_dump, &mut o.paired_dump),
        ("trace_artifacts", chance(s), &mut o.trace_artifacts),
        ("plot_data", plot_data, &mut o.plot_data),
    ] {
        if on {
            outputs.push((key.into(), Value::Bool(true)));
            *slot = true;
        } else {
            maybe(s, &mut outputs, key, false, slot);
        }
    }
    section(s, &mut doc, "outputs", outputs);

    // Decoding reads keys by name: their order in the document is free.
    let shift = pick(s, doc.len() as u64) as usize;
    doc.rotate_left(shift);
    (Value::Object(doc), m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_documents_decode_to_the_manifest_drawn_with_them(seed in any::<u64>()) {
        let (doc, expected) = gen_manifest(seed);
        let text = serde_json::to_string_pretty(&doc).expect("document prints");
        let decoded = Manifest::from_json(&text)
            .unwrap_or_else(|e| panic!("generated document failed to decode: {e}\n{text}"));
        prop_assert_eq!(&decoded, &expected, "{}", text);
    }

    #[test]
    fn generated_manifests_expand_to_consistent_cells(seed in any::<u64>()) {
        let (_, m) = gen_manifest(seed);
        let cells = m.cells();
        let variants = m.variants().len() as u64;
        prop_assert_eq!(
            cells.len() as u64,
            variants * m.seeds.count * m.protocols.len() as u64
        );
        for (i, cell) in cells.iter().enumerate() {
            prop_assert_eq!(cell.index, i);
            let cfg = cell.build_config(&m);
            prop_assert_eq!(cfg.seed, cell.seed);
            prop_assert_eq!(cfg.network, m.network.kind);
            prop_assert_eq!(cfg.trace_level, m.effective_trace());
            prop_assert_eq!(cfg.event_budget, m.limits.event_budget);
        }
    }
}
