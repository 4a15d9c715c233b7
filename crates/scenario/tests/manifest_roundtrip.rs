//! Property test: any manifest the model can express renders to JSON and
//! decodes back to an identical manifest, and the canonical rendering is
//! a fixed point (render → parse → render is byte-identical).

use proptest::prelude::*;
use spdyier_scenario::KnobValue::{Bool, Null, Number, Str};
use spdyier_scenario::{
    Assertion, Knob, KnobValue, Manifest, ProtocolSpec, Seeds, Settings, Workload, KNOBS,
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
    "spdy.rto_stall_ms > http.rto_stall_ms on 3g",
    "plt_p50_ms < 9000",
    "completion_rate >= 0.9",
    "http.counter.tcp.rto_fired >= 0",
    "plt_p90_ms <= 60000 on lte",
    "spdy.retransmissions >= 0",
];

/// One or two values `knob` takes, drawn from a pool that covers every
/// value type — so a knob added to the table is generated without an
/// edit here.
fn knob_values(knob: &Knob, s: &mut u64) -> Vec<KnobValue> {
    let n = (pick(s, 240) + 1) as f64;
    let reno = Str("reno".into());
    let pool = [Bool(chance(s)), Null, Number(n), Number(n / 2.0), reno];
    let mut taken: Vec<KnobValue> = pool
        .into_iter()
        .filter(|v| knob.set(&mut Settings::default(), v))
        .collect();
    assert!(!taken.is_empty(), "no pool value suits {}", knob.name);
    let first = pick(s, taken.len() as u64) as usize;
    taken.rotate_left(first);
    taken.truncate(2);
    taken
}

fn gen_manifest(mut s: u64) -> Manifest {
    let mut m = Manifest::paper_baseline("generated");
    if chance(&mut s) {
        m.description = format!("generated manifest #{}", pick(&mut s, 1_000));
    }
    m.network.kind = ["3g", "3g-pinned", "lte", "wifi"][pick(&mut s, 4) as usize]
        .parse()
        .expect("pool entries parse");
    m.workload = match pick(&mut s, 3) {
        0 => Workload::Table1,
        1 => Workload::Site {
            site: pick(&mut s, 20) as u32 + 1,
            visits: pick(&mut s, 3) as u32 + 1,
            interval_s: pick(&mut s, 90) + 1,
        },
        _ => Workload::Synthetic {
            objects: pick(&mut s, 200) as u32 + 1,
            object_bytes: pick(&mut s, 50_000) + 100,
            same_domain: chance(&mut s),
            visits: pick(&mut s, 3) as u32 + 1,
            interval_s: pick(&mut s, 90) + 1,
        },
    };
    m.protocols = (0..pick(&mut s, 3) + 1)
        .map(|_| {
            ProtocolSpec::parse(PROTOCOL_POOL[pick(&mut s, PROTOCOL_POOL.len() as u64) as usize])
                .expect("pool entries parse")
        })
        .collect();
    for knob in KNOBS {
        if chance(&mut s) {
            knob.set(&mut m.settings, &knob_values(knob, &mut s)[0]);
        }
    }
    for _ in 0..pick(&mut s, 3) {
        let knob = &KNOBS[pick(&mut s, KNOBS.len() as u64) as usize];
        if !m.matrix.iter().any(|(k, _)| k == knob.name) {
            m.matrix
                .push((knob.name.to_string(), knob_values(knob, &mut s)));
        }
    }
    m.seeds = Seeds {
        base: pick(&mut s, 10),
        count: pick(&mut s, 4) + 1,
    };
    m.trace = [
        TraceLevel::Off,
        TraceLevel::Lifecycle,
        TraceLevel::Transport,
        TraceLevel::Full,
    ][pick(&mut s, 4) as usize];
    m.tcp_traces = chance(&mut s);
    m.limits.event_budget = pick(&mut s, 1_000_000_000) + 1;
    m.limits.visit_timeout_s = pick(&mut s, 120) + 1;
    for _ in 0..pick(&mut s, 3) {
        let expr = ASSERTION_POOL[pick(&mut s, ASSERTION_POOL.len() as u64) as usize];
        m.assertions
            .push(Assertion::parse(expr).expect("pool entries parse"));
    }
    m.outputs.trace_artifacts = chance(&mut s);
    m.outputs.profile = chance(&mut s);
    if chance(&mut s) && chance(&mut s) {
        // One cell per protocol: the shape `plot_data`'s file names need.
        m.seeds.count = 1;
        m.matrix.clear();
        m.protocols.truncate(1);
        m.outputs.plot_data = true;
    }
    m.outputs.paired_dump = m.is_paired() && chance(&mut s);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_manifests_parse_back_identically(seed in any::<u64>()) {
        let original = gen_manifest(seed);
        let rendered = original.to_json();
        let decoded = Manifest::from_json(&rendered)
            .unwrap_or_else(|e| panic!("rendered manifest failed to decode: {e}\n{rendered}"));
        prop_assert_eq!(&original, &decoded);
        prop_assert_eq!(rendered, decoded.to_json());
    }

    #[test]
    fn generated_manifests_expand_to_consistent_cells(seed in any::<u64>()) {
        let m = gen_manifest(seed);
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
