//! Property tests for the fold/merge algebra the streaming sweep
//! pipeline rests on: merging [`CellMetrics`] accumulators (and the
//! [`QuantileSketch`] inside them) must be **associative** and
//! **commutative**, and merging must equal folding the concatenated
//! sample streams directly. Those three properties are what make a
//! sharded, resumable sweep bit-identical to a serial one regardless of
//! how cells are partitioned across workers or checkpoint replays.

use proptest::prelude::*;
use spdyier_scenario::CellMetrics;
use spdyier_sim::QuantileSketch;

/// One synthetic visit: (plt_ms, stall_us, counter_increment).
type Sample = (f64, u64, u64);

/// Fold a sample stream into an accumulator the way a worker would.
fn build_cell(samples: &[Sample]) -> CellMetrics {
    let mut m = CellMetrics::default();
    for &(plt_ms, stall_us, counter) in samples {
        m.plt.record(plt_ms);
        m.visits += 1;
        m.completed += 1;
        m.critical_sums_us[3] += stall_us;
        m.critical_visits += 1;
        m.retransmissions += counter % 3;
        m.timeouts += counter % 2;
        m.non_fin_timeouts += counter % 2;
        m.total_bytes += stall_us;
        *m.counters.entry("tcp.rto_fires".into()).or_insert(0) += counter;
    }
    m
}

fn merged(into: &CellMetrics, from: &CellMetrics) -> CellMetrics {
    let mut out = into.clone();
    out.merge(from).expect("same layout merges");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sketch_merge_is_associative_commutative_and_exact(
        a in prop::collection::vec(0.0f64..70_000.0, 0..50),
        b in prop::collection::vec(0.0f64..70_000.0, 0..50),
        c in prop::collection::vec(0.0f64..70_000.0, 0..50)
    ) {
        let sketch = |xs: &[f64]| {
            let mut s = QuantileSketch::new();
            for &x in xs {
                s.record(x);
            }
            s
        };
        let (sa, sb, sc) = (sketch(&a), sketch(&b), sketch(&c));

        // Merging equals sketching the concatenated stream (exactness).
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        let direct = sketch(&all);

        let mut ab_c = sa.clone();
        ab_c.merge(&sb).unwrap();
        ab_c.merge(&sc).unwrap();
        prop_assert_eq!(&ab_c, &direct, "((a+b)+c) != sketch(a++b++c)");

        let mut bc = sb.clone();
        bc.merge(&sc).unwrap();
        let mut a_bc = sa.clone();
        a_bc.merge(&bc).unwrap();
        prop_assert_eq!(&a_bc, &direct, "(a+(b+c)) != sketch(a++b++c)");

        let mut ba = sb.clone();
        ba.merge(&sa).unwrap();
        let mut ab = sa.clone();
        ab.merge(&sb).unwrap();
        prop_assert_eq!(&ab, &ba, "a+b != b+a");
    }

    #[test]
    fn cell_metrics_merge_is_associative_and_commutative(
        a in prop::collection::vec((0.0f64..70_000.0, 0u64..5_000_000, 0u64..9), 0..30),
        b in prop::collection::vec((0.0f64..70_000.0, 0u64..5_000_000, 0u64..9), 0..30),
        c in prop::collection::vec((0.0f64..70_000.0, 0u64..5_000_000, 0u64..9), 0..30)
    ) {
        let (ca, cb, cc) = (build_cell(&a), build_cell(&b), build_cell(&c));

        let ab_c = merged(&merged(&ca, &cb), &cc);
        let a_bc = merged(&ca, &merged(&cb, &cc));
        prop_assert_eq!(&ab_c, &a_bc, "cell merge is not associative");

        let ab = merged(&ca, &cb);
        let ba = merged(&cb, &ca);
        prop_assert_eq!(&ab, &ba, "cell merge is not commutative");

        // Merging equals folding the concatenated visit stream.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(&ab_c, &build_cell(&all), "merge != fold of the union");
    }
}
