//! End-to-end tests of the resumable sweep runner: the checkpoint
//! store, interruption + resume, and the determinism contract — serial,
//! wide-pool, and resumed-after-interruption sweeps must produce
//! byte-identical `result.json`.

use spdyier_experiments::sweep::{
    crc32, replay_store, run_sweep_on, SweepOptions, SWEEP_HEARTBEAT_NAME, SWEEP_STORE_NAME,
};
use spdyier_experiments::{Executor, SweepOutcome};
use spdyier_scenario::{Manifest, Seeds};
use std::io::Write;
use std::path::PathBuf;

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spdyier_sweep_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A sub-second synthetic sweep with enough cells (2 protocols × 3
/// seeds = 6) to interrupt in the middle.
fn sweep_manifest(name: &str) -> Manifest {
    let mut m = Manifest::from_json(&format!(
        r#"{{
            "schema_version": 1,
            "name": "{name}",
            "network": {{ "kind": "wifi" }},
            "workload": {{
                "kind": "synthetic",
                "objects": 8,
                "object_bytes": 1500,
                "same_domain": true,
                "visits": 1,
                "interval_s": 30
            }},
            "protocols": ["http", "spdy"],
            "assertions": ["plt_p50_ms < 60000", "completion_rate >= 1.0"]
        }}"#
    ))
    .expect("sweep manifest decodes");
    m.seeds = Seeds { base: 0, count: 3 };
    m
}

fn completed(outcome: SweepOutcome) -> spdyier_experiments::ScenarioOutcome {
    match outcome {
        SweepOutcome::Completed(o) => *o,
        SweepOutcome::Interrupted {
            checkpointed,
            total,
        } => {
            panic!("expected completion, interrupted at {checkpointed}/{total}")
        }
    }
}

#[test]
fn serial_wide_and_resumed_sweeps_write_byte_identical_results() {
    let m = sweep_manifest("sweep_det");

    // Serial, uninterrupted.
    let serial_dir = out_dir("serial");
    let serial = completed(
        run_sweep_on(&Executor::new(1), &m, &serial_dir, SweepOptions::default())
            .expect("serial sweep runs"),
    );
    assert_eq!(serial.exit.code(), 0, "{}", serial.summary);

    // Four workers, uninterrupted — the SPDYIER_JOBS=4 shape.
    let wide_dir = out_dir("wide");
    completed(
        run_sweep_on(&Executor::new(4), &m, &wide_dir, SweepOptions::default())
            .expect("wide sweep runs"),
    );

    // Interrupted after 2 cells, then resumed on a different pool width.
    let resumed_dir = out_dir("resumed");
    let first = run_sweep_on(
        &Executor::new(1),
        &m,
        &resumed_dir,
        SweepOptions {
            stop_after: Some(2),
        },
    )
    .expect("interrupted sweep runs");
    let SweepOutcome::Interrupted {
        checkpointed,
        total,
    } = first
    else {
        panic!("stop_after must interrupt the sweep");
    };
    assert_eq!((checkpointed, total), (2, 6));
    assert!(
        !resumed_dir.join("result.json").exists(),
        "an interrupted sweep must not write a results contract"
    );
    completed(
        run_sweep_on(&Executor::new(4), &m, &resumed_dir, SweepOptions::default())
            .expect("resumed sweep completes"),
    );

    let reference = std::fs::read(serial_dir.join("result.json")).expect("serial result.json");
    for (dir, label) in [(&wide_dir, "wide-pool"), (&resumed_dir, "resumed")] {
        let got = std::fs::read(dir.join("result.json")).expect("result.json");
        assert_eq!(
            got, reference,
            "{label} sweep result.json differs from the serial sweep"
        );
        let junit = std::fs::read(dir.join("junit.xml")).expect("junit.xml");
        assert_eq!(
            junit,
            std::fs::read(serial_dir.join("junit.xml")).expect("serial junit.xml"),
            "{label} sweep junit.xml differs from the serial sweep"
        );
    }

    for dir in [&serial_dir, &wide_dir, &resumed_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn checkpoint_store_replays_only_missing_cells() {
    let m = sweep_manifest("sweep_replay");
    let reference_dir = out_dir("replay_ref");
    completed(
        run_sweep_on(
            &Executor::new(1),
            &m,
            &reference_dir,
            SweepOptions::default(),
        )
        .expect("uninterrupted sweep runs"),
    );

    let dir = out_dir("replay");
    let store_path = dir.join(SWEEP_STORE_NAME);
    let recovered = || {
        replay_store(&store_path, &m, 6)
            .expect("store replays")
            .recovered
    };
    // Serial, so `stop_after` checkpoints exactly two cells.
    let stop_after_two = || {
        let opts = SweepOptions {
            stop_after: Some(2),
        };
        match run_sweep_on(&Executor::new(1), &m, &dir, opts).expect("interrupted sweep runs") {
            SweepOutcome::Interrupted { checkpointed, .. } => checkpointed,
            SweepOutcome::Completed(_) => panic!("stop_after must interrupt"),
        }
    };

    assert_eq!(stop_after_two(), 2);
    let store_after_stop = std::fs::read_to_string(&store_path).expect("store");
    // Header + one line per checkpointed cell.
    assert_eq!(store_after_stop.lines().count(), 1 + 2);
    assert_eq!(recovered(), 2);

    // A crash mid-checkpoint leaves half a line and no newline. The
    // first resume must cut it off, not append onto it — or its first
    // checkpoint fuses with the fragment and the *next* replay drops
    // that line and every one after it.
    let mut store = std::fs::OpenOptions::new()
        .append(true)
        .open(&store_path)
        .expect("store opens");
    store
        .write_all(b"230cf2a4 {\"cell\":4,\"metrics\":{\"proto")
        .expect("torn write");
    drop(store);
    assert_eq!(recovered(), 2);
    assert_eq!(stop_after_two(), 4);
    assert_eq!(recovered(), 4, "a resume after a torn tail went backwards");

    completed(
        run_sweep_on(&Executor::new(2), &m, &dir, SweepOptions::default())
            .expect("second resume completes"),
    );
    let store_final = std::fs::read_to_string(&store_path).expect("store");
    assert!(
        store_final.starts_with(&store_after_stop),
        "resume must append, never rewrite a whole line"
    );
    assert_eq!(store_final.lines().count(), 1 + 6, "one line per cell");
    assert_eq!(recovered(), 6);

    // Resuming a *finished* sweep replays everything and runs nothing,
    // still rewriting an identical results contract — the uninterrupted
    // sweep's.
    completed(
        run_sweep_on(&Executor::new(2), &m, &dir, SweepOptions::default())
            .expect("no-op resume completes"),
    );
    assert_eq!(
        std::fs::read(&store_path).expect("store"),
        store_final.as_bytes(),
        "a fully-replayed resume appends nothing"
    );
    assert_eq!(
        std::fs::read(dir.join("result.json")).expect("result.json"),
        std::fs::read(reference_dir.join("result.json")).expect("reference result.json")
    );
    for dir in [&reference_dir, &dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn sweep_heartbeats_are_schema_v2_with_finite_rates() {
    let m = sweep_manifest("sweep_hb");
    let dir = out_dir("hb");
    completed(
        run_sweep_on(&Executor::new(2), &m, &dir, SweepOptions::default()).expect("sweep runs"),
    );
    let text = std::fs::read_to_string(dir.join(SWEEP_HEARTBEAT_NAME)).expect("heartbeats");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "one heartbeat per cell");
    for line in &lines {
        for key in [
            "\"schema_version\":2",
            "\"cells_total\":6",
            "\"events_per_sec\"",
            "\"eta_ms\"",
            "\"peak_rss_kb\"",
        ] {
            assert!(line.contains(key), "heartbeat missing {key}: {line}");
        }
        assert!(
            !line.contains("null") && !line.contains("inf") && !line.contains("NaN"),
            "heartbeat leaked a non-finite value: {line}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_refuses_bulk_artifact_manifests_and_foreign_stores() {
    // Bulk artifacts cannot be resumed from a metrics-only store.
    let dir = out_dir("bulk");
    type Key = fn(&mut spdyier_scenario::Outputs);
    let keys: [(&str, Key); 3] = [
        ("paired_dump", |o| o.paired_dump = true),
        ("trace_artifacts", |o| o.trace_artifacts = true),
        ("plot_data", |o| o.plot_data = true),
    ];
    for (key, set) in keys {
        let mut m = sweep_manifest("sweep_bulk");
        set(&mut m.outputs);
        let err = run_sweep_on(&Executor::new(1), &m, &dir, SweepOptions::default())
            .expect_err("bulk-artifact manifests are rejected");
        let err = err.to_string();
        assert!(err.contains("per-cell bulk artifacts"), "{key}: {err}");
        assert!(err.contains(&format!("outputs.{key}")), "{key}: {err}");
        assert!(!dir.exists(), "{key}: refused before anything is written");
    }

    // A store written for one sweep refuses to feed a different one.
    let m = sweep_manifest("sweep_mine");
    let dir = out_dir("foreign");
    let first = run_sweep_on(
        &Executor::new(1),
        &m,
        &dir,
        SweepOptions {
            stop_after: Some(1),
        },
    )
    .expect("interrupted sweep runs");
    assert!(matches!(first, SweepOutcome::Interrupted { .. }));
    let mut other = m.clone();
    other.seeds.count = 5;
    let err = run_sweep_on(&Executor::new(1), &other, &dir, SweepOptions::default())
        .expect_err("foreign store refuses to resume");
    assert!(err.to_string().contains("different manifest"), "{err}");

    // A store an older build wrote is refused at its header, not at its
    // first cell line's unknown key.
    let store = dir.join(SWEEP_STORE_NAME);
    let text = std::fs::read_to_string(&store).expect("store exists");
    let (header, cells) = text.split_once('\n').expect("store has a header line");
    let (_, json) = header.split_once(' ').expect("header has a CRC");
    let json = json.replace("\"schema_version\":2", "\"schema_version\":1");
    let header = format!("{:08x} {json}", crc32(json.as_bytes()));
    std::fs::write(&store, format!("{header}\n{cells}")).expect("store rewritten");
    let err = run_sweep_on(&Executor::new(1), &m, &dir, SweepOptions::default())
        .expect_err("a v1 store refuses to resume")
        .to_string();
    assert!(
        err.contains("store is schema v1, this build speaks v2") && !err.contains('\n'),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
