//! The `experiments` binary driven as a child process: argument
//! handling (every rejected case fails before anything is simulated)
//! and the figure runners' pool-width identity.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments spawns")
}

/// `--seeds 0` is a config error on every subcommand that takes a seed
/// count: exit 3 and a one-line diagnostic, never a panic or an empty
/// run that exits 0.
#[test]
fn zero_seeds_is_a_config_error_on_every_subcommand() {
    let out = std::env::temp_dir().join(format!("spdyier_cli_{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp dir");
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/quick_wifi.json"
    );
    let cases: [&[&str]; 3] = [
        &["fig3", "--seeds", "0"],
        &["run", manifest, "--out", out, "--seeds", "0"],
        &["sweep", manifest, "--out", out, "--seeds", "0"],
    ];
    for args in cases {
        let child = experiments(args);
        assert_eq!(child.status.code(), Some(3), "{args:?}: {child:?}");
        assert_eq!(
            String::from_utf8_lossy(&child.stderr),
            "--seeds: must be at least 1\n",
            "{args:?}"
        );
        assert!(child.stdout.is_empty(), "{args:?}: {child:?}");
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a rejected invocation must not create its output"
    );
}

/// Manifest values that used to wrap, truncate or saturate on their way
/// into the testbed — `visits` cast to `u32` (2^32 ran zero visits and
/// passed), a seed range past `u64::MAX` (zero cells, passed), a visit
/// interval past `SimTime`'s microseconds (never finished), a 1e300 s
/// ping interval, a 2^32-image page (aborted allocating its object
/// table), a page whose bytes wrap `u64` (passed with a wrapped
/// `total_bytes`), a sub-millisecond ping (a 0 ms timer that re-armed
/// until the event budget ran out), an assertion literal that is not
/// finite (`1e400` passed any `<`, `-nan` failed, and either printed in
/// `result.json` as a `null` side) — are config errors naming the
/// field: exit 3, one line, nothing simulated or written.
#[test]
fn out_of_range_manifest_values_are_config_errors_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("spdyier_cli_range_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("bad.json");
    let out = dir.join("out");
    let site = r#""workload":{"kind":"site","site":3"#;
    let cases = [
        (
            "scenario error at manifest.workload.visits: ",
            format!("{site},\"visits\":4294967296}}"),
            &[][..],
        ),
        (
            "scenario error at manifest.seeds: ",
            r#""seeds":{"base":18446744073709551615,"count":2}"#.into(),
            &[],
        ),
        (
            "--seeds: ",
            r#""seeds":{"base":18446744073709551614}"#.into(),
            &["--seeds", "5"],
        ),
        (
            "scenario error at manifest.workload.interval_s: ",
            format!("{site},\"visits\":2,\"interval_s\":18446744073709551615}}"),
            &[],
        ),
        (
            "scenario error at manifest.mitigations.keepalive_ping_s: ",
            r#""mitigations":{"keepalive_ping_s":1e300}"#.into(),
            &[],
        ),
        (
            "scenario error at manifest.workload.objects: ",
            r#""workload":{"kind":"synthetic","objects":4294967295}"#.into(),
            &[],
        ),
        (
            "scenario error at manifest.workload.object_bytes: ",
            r#""workload":{"kind":"synthetic","objects":2,"object_bytes":18446744073709551615}"#
                .into(),
            &[],
        ),
        (
            "scenario error at manifest.mitigations.keepalive_ping_s: ",
            r#""mitigations":{"keepalive_ping_s":0.0004},"limits":{"event_budget":2000000}"#.into(),
            &[],
        ),
        (
            "scenario error at manifest.assertions[0]: ",
            r#""assertions":["plt_p50_ms < 1e400"]"#.into(),
            &[],
        ),
        (
            "scenario error at manifest.assertions[1]: ",
            r#""assertions":["visits >= 1","plt_p50_ms > -nan"]"#.into(),
            &[],
        ),
    ];
    for (diagnostic, section, flags) in cases {
        let text = format!(
            r#"{{"schema_version":1,"name":"bad","network":{{"kind":"wifi"}},"protocols":["http"],{section}}}"#
        );
        std::fs::write(&manifest, text).expect("manifest written");
        let mut args = vec!["run", manifest.to_str().expect("utf-8"), "--out"];
        args.push(out.to_str().expect("utf-8"));
        args.extend(flags);
        let child = experiments(&args);
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert_eq!(child.status.code(), Some(3), "{section}: {child:?}");
        assert!(stderr.contains(diagnostic), "{section}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{section}: {stderr}");
        assert!(child.stdout.is_empty(), "{section}: {child:?}");
        assert!(!out.exists(), "{section}: a rejected manifest must not run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Manifests are JSON: a `.yaml` path is refused by its extension, before
/// the file is looked for.
#[test]
fn a_yaml_manifest_path_is_a_config_error_saying_manifests_are_json() {
    let cases: [&[&str]; 3] = [
        &["run", "scenarios/quick_wifi.yaml"],
        &["sweep", "scenarios/quick_wifi.yml", "--out", "/dev/null/x"],
        &["explain", "scenarios/quick_wifi.yaml"],
    ];
    for args in cases {
        let child = experiments(args);
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert_eq!(child.status.code(), Some(3), "{args:?}: {child:?}");
        assert!(stderr.contains("manifests are JSON"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(child.stdout.is_empty(), "{args:?}: {child:?}");
    }
}

/// A trace is an output: a `.jsonl` path given where a manifest belongs
/// is refused by its extension, saying to pass the manifest that wrote
/// it — exit 3, one line, nothing simulated or written.
#[test]
fn a_trace_passed_as_a_manifest_is_refused() {
    let out = std::env::temp_dir().join(format!("spdyier_cli_jsonl_{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp dir");
    let trace = "trace-artifacts/trace_spdy.jsonl";
    let cases: [&[&str]; 4] = [
        &["explain", trace, "--out", out],
        &["diff", trace, "--a", "http", "--b", "spdy", "--out", out],
        &["run", trace, "--out", out],
        &["sweep", trace, "--out", out],
    ];
    for args in cases {
        let child = experiments(args);
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert_eq!(child.status.code(), Some(3), "{args:?}: {child:?}");
        assert!(
            stderr.contains("a .jsonl trace is an output, not a manifest; pass the manifest"),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(child.stdout.is_empty(), "{args:?}: {child:?}");
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a refused trace writes nothing"
    );
}

/// `result.json` carries an attribution key only when the run recorded
/// the events the key is built from: no `critical_*_ms` key at `off`,
/// the nine critical-path edges at `full`, and no other stall key at
/// either. A zero printed for an untraced run would be indistinguishable
/// from a measured zero. The retired level names and digits are config
/// errors: exit 3 and one line naming the two levels.
#[test]
fn result_json_carries_attribution_keys_only_at_their_trace_level() {
    let dir = std::env::temp_dir().join(format!("spdyier_cli_levels_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let full = "critical_parse_ms critical_conn_setup_ms critical_promotion_ms \
                critical_rto_stall_ms critical_serialization_ms critical_queueing_ms \
                critical_think_ms critical_wait_ms critical_receive_ms";
    let cases = [
        ("off", Some("")),
        ("full", Some(full)),
        ("lifecycle", None),
        ("transport", None),
        ("1", None),
        ("2", None),
        ("frames", None),
    ];
    for (level, expected) in cases {
        let manifest = dir.join(format!("{level}.json"));
        let out = dir.join(level);
        let text = format!(
            r#"{{"schema_version":1,"name":"levels_{level}","network":{{"kind":"3g"}},
                "protocols":["spdy"],"seeds":{{"base":0,"count":1}},"trace":"{level}",
                "workload":{{"kind":"site","site":3,"visits":2}}}}"#
        );
        std::fs::write(&manifest, text).expect("manifest written");
        let (manifest, out_dir) = (manifest.to_str().unwrap(), out.to_str().unwrap());
        let child = experiments(&["run", manifest, "--out", out_dir]);
        let Some(expected) = expected else {
            let stderr = String::from_utf8_lossy(&child.stderr);
            assert_eq!(child.status.code(), Some(3), "{level}: {child:?}");
            assert_eq!(stderr.lines().count(), 1, "{level}: {stderr}");
            assert!(stderr.contains("manifest.trace"), "{level}: {stderr}");
            assert!(stderr.contains("off or full"), "{level}: {stderr}");
            assert!(!out.exists(), "{level}: nothing is written");
            continue;
        };
        assert_eq!(child.status.code(), Some(0), "{level}: {child:?}");
        let result = std::fs::read_to_string(out.join("result.json")).expect("result.json");
        let doc = serde_json::from_str(&result).expect("result.json parses");
        let serde::Value::Object(cell) = &doc["cells"][0] else {
            panic!("{level}: cells[0] is not an object: {result}");
        };
        let attribution: Vec<&str> = cell
            .iter()
            .map(|(key, _)| key.as_str())
            .filter(|key| key.contains("stall") || key.starts_with("critical_"))
            .collect();
        assert_eq!(attribution.join(" "), expected, "trace level {level}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `counter.<name>` assertion turns the recorder on, and every counter
/// the registry publishes is then counted: a 3G SPDY manifest with no
/// `trace` key reads real promotions and RTO firings and passes, where a
/// recorder that published them only at a higher level read 0 and failed.
#[test]
fn counter_assertions_read_what_the_run_counted() {
    let dir = std::env::temp_dir().join(format!("spdyier_cli_counters_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("counters.json");
    let out = dir.join("out");
    let text = r#"{"schema_version":1,"name":"counters","network":{"kind":"3g"},
        "protocols":["spdy"],"seeds":{"base":0,"count":1},
        "workload":{"kind":"site","site":3,"visits":4},
        "assertions":["counter.rrc.promotions >= 1","counter.tcp.rto_fires >= 1"]}"#;
    std::fs::write(&manifest, text).expect("manifest written");
    let child = experiments(&[
        "run",
        manifest.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(child.status.code(), Some(0), "{child:?}");
    let result = std::fs::read_to_string(out.join("result.json")).expect("result.json");
    let doc = serde_json::from_str(&result).expect("result.json parses");
    for i in 0..2 {
        let verdict = &doc["assertions"][i];
        assert_eq!(
            verdict["status"],
            serde::Value::Str("pass".into()),
            "{result}"
        );
        let lhs = verdict["lhs"].as_f64().expect("a measured count");
        assert!(lhs >= 1.0, "{result}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `counter.<name>` must name a counter the recorder publishes: a typo
/// is a config error (exit 3, one line naming it, nothing written), not
/// an assertion that reads 0 and passes.
#[test]
fn a_counter_the_recorder_does_not_publish_is_refused() {
    let dir = std::env::temp_dir().join(format!("spdyier_cli_typo_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("probe.json");
    let out = dir.join("out");
    let text = r#"{"schema_version":1,"name":"probe","network":{"kind":"wifi"},
        "protocols":["http","spdy"],
        "assertions":["counter.tcp.rto_fired <= 0","counter.tcp.retransmision <= 0"]}"#;
    std::fs::write(&manifest, text).expect("manifest written");
    let child = experiments(&[
        "run",
        manifest.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert_eq!(child.status.code(), Some(3), "{child:?}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("tcp.rto_fired"), "{stderr}");
    assert!(
        stderr.contains("tcp.rto_fires"),
        "the line lists the names: {stderr}"
    );
    assert!(!out.exists(), "nothing is written");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An output location that cannot be created is a config error naming
/// the path — exit 3 before the figure or any cell is simulated, never
/// a panic or a whole run's work after it.
#[test]
fn unwritable_output_is_a_config_error_not_a_panic() {
    let paired = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/paired_3g.json"
    );
    let cases: [&[&str]; 4] = [
        &["table1", "--seeds", "1", "--json", "/dev/null/x"],
        &["run", paired, "--out", "/dev/null/x"],
        &["explain", paired, "--out", "/dev/null/x"],
        &[
            "diff",
            paired,
            "--a",
            "http",
            "--b",
            "spdy",
            "--out",
            "/dev/null/x",
        ],
    ];
    for args in cases {
        let child = experiments(args);
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert_eq!(child.status.code(), Some(3), "{args:?}: {child:?}");
        assert!(stderr.contains("\"/dev/null/x\""), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(child.stdout.is_empty(), "{args:?}: {child:?}");
    }
}

/// `result.json` is printed straight into its file, so a write that
/// fails mid-document (here: the name is a link to `/dev/full`) must end
/// the run as the `--out` config error it is, not as a truncated file
/// and exit 0.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_result_json_write_is_an_out_error() {
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/quick_wifi.json"
    );
    for cmd in ["run", "sweep"] {
        let out =
            std::env::temp_dir().join(format!("spdyier_cli_full_{cmd}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&out).expect("temp dir");
        std::os::unix::fs::symlink("/dev/full", out.join("result.json")).expect("symlink");
        let out_str = out.to_str().expect("utf-8");
        let child = experiments(&[cmd, manifest, "--out", out_str]);
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert_eq!(child.status.code(), Some(3), "{cmd}: {child:?}");
        assert!(stderr.contains("--out"), "{cmd}: {stderr}");
        assert!(stderr.contains(out_str), "{cmd}: {stderr}");
        assert!(
            stderr.contains("No space left on device"),
            "{cmd}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{cmd}: {stderr}");
        let _ = std::fs::remove_dir_all(&out);
    }
}

/// A sweep whose heartbeat file cannot be opened (here: the name is
/// taken by a directory) fails with exit 3 naming the path before the
/// first cell runs, instead of sweeping silently without heartbeats.
#[test]
fn unopenable_heartbeat_file_fails_the_sweep_before_any_cell_runs() {
    let out = std::env::temp_dir().join(format!("spdyier_cli_hb_{}", std::process::id()));
    let heartbeat = out.join("heartbeat_sweep.jsonl");
    std::fs::create_dir_all(&heartbeat).expect("temp dir");
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/quick_wifi.json"
    );
    let child = experiments(&["sweep", manifest, "--out", out.to_str().expect("utf-8")]);
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert_eq!(child.status.code(), Some(3), "{child:?}");
    assert!(
        stderr.starts_with(&format!(
            "{}: cannot open heartbeat file (",
            heartbeat.display()
        )),
        "{stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(child.stdout.is_empty(), "{child:?}");
    // No cell was checkpointed: the store holds its header line only.
    let store = std::fs::read_to_string(out.join("sweep_store.jsonl")).expect("store");
    assert_eq!(store.lines().count(), 1, "{store}");
    let _ = std::fs::remove_dir_all(&out);
}

/// The binary installs the counting allocator, so sweep heartbeats carry
/// real allocation totals (cumulative, hence growing line to line).
#[test]
fn sweep_heartbeats_report_allocations() {
    let out = std::env::temp_dir().join(format!("spdyier_cli_allocs_{}", std::process::id()));
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/quick_wifi.json"
    );
    let child = experiments(&["sweep", manifest, "--out", out.to_str().expect("utf-8")]);
    assert_eq!(child.status.code(), Some(0), "{child:?}");
    let text = std::fs::read_to_string(out.join("heartbeat_sweep.jsonl")).expect("heartbeats");
    let allocs: Vec<u64> = text
        .lines()
        .map(|line| {
            let rest = line.split("\"allocs\":").nth(1).expect("allocs field");
            let digits = rest.split(',').next().expect("a value");
            digits.parse().expect("an integer")
        })
        .collect();
    assert_eq!(allocs.len(), 2, "{text}");
    assert!(allocs[0] > 0 && allocs[1] > allocs[0], "{allocs:?}");
    let _ = std::fs::remove_dir_all(&out);
}

/// Every figure id is resolved before the first one runs: a typo after
/// `fig3` costs nothing and prints nothing on stdout.
#[test]
fn figure_ids_are_resolved_before_any_figure_runs() {
    let child = experiments(&["fig3", "nosuch", "--seeds", "1"]);
    assert_eq!(child.status.code(), Some(3), "{child:?}");
    assert!(child.stdout.is_empty(), "{child:?}");
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(
        stderr.starts_with("unknown experiment id: nosuch\nids: table1 fig3 "),
        "{stderr}"
    );
}

/// A hand-configured figure (a synthetic-workload manifest) prints the
/// same stdout and writes the same JSON on one worker and on four, and
/// keeps the wall-clock line off stdout.
#[test]
fn fig7_is_byte_identical_across_pool_widths() {
    let run = |jobs: &str| {
        let dir = std::env::temp_dir().join(format!("spdyier_fig7_{}_{jobs}", std::process::id()));
        let child = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["fig7", "--seeds", "1", "--json"])
            .arg(&dir)
            .env("SPDYIER_JOBS", jobs)
            .output()
            .expect("experiments spawns");
        assert_eq!(child.status.code(), Some(0), "{child:?}");
        let json = std::fs::read(dir.join("fig7.json")).expect("fig7.json written");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(String::from_utf8_lossy(&child.stderr).contains("[fig7 completed in "));
        (child.stdout, json)
    };
    let (serial, parallel) = (run("1"), run("4"));
    assert!(serial == parallel, "fig7 differs between 1 and 4 workers");
    let stdout = String::from_utf8_lossy(&serial.0);
    assert!(stdout.starts_with("== fig7 "), "{stdout}");
    assert!(!stdout.contains("completed in"), "{stdout}");
    assert!(serial.1.len() > 100);
}
