//! The `experiments` binary's argument handling, driven as a child
//! process. Nothing here simulates anything: every case is rejected
//! while the command line is still being parsed.

use std::process::Command;

/// `--seeds 0` is a config error on every subcommand that takes a seed
/// count: exit 3 and a one-line diagnostic, never a panic or an empty
/// run that exits 0.
#[test]
fn zero_seeds_is_a_config_error_on_every_subcommand() {
    let out = std::env::temp_dir().join(format!("spdyier_cli_{}", std::process::id()));
    let out = out.to_str().expect("utf-8 temp dir");
    let manifest = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/quick_wifi.yaml"
    );
    let cases: [&[&str]; 5] = [
        &["fig3", "--seeds", "0"],
        &["profile", "http", "wifi", out, "--seeds", "0"],
        &["run", manifest, "--out", out, "--seeds", "0"],
        &["sweep", manifest, "--out", out, "--seeds", "0"],
        &["paired", "wifi", out, "--seeds", "0"],
    ];
    for args in cases {
        let child = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("experiments spawns");
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
