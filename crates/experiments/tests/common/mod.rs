//! Shared by the integration suites that compare whole artifact sets.

use spdyier_experiments::{run_manifest_on, Executor};
use spdyier_scenario::Manifest;

/// Run `manifest` on `jobs` workers into a scratch directory and return
/// every artifact the runner wrote as `(file name, bytes)`, in write
/// order. The run must pass.
pub fn artifacts(manifest: &Manifest, jobs: usize) -> Vec<(String, Vec<u8>)> {
    let dir = std::env::temp_dir().join(format!(
        "spdyier_{}_{}_jobs{jobs}",
        manifest.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = run_manifest_on(&Executor::new(jobs), manifest, &dir).expect("runner writes");
    assert_eq!(outcome.exit.code(), 0, "{}", outcome.summary);
    let files = outcome
        .written
        .iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read(path).expect("artifact readable"))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    files
}

/// Assert two artifact sets hold the same files with the same bytes.
pub fn assert_same_artifacts(a: &[(String, Vec<u8>)], b: &[(String, Vec<u8>)], what: &str) {
    let names = |set: &[(String, Vec<u8>)]| set.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(a), names(b), "{what}: artifact sets differ");
    for ((name, left), (_, right)) in a.iter().zip(b) {
        assert!(!left.is_empty(), "{what}: {name} is empty");
        assert!(left == right, "{what}: {name} differs");
    }
}
