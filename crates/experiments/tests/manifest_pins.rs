//! Every committed manifest decodes to the value it always decoded to.
//!
//! Two values are pinned per `scenarios/*.json`: the FNV-1a of the
//! decoded `Manifest`'s `Debug` rendering (what the document means, down
//! to every defaulted field) and `sweep::manifest_digest` (the CRC a
//! checkpoint store carries in its header line, so a store written by an
//! older build still resumes). A change to the decoder must leave both
//! alone; a change to what a committed manifest means edits them and
//! says why.

use spdyier_experiments::sweep::manifest_digest;
use spdyier_scenario::Manifest;
use std::path::Path;

/// `(file, FNV-1a of the decoded manifest's Debug text, manifest_digest)`.
const PINS: [(&str, u64, &str); 10] = [
    ("bulk_lte_small.json", 0x1fd06089e316a1ed, "1a169754"),
    ("export_spdy_3g.json", 0x4e40c9395caae5c4, "5074d5a9"),
    ("mitigation_matrix_3g.json", 0xf2837e9f5eeb6ef8, "d4e15af7"),
    ("paired_3g.json", 0x8c5065777e78180c, "db28ea4e"),
    ("paired_lte.json", 0xc3dd3f540f067f6e, "e18eb832"),
    ("population_wifi.json", 0x1606da3754eb1ec0, "278457ff"),
    ("profile_spdy_3g.json", 0x26ebd6eda7d90f94, "be37a7d0"),
    ("quick_wifi.json", 0x792bb686ecc867d7, "c473f68c"),
    ("synthetic_50obj.json", 0x9555e40433636912, "8243e673"),
    ("trace_spdy_3g.json", 0x14858231b9ef0ba1, "34880439"),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn committed_manifests_decode_to_their_pinned_values() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut committed: Vec<String> = std::fs::read_dir(&dir)
        .expect("scenarios/ lists")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .filter(|name| name.ends_with(".json"))
        .collect();
    committed.sort();
    let pinned: Vec<&str> = PINS.iter().map(|&(file, ..)| file).collect();
    assert_eq!(committed, pinned, "every committed manifest is pinned");

    let measured: Vec<(&str, u64, String)> = PINS
        .iter()
        .map(|&(file, ..)| {
            let m = Manifest::from_file(&dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
            (
                file,
                fnv1a(format!("{m:?}").as_bytes()),
                manifest_digest(&m),
            )
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(file, debug, digest)| format!("    ({file:?}, {debug:#018x}, {digest:?}),\n"))
        .collect();
    for ((file, debug, digest), &(_, want_debug, want_digest)) in measured.iter().zip(&PINS) {
        assert!(
            (*debug, digest.as_str()) == (want_debug, want_digest),
            "{file} no longer decodes to its pinned value; measured:\n{table}"
        );
    }
}
