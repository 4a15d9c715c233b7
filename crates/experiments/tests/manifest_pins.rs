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
const PINS: [(&str, u64, &str); 9] = [
    ("bulk_lte_small.json", 0x00f5e6d11bda6ff3, "b7152277"),
    ("export_spdy_3g.json", 0x25534d8a0399968e, "44c79dbd"),
    ("mitigation_matrix_3g.json", 0x35a4191f0ad1aa70, "9597a736"),
    ("paired_3g.json", 0x4746cb6524270b54, "b417e28c"),
    ("paired_lte.json", 0xebc53f50f51d4b96, "bd54dd6e"),
    ("population_wifi.json", 0xf50fa6ee63666c38, "42abcd0a"),
    ("quick_wifi.json", 0xfe066c84f8448cf5, "2452bd25"),
    ("synthetic_50obj.json", 0x867f40975b244aa2, "130d09e7"),
    ("trace_spdy_3g.json", 0xaed64cdca7fd199d, "5877a877"),
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
