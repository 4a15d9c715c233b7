//! Fuzz the manifest decoder with one mutation per case to a committed
//! manifest: a key dropped, duplicated or added at any depth, a value
//! retyped as each JSON type, a number replaced by an edge value, the
//! trace level set to a name, or the text cut at a byte. Decoding never panics. It returns `Ok`, or one
//! line starting with `scenario error`; after a mutation at a key or an
//! array element, the line names that place's `manifest.` path (or, for
//! a rule that joins keys, the object that holds it).

use proptest::prelude::*;
use serde::Value;
use spdyier_scenario::Manifest;

/// The committed manifests mutated: between them every section shape
/// but `outputs`, whose rules join keys across sections.
const FUZZED: [&str; 2] = ["mitigation_matrix_3g.json", "bulk_lte_small.json"];

/// Names a `trace` key is set to: the two levels the decoder takes, then
/// retired level names, aliases and digits, which it refuses.
const LEVELS: [&str; 9] = [
    "off",
    "full",
    "lifecycle",
    "transport",
    "frames",
    "none",
    "",
    "1",
    "3",
];

/// One step of a path into a document.
#[derive(Clone, Debug)]
enum Seg {
    Key(String),
    Index(usize),
}

/// The path every diagnostic is rooted at, then `.key` / `[i]` per step.
fn dotted(path: &[Seg]) -> String {
    let mut out = String::from("manifest");
    for seg in path {
        match seg {
            Seg::Key(k) => out.push_str(&format!(".{k}")),
            Seg::Index(i) => out.push_str(&format!("[{i}]")),
        }
    }
    out
}

/// The path of every value below the root of `v`.
fn paths(v: &Value, at: &mut Vec<Seg>, out: &mut Vec<Vec<Seg>>) {
    let children: Vec<(Seg, &Value)> = match v {
        Value::Object(entries) => entries
            .iter()
            .map(|(k, child)| (Seg::Key(k.clone()), child))
            .collect(),
        Value::Array(items) => items
            .iter()
            .enumerate()
            .map(|(i, c)| (Seg::Index(i), c))
            .collect(),
        _ => Vec::new(),
    };
    for (seg, child) in children {
        at.push(seg);
        out.push(at.clone());
        paths(child, at, out);
        at.pop();
    }
}

fn at_mut<'a>(v: &'a mut Value, path: &[Seg]) -> &'a mut Value {
    path.iter().fold(v, |v, seg| match (v, seg) {
        (Value::Object(entries), Seg::Key(k)) => {
            let entry = entries.iter_mut().find(|(key, _)| key == k);
            &mut entry.expect("path exists").1
        }
        (Value::Array(items), Seg::Index(i)) => &mut items[*i],
        _ => panic!("path exists"),
    })
}

fn at<'a>(v: &'a Value, path: &[Seg]) -> &'a Value {
    path.iter().fold(v, |v, seg| match seg {
        Seg::Key(k) => v.get(k).expect("path exists"),
        Seg::Index(i) => v
            .as_array()
            .and_then(|items| items.get(*i))
            .expect("path exists"),
    })
}

/// What one case does, and where a diagnostic must point after it.
struct Mutation {
    what: String,
    text: String,
    /// The mutated place and the object or array holding it; `None` for
    /// a cut, which has no place.
    place: Option<(String, String)>,
    /// Whether a diagnostic may name a sibling of the place: dropping a
    /// key can change how its siblings read (no `kind` makes a workload
    /// `table1`, which takes no `objects`).
    siblings: bool,
    /// Whether the mutated document must decode, when the mutation
    /// decides it.
    decodes: Option<bool>,
}

fn pick(s: &mut u64, n: usize) -> usize {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*s >> 33) % n as u64) as usize
}

fn mutate(mut seed: u64) -> Mutation {
    let s = &mut seed;
    let file = FUZZED[pick(s, FUZZED.len())];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/");
    let original = std::fs::read_to_string(format!("{dir}{file}")).expect("committed manifest");
    let mut doc: Value = serde_json::from_str(&original).expect("committed manifest parses");
    let mut all = Vec::new();
    paths(&doc, &mut Vec::new(), &mut all);
    let place = |path: &[Seg]| Some((dotted(path), dotted(&path[..path.len() - 1])));

    let kind = pick(s, 7);
    let (what, place, siblings) = match kind {
        // Drop, duplicate or insert a key of an object (the root included).
        0..=2 => {
            let objects: Vec<Vec<Seg>> = std::iter::once(Vec::new())
                .chain(all.iter().cloned())
                .filter(|p| match at(&doc, p) {
                    Value::Object(entries) => kind == 2 || !entries.is_empty(),
                    _ => false,
                })
                .collect();
            let object = objects[pick(s, objects.len())].clone();
            let Value::Object(entries) = at_mut(&mut doc, &object) else {
                unreachable!("an object path");
            };
            let key = match kind {
                0 => entries.remove(pick(s, entries.len())).0,
                1 => {
                    let entry = entries[pick(s, entries.len())].clone();
                    entries.push(entry.clone());
                    entry.0
                }
                _ => {
                    let i = pick(s, entries.len() + 1);
                    entries.insert(i, ("unknown_key".into(), Value::U64(1)));
                    "unknown_key".into()
                }
            };
            let path: Vec<Seg> = object.into_iter().chain([Seg::Key(key)]).collect();
            let verb = ["drop", "duplicate", "insert"][kind];
            (format!("{verb} {}", dotted(&path)), place(&path), kind == 0)
        }
        // Retype a value as each JSON type, or set a number to an edge.
        3 | 4 => {
            let (targets, pool): (Vec<&Vec<Seg>>, Vec<Value>) = if kind == 3 {
                let types = vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::U64(7),
                    Value::F64(0.5),
                    Value::Str("x".into()),
                    Value::Array(Vec::new()),
                    Value::Object(Vec::new()),
                ];
                (all.iter().collect(), types)
            } else {
                let number = |p: &&Vec<Seg>| at(&doc, p).as_f64().is_some();
                let edges = vec![
                    Value::U64(0),
                    Value::I64(-1),
                    Value::U64(u64::MAX),
                    Value::F64(1e300),
                ];
                (all.iter().filter(number).collect(), edges)
            };
            let path = targets[pick(s, targets.len())].clone();
            let value = pool[pick(s, pool.len())].clone();
            let what = format!("set {} to {value:?}", dotted(&path));
            *at_mut(&mut doc, &path) = value;
            (what, place(&path), false)
        }
        // Set the trace level to a name, taken or refused.
        5 => {
            let level = LEVELS[pick(s, LEVELS.len())];
            let Value::Object(entries) = &mut doc else {
                unreachable!("a manifest is an object");
            };
            entries.retain(|(key, _)| key != "trace");
            entries.push(("trace".into(), Value::Str(level.into())));
            return Mutation {
                what: format!("{file}: set manifest.trace to {level:?}"),
                text: serde_json::to_string_pretty(&doc).expect("document prints"),
                place: place(&[Seg::Key("trace".into())]),
                siblings: false,
                decodes: Some(matches!(level, "off" | "full")),
            };
        }
        // Cut the text.
        _ => {
            let mut cut = pick(s, original.len() + 1);
            while !original.is_char_boundary(cut) {
                cut -= 1;
            }
            return Mutation {
                what: format!("{file}: cut at byte {cut}"),
                text: original[..cut].to_string(),
                place: None,
                siblings: false,
                decodes: None,
            };
        }
    };
    Mutation {
        what: format!("{file}: {what}"),
        text: serde_json::to_string_pretty(&doc).expect("document prints"),
        place,
        siblings,
        decodes: None,
    }
}

/// Whether `path` is `place` or lies under it.
fn within(path: &str, place: &str) -> bool {
    path.strip_prefix(place)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with(['.', '[']))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn a_mutated_manifest_decodes_or_names_the_mutated_place(seed in any::<u64>()) {
        let m = mutate(seed);
        let decoded = Manifest::from_json(&m.text);
        if let Some(ok) = m.decodes {
            prop_assert_eq!(decoded.is_ok(), ok, "{}", m.what);
        }
        let Err(e) = decoded else {
            return;
        };
        let line = &e.0;
        prop_assert!(line.starts_with("scenario error"), "{}: {line}", m.what);
        prop_assert!(!line.contains('\n'), "{}: {line}", m.what);
        if let Some((place, parent)) = &m.place {
            let path = line
                .strip_prefix("scenario error at ")
                .and_then(|rest| rest.split_once(": "))
                .map(|(path, _)| path)
                .unwrap_or_else(|| panic!("{}: no path in {line}", m.what));
            let named = within(path, place)
                || path == parent
                || (m.siblings && within(path, parent));
            prop_assert!(named, "{}: {line}", m.what);
        }
    }
}
