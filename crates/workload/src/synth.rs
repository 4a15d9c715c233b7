//! Page synthesis from Table 1 statistics.
//!
//! A [`SiteSpec`] gives counts and total weight; synthesis turns it into a
//! concrete [`WebPage`] with a multi-level discovery forest (the JS/CSS
//! interdependencies of §5.2), a realistic size distribution, and domain
//! placement. The same seed always yields the same page.

use crate::corpus::SiteSpec;
use crate::page::{ObjectId, ObjectKind, WebObject, WebPage};
use spdyier_sim::{DetRng, SimDuration};

/// Jitter `x` by ±`frac` multiplicatively.
fn jitter(rng: &mut DetRng, x: f64, frac: f64) -> f64 {
    x * rng.uniform_range(1.0 - frac, 1.0 + frac)
}

fn ext_for(kind: ObjectKind) -> &'static str {
    match kind {
        ObjectKind::Html => "html",
        ObjectKind::Script => "js",
        ObjectKind::Stylesheet => "css",
        ObjectKind::Image => "png",
        ObjectKind::Other => "json",
    }
}

/// Synthesize one page load for `spec`. Different seeds model the run-to-
/// run variation of a real site (rotating ads, A/B-tested assets).
pub fn synthesize(spec: &SiteSpec, rng: &mut DetRng) -> WebPage {
    // --- counts -------------------------------------------------------
    let n_text = jitter(rng, spec.text_objects.max(1.0), 0.1)
        .round()
        .max(1.0) as usize;
    let n_jscss = jitter(rng, spec.js_css_objects, 0.1).round().max(0.0) as usize;
    let n_img = jitter(rng, spec.image_objects, 0.1).round().max(0.0) as usize;

    // --- kinds (root first) --------------------------------------------
    let mut kinds = Vec::with_capacity(n_text + n_jscss + n_img);
    kinds.push(ObjectKind::Html);
    for _ in 1..n_text {
        // Extra text objects: some are evaluated HTML fragments, the rest
        // JSON/XML payloads.
        kinds.push(if rng.chance(0.3) {
            ObjectKind::Html
        } else {
            ObjectKind::Other
        });
    }
    for _ in 0..n_jscss {
        kinds.push(if rng.chance(0.6) {
            ObjectKind::Script
        } else {
            ObjectKind::Stylesheet
        });
    }
    for _ in 0..n_img {
        kinds.push(ObjectKind::Image);
    }
    let total = kinds.len();

    // --- discovery depths -----------------------------------------------
    // Root at depth 0. Non-root objects land in waves: most revealed by
    // the root's parse, the rest by downloaded-and-evaluated JS/CSS —
    // producing the stepped request pattern of Fig. 6.
    let mut depths = vec![0u8; total];
    for d in depths.iter_mut().skip(1) {
        let u = rng.uniform();
        *d = if u < 0.55 {
            1
        } else if u < 0.85 {
            2
        } else {
            3
        };
    }
    // Order objects by depth so parents always precede children. Keep the
    // (kind, depth) pairing by sorting indices.
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&i| (depths[i], i));
    let kinds: Vec<ObjectKind> = order.iter().map(|&i| kinds[i]).collect();
    let depths: Vec<u8> = order.iter().map(|&i| depths[i]).collect();

    // --- parents ----------------------------------------------------------
    // Each object at depth d is revealed by an evaluated object at depth
    // < d (biased towards d-1); fall back to the root.
    let mut parents: Vec<Option<ObjectId>> = vec![None; total];
    let mut revealers_by_depth: Vec<Vec<u32>> = vec![vec![0]; 4];
    for i in 1..total {
        let d = depths[i] as usize;
        let pool: &Vec<u32> = revealers_by_depth
            .get(d - 1)
            .filter(|v| !v.is_empty())
            .unwrap_or(&revealers_by_depth[0]);
        let parent = *rng.choose(pool).expect("root always present");
        parents[i] = Some(ObjectId(parent));
        if kinds[i].is_evaluated() && d < 3 {
            revealers_by_depth[d].push(i as u32);
        }
    }

    // --- sizes -----------------------------------------------------------
    let budget = jitter(rng, spec.avg_size_kb * 1024.0, 0.08);
    let mut weights = Vec::with_capacity(total);
    for &k in &kinds {
        let w = match k {
            ObjectKind::Html => rng.lognormal_mean(4.0, 0.5),
            ObjectKind::Script => rng.lognormal_mean(2.0, 0.6),
            ObjectKind::Stylesheet => rng.lognormal_mean(1.5, 0.5),
            ObjectKind::Image => rng.lognormal_mean(1.0, 0.9),
            ObjectKind::Other => rng.lognormal_mean(0.3, 0.6),
        };
        weights.push(w.max(0.01));
    }
    let wsum: f64 = weights.iter().sum();
    let sizes: Vec<u64> = weights
        .iter()
        .map(|w| ((w / wsum) * budget).round().max(300.0) as u64)
        .collect();

    // --- domains ---------------------------------------------------------
    let n_dom = jitter(rng, spec.domains, 0.1).round().max(1.0) as usize;
    let primary = format!("site{}.example", spec.index);
    let mut domains = vec![primary.clone()];
    for k in 1..n_dom {
        if k % 2 == 0 {
            domains.push(format!("cdn{}.site{}.example", k, spec.index));
        } else {
            domains.push(format!("thirdparty{}-s{}.example", k, spec.index));
        }
    }

    // --- assemble ----------------------------------------------------------
    let mut objects = Vec::with_capacity(total);
    for i in 0..total {
        let kind = kinds[i];
        // The root lives on the primary domain; other objects land there
        // ~30% of the time, else on a random (CDN/third-party) domain.
        let domain = if i == 0 || rng.chance(0.3) {
            primary.clone()
        } else {
            rng.choose(&domains).expect("non-empty").clone()
        };
        let eval_time = match kind {
            ObjectKind::Html if i == 0 => {
                SimDuration::from_millis(rng.uniform_range(30.0, 80.0) as u64)
            }
            ObjectKind::Html => SimDuration::from_millis(rng.uniform_range(5.0, 25.0) as u64),
            ObjectKind::Script => {
                SimDuration::from_millis((5.0 + sizes[i] as f64 / 4000.0).min(40.0) as u64)
            }
            ObjectKind::Stylesheet => SimDuration::from_millis(rng.uniform_range(3.0, 15.0) as u64),
            _ => SimDuration::ZERO,
        };
        objects.push(WebObject {
            id: ObjectId(i as u32),
            domain,
            path: if i == 0 {
                "/".to_string()
            } else {
                format!("/o{}.{}", i, ext_for(kind))
            },
            size: sizes[i],
            kind,
            discovered_by: parents[i],
            eval_time,
        });
    }
    WebPage {
        name: format!("{}-{}", spec.index, spec.category),
        objects,
    }
}

/// Size of a [`test_page`]'s root HTML, bytes.
pub const TEST_PAGE_HTML_BYTES: u64 = 20_000;

/// The §5.2 synthetic pages: a root HTML plus `n` images with **no**
/// interdependencies. `same_domain = true` puts every image on the root's
/// domain; `false` gives each image its own domain.
pub fn test_page(n: usize, image_size: u64, same_domain: bool) -> WebPage {
    let mut objects = Vec::with_capacity(n + 1);
    objects.push(WebObject {
        id: ObjectId(0),
        domain: "testserver.example".into(),
        path: "/".into(),
        size: TEST_PAGE_HTML_BYTES,
        kind: ObjectKind::Html,
        discovered_by: None,
        eval_time: SimDuration::from_millis(20),
    });
    for i in 1..=n {
        objects.push(WebObject {
            id: ObjectId(i as u32),
            domain: if same_domain {
                "testserver.example".into()
            } else {
                format!("img{}.testserver.example", i)
            },
            path: format!("/img{}.png", i),
            size: image_size,
            kind: ObjectKind::Image,
            discovered_by: Some(ObjectId(0)),
            eval_time: SimDuration::ZERO,
        });
    }
    WebPage {
        name: if same_domain {
            "testpage-same-domain".into()
        } else {
            "testpage-diff-domains".into()
        },
        objects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::TABLE1;

    #[test]
    fn all_table1_sites_synthesize_valid_pages() {
        let root = DetRng::new(42);
        for spec in &TABLE1 {
            let mut rng = root.fork_indexed("site", u64::from(spec.index));
            let page = synthesize(spec, &mut rng);
            page.validate()
                .unwrap_or_else(|e| panic!("site {}: {e}", spec.index));
        }
    }

    #[test]
    fn counts_track_the_spec() {
        let spec = &TABLE1[14]; // site 15: 323 objects, 84.7 domains
        let mut rng = DetRng::new(1);
        let page = synthesize(spec, &mut rng);
        let n = page.object_count() as f64;
        assert!(
            (n - spec.total_objects).abs() < spec.total_objects * 0.25,
            "{n}"
        );
        let d = page.domains().len() as f64;
        assert!((d - spec.domains).abs() < spec.domains * 0.5 + 2.0, "{d}");
    }

    #[test]
    fn sizes_track_the_spec() {
        for spec in &TABLE1 {
            let mut rng = DetRng::new(7);
            let page = synthesize(spec, &mut rng);
            let kb = page.total_bytes() as f64 / 1024.0;
            assert!(
                (kb - spec.avg_size_kb).abs() < spec.avg_size_kb * 0.25 + 50.0,
                "site {}: {kb} KB vs spec {}",
                spec.index,
                spec.avg_size_kb
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_page() {
        let spec = &TABLE1[0];
        let a = synthesize(spec, &mut DetRng::new(5));
        let b = synthesize(spec, &mut DetRng::new(5));
        assert_eq!(a.object_count(), b.object_count());
        for (x, y) in a.objects.iter().zip(&b.objects) {
            assert_eq!(x.size, y.size);
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.discovered_by, y.discovered_by);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = &TABLE1[0];
        let a = synthesize(spec, &mut DetRng::new(5));
        let b = synthesize(spec, &mut DetRng::new(6));
        let same = a
            .objects
            .iter()
            .zip(&b.objects)
            .filter(|(x, y)| x.size == y.size)
            .count();
        assert!(
            same < a.object_count().min(b.object_count()),
            "sizes vary across seeds"
        );
    }

    #[test]
    fn multi_level_discovery_exists() {
        // Real sites must have second-wave objects (the Fig. 6 steps).
        let spec = &TABLE1[6]; // News site with 49.5 JS/CSS
        let mut rng = DetRng::new(3);
        let page = synthesize(spec, &mut rng);
        let second_wave = page
            .objects
            .iter()
            .filter(|o| o.discovered_by.is_some() && o.discovered_by != Some(ObjectId(0)))
            .count();
        assert!(
            second_wave > 5,
            "expected deep discovery, got {second_wave}"
        );
    }

    #[test]
    fn test_page_same_domain_shape() {
        let p = test_page(50, 40_000, true);
        assert_eq!(p.object_count(), 51);
        assert_eq!(p.domains().len(), 1);
        assert_eq!(p.validate(), Ok(()));
        // No interdependencies: every image hangs off the root.
        assert!(p.objects[1..]
            .iter()
            .all(|o| o.discovered_by == Some(ObjectId(0))));
    }

    #[test]
    fn test_page_diff_domains_shape() {
        let p = test_page(50, 40_000, false);
        assert_eq!(p.domains().len(), 51);
        assert_eq!(p.validate(), Ok(()));
    }
}
