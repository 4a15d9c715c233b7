//! # spdyier-origin
//!
//! The origin web servers behind the proxy. §5.3 of the paper measures the
//! proxy→origin leg at ~14 ms average (max 46 ms) to first byte and ~4 ms
//! download — fast enough that it is *not* the bottleneck. This crate
//! models exactly that: an object registry (populated from the synthesized
//! pages) and a calibrated first-byte latency distribution. The wire time
//! comes from the wired path in `spdyier-net`.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use serde::Serialize;
use spdyier_bytes::Payload;
use spdyier_http::{Request, Response};
use spdyier_sim::{DetRng, SimDuration};
use spdyier_workload::{ObjectKind, WebPage};
use std::collections::HashMap;

/// Latency model for origin request handling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OriginConfig {
    /// Mean time from request arrival to first response byte, ms
    /// (first-party and CDN domains; the paper's Fig. 8 measurement).
    pub first_byte_mean_ms: f64,
    /// Log-normal sigma for the first-byte latency.
    pub first_byte_sigma: f64,
    /// Hard cap on first-byte latency, ms (paper observed max 46 ms).
    pub first_byte_max_ms: f64,
    /// Mean first-byte latency for third-party domains (ad exchanges,
    /// trackers, widgets), ms — these are well known to be far slower
    /// than the site's own CDN.
    pub third_party_mean_ms: f64,
    /// Sigma for third-party latency.
    pub third_party_sigma: f64,
    /// Cap for third-party latency, ms.
    pub third_party_max_ms: f64,
}

impl Default for OriginConfig {
    fn default() -> Self {
        OriginConfig {
            first_byte_mean_ms: 14.0,
            first_byte_sigma: 0.5,
            first_byte_max_ms: 46.0,
            third_party_mean_ms: 120.0,
            third_party_sigma: 0.8,
            third_party_max_ms: 600.0,
        }
    }
}

/// Is this a third-party (ad/tracker/widget) domain? The workload
/// generator names them with a `thirdparty` prefix.
fn is_third_party(domain: &str) -> bool {
    domain.starts_with("thirdparty")
}

/// Stats an origin accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OriginStats {
    /// Requests served with a registered object.
    pub hits: u64,
    /// Requests for unknown paths (served 404).
    pub misses: u64,
    /// Body bytes served.
    pub bytes_served: u64,
}

/// The set of origin servers for an experiment (one logical server per
/// domain; a single struct suffices because the registry is keyed by
/// domain).
#[derive(Debug)]
pub struct OriginServers {
    cfg: OriginConfig,
    objects: HashMap<(String, String), (u64, ObjectKind)>,
    stats: OriginStats,
}

impl OriginServers {
    /// Empty origin set.
    pub fn new(cfg: OriginConfig) -> OriginServers {
        OriginServers {
            cfg,
            objects: HashMap::new(),
            stats: OriginStats::default(),
        }
    }

    /// Register every object of `page` so its URLs resolve.
    pub fn register_page(&mut self, page: &WebPage) {
        for o in &page.objects {
            self.objects
                .insert((o.domain.clone(), o.path.clone()), (o.size, o.kind));
        }
    }

    /// Number of registered objects.
    pub fn registered(&self) -> usize {
        self.objects.len()
    }

    /// Serving counters.
    pub fn stats(&self) -> OriginStats {
        self.stats
    }

    /// Handle one request: returns the first-byte latency to apply and the
    /// response to send after it.
    pub fn handle(&mut self, req: &Request, rng: &mut DetRng) -> (SimDuration, Response) {
        let (mean, sigma, cap) = if is_third_party(&req.host) {
            (
                self.cfg.third_party_mean_ms,
                self.cfg.third_party_sigma,
                self.cfg.third_party_max_ms,
            )
        } else {
            (
                self.cfg.first_byte_mean_ms,
                self.cfg.first_byte_sigma,
                self.cfg.first_byte_max_ms,
            )
        };
        let latency_ms = rng.lognormal_mean(mean, sigma).min(cap);
        let latency = SimDuration::from_secs_f64(latency_ms / 1e3);
        match self.objects.get(&(req.host.clone(), req.path.clone())) {
            Some(&(size, kind)) => {
                self.stats.hits += 1;
                self.stats.bytes_served += size;
                let body = Payload::body(size);
                let resp = Response::ok(body).with_header("Content-Type", content_type(kind));
                (latency, resp)
            }
            None => {
                self.stats.misses += 1;
                let resp = Response {
                    status: 404,
                    ..Response::ok("not found").with_header("Content-Type", "text/plain")
                };
                (latency, resp)
            }
        }
    }
}

fn content_type(kind: ObjectKind) -> &'static str {
    match kind {
        ObjectKind::Html => "text/html",
        ObjectKind::Script => "application/javascript",
        ObjectKind::Stylesheet => "text/css",
        ObjectKind::Image => "image/png",
        ObjectKind::Other => "application/json",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdyier_workload::{synthesize, SiteSpec};

    fn servers_with_site(index: u32) -> (OriginServers, WebPage) {
        let spec = SiteSpec::by_index(index).unwrap();
        let page = synthesize(spec, &mut DetRng::new(1));
        let mut o = OriginServers::new(OriginConfig::default());
        o.register_page(&page);
        (o, page)
    }

    #[test]
    fn serves_registered_objects() {
        let (mut o, page) = servers_with_site(5);
        let obj = page
            .objects
            .iter()
            .find(|ob| !ob.domain.starts_with("thirdparty"))
            .expect("first-party object exists");
        let req = Request::get(obj.domain.clone(), obj.path.clone());
        let (latency, resp) = o.handle(&req, &mut DetRng::new(2));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), obj.size);
        assert!(latency <= SimDuration::from_millis(46), "first-party cap");
        assert_eq!(o.stats().hits, 1);
    }

    #[test]
    fn third_party_domains_are_slower() {
        let mut o = OriginServers::new(OriginConfig::default());
        let mut rng = DetRng::new(5);
        let fast = Request::get("cdn2.site1.example", "/x");
        let slow = Request::get("thirdparty1-s1.example", "/x");
        let n = 2_000;
        let mean = |o: &mut OriginServers, req: &Request, rng: &mut DetRng| -> f64 {
            (0..n)
                .map(|_| o.handle(req, rng).0.as_secs_f64() * 1e3)
                .sum::<f64>()
                / n as f64
        };
        let fast_ms = mean(&mut o, &fast, &mut rng);
        let slow_ms = mean(&mut o, &slow, &mut rng);
        assert!(
            slow_ms > 3.0 * fast_ms,
            "third party {slow_ms} vs cdn {fast_ms}"
        );
        assert!(slow_ms <= 600.0);
    }

    #[test]
    fn unknown_path_is_404() {
        let (mut o, _) = servers_with_site(5);
        let req = Request::get("nowhere.example", "/missing");
        let (_, resp) = o.handle(&req, &mut DetRng::new(2));
        assert_eq!(resp.status, 404);
        assert_eq!(o.stats().misses, 1);
    }

    #[test]
    fn latency_distribution_matches_fig8() {
        let (mut o, page) = servers_with_site(1);
        let obj = &page.objects[1];
        let req = Request::get(obj.domain.clone(), obj.path.clone());
        let mut rng = DetRng::new(3);
        let samples: Vec<f64> = (0..5_000)
            .map(|_| o.handle(&req, &mut rng).0.as_secs_f64() * 1e3)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!((mean - 14.0).abs() < 2.5, "mean {mean} ≈ 14 ms");
        assert!(max <= 46.0, "max {max} capped at 46 ms");
    }

    #[test]
    fn content_types_by_kind() {
        assert_eq!(content_type(ObjectKind::Html), "text/html");
        assert_eq!(content_type(ObjectKind::Image), "image/png");
    }

    #[test]
    fn registry_covers_whole_page() {
        let (o, page) = servers_with_site(15);
        // Distinct (domain, path) pairs (paths are unique per page).
        assert_eq!(o.registered(), page.object_count());
    }
}
