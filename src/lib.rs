//! # spdyier
//!
//! A full reproduction testbed for **“Towards a SPDY'ier Mobile Web?”**
//! (Erman, Gopalakrishnan, Jana, Ramakrishnan — ACM CoNEXT 2013), built as
//! a deterministic discrete-event simulation in pure Rust.
//!
//! The paper measures HTTP/1.1 against SPDY through protocol proxies over a
//! production 3G (and LTE) network and finds that — unlike on wired/WiFi —
//! **SPDY does not clearly outperform HTTP over cellular**, because TCP's
//! retained RTT estimate becomes invalid across cellular radio (RRC)
//! idle→active promotions, firing spurious retransmission timeouts that
//! collapse the congestion window of SPDY's single long-lived connection.
//!
//! This meta-crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | discrete-event engine: time, event queue, RNG, statistics |
//! | [`payload`] | the zero-copy [`payload::Payload`] rope the data plane rides on |
//! | [`net`] | links: serialization + queueing + jitter + loss |
//! | [`cellular`] | 3G/LTE RRC state machines, promotion delays, energy |
//! | [`tcp`] | sans-IO TCP: Reno/Cubic, RFC 6298 RTO, idle-restart semantics |
//! | [`http`] | HTTP/1.1 codec, persistent connections, Chrome pool policy |
//! | [`spdy`] | SPDY/3 framing, stateful header compression, priority mux |
//! | [`browser`] | page loads: dependency discovery, eval, timing splits |
//! | [`origin`] | origin server model (Fig. 8-calibrated latencies) |
//! | [`proxy`] | HTTP and SPDY proxy cores + §6.1 variants |
//! | [`workload`] | Table 1 corpus, page synthesis, visit schedules |
//! | [`trace`] | flight recorder: typed event bus, sinks, metrics registry |
//! | [`causal`] | critical-path engine: per-visit PLT decomposition, cross-run diff attribution |
//! | [`prof`] | host-side self-profiler: counting allocator, spans, sweep heartbeats |
//! | [`core`] | the assembled testbed driver and experiment configs |
//! | [`scenario`] | manifests: one experiment as data, expanded into run cells |
//! | [`experiments`] | regenerate every paper table/figure |
//!
//! ## Quickstart
//!
//! A run is a cell of a scenario manifest. The paper's baseline pairs
//! HTTP and SPDY over 3G on the seed's Table 1 visit order:
//!
//! ```no_run
//! use spdyier::experiments::run_cell;
//! use spdyier::scenario::Manifest;
//!
//! let mut manifest = Manifest::paper_baseline("quickstart");
//! manifest.seeds.base = 42;
//! for cell in manifest.cells() {
//!     let (result, _) = run_cell(&manifest, &cell).expect("within the event budget");
//!     for v in &result.visits {
//!         println!("{} site {:>2}: {:.0} ms", result.protocol, v.site, v.plt_ms);
//!     }
//!     println!("retransmissions: {}", result.total_retransmissions);
//! }
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub use spdyier_browser as browser;
pub use spdyier_bytes as payload;
pub use spdyier_causal as causal;
pub use spdyier_cellular as cellular;
pub use spdyier_core as core;
pub use spdyier_experiments as experiments;
pub use spdyier_http as http;
pub use spdyier_net as net;
pub use spdyier_origin as origin;
pub use spdyier_prof as prof;
pub use spdyier_proxy as proxy;
pub use spdyier_scenario as scenario;
pub use spdyier_sim as sim;
pub use spdyier_spdy as spdy;
pub use spdyier_tcp as tcp;
pub use spdyier_trace as trace;
pub use spdyier_workload as workload;
