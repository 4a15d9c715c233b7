//! # spdyier-workload
//!
//! The study's workload: the paper's Table 1 site statistics ([`corpus`]),
//! seeded synthesis of concrete pages with JS/CSS discovery
//! interdependencies ([`synth`]), the §5.2 synthetic 50-object test pages,
//! and the 60-seconds-apart random visit schedule ([`schedule`]).
//!
//! ```
//! use spdyier_workload::{SiteSpec, synthesize};
//! use spdyier_sim::DetRng;
//!
//! let spec = SiteSpec::by_index(15).unwrap(); // the 323-object news site
//! let page = synthesize(spec, &mut DetRng::new(1));
//! assert!(page.object_count() > 200);
//! page.validate().unwrap();
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod corpus;
pub mod page;
pub mod schedule;
pub mod synth;

pub use corpus::{SiteSpec, TABLE1};
pub use page::{ObjectId, ObjectKind, WebObject, WebPage};
pub use schedule::VisitSchedule;
pub use synth::{synthesize, test_page, TEST_PAGE_HTML_BYTES};
