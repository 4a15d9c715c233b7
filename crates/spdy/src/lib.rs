//! # spdyier-spdy
//!
//! SPDY/3 for the SPDY'ier reproduction testbed: real binary framing
//! ([`frame`]), stateful header compression built from scratch
//! ([`compress`] — LZ77 over a rolling shared-history window primed with a
//! protocol dictionary, standing in for SPDY's session zlib stream), and
//! the prioritized stream multiplexer ([`session`]).
//!
//! ```
//! use spdyier_spdy::{SpdySession, SpdyConfig, Role, SpdyEvent};
//!
//! let mut client = SpdySession::new(Role::Client, SpdyConfig::default());
//! let mut server = SpdySession::new(Role::Server, SpdyConfig::default());
//! let sid = client.open_stream(
//!     vec![(":path".into(), "/".into())], /*priority*/ 0, /*fin*/ true);
//! while let Some(wire) = client.poll_wire() {
//!     let events = server.on_bytes(wire).unwrap();
//!     assert!(matches!(events[0], SpdyEvent::StreamOpened { stream_id, .. } if stream_id == sid));
//! }
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod compress;
pub mod frame;
mod hash;
pub mod session;

pub use compress::{Compressor, DecompressError, Decompressor};
pub use frame::{Frame, FrameError, FrameParser, FLAG_FIN, SPDY_VERSION};
pub use session::{Role, SpdyConfig, SpdyEvent, SpdySession, SpdyStats};
