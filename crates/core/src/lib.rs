//! Substrate types for the distributed Data Retrieval (DR) model.
//!
//! The DR model (Augustine, Chatterjee, King, Kumar, Meir, Peleg —
//! *Distributed Download from an External Data Source in Asynchronous
//! Faulty Settings*) consists of `k` peers on a complete asynchronous
//! message-passing network plus a trusted external data source storing an
//! `n`-bit array `X`. Peers learn `X` either through expensive, metered
//! queries to the source or through cheap peer-to-peer messages of at most
//! `a` bits. Up to `b = βk` peers may be faulty (crash or Byzantine).
//!
//! This crate provides the model substrate shared by every other crate in
//! the workspace:
//!
//! * [`PeerId`] / [`PeerSet`] — peer identities and compact peer sets;
//! * [`BitArray`] / [`PartialArray`] — the input array and each peer's
//!   partially-known working copy;
//! * [`collections`] — deterministic [`DetMap`](collections::DetMap) /
//!   [`DetSet`](collections::DetSet) aliases required for keyed state in
//!   the deterministic crate tier (enforced by `dr-lint`);
//! * [`Segmentation`] / [`SegmentString`] — the segment machinery of the
//!   randomized Byzantine protocols (§3.4);
//! * [`Source`], [`ArraySource`] — the external source — and
//!   [`QueryMeter`], its per-peer query accounting across threads (the
//!   paper's query-complexity measure `Q`);
//! * [`ChunkedSource`] — a streaming, generate-on-demand source with a
//!   bounded resident set, for `n` far beyond RAM;
//! * [`Assignment`] — the bit-to-peer responsibility function of the
//!   crash-fault protocols (§2);
//! * [`ModelParams`] — validated instance parameters (`n`, `k`, `b`, `a`);
//! * [`Protocol`] / [`Context`] / [`ProtocolMessage`] — the event-driven
//!   state-machine abstraction that both the discrete-event simulator
//!   (`dr-sim`) and the thread runtime (`dr-runtime`) drive;
//! * [`json`] — the small JSON codec of chaos reproducers and experiment
//!   records.
//!
//! # Examples
//!
//! ```
//! use dr_core::{ArraySource, BitArray, ModelParams, PeerId, QueryMeter, Source};
//!
//! let params = ModelParams::fault_free(64, 4)?;
//! let input = BitArray::from_fn(params.n(), |i| i % 5 == 0);
//! let source = ArraySource::new(input);
//! let meter = QueryMeter::new(params.k());
//! // Peer 0 reads bits 0..10 and is charged one query per bit read.
//! let read = Source::bits(&source, 0..10);
//! meter.record_range(PeerId(0), 0..10);
//! assert_eq!(read.count_ones(), 2);
//! assert_eq!(meter.count(PeerId(0)), 10);
//! # Ok::<(), dr_core::InvalidParamsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod bits;
mod cached;
mod chunked;
pub mod collections;
mod error;
pub mod json;
mod params;
mod peer;
mod protocol;
mod segment;
mod source;
pub mod sync;

pub use assignment::Assignment;
pub use bits::{low_mask, BitArray, BitIndices, MaskWord, PartialArray};
pub use cached::{AdmissionPlane, CacheStats, CachedSource, PlaneHandle, ReadReceipt};
pub use chunked::{ChunkStats, ChunkedSource};
pub use error::InvalidParamsError;
pub use params::{FaultModel, ModelParams, ModelParamsBuilder};
pub use peer::{PeerId, PeerSet};
pub use protocol::{Context, Protocol, ProtocolMessage};
pub use segment::{SegmentId, SegmentString, Segmentation};
pub use source::{ArraySource, QueryMeter, Source};
