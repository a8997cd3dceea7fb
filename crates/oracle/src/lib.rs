//! Blockchain-oracle application of the Download problem (§4).
//!
//! Blockchain oracles bridge on-chain smart contracts to off-chain data.
//! Their expensive step is Oracle Data Collection (ODC): reading the
//! off-chain sources. The paper shows that replacing every node's
//! independent sampling with cooperative Download instances — one per data
//! source — cuts total source reads by roughly the sampling redundancy
//! factor while *strengthening* the delivered guarantee (every honest node
//! learns every honest source's array exactly).
//!
//! This crate implements the whole §4 pipeline:
//!
//! * [`DataSource`] implementations — honest, statically-corrupt, and
//!   equivocating sources — plus [`SourceFleet`] generation;
//! * [`run_baseline`] — the Theorem 4.1 sample-and-median ODC;
//! * [`run_download_based`] — the Theorem 4.2 Download-powered ODC, built
//!   on the `dr-protocols` Download implementations over `dr-sim`;
//! * [`Contract`] — a minimal on-chain aggregation component;
//! * the Oracle Data Delivery (ODD) specification check: every published
//!   value must lie in the honest range of its cell.

#![warn(missing_docs)]

mod bridge;
mod dynamic;
mod encode;
mod median;
mod odc;
mod onchain;
mod source;

pub use bridge::ValueSourceBits;
pub use dynamic::DriftingSource;
pub use encode::{bits_to_values, values_to_bits, BITS_PER_VALUE};
pub use median::{in_honest_range, median};
pub use odc::{
    run_baseline, run_baseline_on, run_download_based, DownloadEngine, OdcOutcome, OracleConfig,
};
pub use onchain::Contract;
pub use source::{CorruptSource, DataSource, EquivocatingSource, HonestSource, SourceFleet};
