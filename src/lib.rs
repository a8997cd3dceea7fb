//! # dr-download
//!
//! A production-quality Rust implementation of *Distributed Download from
//! an External Data Source in Asynchronous Faulty Settings* (Augustine,
//! Chatterjee, King, Kumar, Meir, Peleg; brief announcement at PODC 2025,
//! full version at DISC 2025): the Data Retrieval (DR) model, every
//! Download protocol the paper presents (crash-fault deterministic,
//! Byzantine deterministic, and Byzantine randomized), executable versions
//! of the Byzantine-majority lower bounds, and the blockchain-oracle
//! application.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`core`] (`dr-core`) — the model substrate: peers, bit arrays,
//!   the metered external source, segments, assignments, and the
//!   [`Protocol`](core::Protocol)/[`Context`](core::Context) abstraction;
//! * [`sim`] (`dr-sim`) — the deterministic discrete-event simulator with
//!   a full adversary interface (delays, holds, crashes, Byzantine
//!   drivers, quiescence);
//! * [`protocols`] (`dr-protocols`) — the paper's protocols and the
//!   lower-bound attacks;
//! * [`runtime`] (`dr-runtime`) — a thread-per-peer executor over real
//!   channels running the same protocol state machines;
//! * [`oracle`] (`dr-oracle`) — the §4 Oracle Data Delivery application.
//!
//! ## Quickstart
//!
//! ```
//! use dr_download::core::{FaultModel, ModelParams, PeerId};
//! use dr_download::protocols::CrashMultiDownload;
//! use dr_download::sim::{CrashPlan, SimBuilder, StandardAdversary, UniformDelay};
//!
//! // 1024-bit source, 8 peers, up to 3 crash faults — all of which occur.
//! let params = ModelParams::builder(1024, 8)
//!     .faults(FaultModel::Crash, 3)
//!     .build()?;
//! let sim = SimBuilder::new(params)
//!     .seed(7)
//!     .protocol(|_| CrashMultiDownload::new(1024, 8, 3))
//!     .adversary(StandardAdversary::new(
//!         UniformDelay::new(),
//!         CrashPlan::before_event([PeerId(0), PeerId(1), PeerId(2)], 1),
//!     ))
//!     .build();
//! let input = sim.input().clone();
//! let report = sim.run().unwrap();
//! report.verify_downloads(&input).unwrap();
//! assert!(report.max_nonfaulty_queries < 1024); // far below naive
//! # Ok::<(), dr_download::core::InvalidParamsError>(())
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the experiment harness regenerating the paper's
//! evaluation artifacts.

pub use dr_core as core;
pub use dr_oracle as oracle;
pub use dr_protocols as protocols;
pub use dr_runtime as runtime;
pub use dr_sim as sim;
