//! The repository's benchmark.
//!
//! Seven workloads over the simulator, the protocols and the front door;
//! end-to-end metrics from untraced runs, per-layer metrics from traced
//! ones; every output checked. See `README.md` beside this crate for the
//! catalogue and how to read a result, and [`spec`] for the same
//! catalogue as data.
//!
//! The crate depends on the public API of `dr-core`, `dr-sim`,
//! `dr-protocols` and `dr-runtime` only. In particular it does not
//! depend on `dr-bench`, so the experiment harness can change (or
//! shrink) without touching what later changes are measured by.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod json;
pub mod probes;
pub mod run;
pub mod serve_workloads;
pub mod sim_workloads;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
