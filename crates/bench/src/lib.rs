//! Experiment harness reproducing the paper's evaluation artifacts.
//!
//! The paper is a theory paper: its artifacts are Table 1 (the complexity
//! comparison) and the per-theorem bounds. Each experiment here
//! regenerates one of them empirically — see `DESIGN.md` for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured records.
//! The `dr` command line is the front end: `dr experiments` runs all of
//! them, `dr experiments --only <name>` one, and `dr chaos` the chaos
//! campaign.

pub mod chaos;
pub mod experiments;
pub mod metrics;
pub mod par;
pub mod runners;
pub mod stats;
pub mod table;

pub use metrics::{ExperimentParams, ExperimentRecord, Measured, MetricsSink};
pub use stats::Stats;
pub use table::{f, Table};
