//! Download protocols for the Data Retrieval model.
//!
//! Every protocol of the paper as an event-driven state machine (see
//! [`dr_core::Protocol`]) plus the machinery they rest on:
//!
//! * crash-fault deterministic protocols — [`SingleCrashDownload`]
//!   (Algorithm 1) and [`CrashMultiDownload`] (Algorithm 2, any `β < 1`);
//! * Byzantine-minority protocols — the deterministic
//!   [`CommitteeDownload`] and the randomized [`TwoCycleDownload`] /
//!   [`MultiCycleDownload`], two plans of one [`CycleDownload`] engine
//!   built on [`FrequencyTable`] and [`DecisionTree`];
//! * the [`lower_bound`] attacks making Theorems 3.1/3.2 executable;
//! * a [`byz::strategies`] library of Byzantine behaviours;
//! * the baselines everything is compared against ([`NaiveDownload`],
//!   [`BalancedDownload`]);
//! * per-protocol [`CostEnvelope`]s — paper-bound-shaped Q/T budgets the
//!   chaos campaign (`dr_bench::chaos`) checks after every run.
#![warn(missing_docs)]

mod balanced;
pub mod byz;
pub mod crash;
mod envelope;
pub mod lower_bound;
mod naive;

pub use balanced::{BalancedDownload, Chunk};
pub use byz::{
    committee, in_committee, CommitteeDownload, CycleDownload, DecisionTree, FrequencyTable,
    MultiCycleDownload, MultiCyclePlan, SegmentMsg, TwoCycleDownload, TwoCyclePlan, VoteBatch,
};
pub use crash::{owner, CrashMultiDownload, MultiCrashMsg, SingleCrashDownload, SingleCrashMsg};
pub use envelope::{CostEnvelope, EnvelopeViolation};
pub use lower_bound::{
    deterministic_attack, randomized_attack, AttackOutcome, FakeSourceAgent, RandomizedAttackStats,
};
pub use naive::{NaiveDownload, NoMessage};
