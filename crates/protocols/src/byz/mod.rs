//! Byzantine-fault Download protocols (§3 of the paper).

mod committee;
mod cycles;
mod decision_tree;
mod frequent;
mod multi_cycle;
mod segment_msg;
pub mod strategies;
mod two_cycle;

pub use committee::{committee, in_committee, CommitteeDownload, VoteBatch};
pub use cycles::CycleDownload;
pub use decision_tree::DecisionTree;
pub use frequent::{CycleClaims, FrequencyTable};
pub use multi_cycle::{MultiCycleDownload, MultiCyclePlan};
pub use segment_msg::SegmentMsg;
pub use two_cycle::{TwoCycleDownload, TwoCyclePlan};
