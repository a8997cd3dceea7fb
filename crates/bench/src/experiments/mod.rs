//! One module per reproduced artifact. See DESIGN.md §3 for the index.

pub mod byz_committee;
pub mod crash_scaling;
pub mod crash_single;
pub mod exhaustive;
pub mod lower_bound;
pub mod msg_size;
pub mod multi_cycle;
pub mod oracle;
pub mod strategy_ablation;
pub mod synchrony;
pub mod table1;
pub mod two_cycle;

use crate::metrics::MetricsSink;
use crate::table::Table;

/// Runs one experiment, recording its metrics into the sink.
type RunMetered = fn(&mut MetricsSink) -> Vec<Table>;

/// The twelve paper experiments, in the order `dr experiments` runs them:
/// each one's name (its `--only` value and its metrics group) and the
/// function that runs it.
pub const EXPERIMENTS: [(&str, RunMetered); 12] = [
    ("table1", table1::run_metered),
    ("crash_single", crash_single::run_metered),
    ("crash_scaling", crash_scaling::run_metered),
    ("byz_committee", byz_committee::run_metered),
    ("two_cycle", two_cycle::run_metered),
    ("multi_cycle", multi_cycle::run_metered),
    ("lower_bound", lower_bound::run_metered),
    ("oracle", oracle::run_metered),
    ("msg_size", msg_size::run_metered),
    ("strategy_ablation", strategy_ablation::run_metered),
    ("synchrony", synchrony::run_metered),
    ("exhaustive", exhaustive::run_metered),
];
