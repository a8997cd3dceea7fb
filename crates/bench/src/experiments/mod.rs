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

/// Runs the twelve paper experiments in sequence, recording metrics into
/// `sink` (one `BENCH_<experiment>.json` group per module on
/// [`MetricsSink::write_json`]).
pub fn run_all_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let mut tables = Vec::new();
    tables.extend(table1::run_metered(sink));
    tables.extend(crash_single::run_metered(sink));
    tables.extend(crash_scaling::run_metered(sink));
    tables.extend(byz_committee::run_metered(sink));
    tables.extend(two_cycle::run_metered(sink));
    tables.extend(multi_cycle::run_metered(sink));
    tables.extend(lower_bound::run_metered(sink));
    tables.extend(oracle::run_metered(sink));
    tables.extend(msg_size::run_metered(sink));
    tables.extend(strategy_ablation::run_metered(sink));
    tables.extend(synchrony::run_metered(sink));
    tables.extend(exhaustive::run_metered(sink));
    tables
}
