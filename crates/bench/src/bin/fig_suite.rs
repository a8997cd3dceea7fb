//! Regenerates the 'suite' whole-workload wall-clock tables: the twelve
//! paper experiments plus the default chaos campaign, timed at trial
//! thread counts 1 and ncpu (see DESIGN.md §4). Set `DR_SUITE_SMOKE=1`
//! for a CI-sized run.

use dr_bench::cli::BinOptions;
use dr_bench::metrics::MetricsSink;

fn main() {
    let opts = BinOptions::parse("fig_suite");
    let mut sink = MetricsSink::new();
    for table in dr_bench::experiments::suite::run_metered(&mut sink) {
        print!("{table}");
    }
    opts.finish(&sink);
}
