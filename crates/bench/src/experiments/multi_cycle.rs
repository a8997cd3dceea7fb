//! E6 — Theorem 3.12: the multi-cycle randomized protocol.
//!
//! Compares the multi-cycle protocol's expected query cost against the
//! 2-cycle protocol across input sizes (the multi-cycle's smaller initial
//! segments pay off as `n` grows) and reports the cycle counts. Trials
//! fan across the worker pool with the same seeds as a serial run.

use crate::metrics::{measure_par, trials, ExperimentParams, ExperimentRecord, MetricsSink};
use crate::runners::{run_multi_cycle, run_two_cycle, ByzMix};
use crate::table::Table;
use dr_protocols::MultiCyclePlan;

const EXPERIMENT: &str = "multi_cycle";

/// Runs the multi-cycle experiments, recording per-row metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let trials = trials();
    let (k, b) = (256usize, 32usize);
    let mut t = Table::new(
        "E6 — multi-cycle vs 2-cycle: mean Q over trials (k = 256, b = 32)",
        &["n", "cycles", "p1", "Q multi", "Q 2-cycle", "Q naive"],
    );
    for exp in [13usize, 15, 17] {
        let n = 1usize << exp;
        let (cycles, p1) = match MultiCyclePlan::choose(n, k, b) {
            MultiCyclePlan::Sampled {
                initial_segments,
                cycles,
                ..
            } => (cycles.to_string(), initial_segments.to_string()),
            MultiCyclePlan::Naive => ("-".into(), "naive".into()),
        };
        let multi = measure_par(trials, 60 + exp as u64, move |s| {
            run_multi_cycle(n, k, b, ByzMix::Mixed, s)
        });
        let two = measure_par(trials, 60 + exp as u64, move |s| {
            run_two_cycle(n, k, b, ByzMix::Mixed, s)
        });
        t.row(vec![
            n.to_string(),
            cycles,
            p1,
            format!("{:.0} ± {:.0}", multi.queries.mean, multi.queries.std),
            format!("{:.0} ± {:.0}", two.queries.mean, two.queries.std),
            n.to_string(),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("multi-cycle n={n}"),
            ExperimentParams::nkb(n, k, b),
            multi,
        ));
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("2-cycle n={n}"),
            ExperimentParams::nkb(n, k, b),
            two,
        ));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_cycle_stays_below_naive() {
        let (n, k, b) = (1usize << 13, 256usize, 16usize);
        let r = run_multi_cycle(n, k, b, ByzMix::Silent, 3);
        assert!(r.max_nonfaulty_queries < n as u64);
    }
}
