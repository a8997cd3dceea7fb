//! E10 — Ablation: Byzantine strategies against the 2-cycle protocol.
//!
//! The decision-tree mechanism turns Byzantine interference into extra
//! queries, never wrong outputs — and remarkably few extra queries at
//! that. Since each fake string must be sent by ≥ τ distinct colluders to
//! enter any tree, and each surviving fake costs at most one separating
//! query per receiver, the worst-case inflation is `b/τ` extra queries
//! per peer. This ablation measures each strategy class against that
//! ceiling: silence (withholds coverage), equivocation and noise
//! (below-τ, filtered for free), and τ-coordinated collusion (the only
//! strategy that reaches the trees at all). Trials fan across the pool.

use crate::metrics::{measure_par, trials, ExperimentParams, ExperimentRecord, MetricsSink};
use crate::runners::{average_par, run_two_cycle, ByzMix};
use crate::table::{f, Table};

const EXPERIMENT: &str = "strategy_ablation";

/// Runs the strategy ablation, recording per-strategy metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let trials = trials();
    let (n, k, b) = (1usize << 15, 256usize, 48usize);
    let tau = crate::runners::two_cycle_segmentation(n, k, b)
        .map(|(_, tau)| tau)
        .unwrap_or(1);
    let mut t = Table::new(
        "E10 — 2-cycle under Byzantine strategies (n = 2^15, k = 256, b = 48; mean over trials)",
        &["strategy", "Q mean", "extra vs none", "ceiling b/tau"],
    );
    let base = average_par(trials, 100, move |s| {
        run_two_cycle(n, k, b, ByzMix::None, s).max_nonfaulty_queries as f64
    });
    for (name, mix) in [
        ("none (budget only)", ByzMix::None),
        ("silent", ByzMix::Silent),
        ("mixed", ByzMix::Mixed),
        ("colluders", ByzMix::Colluders),
    ] {
        let m = measure_par(trials, 100, move |s| run_two_cycle(n, k, b, mix, s));
        let q = m.queries.mean;
        t.row(vec![name.into(), f(q), f(q - base), (b / tau).to_string()]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            name,
            ExperimentParams::nkb(n, k, b),
            m,
        ));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_keep_correctness() {
        // run_two_cycle verifies outputs internally; exercising each mix
        // at a small size is the test.
        let (n, k, b) = (1usize << 13, 128usize, 24usize);
        for mix in [
            ByzMix::None,
            ByzMix::Silent,
            ByzMix::Mixed,
            ByzMix::Colluders,
        ] {
            run_two_cycle(n, k, b, mix, 9);
        }
    }
}
