//! E5 — Theorem 3.7: the 2-cycle randomized protocol.
//!
//! Sweeps `n` at fixed `(k, b)` against the naive and committee baselines
//! (who wins where, and by how much), and sweeps `b` to show the
//! degradation toward the naive fallback as `β → 1/2` — the paper's
//! three-case parameter analysis in action. Rows are multi-trial means
//! fanned across the worker pool.

use crate::metrics::{measure_par, trials, ExperimentParams, ExperimentRecord, MetricsSink};
use crate::runners::{run_committee, run_naive, run_two_cycle, two_cycle_segmentation, ByzMix};
use crate::table::{f, Table};

const EXPERIMENT: &str = "two_cycle";

/// Runs the 2-cycle experiments, recording per-row metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let trials = trials();
    let (k, b) = (256usize, 32usize);
    let mut by_n = Table::new(
        "E5a — 2-cycle vs baselines: Q vs n (k = 256, b = 32, mixed byz)",
        &[
            "n",
            "segments",
            "Q 2-cycle",
            "Q committee",
            "Q naive",
            "winner",
        ],
    );
    for exp in 12..=17 {
        let n = 1usize << exp;
        let m = measure_par(trials, 30 + exp as u64, move |seed| {
            run_two_cycle(n, k, b, ByzMix::Mixed, seed)
        });
        let committee_q = (n * (2 * b + 1)).div_ceil(k) as f64;
        let naive_q = n as f64;
        let q = m.queries.mean;
        let segments = two_cycle_segmentation(n, k, b)
            .map(|(s, _)| s.count().to_string())
            .unwrap_or_else(|| "naive".into());
        let winner = if q < committee_q.min(naive_q) {
            "2-cycle"
        } else if committee_q < naive_q {
            "committee"
        } else {
            "naive"
        };
        by_n.row(vec![
            n.to_string(),
            segments,
            f(q),
            f(committee_q),
            f(naive_q),
            winner.into(),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("E5a n={n}"),
            ExperimentParams::nkb(n, k, b),
            m,
        ));
    }

    let mut by_b = Table::new(
        "E5b — 2-cycle: Q vs b (n = 2^15, k = 256)",
        &["b", "beta", "plan", "Q meas", "Q naive"],
    );
    let n = 1usize << 15;
    for byz in [0usize, 16, 32, 64, 96, 120, 127] {
        let m = measure_par(trials, 40 + byz as u64, move |seed| {
            run_two_cycle(n, k, byz, ByzMix::Silent, seed)
        });
        let plan = two_cycle_segmentation(n, k, byz)
            .map(|(s, tau)| format!("p={} tau={tau}", s.count()))
            .unwrap_or_else(|| "naive".into());
        by_b.row(vec![
            byz.to_string(),
            f(byz as f64 / k as f64),
            plan,
            f(m.queries.mean),
            n.to_string(),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("E5b b={byz}"),
            ExperimentParams::nkb(n, k, byz),
            m,
        ));
    }

    // Reference committee/naive runs at the E5a sizes use the same silent
    // adversary for fairness; report one comparison row in full.
    let mut fair = Table::new(
        "E5c — protocol head-to-head at n = 2^15, k = 256, b = 32 (silent byz)",
        &["protocol", "Q", "T", "M"],
    );
    {
        let n = 1usize << 15;
        let tc = measure_par(trials, 51, move |seed| {
            run_two_cycle(n, k, b, ByzMix::Silent, seed)
        });
        let cm = measure_par(trials, 52, move |seed| run_committee(n, k, b, b, seed));
        let nv = measure_par(trials, 53, move |seed| run_naive(n, k, seed));
        for (name, m) in [("2-cycle", tc), ("committee", cm), ("naive", nv)] {
            fair.row(vec![
                name.into(),
                f(m.queries.mean),
                f(m.time_units.mean),
                f(m.messages.mean),
            ]);
            sink.push(ExperimentRecord::new(
                EXPERIMENT,
                format!("E5c {name}"),
                ExperimentParams::nkb(n, k, b),
                m,
            ));
        }
    }
    vec![by_n, by_b, fair]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cycle_beats_naive_at_scale() {
        let (n, k, b) = (1usize << 14, 256usize, 32usize);
        let r = run_two_cycle(n, k, b, ByzMix::Silent, 1);
        assert!(r.max_nonfaulty_queries < n as u64);
    }
}
