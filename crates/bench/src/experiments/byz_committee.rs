//! E4 — Theorem 3.4: the deterministic committee protocol's `Q` grows
//! linearly in the Byzantine budget `t` and meets the naive cost as
//! `β → 1/2`. Each row is a multi-trial mean fanned across the pool.

use crate::metrics::{measure_par, trials, ExperimentParams, ExperimentRecord, MetricsSink};
use crate::runners::{run_committee, run_naive};
use crate::table::{f, Table};

const EXPERIMENT: &str = "byz_committee";

/// Runs the committee-scaling experiment, recording per-row metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let trials = trials();
    let (n, k) = (8192usize, 64usize);
    let naive_q = run_naive(n, k, 77).max_nonfaulty_queries;
    let mut t = Table::new(
        "E4 — Committee protocol: Q vs t (n = 8192, k = 64; naive = 8192)",
        &[
            "t",
            "beta",
            "Q meas",
            "Q theory = n(2t+1)/k",
            "vs naive",
            "M",
        ],
    );
    for byz in [0usize, 2, 4, 8, 16, 24, 31] {
        let m = measure_par(trials, 21 + byz as u64, move |seed| {
            run_committee(n, k, byz, byz, seed)
        });
        let theory = (n * (2 * byz + 1)).div_ceil(k);
        t.row(vec![
            byz.to_string(),
            f(byz as f64 / k as f64),
            f(m.queries.mean),
            theory.to_string(),
            f(m.queries.mean / naive_q as f64),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("t={byz}"),
            ExperimentParams::nkb(n, k, byz),
            m,
        ));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn q_grows_linearly_in_t() {
        let n = 512;
        let k = 16;
        let q1 = crate::runners::run_committee(n, k, 1, 1, 1).max_nonfaulty_queries;
        let q3 = crate::runners::run_committee(n, k, 3, 3, 2).max_nonfaulty_queries;
        // (2·3+1)/(2·1+1) = 7/3 ≈ 2.33× more queries.
        assert!(q3 > 2 * q1);
    }
}
