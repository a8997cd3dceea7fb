//! E2 — Theorem 2.3: Algorithm 1 query complexity scales as `O(n/k)`.
//!
//! Sweeps `n` at fixed `k` with an adversarial single crash and checks the
//! measured `Q` against the `n/k + n/(k(k−1))` bound; sweeps `k` at fixed
//! `n` to show the `1/k` shape. Each row is a multi-trial mean fanned
//! across the worker pool.

use crate::metrics::{measure_par, trials, ExperimentParams, ExperimentRecord, MetricsSink};
use crate::runners::run_single_crash;
use crate::table::{f, Table};
use dr_core::PeerId;

const EXPERIMENT: &str = "crash_single";

/// Runs the Algorithm 1 scaling experiment, recording per-row metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let trials = trials();
    let mut by_n = Table::new(
        "E2a — Alg 1 (one crash): Q vs n (k = 16)",
        &["n", "Q meas", "Q bound", "ratio", "T", "M"],
    );
    let k = 16usize;
    for exp in 10..=14 {
        let n = 1usize << exp;
        let m = measure_par(trials, exp as u64, move |seed| {
            run_single_crash(n, k, seed, Some(PeerId(3)))
        });
        let bound = n / k + n / (k * (k - 1)) + 2;
        by_n.row(vec![
            n.to_string(),
            f(m.queries.mean),
            bound.to_string(),
            f(m.queries.mean / bound as f64),
            f(m.time_units.mean),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("E2a n={n}"),
            ExperimentParams::nkb(n, k, 1),
            m,
        ));
    }

    let mut by_k = Table::new(
        "E2b — Alg 1 (one crash): Q vs k (n = 8192)",
        &["k", "Q meas", "Q bound", "ratio"],
    );
    let n = 8192usize;
    for k in [4usize, 8, 16, 32, 64] {
        let m = measure_par(trials, k as u64, move |seed| {
            run_single_crash(n, k, seed, Some(PeerId(1)))
        });
        let bound = n / k + n / (k * (k - 1)) + 2;
        by_k.row(vec![
            k.to_string(),
            f(m.queries.mean),
            bound.to_string(),
            f(m.queries.mean / bound as f64),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("E2b k={k}"),
            ExperimentParams::nkb(n, k, 1),
            m,
        ));
    }
    vec![by_n, by_k]
}

#[cfg(test)]
mod tests {
    #[test]
    fn rows_track_bound() {
        // Smoke-scale version of the experiment: Q never exceeds the bound.
        let r = crate::runners::run_single_crash(512, 8, 1, Some(dr_core::PeerId(0)));
        let bound = 512 / 8 + 512 / (8 * 7) + 2;
        assert!(r.max_nonfaulty_queries <= bound as u64);
    }
}
