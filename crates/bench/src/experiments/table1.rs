//! E1 — Table 1: the cross-protocol complexity comparison.
//!
//! The paper's Table 1 compares prior synchronous results with the new
//! asynchronous protocols by query complexity, fault model, and
//! resilience. This experiment regenerates the comparison empirically:
//! one representative configuration per row, measured `Q`/`T`/`M`
//! (means over the configured trials, fanned across the worker pool),
//! and the theory bound the measurement should track.

use crate::metrics::{measure_par, trials, ExperimentParams, ExperimentRecord, MetricsSink};
use crate::runners::{
    run_committee, run_crash_multi, run_multi_cycle, run_naive, run_single_crash, run_two_cycle,
    ByzMix,
};
use crate::table::{f, Table};
use dr_core::PeerId;

const EXPERIMENT: &str = "table1";

/// Runs the Table 1 comparison, discarding metrics records.
pub fn run() -> Vec<Table> {
    run_metered(&mut MetricsSink::new())
}

/// Runs the Table 1 comparison, recording one metrics record per row.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let trials = trials();
    let mut t = Table::new(
        "Table 1 — Download protocols, measured vs theory",
        &[
            "protocol",
            "faults",
            "beta",
            "n",
            "k",
            "Q meas",
            "Q theory",
            "T (units)",
            "M (msgs)",
        ],
    );

    // Naive baseline: works under any fault fraction, Q = n.
    {
        let (n, k) = (8192usize, 32usize);
        let m = measure_par(trials, 1, move |seed| run_naive(n, k, seed));
        t.row(vec![
            "naive".into(),
            "any".into(),
            "any".into(),
            n.to_string(),
            k.to_string(),
            f(m.queries.mean),
            n.to_string(),
            f(m.time_units.mean),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            "naive",
            ExperimentParams::nk(n, k),
            m,
        ));
    }

    // Algorithm 1 (Thm 2.3): one crash.
    {
        let (n, k) = (8192usize, 32usize);
        let m = measure_par(trials, 2, move |seed| {
            run_single_crash(n, k, seed, Some(PeerId(5)))
        });
        let theory = n / k + n / (k * (k - 1)) + 1;
        t.row(vec![
            "Alg 1 (Thm 2.3)".into(),
            "crash".into(),
            "1/k".into(),
            n.to_string(),
            k.to_string(),
            f(m.queries.mean),
            theory.to_string(),
            f(m.time_units.mean),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            "Alg 1 (Thm 2.3)",
            ExperimentParams::nkb(n, k, 1),
            m,
        ));
    }

    // Algorithm 2 (Thm 2.13) at β = 1/2 and β ≈ 0.9.
    for (b, crashes) in [(16usize, 16usize), (28, 28)] {
        let (n, k) = (8192usize, 32usize);
        let m = measure_par(trials, 3, move |seed| {
            run_crash_multi(n, k, b, crashes, 1024, true, seed)
        });
        let beta = b as f64 / k as f64;
        let theory = (n as f64 / k as f64) * (1.0 / (1.0 - beta)) + n as f64 / k as f64;
        t.row(vec![
            "Alg 2 (Thm 2.13)".into(),
            "crash".into(),
            f(beta),
            n.to_string(),
            k.to_string(),
            f(m.queries.mean),
            f(theory),
            f(m.time_units.mean),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("Alg 2 (Thm 2.13) beta={beta}"),
            ExperimentParams::nkb(n, k, b).with_a(1024),
            m,
        ));
    }

    // Deterministic committee (Thm 3.4): Byzantine minority.
    {
        let (n, k, byz) = (8192usize, 32usize, 8usize);
        let m = measure_par(trials, 4, move |seed| run_committee(n, k, byz, byz, seed));
        let theory = n * (2 * byz + 1) / k;
        t.row(vec![
            "Committee (Thm 3.4)".into(),
            "byzantine".into(),
            f(byz as f64 / k as f64),
            n.to_string(),
            k.to_string(),
            f(m.queries.mean),
            theory.to_string(),
            f(m.time_units.mean),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            "Committee (Thm 3.4)",
            ExperimentParams::nkb(n, k, byz),
            m,
        ));
    }

    // 2-cycle randomized (Thm 3.7).
    {
        let (n, k, byz) = (1usize << 15, 256usize, 32usize);
        let m = measure_par(trials, 5, move |seed| {
            run_two_cycle(n, k, byz, ByzMix::Mixed, seed)
        });
        let theory = match crate::runners::two_cycle_segmentation(n, k, byz) {
            Some((seg, _)) => n / seg.count() + 2 * k,
            None => n,
        };
        t.row(vec![
            "2-cycle (Thm 3.7)".into(),
            "byzantine".into(),
            f(byz as f64 / k as f64),
            n.to_string(),
            k.to_string(),
            f(m.queries.mean),
            theory.to_string(),
            f(m.time_units.mean),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            "2-cycle (Thm 3.7)",
            ExperimentParams::nkb(n, k, byz),
            m,
        ));
    }

    // Multi-cycle randomized (Thm 3.12).
    {
        let (n, k, byz) = (1usize << 15, 256usize, 32usize);
        let m = measure_par(trials, 6, move |seed| {
            run_multi_cycle(n, k, byz, ByzMix::Mixed, seed)
        });
        let theory = match dr_protocols::MultiCyclePlan::choose(n, k, byz) {
            dr_protocols::MultiCyclePlan::Sampled {
                initial_segments, ..
            } => n / initial_segments + 2 * k,
            dr_protocols::MultiCyclePlan::Naive => n,
        };
        t.row(vec![
            "multi-cycle (Thm 3.12)".into(),
            "byzantine".into(),
            f(byz as f64 / k as f64),
            n.to_string(),
            k.to_string(),
            f(m.queries.mean),
            theory.to_string(),
            f(m.time_units.mean),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            "multi-cycle (Thm 3.12)",
            ExperimentParams::nkb(n, k, byz),
            m,
        ));
    }

    // β ≥ 1/2 Byzantine: the lower bounds say only the naive protocol
    // works; the lower_bound experiment demonstrates the attack.
    {
        let (n, k) = (8192usize, 32usize);
        let m = measure_par(trials, 7, move |seed| run_naive(n, k, seed));
        t.row(vec![
            "naive = optimal (Thm 3.1/3.2)".into(),
            "byzantine".into(),
            ">= 0.50".into(),
            n.to_string(),
            k.to_string(),
            f(m.queries.mean),
            n.to_string(),
            f(m.time_units.mean),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            "naive = optimal (Thm 3.1/3.2)",
            ExperimentParams::nkb(n, k, k / 2),
            m,
        ));
    }

    vec![t]
}

#[cfg(test)]
mod tests {
    use crate::metrics::MetricsSink;

    #[test]
    fn table1_has_all_rows_and_records() {
        let mut sink = MetricsSink::new();
        let tables = super::run_metered(&mut sink);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 8);
        assert_eq!(sink.records().len(), 8);
        assert!(sink.records().iter().all(|r| r.experiment == "table1"));
    }
}
