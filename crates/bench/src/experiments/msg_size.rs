//! E9 — Ablation: the message-size parameter `a`.
//!
//! §1.2 notes that increasing the message-size parameter yields faster
//! protocols (the `n/a` terms in `T`). Sweeps `a` for Algorithm 2 and
//! reports time and packet counts: `T` falls roughly as `1/a` until the
//! latency term dominates, while `Q` is untouched. Rows are multi-trial
//! means fanned across the worker pool.

use crate::metrics::{measure_par, trials, ExperimentParams, ExperimentRecord, MetricsSink};
use crate::runners::run_crash_multi;
use crate::table::{f, Table};

const EXPERIMENT: &str = "msg_size";

/// Runs the message-size ablation, recording per-row metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let trials = trials();
    let (n, k, b) = (8192usize, 16usize, 8usize);
    let mut t = Table::new(
        "E9 — Alg 2: message size a sweep (n = 8192, k = 16, beta = 0.5)",
        &["a (bits)", "T (units)", "M (packets)", "Q"],
    );
    for a in [64usize, 256, 1024, 4096, 16384] {
        let m = measure_par(trials, 90, move |seed| {
            run_crash_multi(n, k, b, b, a, false, seed)
        });
        t.row(vec![
            a.to_string(),
            f(m.time_units.mean),
            f(m.messages.mean),
            f(m.queries.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("a={a}"),
            ExperimentParams::nkb(n, k, b).with_a(a),
            m,
        ));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn smaller_messages_cost_more_time_and_packets() {
        let small = crate::runners::run_crash_multi(2048, 8, 4, 4, 64, false, 1);
        let large = crate::runners::run_crash_multi(2048, 8, 4, 4, 8192, false, 1);
        assert!(small.messages_sent > large.messages_sent);
        assert!(small.virtual_time_units > large.virtual_time_units);
        // Q is schedule-dependent (different delivery orders), but both
        // must respect the Lemma 2.11 bound: (n/k)/(1−β) + n/k + slack.
        let bound = (2048.0 / 8.0) * 3.0 + 8.0;
        assert!((small.max_nonfaulty_queries as f64) <= bound);
        assert!((large.max_nonfaulty_queries as f64) <= bound);
    }
}
