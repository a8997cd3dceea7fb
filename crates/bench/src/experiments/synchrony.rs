//! E11 — Ablation: asynchrony's price.
//!
//! The paper's headline is that Download — unlike consensus — needs no
//! synchrony at all. This ablation quantifies what asynchrony costs in
//! practice: each protocol under a lockstep schedule (all latencies
//! maximal and equal — the synchronous limit) versus the adversarial
//! asynchronous schedule. Queries are shape-identical; only time
//! stretches. Both modes measure the same trial seeds, fanned across
//! the worker pool.

use crate::metrics::{measure_par, trials, ExperimentParams, ExperimentRecord, MetricsSink};
use crate::runners::crash_params;
use crate::table::{f, Table};
use dr_core::PeerId;
use dr_protocols::CrashMultiDownload;
use dr_sim::{
    CrashPlan, FixedDelay, RunReport, SimBuilder, StandardAdversary, UniformDelay, TICKS_PER_UNIT,
};

const EXPERIMENT: &str = "synchrony";

fn run_mode(n: usize, k: usize, b: usize, lockstep: bool, seed: u64) -> RunReport {
    let plan = CrashPlan::before_event((0..b).map(PeerId), 1);
    let adversary = if lockstep {
        StandardAdversary::new(FixedDelay(TICKS_PER_UNIT), plan).simultaneous_start()
    } else {
        StandardAdversary::new(UniformDelay::new(), plan)
    };
    let sim = SimBuilder::new(crash_params(n, k, b, 1024))
        .seed(seed)
        .protocol(move |_| CrashMultiDownload::new(n, k, b))
        .adversary(adversary)
        .build();
    let input = sim.input().clone();
    let report = sim.run().expect("no deadlock");
    report.verify_downloads(&input).expect("exact download");
    report
}

/// Runs the synchrony ablation, recording per-mode metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let trials = trials();
    let (n, k) = (4096usize, 16usize);
    let mut t = Table::new(
        "E11 — Alg 2: lockstep (synchronous limit) vs adversarial async (n = 4096, k = 16)",
        &["beta", "Q sync", "Q async", "T sync", "T async"],
    );
    for b in [0usize, 4, 8, 12] {
        // Both modes run the same trial seeds, keeping the comparison
        // paired like the original single-seed version.
        let sync = measure_par(trials, 200 + b as u64, move |seed| {
            run_mode(n, k, b, true, seed)
        });
        let async_ = measure_par(trials, 200 + b as u64, move |seed| {
            run_mode(n, k, b, false, seed)
        });
        t.row(vec![
            f(b as f64 / k as f64),
            f(sync.queries.mean),
            f(async_.queries.mean),
            f(sync.time_units.mean),
            f(async_.time_units.mean),
        ]);
        for (mode, m) in [("sync", sync), ("async", async_)] {
            sink.push(ExperimentRecord::new(
                EXPERIMENT,
                format!("b={b} {mode}"),
                ExperimentParams::nkb(n, k, b).with_a(1024),
                m,
            ));
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_verify_and_stay_bounded() {
        let sync = run_mode(512, 8, 4, true, 1);
        let async_ = run_mode(512, 8, 4, false, 1);
        let bound = ((512 / 8) * 3 + 16) as u64;
        assert!(sync.max_nonfaulty_queries <= bound);
        assert!(async_.max_nonfaulty_queries <= bound);
    }
}
