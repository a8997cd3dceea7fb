//! E-suite — whole-workload wall clock by trial thread count.
//!
//! Times the complete reproduction workload end to end, as two units:
//!
//! * **experiments** — the twelve paper experiments
//!   ([`super::run_all_metered`]), run back to back exactly as
//!   `dr experiments` would;
//! * **chaos** — the default fault-injection campaign, 56 cases × 18
//!   seeds = 1008 runs (see [`crate::chaos::default_cases`]).
//!
//! Each unit runs at trial thread count 1 and, when the machine has
//! more than one core, at `ncpu`. Every row's label records the *honest*
//! `available_parallelism` of the machine that produced it — on a
//! single-core box the sweep collapses to one thread count and no
//! speedup is claimed. Timing lives exclusively in `wall_clock_secs`;
//! all simulation results are seed-determined, and the chaos sweep
//! gates on zero invariant violations.
//!
//! Set `DR_SUITE_SMOKE=1` (the CI smoke job does) to shrink the trial
//! count and the chaos campaign to CI-affordable sizes.

use crate::chaos::{run_campaign, Campaign};
use crate::metrics::{
    set_trials, trials, ExperimentParams, ExperimentRecord, Measured, MetricsSink,
};
use crate::par;
use crate::table::{f, Table};
use std::time::Instant;

const EXPERIMENT: &str = "suite";

/// Fixed base seed of the timed chaos campaign (same default as
/// `dr chaos`).
const CHAOS_SEED: u64 = 0xc0ffee;

fn smoke() -> bool {
    std::env::var("DR_SUITE_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The machine's honest core count; every record carries it.
fn ncpu() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Runs the suite timing experiment, discarding metrics records.
pub fn run() -> Vec<Table> {
    run_metered(&mut MetricsSink::new())
}

/// Runs the suite timing experiment, recording per-row metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let ncpu = ncpu();
    let chaos_runs_per_case: u64 = if smoke() { 2 } else { 18 };
    let prev_trials = trials();
    if smoke() {
        set_trials(1);
    }
    let trials = trials();

    // Thread counts to sweep: 1, plus ncpu when it differs. Never a
    // fabricated second point on a single-core machine.
    let mut thread_counts = vec![1usize];
    if ncpu > 1 {
        thread_counts.push(ncpu);
    }

    let mut table = Table::new(
        "E-suite — whole-workload wall clock by trial thread count",
        &[
            "workload",
            "threads",
            "ncpu",
            "size",
            "wall secs",
            "speedup vs 1",
        ],
    );

    let prev_threads = par::thread_count();
    let mut baseline: [f64; 2] = [0.0, 0.0];
    for &t in &thread_counts {
        par::set_threads(t);

        // Into a scratch sink: this experiment times the twelve, their own
        // records are not re-emitted.
        let started = Instant::now();
        super::run_all_metered(&mut MetricsSink::new());
        let exp_secs = started.elapsed().as_secs_f64();

        let campaign = Campaign::new(chaos_runs_per_case, CHAOS_SEED);
        let chaos_runs = campaign.cases.len() * chaos_runs_per_case as usize;
        let started = Instant::now();
        let report = run_campaign(&campaign);
        let chaos_secs = started.elapsed().as_secs_f64();
        assert!(
            report.violations.is_empty(),
            "chaos campaign found {} violation(s) during suite timing",
            report.violations.len()
        );

        if t == 1 {
            baseline = [exp_secs, chaos_secs];
        }
        for (i, (workload, size, secs)) in [
            (
                "experiments",
                format!("12 experiments x {trials} trials"),
                exp_secs,
            ),
            ("chaos", format!("{chaos_runs} runs"), chaos_secs),
        ]
        .into_iter()
        .enumerate()
        {
            table.row(vec![
                workload.to_string(),
                t.to_string(),
                ncpu.to_string(),
                size.clone(),
                f(secs),
                f(baseline[i] / secs),
            ]);
            sink.push(ExperimentRecord::new(
                EXPERIMENT,
                format!("{workload} threads={t} ncpu={ncpu} {size} (timed in wall_clock_secs)"),
                ExperimentParams::nk(0, t),
                Measured::queries_only(&[], secs),
            ));
        }
    }
    par::set_threads(prev_threads);
    set_trials(prev_trials);

    vec![table]
}
