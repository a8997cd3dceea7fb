//! E7 — Theorems 3.1 and 3.2: the Byzantine-majority lower bounds,
//! executed.
//!
//! Part (a): the deterministic indistinguishability attack against every
//! deterministic protocol in the library — each one that queries fewer
//! than `n` bits is defeated; the naive protocol (the only `Q = n` one)
//! survives, exactly the Theorem 3.1 dichotomy.
//!
//! Part (b): the randomized attack of Theorem 3.2 against a sampling
//! protocol forced to keep a per-peer budget of `≈ n/p` queries; the
//! measured violation rate tracks the predicted `1 − q/n` shape as the
//! budget grows.
//!
//! Both parts are collections of independent attack executions, fanned
//! across the worker pool.

use crate::metrics::{ExperimentParams, ExperimentRecord, Measured, MetricsSink};
use crate::par;
use crate::table::{f, Table};
use dr_core::PeerId;
use dr_protocols::lower_bound::{deterministic_attack, randomized_attack, AttackOutcome};
use dr_protocols::{
    BalancedDownload, CommitteeDownload, NaiveDownload, SingleCrashDownload, TwoCycleDownload,
    TwoCyclePlan,
};

const EXPERIMENT: &str = "lower_bound";

/// Runs the lower-bound experiments, recording per-attack metrics. The
/// attack harness meters only the target's queries, so records carry
/// query statistics alone.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let mut det = Table::new(
        "E7a — Thm 3.1 attack vs deterministic protocols (n = 256, k = 8)",
        &["protocol", "target Q", "outcome", "flipped bit"],
    );
    let (n, k) = (256usize, 8usize);
    let names = ["naive", "balanced", "Alg 1 (crash-opt)", "committee t=2"];
    let outcomes: Vec<AttackOutcome> = par::run_indexed(names.len(), move |i| match i {
        0 => deterministic_attack(n, k, PeerId(0), |_| NaiveDownload::new(), 1),
        1 => deterministic_attack(n, k, PeerId(0), move |_| BalancedDownload::new(n, k), 2),
        2 => deterministic_attack(n, k, PeerId(0), move |_| SingleCrashDownload::new(n, k), 3),
        _ => deterministic_attack(n, k, PeerId(0), move |_| CommitteeDownload::new(n, k, 2), 4),
    });
    for (name, outcome) in names.iter().zip(outcomes) {
        let (q, verdict, flipped) = match outcome {
            AttackOutcome::FullyQueried { queries } => (queries, "survives (Q = n)", "-".into()),
            AttackOutcome::Violated {
                queries,
                flipped_index,
            } => (queries, "WRONG OUTPUT", flipped_index.to_string()),
            AttackOutcome::NoTermination { flipped_index } => {
                (0, "NO TERMINATION", flipped_index.to_string())
            }
        };
        det.row(vec![(*name).into(), q.to_string(), verdict.into(), flipped]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("E7a {name}: {verdict}"),
            ExperimentParams::nkb(n, k, k - 1),
            Measured::queries_only(&[q as f64], 0.0),
        ));
    }

    let mut rand_t = Table::new(
        "E7b — Thm 3.2 attack vs randomized sampler (n = 512, k = 8, 24 trials)",
        &[
            "segments p",
            "budget ~ n/p",
            "est. P[query i*]",
            "violation rate",
            "predicted",
        ],
    );
    let ps = [2usize, 4, 8];
    let rand_stats = par::run_indexed(ps.len(), move |i| {
        let p = ps[i];
        let (n, k) = (512usize, 8usize);
        let plan = TwoCyclePlan::Sampled {
            segments: p,
            threshold: 1,
        };
        randomized_attack(
            n,
            k,
            PeerId(0),
            move |_| TwoCycleDownload::with_plan(n, k, 0, plan),
            12,
            24,
            70 + p as u64,
        )
    });
    for (p, stats) in ps.iter().zip(&rand_stats) {
        let (n, k) = (512usize, 8usize);
        // The target survives if it sampled the flipped segment itself
        // (prob 1/p) or no claim covered it, triggering the direct-query
        // fallback: violation ≈ (1 − 1/p)·(1 − (1 − 1/p)^(k−1)).
        let coverage = 1.0 - (1.0 - 1.0 / *p as f64).powi(k as i32 - 1);
        rand_t.row(vec![
            p.to_string(),
            (n / p).to_string(),
            f(stats.estimated_query_probability),
            f(stats.violation_rate()),
            f((1.0 - 1.0 / *p as f64) * coverage),
        ]);
    }
    vec![det, rand_t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn deterministic_dichotomy_holds() {
        use super::*;
        let naive = deterministic_attack(64, 4, PeerId(0), |_| NaiveDownload::new(), 1);
        assert!(matches!(naive, AttackOutcome::FullyQueried { .. }));
        let bal = deterministic_attack(64, 4, PeerId(0), |_| BalancedDownload::new(64, 4), 1);
        assert!(matches!(bal, AttackOutcome::Violated { .. }));
    }
}
