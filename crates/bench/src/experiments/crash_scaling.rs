//! E3 — Theorem 2.13 / Lemma 2.11: Algorithm 2 across crash fractions.
//!
//! The central crash-fault claim: optimal `Q = O(n/(k(1−β)))` for *any*
//! `β < 1`. Sweeps `β` at fixed `(n, k)` with all `b` crashes actually
//! occurring (the worst case), and compares the plain protocol against
//! the Theorem 2.13 early-release variant on time. Sweep rows are
//! multi-trial means; the E3c comparison keeps paired same-seed runs
//! (parallelized across `b` values).

use crate::metrics::{
    measure_par, trials, ExperimentParams, ExperimentRecord, Measured, MetricsSink,
};
use crate::par;
use crate::runners::{crash_params, run_crash_multi};
use crate::table::{f, Table};
use dr_core::PeerId;
use dr_protocols::{CrashMultiDownload, MultiCrashMsg};
use dr_sim::{Adversary, Delivery, SimBuilder, View, TICKS_PER_UNIT};
use rand::Rng;

const EXPERIMENT: &str = "crash_scaling";

/// The scenario in which Theorem 2.13's early release pays off: the
/// adversary withholds every stage-2 answer (they are only released when
/// the system reaches quiescence) while stage-1 answers from `slow` peers
/// crawl at maximum latency. The plain protocol must stall in stage 3
/// until quiescence forces the held answers out; the early-release
/// variant unblocks as soon as the slow stage-1 answers resolve its
/// missing peers.
struct HoldStage2 {
    slow: Vec<PeerId>,
}

impl Adversary<MultiCrashMsg> for HoldStage2 {
    fn on_send(
        &mut self,
        _view: &View<'_>,
        from: PeerId,
        _to: PeerId,
        msg: &MultiCrashMsg,
        rng: &mut rand::rngs::StdRng,
    ) -> Delivery {
        match msg {
            MultiCrashMsg::Response2 { .. } => Delivery::Hold,
            MultiCrashMsg::Response1 { .. } if self.slow.contains(&from) => {
                Delivery::After(TICKS_PER_UNIT)
            }
            _ => Delivery::After(rng.gen_range(1..=TICKS_PER_UNIT / 16)),
        }
    }
}

/// Small-scale probe of the E3c scenario used by tests: returns
/// (forced releases plain, forced releases early).
pub fn run_e3c_probe() -> (u64, u64) {
    let (n2, k2, b) = (512usize, 8usize, 2usize);
    let run_with = |early_release: bool| {
        let slow: Vec<PeerId> = (0..b).map(PeerId).collect();
        let sim = SimBuilder::new(crash_params(n2, k2, b, 4096))
            .seed(3)
            .protocol(move |_| {
                let p = CrashMultiDownload::new(n2, k2, b);
                if early_release {
                    p.with_early_release()
                } else {
                    p
                }
            })
            .adversary(HoldStage2 { slow: slow.clone() })
            .build();
        let input = sim.input().clone();
        let report = sim.run().expect("no deadlock");
        report.verify_downloads(&input).expect("exact download");
        report.quiescence_releases
    };
    (run_with(false), run_with(true))
}

/// Runs the Algorithm 2 scaling experiments, recording per-row metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let trials = trials();
    let (n, k) = (8192usize, 32usize);
    let mut by_beta = Table::new(
        "E3a — Alg 2: Q vs beta (n = 8192, k = 32, all b crash)",
        &["beta", "b", "Q meas", "Q bound", "ratio", "T", "M"],
    );
    for b in [0usize, 8, 16, 24, 28, 31] {
        let beta = b as f64 / k as f64;
        let m = measure_par(trials, 11 + b as u64, move |seed| {
            run_crash_multi(n, k, b, b, 1024, false, seed)
        });
        let bound = (n as f64 / k as f64) * (1.0 / (1.0 - beta)) + (n as f64 / k as f64) + 1.0;
        by_beta.row(vec![
            f(beta),
            b.to_string(),
            f(m.queries.mean),
            f(bound),
            f(m.queries.mean / bound),
            f(m.time_units.mean),
            f(m.messages.mean),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("E3a b={b}"),
            ExperimentParams::nkb(n, k, b).with_a(1024),
            m,
        ));
    }

    let mut by_n = Table::new(
        "E3b — Alg 2: Q vs n (k = 32, beta = 0.5)",
        &["n", "Q meas", "Q bound", "ratio"],
    );
    for exp in 10..=15 {
        let n = 1usize << exp;
        let b = 16usize;
        let m = measure_par(trials, exp as u64, move |seed| {
            run_crash_multi(n, k, b, b, 1024, false, seed)
        });
        let bound = (n as f64 / k as f64) * 2.0 + n as f64 / k as f64 + 1.0;
        by_n.row(vec![
            n.to_string(),
            f(m.queries.mean),
            f(bound),
            f(m.queries.mean / bound),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!("E3b n={n}"),
            ExperimentParams::nkb(n, k, b).with_a(1024),
            m,
        ));
    }

    let mut early = Table::new(
        "E3c — Thm 2.13 early release under withheld stage-2 answers (n = 4096, k = 16, b slow peers)",
        &[
            "b (slow)",
            "forced releases plain",
            "forced releases early",
            "T plain",
            "T early",
        ],
    );
    // Each b value is a paired plain/early comparison on the same seed —
    // inherently single-run, so the pairs (not the trials) fan out.
    let bs = [2usize, 4, 8];
    let pairs = par::run_indexed(bs.len(), move |i| {
        let b = bs[i];
        let run_with = |early_release: bool, seed: u64| {
            let (n2, k2) = (4096usize, 16usize);
            let slow: Vec<PeerId> = (0..b).map(PeerId).collect();
            let sim = SimBuilder::new(crash_params(n2, k2, b, 4096))
                .seed(seed)
                .protocol(move |_| {
                    let p = CrashMultiDownload::new(n2, k2, b);
                    if early_release {
                        p.with_early_release()
                    } else {
                        p
                    }
                })
                .adversary(HoldStage2 { slow: slow.clone() })
                .build();
            let input = sim.input().clone();
            let report = sim.run().expect("no deadlock");
            report.verify_downloads(&input).expect("exact download");
            report
        };
        (run_with(false, 50), run_with(true, 50))
    });
    for (b, (plain, early_r)) in bs.iter().zip(&pairs) {
        early.row(vec![
            b.to_string(),
            plain.quiescence_releases.to_string(),
            early_r.quiescence_releases.to_string(),
            f(plain.virtual_time_units),
            f(early_r.virtual_time_units),
        ]);
        for (variant, r) in [("plain", plain), ("early", early_r)] {
            sink.push(ExperimentRecord::new(
                EXPERIMENT,
                format!("E3c b={b} {variant}"),
                ExperimentParams::nkb(4096, 16, *b).with_a(4096),
                Measured::one(r, 0.0),
            ));
        }
    }
    vec![by_beta, by_n, early]
}

#[cfg(test)]
mod tests {
    #[test]
    fn early_release_avoids_forced_releases() {
        let tables = super::run_e3c_probe();
        assert!(
            tables.0 >= tables.1,
            "early release should not need more forced releases"
        );
    }

    #[test]
    fn beta_sweep_tracks_bound() {
        let (n, k, b) = (1024usize, 16usize, 8usize);
        let r = crate::runners::run_crash_multi(n, k, b, b, 1024, false, 1);
        let bound = (n as f64 / k as f64) * 3.5 + 8.0;
        assert!((r.max_nonfaulty_queries as f64) <= bound);
    }
}
