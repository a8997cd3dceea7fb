//! E12 — Bounded model checking of the deterministic protocols.
//!
//! Enumerates every message-delivery schedule of tiny instances (per
//! crash pattern) and checks the Download specification on each: the
//! "for every execution" quantifier of Theorems 2.3 / 2.13 / 3.4, checked
//! mechanically rather than sampled. Each schedule is one simulator run
//! under the explorer's hold-and-release-one adversary. Crash patterns
//! are independent and fan across the worker pool.

use crate::metrics::{ExperimentParams, ExperimentRecord, Measured, MetricsSink};
use crate::par;
use crate::table::Table;
use dr_core::{BitArray, PeerId};
use dr_protocols::{CommitteeDownload, CrashMultiDownload, SingleCrashDownload};
use dr_sim::explore::{explore, ExploreConfig};

const EXPERIMENT: &str = "exhaustive";
const VALID: &str = "every E12 instance has a live peer and in-range crashes";

fn input(n: usize) -> BitArray {
    BitArray::from_fn(n, |i| (i * 11 + 1) % 3 == 0)
}

/// Runs the model-checking sweep, recording one record per pattern. The
/// checker enumerates schedules rather than metering runs, so a record's
/// `trials` field carries the number of schedules explored and its
/// statistics are empty.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let mut t = Table::new(
        "E12 — exhaustive schedule enumeration (tiny instances, all crash patterns)",
        &[
            "protocol",
            "n",
            "k",
            "crashed",
            "schedules",
            "exhaustive",
            "verdict",
        ],
    );
    let budget = 60_000u64;
    let record = |sink: &mut MetricsSink,
                  label: String,
                  n: usize,
                  k: usize,
                  report: &dr_sim::explore::ExploreReport| {
        let mut rec = ExperimentRecord::new(
            EXPERIMENT,
            label,
            ExperimentParams::nk(n, k),
            Measured::queries_only(&[], 0.0),
        );
        rec.trials = report.schedules;
        sink.push(rec);
    };

    // Algorithm 1, every single-crash pattern.
    {
        let (n, k) = (6usize, 3usize);
        let mut patterns: Vec<Vec<PeerId>> = vec![vec![]];
        patterns.extend((0..k).map(|v| vec![PeerId(v)]));
        let reports = par::run_indexed(patterns.len(), |i| {
            let config = ExploreConfig {
                max_schedules: budget,
                ..ExploreConfig::new(k, input(n)).with_crashed(patterns[i].clone())
            };
            explore(&config, move |_| SingleCrashDownload::new(n, k)).expect(VALID)
        });
        for (crashed, report) in patterns.iter().zip(&reports) {
            let label = if crashed.is_empty() {
                "-".to_string()
            } else {
                format!(
                    "{:?}",
                    crashed.iter().map(|p| p.index()).collect::<Vec<_>>()
                )
            };
            t.row(vec![
                "Alg 1".into(),
                n.to_string(),
                k.to_string(),
                label.clone(),
                report.schedules.to_string(),
                report.exhaustive.to_string(),
                verdict(report),
            ]);
            record(sink, format!("Alg 1 crashed={label}"), n, k, report);
        }
    }

    // Algorithm 2, every single-crash pattern (b = 1).
    {
        let (n, k, b) = (6usize, 3usize, 1usize);
        let reports = par::run_indexed(k, move |v| {
            let config = ExploreConfig {
                max_schedules: budget,
                ..ExploreConfig::new(k, input(n)).with_crashed(vec![PeerId(v)])
            };
            explore(&config, move |_| CrashMultiDownload::new(n, k, b)).expect(VALID)
        });
        for (v, report) in reports.iter().enumerate() {
            t.row(vec![
                "Alg 2".into(),
                n.to_string(),
                k.to_string(),
                format!("[{v}]"),
                report.schedules.to_string(),
                report.exhaustive.to_string(),
                verdict(report),
            ]);
            record(sink, format!("Alg 2 crashed=[{v}]"), n, k, report);
        }
    }

    // Committee (fault-free delivery-order check).
    {
        let (n, k, byz) = (4usize, 3usize, 1usize);
        let config = ExploreConfig {
            max_schedules: budget,
            ..ExploreConfig::new(k, input(n))
        };
        let report = explore(&config, move |_| CommitteeDownload::new(n, k, byz)).expect(VALID);
        t.row(vec![
            "Committee".into(),
            n.to_string(),
            k.to_string(),
            "-".into(),
            report.schedules.to_string(),
            report.exhaustive.to_string(),
            verdict(&report),
        ]);
        record(sink, "Committee".into(), n, k, &report);
    }
    vec![t]
}

fn verdict(report: &dr_sim::explore::ExploreReport) -> String {
    match &report.counterexample {
        None => "PASS".into(),
        Some(ce) => format!("FAIL: {}", ce.violation),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn sweep_has_no_failures() {
        for table in super::run_metered(&mut crate::metrics::MetricsSink::new()) {
            let text = table.to_string();
            assert!(!text.contains("FAIL"), "{text}");
        }
    }
}
