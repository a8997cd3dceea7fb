//! Machine-readable experiment metrics.
//!
//! Every experiment, in addition to its human-readable [`Table`]s,
//! produces one [`ExperimentRecord`] per table row (or representative
//! configuration). Records accumulate in a [`MetricsSink`]; passing
//! `--json <dir>` to `dr experiments` writes them out as one
//! `BENCH_<experiment>.json` file per experiment, each holding a JSON
//! array of records.
//!
//! [`Table`]: crate::Table

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
#[expect(
    clippy::disallowed_types,
    reason = "a wall-clock reading for the report; no result depends on it"
)]
use std::time::Instant;

use dr_core::json::{ToJson, Value};
use dr_core::json_struct;
use dr_sim::RunReport;

use crate::par;
use crate::stats::Stats;

/// Process-wide override set by [`set_trials`]; 0 means "not set".
static TRIALS_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// Overrides the per-row trial count for the whole process (from `dr`'s
/// `--trials` flag). Passing 0 clears the override.
pub fn set_trials(n: u64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "lone config cell, no other memory depends on it"
    )]
    TRIALS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Trials each multi-trial experiment row runs: the [`set_trials`]
/// override, else 3.
pub fn trials() -> u64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "lone config cell, no other memory depends on it"
    )]
    let explicit = TRIALS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    3
}

/// Model parameters a record was measured at. Fields that do not apply
/// to an experiment (e.g. `a` outside the message-size sweep) are 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Input length in bits.
    pub n: usize,
    /// Number of peers.
    pub k: usize,
    /// Fault budget (crash or Byzantine, per the experiment).
    pub b: usize,
    /// Message size bound in bits (0 where unbounded / not applicable).
    pub a: usize,
}

json_struct!(ToJson for ExperimentParams { n, k, b, a });

impl ExperimentParams {
    /// Parameters with only `n` and `k` set.
    pub fn nk(n: usize, k: usize) -> Self {
        ExperimentParams { n, k, b: 0, a: 0 }
    }

    /// Parameters with `n`, `k`, and the fault budget set.
    pub fn nkb(n: usize, k: usize, b: usize) -> Self {
        ExperimentParams { n, k, b, a: 0 }
    }

    /// Sets the message-size bound.
    pub fn with_a(mut self, a: usize) -> Self {
        self.a = a;
        self
    }
}

/// The four cost metrics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialMetrics {
    /// Worst-case oracle queries over nonfaulty peers (the paper's Q).
    pub queries: f64,
    /// Virtual time units until quiescence.
    pub time_units: f64,
    /// Total peer-to-peer messages metered.
    pub messages: f64,
    /// Total metered message payload bits.
    pub message_bits: f64,
}

impl From<&RunReport> for TrialMetrics {
    fn from(report: &RunReport) -> Self {
        TrialMetrics {
            queries: report.max_nonfaulty_queries as f64,
            time_units: report.virtual_time_units,
            messages: report.messages_sent as f64,
            message_bits: report.message_bits as f64,
        }
    }
}

/// Per-metric statistics over the trials of one experiment row.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Number of trials aggregated.
    pub trials: u64,
    /// Statistics of [`TrialMetrics::queries`].
    pub queries: Stats,
    /// Statistics of [`TrialMetrics::time_units`].
    pub time_units: Stats,
    /// Statistics of [`TrialMetrics::messages`].
    pub messages: Stats,
    /// Statistics of [`TrialMetrics::message_bits`].
    pub message_bits: Stats,
    /// Wall-clock seconds the whole fan-out took.
    pub wall_clock_secs: f64,
}

impl Measured {
    /// A single-run measurement (rows whose scenario is inherently one
    /// execution, e.g. paired same-seed comparisons).
    pub fn one(report: &RunReport, wall_clock_secs: f64) -> Measured {
        Measured::of(&[TrialMetrics::from(report)], wall_clock_secs)
    }

    /// A measurement carrying only query statistics (experiments whose
    /// harness does not expose the other meters, e.g. the lower-bound
    /// attacks); the remaining metrics are zero-count stats.
    pub fn queries_only(queries: &[f64], wall_clock_secs: f64) -> Measured {
        Measured {
            trials: queries.len() as u64,
            queries: Stats::of(queries),
            time_units: Stats::of(&[]),
            messages: Stats::of(&[]),
            message_bits: Stats::of(&[]),
            wall_clock_secs,
        }
    }

    /// Aggregates per-trial metrics (in trial order) plus a wall-clock.
    pub fn of(trials: &[TrialMetrics], wall_clock_secs: f64) -> Measured {
        let col = |f: fn(&TrialMetrics) -> f64| -> Stats {
            Stats::of(&trials.iter().map(f).collect::<Vec<_>>())
        };
        Measured {
            trials: trials.len() as u64,
            queries: col(|t| t.queries),
            time_units: col(|t| t.time_units),
            messages: col(|t| t.messages),
            message_bits: col(|t| t.message_bits),
            wall_clock_secs,
        }
    }
}

/// Runs `trials` simulations with seeds `base_seed + t` over
/// [`par::run_indexed`] and aggregates all four metrics.
///
/// Trial seeds and aggregation order are identical to a serial loop,
/// so the statistics are bit-identical for any thread count.
pub fn measure_par<R>(trials: u64, base_seed: u64, run: R) -> Measured
where
    R: Fn(u64) -> RunReport + Sync,
{
    #[expect(
        clippy::disallowed_types,
        reason = "a wall-clock reading for the report; no result depends on it"
    )]
    let started = Instant::now();
    let metrics = par::run_indexed(trials as usize, |t| {
        TrialMetrics::from(&run(base_seed + t as u64))
    });
    Measured::of(&metrics, started.elapsed().as_secs_f64())
}

/// One serialized row of experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment key (e.g. `"fig_multi_cycle"`); names the JSON file.
    pub experiment: String,
    /// Row label within the experiment (protocol, sweep point, …).
    pub label: String,
    /// Model parameters of the row.
    pub params: ExperimentParams,
    /// Number of trials aggregated.
    pub trials: u64,
    /// Oracle-query statistics (paper's Q, worst nonfaulty peer).
    pub queries: Stats,
    /// Virtual-time statistics.
    pub time_units: Stats,
    /// Message-count statistics.
    pub messages: Stats,
    /// Message-bit statistics.
    pub message_bits: Stats,
    /// Wall-clock seconds spent producing this record.
    pub wall_clock_secs: f64,
}

json_struct!(ToJson for ExperimentRecord {
    experiment, label, params, trials, queries, time_units, messages, message_bits, wall_clock_secs
});

impl ExperimentRecord {
    /// Builds a record from a measurement.
    pub fn new(
        experiment: &str,
        label: impl Into<String>,
        params: ExperimentParams,
        measured: Measured,
    ) -> Self {
        ExperimentRecord {
            experiment: experiment.to_string(),
            label: label.into(),
            params,
            trials: measured.trials,
            queries: measured.queries,
            time_units: measured.time_units,
            messages: measured.messages,
            message_bits: measured.message_bits,
            wall_clock_secs: measured.wall_clock_secs,
        }
    }
}

/// Collects [`ExperimentRecord`]s across experiments and writes them to
/// `BENCH_<experiment>.json` files.
#[derive(Debug, Default)]
pub struct MetricsSink {
    records: Vec<ExperimentRecord>,
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Appends one record.
    pub fn push(&mut self, record: ExperimentRecord) {
        self.records.push(record);
    }

    /// All records collected so far, in insertion order.
    pub fn records(&self) -> &[ExperimentRecord] {
        &self.records
    }

    /// Writes one `BENCH_<experiment>.json` per distinct experiment key
    /// into `dir` (created if missing). Each file holds a JSON array of
    /// that experiment's records in insertion order. Returns the paths
    /// written.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut experiments: Vec<&str> = Vec::new();
        for r in &self.records {
            if !experiments.contains(&r.experiment.as_str()) {
                experiments.push(&r.experiment);
            }
        }
        let mut paths = Vec::new();
        for exp in experiments {
            let rows = self
                .records
                .iter()
                .filter(|r| r.experiment == exp)
                .map(ToJson::to_json)
                .collect();
            let path = dir.join(format!("BENCH_{exp}.json"));
            let mut text = Value::Seq(rows).pretty();
            text.push('\n');
            std::fs::write(&path, text)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> ExperimentRecord {
        let trials = [
            TrialMetrics {
                queries: 3.0,
                time_units: 10.0,
                messages: 40.0,
                message_bits: 640.0,
            },
            TrialMetrics {
                queries: 5.0,
                time_units: 12.0,
                messages: 44.0,
                message_bits: 704.0,
            },
        ];
        ExperimentRecord::new(
            "fig_demo",
            "alg2 β=0.5",
            ExperimentParams::nkb(8192, 64, 16).with_a(1024),
            Measured::of(&trials, 0.25),
        )
    }

    #[test]
    fn record_aggregates_all_metrics() {
        let r = sample_record();
        assert_eq!(r.trials, 2);
        assert_eq!(r.queries.mean, 4.0);
        assert_eq!(r.messages.max, 44.0);
        assert_eq!(r.message_bits.min, 640.0);
        assert_eq!(r.time_units.count, 2);
    }

    /// `sample_record()` as a `BENCH_*.json` row: floats keep `.0`, two-space indent.
    const SAMPLE_ROW: &str = r#"  {
    "experiment": "fig_demo",
    "label": "alg2 β=0.5",
    "params": {
      "n": 8192,
      "k": 64,
      "b": 16,
      "a": 1024
    },
    "trials": 2,
    "queries": {
      "count": 2,
      "mean": 4.0,
      "std": 1.4142135623730951,
      "min": 3.0,
      "max": 5.0
    },
    "time_units": {
      "count": 2,
      "mean": 11.0,
      "std": 1.4142135623730951,
      "min": 10.0,
      "max": 12.0
    },
    "messages": {
      "count": 2,
      "mean": 42.0,
      "std": 2.8284271247461903,
      "min": 40.0,
      "max": 44.0
    },
    "message_bits": {
      "count": 2,
      "mean": 672.0,
      "std": 45.254833995939045,
      "min": 640.0,
      "max": 704.0
    },
    "wall_clock_secs": 0.25
  }"#;

    #[test]
    fn sink_groups_files_by_experiment() {
        let mut sink = MetricsSink::new();
        sink.push(sample_record());
        let mut other = sample_record();
        other.experiment = "fig_other".to_string();
        sink.push(other);
        sink.push(sample_record());
        let dir = std::env::temp_dir().join(format!("dr_metrics_test_{}", std::process::id()));
        let paths = sink.write_json(&dir).expect("write metrics");
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with("BENCH_fig_demo.json"));
        let demo = std::fs::read_to_string(&paths[0]).unwrap();
        assert_eq!(demo, format!("[\n{SAMPLE_ROW},\n{SAMPLE_ROW}\n]\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
