//! E8 — Theorems 4.1 / 4.2: baseline vs Download-based Oracle Data
//! Collection.
//!
//! The §4 application: total and per-node source reads for the sampling
//! baseline (at several sample sizes `q`) against the Download-based
//! pipeline, plus the ODD honest-range check and the robustness gap of
//! small samples. The E8b seed sweeps fan across the worker pool.

use crate::metrics::{ExperimentParams, ExperimentRecord, Measured, MetricsSink};
use crate::par;
use crate::table::{f, Table};
use dr_oracle::{run_baseline, run_download_based, DownloadEngine, OracleConfig};

const EXPERIMENT: &str = "oracle";

fn config(seed: u64) -> OracleConfig {
    // k must be large enough for the 2-cycle sampler to beat naive
    // (p = (k − 2b)/(2τ) ≥ 2); 128 nodes with 12 Byzantine gives p ≈ 4.
    OracleConfig {
        nodes: 128,
        byz_nodes: 12,
        honest_sources: 5,
        corrupt_sources: 2,
        cells: 128,
        truth_base: 1_000_000,
        spread: 200,
        seed,
    }
}

/// Runs the oracle ODC comparison, recording per-pipeline metrics. The
/// ODC pipelines meter source reads rather than simulator messages, so
/// records carry the total read bits as the query statistic.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let mut t = Table::new(
        "E8a — ODC cost: baseline (Thm 4.1) vs Download-based (Thm 4.2); 128 nodes (12 byz), 7 sources (2 corrupt), 128 cells",
        &["pipeline", "total read bits", "max node read bits", "ODD ok"],
    );
    let cfg = config(42);
    let m = cfg.sources();
    let record = |sink: &mut MetricsSink, label: String, byz: usize, total: u64| {
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            label,
            ExperimentParams::nkb(cfg.cells, cfg.nodes, byz),
            Measured::queries_only(&[total as f64], 0.0),
        ));
    };
    for q in [1usize, 3, m] {
        let out = run_baseline(&cfg, q);
        t.row(vec![
            format!("baseline q={q}"),
            out.total_read_bits.to_string(),
            out.max_node_read_bits.to_string(),
            out.odd_satisfied().to_string(),
        ]);
        record(
            sink,
            format!("E8a baseline q={q}"),
            cfg.byz_nodes,
            out.total_read_bits,
        );
    }
    let dl = run_download_based(&cfg, DownloadEngine::TwoCycle);
    t.row(vec![
        "download (2-cycle)".into(),
        dl.total_read_bits.to_string(),
        dl.max_node_read_bits.to_string(),
        dl.odd_satisfied().to_string(),
    ]);
    record(
        sink,
        "E8a download (2-cycle)".into(),
        cfg.byz_nodes,
        dl.total_read_bits,
    );
    let mut crash_cfg = cfg;
    crash_cfg.byz_nodes = 0;
    let dlc = run_download_based(&crash_cfg, DownloadEngine::CrashMulti);
    t.row(vec![
        "download (Alg 2, crash nodes)".into(),
        dlc.total_read_bits.to_string(),
        dlc.max_node_read_bits.to_string(),
        dlc.odd_satisfied().to_string(),
    ]);
    record(
        sink,
        "E8a download (Alg 2, crash nodes)".into(),
        0,
        dlc.total_read_bits,
    );

    // Robustness: ODD violation rate of small samples across seeds.
    let mut rob = Table::new(
        "E8b — ODD violation rate over 20 seeds (near-majority garbage node reports)",
        &["pipeline", "violation rate"],
    );
    let small = |seed| OracleConfig {
        nodes: 16,
        byz_nodes: 7,
        honest_sources: 5,
        corrupt_sources: 2,
        cells: 32,
        truth_base: 1_000_000,
        spread: 200,
        seed,
    };
    for q in [1usize, 3] {
        let ok = par::run_indexed(20, move |seed| {
            run_baseline(&small(seed as u64), q).odd_satisfied()
        });
        let bad = ok.iter().filter(|&&s| !s).count();
        rob.row(vec![format!("baseline q={q}"), f(bad as f64 / 20.0)]);
    }
    {
        let ok = par::run_indexed(20, move |seed| {
            run_download_based(&small(seed as u64), DownloadEngine::TwoCycle).odd_satisfied()
        });
        let bad = ok.iter().filter(|&&s| !s).count();
        rob.row(vec!["download (2-cycle)".into(), f(bad as f64 / 20.0)]);
    }
    vec![t, rob]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn download_based_is_cheaper_and_sound() {
        let cfg = config(1);
        let base = run_baseline(&cfg, cfg.sources());
        let dl = run_download_based(&cfg, DownloadEngine::TwoCycle);
        assert!(dl.odd_satisfied());
        assert!(dl.max_node_read_bits < base.max_node_read_bits);
    }
}
