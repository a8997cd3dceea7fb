//! Oracle Data Collection pipelines: baseline vs Download-based (§4).
//!
//! Both pipelines read off-chain sources, aggregate per-node by median,
//! submit node reports to the on-chain [`Contract`](crate::Contract), and
//! publish the per-cell median — the difference is step (1):
//!
//! * **Baseline ODC** (Theorem 4.1): every node independently samples `q`
//!   sources and reads *all* their cells — `k·q·cells` value reads in
//!   total, with redundant reads of the same data by every node.
//! * **Download-based ODC** (Theorem 4.2): the nodes run one Download
//!   instance per source, sharing the read workload; each honest node
//!   ends up with *exactly* the source's array (for honest sources),
//!   at a per-source cost of `O(cells/k)` reads per node instead of
//!   `cells` — a ~`q·k/m`-fold total saving at equal (indeed stronger)
//!   output guarantees.

use crate::bridge::ValueSourceBits;
use crate::encode::{bits_to_values, values_to_bits, BITS_PER_VALUE};
use crate::median::median;
use crate::onchain::Contract;
use crate::source::SourceFleet;
use dr_core::{CachedSource, FaultModel, ModelParams, PeerId};
use dr_protocols::{CrashMultiDownload, TwoCycleDownload};
use dr_sim::{SilentAgent, SimBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Configuration of an oracle deployment.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Number of oracle nodes `k`.
    pub nodes: usize,
    /// Byzantine oracle nodes (must stay below `nodes/2` for the final
    /// median to be sound).
    pub byz_nodes: usize,
    /// Honest data sources.
    pub honest_sources: usize,
    /// Corrupt (static-lying) data sources.
    pub corrupt_sources: usize,
    /// Value cells per source.
    pub cells: usize,
    /// Ground-truth magnitude.
    pub truth_base: u64,
    /// Honest-source noise spread.
    pub spread: u64,
    /// Master seed.
    pub seed: u64,
}

impl OracleConfig {
    /// Total number of sources.
    pub fn sources(&self) -> usize {
        self.honest_sources + self.corrupt_sources
    }
}

/// Which Download protocol powers the Download-based pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownloadEngine {
    /// Algorithm 2 — appropriate when oracle nodes only crash.
    CrashMulti,
    /// The 2-cycle randomized protocol — tolerates Byzantine nodes
    /// (`β < 1/2`).
    TwoCycle,
}

/// Outcome of one ODC pipeline run.
#[derive(Debug, Clone)]
pub struct OdcOutcome {
    /// Values published on-chain, one per cell.
    pub published: Vec<u64>,
    /// Total source-read cost over honest nodes, in bits (one value read
    /// = 64 bits). This is the paper's per-node-attributed query measure
    /// summed over nodes, *before* cross-node amortization.
    pub total_read_bits: u64,
    /// Maximum read cost of any single honest node, in bits.
    pub max_node_read_bits: u64,
    /// Bits actually pulled from the data sources by the collection
    /// phase. For the baseline this equals [`OdcOutcome::total_read_bits`]
    /// (every node reads upstream directly); for the Download-based
    /// pipeline the nodes share one query admission plane per source, so
    /// redundant reads are served from cache and this is at most
    /// `sources × cells × 64` regardless of fleet size.
    pub upstream_read_bits: u64,
    /// Cells whose published value left the honest range (ODD
    /// violations).
    pub odd_violations: usize,
}

impl OdcOutcome {
    /// Whether the ODD specification held for every cell.
    pub fn odd_satisfied(&self) -> bool {
        self.odd_violations == 0
    }
}

fn garbage_report(cells: usize, salt: u64) -> Vec<u64> {
    (0..cells)
        .map(|c| (salt ^ c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect()
}

fn finalize(
    config: &OracleConfig,
    fleet: &SourceFleet,
    honest_reports: Vec<Vec<u64>>,
    total_read_bits: u64,
    max_node_read_bits: u64,
    upstream_read_bits: u64,
) -> OdcOutcome {
    let mut contract = Contract::new(config.cells);
    for report in honest_reports {
        contract.submit(report);
    }
    for i in 0..config.byz_nodes {
        contract.submit(garbage_report(config.cells, config.seed ^ i as u64));
    }
    let published = contract.publish();
    let odd_violations = (0..config.cells)
        .filter(|&c| {
            let (lo, hi) = fleet.honest_range(c);
            !(lo..=hi).contains(&published[c])
        })
        .count();
    OdcOutcome {
        published,
        total_read_bits,
        max_node_read_bits,
        upstream_read_bits,
        odd_violations,
    }
}

/// The baseline ODC pipeline (Theorem 4.1): each node samples `q` sources
/// and reads everything itself.
///
/// # Panics
///
/// Panics if `q` is zero or exceeds the number of sources.
pub fn run_baseline(config: &OracleConfig, q: usize) -> OdcOutcome {
    let fleet = SourceFleet::generate(
        config.honest_sources,
        config.corrupt_sources,
        config.cells,
        config.truth_base,
        config.spread,
        config.seed,
    );
    run_baseline_on(&fleet, config, q)
}

/// As [`run_baseline`] but over an explicit fleet (e.g. one containing
/// [`EquivocatingSource`](crate::EquivocatingSource)s).
///
/// # Panics
///
/// Panics if `q` is zero or exceeds the number of sources.
pub fn run_baseline_on(fleet: &SourceFleet, config: &OracleConfig, q: usize) -> OdcOutcome {
    let m = fleet.len();
    assert!(q >= 1 && q <= m, "q must be in 1..=sources");
    let honest_nodes = config.nodes - config.byz_nodes;
    let mut reports = Vec::with_capacity(honest_nodes);
    let mut total_read_bits = 0u64;
    let mut max_node_read_bits = 0u64;
    for node in 0..honest_nodes {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(100 + node as u64));
        // Sample q distinct sources.
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < q {
            let s = rng.gen_range(0..m);
            if !picked.contains(&s) {
                picked.push(s);
            }
        }
        let mut report = Vec::with_capacity(config.cells);
        for c in 0..config.cells {
            let readings: Vec<u64> = picked
                .iter()
                .map(|&s| fleet.source(s).read(PeerId(node), c))
                .collect();
            report.push(median(&readings));
        }
        let node_bits = (q * config.cells * BITS_PER_VALUE) as u64;
        total_read_bits += node_bits;
        max_node_read_bits = max_node_read_bits.max(node_bits);
        reports.push(report);
    }
    // Baseline nodes read upstream directly: no amortization.
    finalize(
        config,
        fleet,
        reports,
        total_read_bits,
        max_node_read_bits,
        total_read_bits,
    )
}

/// Runs one Download instance with peer queries routed through `cache`
/// (the per-source admission plane). Byzantine oracle nodes sit at the
/// top IDs and stay silent.
fn run_instance<P, F>(
    params: ModelParams,
    seed: u64,
    cache: Arc<CachedSource>,
    reference: dr_core::BitArray,
    byz_nodes: usize,
    factory: F,
) -> dr_sim::RunReport
where
    P: dr_core::Protocol + 'static,
    F: FnMut(PeerId) -> P + Send + 'static,
{
    let k = params.k();
    let mut builder = SimBuilder::new(params)
        .seed(seed)
        .source(cache, reference)
        .protocol(factory);
    for b in 0..byz_nodes {
        builder = builder.byzantine(PeerId(k - 1 - b), SilentAgent::new());
    }
    builder.build().run().expect("download run failed")
}

/// The Download-based ODC pipeline (Theorem 4.2): one Download instance
/// per source; every honest node learns every source's array exactly.
///
/// Peer queries flow through a per-source [`CachedSource`] (the query
/// admission plane), so the *attributed* per-node query cost stays the
/// paper's measure while the bits actually pulled from each data source
/// are amortized across the fleet — see
/// [`OdcOutcome::upstream_read_bits`].
///
/// # Panics
///
/// Panics if a Download run deadlocks (impossible for the chosen engines
/// within their fault regimes).
pub fn run_download_based(config: &OracleConfig, engine: DownloadEngine) -> OdcOutcome {
    let fleet = SourceFleet::generate(
        config.honest_sources,
        config.corrupt_sources,
        config.cells,
        config.truth_base,
        config.spread,
        config.seed,
    );
    let k = config.nodes;
    let n_bits = config.cells * BITS_PER_VALUE;
    let honest_nodes = k - config.byz_nodes;
    // Per honest node, per source, the decoded array.
    let mut per_node_views: Vec<Vec<Vec<u64>>> = vec![Vec::new(); honest_nodes];
    let mut read_bits_per_node = vec![0u64; honest_nodes];
    let mut upstream_read_bits = 0u64;
    for s in 0..fleet.len() {
        // Reference copy for the simulator's output verification
        // (evaluation-only; not part of the collection cost).
        let values: Vec<u64> = (0..config.cells)
            .map(|c| fleet.source(s).read(PeerId(0), c))
            .collect();
        let reference = values_to_bits(&values);
        // All k nodes' queries route through one admission plane per
        // source: each cell leaves the data source at most once.
        let cache = Arc::new(CachedSource::new(
            ValueSourceBits::new(fleet.source_arc(s), PeerId(0)),
            k.min(8),
        ));
        let params = ModelParams::builder(n_bits, k)
            .faults(FaultModel::Byzantine, config.byz_nodes)
            .build()
            .expect("valid oracle params");
        let seed = config.seed.wrapping_add(1000 + s as u64);
        let byz = config.byz_nodes;
        let report = match engine {
            DownloadEngine::CrashMulti => run_instance(
                params,
                seed,
                Arc::clone(&cache),
                reference,
                byz,
                move |_| CrashMultiDownload::new(n_bits, k, byz),
            ),
            DownloadEngine::TwoCycle => run_instance(
                params,
                seed,
                Arc::clone(&cache),
                reference,
                byz,
                move |_| TwoCycleDownload::new(n_bits, k, byz),
            ),
        };
        upstream_read_bits += cache.stats().upstream_bits;
        for node in 0..honest_nodes {
            let bits = report.outputs[node]
                .as_ref()
                .expect("honest node terminated");
            per_node_views[node].push(bits_to_values(bits));
            read_bits_per_node[node] += report.query_counts[node];
        }
    }
    // Node reports: per-cell median across its per-source views.
    let reports: Vec<Vec<u64>> = per_node_views
        .into_iter()
        .map(|views| {
            (0..config.cells)
                .map(|c| {
                    let col: Vec<u64> = views.iter().map(|v| v[c]).collect();
                    median(&col)
                })
                .collect()
        })
        .collect();
    let total = read_bits_per_node.iter().sum();
    let max = read_bits_per_node.iter().copied().max().unwrap_or(0);
    finalize(config, &fleet, reports, total, max, upstream_read_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> OracleConfig {
        OracleConfig {
            nodes: 16,
            byz_nodes: 3,
            honest_sources: 5,
            corrupt_sources: 2,
            cells: 8,
            truth_base: 1_000_000,
            spread: 100,
            seed: 42,
        }
    }

    #[test]
    fn baseline_with_full_sampling_is_sound_but_expensive() {
        let cfg = config();
        let outcome = run_baseline(&cfg, cfg.sources());
        assert!(outcome.odd_satisfied(), "{outcome:?}");
        // Every honest node reads every source completely.
        assert_eq!(
            outcome.total_read_bits,
            ((cfg.nodes - cfg.byz_nodes) * cfg.sources() * cfg.cells * 64) as u64
        );
    }

    #[test]
    fn download_based_crash_engine_is_sound() {
        let mut cfg = config();
        cfg.byz_nodes = 0;
        let outcome = run_download_based(&cfg, DownloadEngine::CrashMulti);
        assert!(outcome.odd_satisfied(), "{outcome:?}");
    }

    #[test]
    fn download_based_two_cycle_is_sound_with_byzantine_nodes() {
        let cfg = config();
        let outcome = run_download_based(&cfg, DownloadEngine::TwoCycle);
        assert!(outcome.odd_satisfied(), "{outcome:?}");
    }

    #[test]
    fn download_based_is_cheaper_per_node() {
        let mut cfg = config();
        cfg.byz_nodes = 0;
        let baseline = run_baseline(&cfg, cfg.sources());
        let download = run_download_based(&cfg, DownloadEngine::CrashMulti);
        assert!(
            download.max_node_read_bits < baseline.max_node_read_bits,
            "download {} vs baseline {}",
            download.max_node_read_bits,
            baseline.max_node_read_bits
        );
    }

    #[test]
    fn download_based_upstream_reads_amortized() {
        // The two-cycle engine issues redundant queries across nodes
        // (attributed Q > n per source), but the admission plane pulls
        // each cell from the data source at most once.
        let cfg = config();
        let outcome = run_download_based(&cfg, DownloadEngine::TwoCycle);
        let per_source_bits = (cfg.cells * BITS_PER_VALUE) as u64;
        let ceiling = cfg.sources() as u64 * per_source_bits;
        assert!(
            outcome.upstream_read_bits <= ceiling,
            "upstream {} must not exceed one full read per source ({ceiling})",
            outcome.upstream_read_bits
        );
        assert!(
            outcome.upstream_read_bits < outcome.total_read_bits,
            "amortization must beat summed attributed cost: upstream {} vs attributed {}",
            outcome.upstream_read_bits,
            outcome.total_read_bits
        );
        // Baseline has nothing to amortize.
        let baseline = run_baseline(&cfg, cfg.sources());
        assert_eq!(baseline.upstream_read_bits, baseline.total_read_bits);
    }

    #[test]
    fn small_samples_risk_odd_violations() {
        // With q = 1 a node can land on a corrupt source; across seeds we
        // should observe at least one ODD violation — the robustness gap
        // the Download-based pipeline closes.
        let mut violated = false;
        for seed in 0..20 {
            let mut cfg = config();
            cfg.seed = seed;
            cfg.byz_nodes = 7; // near-majority garbage reports
            let outcome = run_baseline(&cfg, 1);
            violated |= !outcome.odd_satisfied();
        }
        assert!(violated, "expected q=1 sampling to violate ODD somewhere");
    }
}
