//! The paper's motivating application (§4): a blockchain oracle network
//! pulling a price feed from off-chain sources.
//!
//! Compares the classical sample-and-median Oracle Data Collection
//! (Theorem 4.1) against the Download-based pipeline (Theorem 4.2) on the
//! same fleet: 128 oracle nodes (12 Byzantine), 7 data sources (2 lying),
//! a 128-cell feed.
//!
//! ```sh
//! cargo run --release --example blockchain_oracle
//! ```

use dr_download::oracle::{run_baseline, run_download_based, DownloadEngine, OracleConfig};

fn main() {
    let config = OracleConfig {
        nodes: 128,
        byz_nodes: 12,
        honest_sources: 5,
        corrupt_sources: 2,
        cells: 128,
        truth_base: 1_000_000,
        spread: 250,
        seed: 7,
    };
    println!(
        "oracle network: {} nodes ({} byzantine), {} sources ({} corrupt), {} cells\n",
        config.nodes,
        config.byz_nodes,
        config.sources(),
        config.corrupt_sources,
        config.cells
    );

    let baseline = run_baseline(&config, config.sources());
    println!("baseline ODC (every node reads every source — Thm 4.1):");
    println!("  total source reads : {} bits", baseline.total_read_bits);
    println!(
        "  max per node       : {} bits",
        baseline.max_node_read_bits
    );
    println!("  ODD honest-range ok: {}\n", baseline.odd_satisfied());

    let download =
        run_download_based(&config, DownloadEngine::TwoCycle).expect("every download finishes");
    println!("download-based ODC (one 2-cycle Download per source — Thm 4.2):");
    println!("  total source reads : {} bits", download.total_read_bits);
    println!(
        "  max per node       : {} bits",
        download.max_node_read_bits
    );
    println!("  ODD honest-range ok: {}", download.odd_satisfied());
    println!(
        "  saving             : {:.1}x total, {:.1}x per node",
        baseline.total_read_bits as f64 / download.total_read_bits as f64,
        baseline.max_node_read_bits as f64 / download.max_node_read_bits as f64
    );

    assert!(baseline.odd_satisfied() && download.odd_satisfied());
    println!(
        "\npublished feed head: {:?} …",
        &download.published[..4.min(download.published.len())]
    );
}
