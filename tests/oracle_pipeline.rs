//! Integration tests of the §4 oracle pipeline across fault mixes.

use dr_download::oracle::{
    in_honest_range, run_baseline, run_download_based, DownloadEngine, OracleConfig, SourceFleet,
};

fn config(seed: u64) -> OracleConfig {
    OracleConfig {
        nodes: 16,
        byz_nodes: 3,
        honest_sources: 5,
        corrupt_sources: 2,
        cells: 16,
        truth_base: 500_000,
        spread: 100,
        seed,
    }
}

#[test]
fn both_pipelines_publish_in_honest_range() {
    for seed in 0..5 {
        let cfg = config(seed);
        let base = run_baseline(&cfg, cfg.sources());
        assert!(base.odd_satisfied(), "baseline seed {seed}: {base:?}");
        let dl = run_download_based(&cfg, DownloadEngine::TwoCycle).unwrap();
        assert!(dl.odd_satisfied(), "download seed {seed}: {dl:?}");
    }
}

#[test]
fn published_values_track_ground_truth() {
    let cfg = config(9);
    let fleet = SourceFleet::generate(
        cfg.honest_sources,
        cfg.corrupt_sources,
        cfg.cells,
        cfg.truth_base,
        cfg.spread,
        cfg.seed,
    );
    let dl = run_download_based(&cfg, DownloadEngine::CrashMulti).unwrap();
    for (c, &v) in dl.published.iter().enumerate() {
        let t = fleet.truth()[c];
        assert!(
            v.abs_diff(t) <= 2 * cfg.spread,
            "cell {c}: published {v} vs truth {t}"
        );
    }
}

#[test]
fn honest_range_helper_agrees_with_outcome() {
    let cfg = config(3);
    let fleet = SourceFleet::generate(
        cfg.honest_sources,
        cfg.corrupt_sources,
        cfg.cells,
        cfg.truth_base,
        cfg.spread,
        cfg.seed,
    );
    let out = run_baseline(&cfg, cfg.sources());
    for c in 0..cfg.cells {
        let (lo, hi) = fleet.honest_range(c);
        let honest = [lo, hi];
        assert_eq!(
            in_honest_range(out.published[c], &honest),
            (lo..=hi).contains(&out.published[c])
        );
    }
}

#[test]
fn crash_engine_and_two_cycle_agree_on_published_values() {
    // With static sources and no Byzantine nodes, both engines deliver
    // the exact arrays, so the final published values must coincide.
    let mut cfg = config(4);
    cfg.byz_nodes = 0;
    let a = run_download_based(&cfg, DownloadEngine::CrashMulti).unwrap();
    let b = run_download_based(&cfg, DownloadEngine::TwoCycle).unwrap();
    assert_eq!(a.published, b.published);
}

#[test]
fn more_corrupt_sources_than_honest_breaks_odd() {
    // Sanity check of the model limits: with a corrupt majority of
    // sources the median can leave the honest range.
    // Corrupt sources alternate low/high manipulation, so a *directional*
    // majority needs the low-ballers alone to reach the median position:
    // with 1 honest and 7 corrupt (4 low, 3 high) the lower median of the
    // 8 per-cell values is a manipulated one.
    let cfg = OracleConfig {
        nodes: 8,
        byz_nodes: 0,
        honest_sources: 1,
        corrupt_sources: 7,
        cells: 8,
        truth_base: 500_000,
        spread: 10,
        seed: 11,
    };
    let out = run_download_based(&cfg, DownloadEngine::CrashMulti).unwrap();
    assert!(!out.odd_satisfied());
}

#[test]
fn equivocating_sources_are_absorbed_by_full_sampling() {
    // An equivocating minority: every reader sees different garbage from
    // those sources, but full sampling + per-node median keeps every node
    // report — and the published value — inside the honest range.
    use dr_download::oracle::{run_baseline_on, SourceFleet};
    let cfg = config(21);
    let fleet = SourceFleet::generate(5, 0, cfg.cells, cfg.truth_base, cfg.spread, cfg.seed)
        .with_equivocators(2, 0xfeed);
    let out = run_baseline_on(&fleet, &cfg, fleet.len());
    assert!(out.odd_satisfied(), "{out:?}");
}
