//! Bounded model checking: enumerate *every* message-delivery order of
//! tiny instances and check the Download specification on each.
//!
//! A pass here means the protocol is correct under every asynchronous
//! schedule of the instance (for the given crash pattern) — the same
//! "for every execution" quantifier the paper's theorems carry.

use dr_download::core::{BitArray, PeerId};
use dr_download::protocols::{CommitteeDownload, CrashMultiDownload, SingleCrashDownload};
use dr_download::sim::explore::{explore, ExploreConfig};

fn tiny_input(n: usize) -> BitArray {
    BitArray::from_fn(n, |i| (i * 7 + 3) % 5 < 2)
}

#[test]
fn algorithm_one_is_schedule_proof_without_crash() {
    let n = 6;
    let k = 3;
    let config = ExploreConfig {
        max_schedules: 60_000,
        ..ExploreConfig::new(k, tiny_input(n))
    };
    let report = explore(&config, move |_| SingleCrashDownload::new(n, k)).unwrap();
    assert!(
        report.counterexample.is_none(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.schedules > 0);
}

#[test]
fn algorithm_one_is_schedule_proof_under_each_crash() {
    let n = 6;
    let k = 3;
    for victim in 0..k {
        let config = ExploreConfig {
            max_schedules: 60_000,
            ..ExploreConfig::new(k, tiny_input(n)).with_crashed(vec![PeerId(victim)])
        };
        let report = explore(&config, move |_| SingleCrashDownload::new(n, k)).unwrap();
        assert!(
            report.counterexample.is_none(),
            "victim p{victim}: {:?}",
            report.counterexample
        );
    }
}

#[test]
fn algorithm_two_is_schedule_proof_under_each_crash() {
    let n = 6;
    let k = 3;
    let b = 1;
    for victim in 0..k {
        let config = ExploreConfig {
            max_schedules: 40_000,
            ..ExploreConfig::new(k, tiny_input(n)).with_crashed(vec![PeerId(victim)])
        };
        let report = explore(&config, move |_| CrashMultiDownload::new(n, k, b)).unwrap();
        assert!(
            report.counterexample.is_none(),
            "victim p{victim}: {:?}",
            report.counterexample
        );
        assert!(report.schedules > 0);
    }
}

#[test]
fn algorithm_two_is_schedule_proof_with_two_crashes() {
    let n = 4;
    let k = 4;
    let b = 2;
    let config = ExploreConfig {
        max_schedules: 20_000,
        ..ExploreConfig::new(k, tiny_input(n)).with_crashed(vec![PeerId(0), PeerId(3)])
    };
    let report = explore(&config, move |_| CrashMultiDownload::new(n, k, b)).unwrap();
    assert!(
        report.counterexample.is_none(),
        "counterexample: {:?}",
        report.counterexample
    );
}

#[test]
fn committee_is_schedule_proof_in_its_regime() {
    // k = 3, t = 1: committees of size 3 (everyone), accept on 2 votes.
    // No Byzantine instantiated; exploration covers delivery orders.
    let n = 4;
    let k = 3;
    let config = ExploreConfig {
        max_schedules: 60_000,
        ..ExploreConfig::new(k, tiny_input(n))
    };
    let report = explore(&config, move |_| CommitteeDownload::new(n, k, 1)).unwrap();
    assert!(
        report.counterexample.is_none(),
        "counterexample: {:?}",
        report.counterexample
    );
    assert!(report.exhaustive, "should finish exhaustively at this size");
}

/// (protocol, n, k, crashed, schedule budget)
type Instance = (&'static str, usize, usize, &'static [usize], u64);

#[test]
fn schedule_counts_pin_the_exploration_tree() {
    // Exact counts, not just verdicts: a change to what the explorer
    // treats as one schedule, or to which held messages it may deliver,
    // moves them. The first rows are E12's; the rest include `dr explore`
    // instances (Algorithm 2 there uses b = max(1, crashes)).
    let rows: [(Instance, (u64, bool)); 18] = [
        (("alg1", 6, 3, &[], 60_000), (60_000, false)),
        (("alg1", 6, 3, &[0], 60_000), (120, true)),
        (("alg1", 6, 3, &[1], 60_000), (120, true)),
        (("alg1", 6, 3, &[2], 60_000), (120, true)),
        (("alg2", 6, 3, &[0], 60_000), (100, true)),
        (("alg2", 6, 3, &[1], 60_000), (100, true)),
        (("alg2", 6, 3, &[2], 60_000), (100, true)),
        (("committee", 4, 3, &[], 60_000), (1, true)),
        (("alg2", 4, 4, &[0, 3], 20_000), (10_940, true)),
        (("alg1", 5, 3, &[1], 60_000), (120, true)),
        (("alg1", 3, 3, &[2], 60_000), (72, true)),
        (("alg1", 1, 3, &[0], 60_000), (72, true)),
        (("alg2", 2, 3, &[1], 60_000), (20, true)),
        (("alg2", 4, 3, &[0], 60_000), (100, true)),
        (("alg2", 7, 3, &[2], 60_000), (100, true)),
        (("alg2", 5, 4, &[1, 2], 60_000), (100, true)),
        (("alg2", 3, 2, &[1], 60_000), (1, true)),
        (("alg2", 4, 3, &[], 5_000), (5_000, false)),
    ];
    for ((protocol, n, k, crashed, budget), expected) in rows {
        let b = crashed.len().max(1).min(k - 1);
        let config = ExploreConfig {
            max_schedules: budget,
            ..ExploreConfig::new(k, tiny_input(n))
                .with_crashed(crashed.iter().map(|&p| PeerId(p)).collect())
        };
        let report = match protocol {
            "alg1" => explore(&config, move |_| SingleCrashDownload::new(n, k)),
            "alg2" => explore(&config, move |_| CrashMultiDownload::new(n, k, b)),
            _ => explore(&config, move |_| CommitteeDownload::new(n, k, 1)),
        }
        .unwrap();
        let instance = format!("{protocol} n={n} k={k} crashed={crashed:?}");
        assert!(report.counterexample.is_none(), "{instance}: {report:?}");
        assert_eq!(
            (report.schedules, report.exhaustive),
            expected,
            "{instance}"
        );
    }
}
