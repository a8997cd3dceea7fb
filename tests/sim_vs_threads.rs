//! Cross-backend agreement: the simulator and the thread runtime drive
//! the same protocol state machines; correctness and query bounds must
//! hold in both worlds, and where Q does not depend on the schedule the
//! two must report the same per-peer counts.

use dr_download::core::{FaultModel, ModelParams, PeerId, Protocol};
use dr_download::protocols::{
    BalancedDownload, CrashMultiDownload, NaiveDownload, SingleCrashDownload,
};
use dr_download::runtime::{run_threaded, CrashSpec, RuntimeConfig};
use dr_download::sim::{CrashPlan, SimBuilder, StandardAdversary, UniformDelay};

fn crash_params(n: usize, k: usize, b: usize) -> ModelParams {
    ModelParams::builder(n, k)
        .faults(FaultModel::Crash, b)
        .build()
        .unwrap()
}

/// Runs `make` fault-free in both backends on the same input and returns
/// (simulator, threads) per-peer query counts.
fn query_counts_in_both_backends<P, F>(n: usize, k: usize, make: F) -> (Vec<u64>, Vec<u64>)
where
    P: Protocol + 'static,
    F: Fn(PeerId) -> P + Clone + Send + Sync + 'static,
{
    let params = ModelParams::fault_free(n, k).unwrap();
    let threads = run_threaded(RuntimeConfig::new(params, 3), make.clone()).unwrap();
    threads.verify(&[]).unwrap();
    let sim = SimBuilder::new(params)
        .seed(3)
        .input(threads.input.clone())
        .protocol(make)
        .adversary(StandardAdversary::new(
            UniformDelay::new(),
            CrashPlan::none(),
        ))
        .build()
        .run()
        .unwrap();
    sim.verify_downloads(&threads.input).unwrap();
    (sim.query_counts, threads.query_counts)
}

#[test]
fn both_backends_report_the_same_per_peer_q() {
    // Schedule-independent Q: every peer reads all n bits, or exactly its
    // own balanced share.
    let (sim, threads) = query_counts_in_both_backends(300, 4, |_| NaiveDownload::new());
    assert_eq!(sim, threads);
    assert_eq!(sim, vec![300; 4]);
    let (n, k) = (1000, 7);
    let (sim, threads) = query_counts_in_both_backends(n, k, move |_| BalancedDownload::new(n, k));
    assert_eq!(sim, threads);
    assert_eq!(sim.iter().sum::<u64>(), n as u64);
}

#[test]
fn crash_multi_query_bound_holds_in_both_backends() {
    let (n, k, b) = (512usize, 8usize, 3usize);
    let bound =
        ((n / k) as f64 * (1.0 / (1.0 - b as f64 / k as f64)) + (n / k) as f64 + 16.0) as u64;

    // Simulator.
    let sim = SimBuilder::new(crash_params(n, k, b))
        .seed(5)
        .protocol(move |_| CrashMultiDownload::new(n, k, b))
        .adversary(StandardAdversary::new(
            UniformDelay::new(),
            CrashPlan::before_event((0..b).map(PeerId), 1),
        ))
        .build();
    let input = sim.input().clone();
    let sim_report = sim.run().unwrap();
    sim_report.verify_downloads(&input).unwrap();
    assert!(
        sim_report.max_nonfaulty_queries <= bound,
        "sim Q = {} > {bound}",
        sim_report.max_nonfaulty_queries
    );

    // Threads.
    let config = RuntimeConfig::new(crash_params(n, k, b), 5)
        .with_crash(CrashSpec {
            peer: PeerId(0),
            after_events: 1,
        })
        .with_crash(CrashSpec {
            peer: PeerId(1),
            after_events: 1,
        });
    let thread_report = run_threaded(config, move |_| CrashMultiDownload::new(n, k, b)).unwrap();
    thread_report.verify(&[PeerId(0), PeerId(1)]).unwrap();
    assert!(
        thread_report.max_honest_queries <= bound,
        "threads Q = {} > {bound}",
        thread_report.max_honest_queries
    );
}

#[test]
fn algorithm_one_works_in_both_backends() {
    let (n, k) = (200usize, 5usize);
    // Simulator with crash.
    let sim = SimBuilder::new(crash_params(n, k, 1))
        .seed(6)
        .protocol(move |_| SingleCrashDownload::new(n, k))
        .adversary(StandardAdversary::new(
            UniformDelay::new(),
            CrashPlan::before_event([PeerId(4)], 2),
        ))
        .build();
    let input = sim.input().clone();
    sim.run().unwrap().verify_downloads(&input).unwrap();
    // Threads with crash.
    let config = RuntimeConfig::new(crash_params(n, k, 1), 6).with_crash(CrashSpec {
        peer: PeerId(4),
        after_events: 2,
    });
    let report = run_threaded(config, move |_| SingleCrashDownload::new(n, k)).unwrap();
    report.verify(&[PeerId(4)]).unwrap();
}

#[test]
fn two_cycle_randomized_under_threads() {
    // The randomized protocol's correctness must survive real scheduler
    // nondeterminism, not just simulated schedules. β budget reserved but
    // no faults injected (the thread runtime models crash faults only).
    use dr_download::protocols::TwoCycleDownload;
    let (n, k, b) = (1usize << 12, 96usize, 8usize);
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Byzantine, b)
        .build()
        .unwrap();
    let config = RuntimeConfig::new(params, 11);
    let report = run_threaded(config, move |_| TwoCycleDownload::new(n, k, b)).unwrap();
    report.verify(&[]).unwrap();
    assert!(
        report.max_honest_queries < n as u64,
        "sampling must beat naive under threads too"
    );
}

#[test]
fn committee_under_threads_with_crashes() {
    use dr_download::protocols::CommitteeDownload;
    let (n, k, t) = (240usize, 8usize, 2usize);
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Byzantine, t)
        .build()
        .unwrap();
    // Crash-style Byzantine behaviour: two peers stop before starting.
    let config = RuntimeConfig::new(params, 12)
        .with_crash(CrashSpec {
            peer: PeerId(1),
            after_events: 0,
        })
        .with_crash(CrashSpec {
            peer: PeerId(5),
            after_events: 0,
        });
    let report = run_threaded(config, move |_| CommitteeDownload::new(n, k, t)).unwrap();
    report.verify(&[PeerId(1), PeerId(5)]).unwrap();
}
