//! Golden same-seed fingerprints, recorded against the simulator as it
//! stood *before* the zero-copy/slab hot-loop rewrite.
//!
//! These constants pin the exact observable behaviour of every protocol
//! family — outputs, fault sets, per-peer query counts, Q/T/M metrics,
//! event counts, quiescence releases (everything
//! [`RunReport::fingerprint`] digests) — for a fixed grid of seeds. The
//! hot-loop rewrite (shared-buffer `BitArray` payloads, slab-backed event
//! queue, incremental termination counter) claims *bit-identical*
//! executions; any accidental behaviour change, however subtle, lands
//! here as a fingerprint mismatch against pre-rewrite reality rather
//! than against the rewrite itself.
//!
//! To regenerate after an *intentional* semantic change (never for a
//! perf-only change):
//!
//! ```text
//! cargo test -p dr-protocols --test golden_fingerprints -- --ignored print_goldens --nocapture
//! ```

use dr_core::{FaultModel, ModelParams, PeerId, ProtocolMessage, SegmentId, Segmentation};
use dr_protocols::byz::strategies::{CollusionGroup, Equivocator, RandomNoise};
use dr_protocols::{
    CommitteeDownload, CrashMultiDownload, MultiCycleDownload, SingleCrashDownload,
    TwoCycleDownload, TwoCyclePlan,
};
use dr_sim::{
    CrashPlan, RecordingAdversary, ReplayAdversary, RunReport, SilentAgent, SimBuilder,
    StandardAdversary, UniformDelay,
};

/// The seeds every golden case is recorded under.
const SEEDS: [u64; 3] = [1, 42, 0xD0DD];

/// The per-run observables a golden row pins: the full fingerprint plus
/// the headline metrics (Q, T, M) spelled out so a mismatch names the
/// deviating quantity instead of only the digest.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    fingerprint: u64,
    q: u64,
    t_ticks: u64,
    msgs: u64,
    msg_bits: u64,
    events: u64,
    releases: u64,
}

fn golden_of(report: &RunReport) -> Golden {
    Golden {
        fingerprint: report.fingerprint(),
        q: report.max_nonfaulty_queries,
        t_ticks: report.virtual_time_ticks,
        msgs: report.messages_sent,
        msg_bits: report.message_bits,
        events: report.events,
        releases: report.quiescence_releases,
    }
}

fn crash_params(n: usize, k: usize, b: usize) -> ModelParams {
    ModelParams::builder(n, k)
        .faults(FaultModel::Crash, b)
        .message_bits(1024)
        .build()
        .expect("valid crash params")
}

fn byz_params(n: usize, k: usize, b: usize) -> ModelParams {
    ModelParams::builder(n, k)
        .faults(FaultModel::Byzantine, b)
        .build()
        .expect("valid byz params")
}

fn verified(sim: dr_sim::Simulation<impl ProtocolMessage>) -> RunReport {
    let input = sim.input().clone();
    let report = sim.run().expect("run must terminate");
    report
        .verify_downloads(&input)
        .expect("download specification violated");
    report
}

/// Algorithm 1 (single-crash) with peer 1 felled mid-run.
fn run_crash_single(seed: u64) -> RunReport {
    let (n, k) = (60, 4);
    let plan = CrashPlan::before_event([PeerId(1)], seed % 4);
    let sim = SimBuilder::new(crash_params(n, k, 1))
        .seed(seed)
        .protocol(move |_| SingleCrashDownload::new(n, k))
        .adversary(StandardAdversary::new(UniformDelay::new(), plan))
        .build();
    verified(sim)
}

/// Algorithm 2 (multi-crash) with 3 of budget 4 crashed.
fn run_crash_multi(seed: u64) -> RunReport {
    let (n, k, b, crashes) = (128, 8, 4, 3);
    let victims: Vec<PeerId> = (0..crashes).map(PeerId).collect();
    let plan = CrashPlan::before_event(victims, 1 + seed % 3);
    let sim = SimBuilder::new(crash_params(n, k, b))
        .seed(seed)
        .protocol(move |_| CrashMultiDownload::new(n, k, b))
        .adversary(StandardAdversary::new(UniformDelay::new(), plan))
        .build();
    verified(sim)
}

/// Deterministic committee protocol with one silent Byzantine peer.
fn run_committee(seed: u64) -> RunReport {
    let (n, k, t) = (48, 7, 2);
    let builder = SimBuilder::new(byz_params(n, k, t))
        .seed(seed)
        .protocol(move |_| CommitteeDownload::new(n, k, t))
        .byzantine(PeerId(0), SilentAgent::new());
    verified(builder.build())
}

/// 2-cycle protocol in the sampled regime with a mixed Byzantine slate
/// (equivocator, colluders, noise) targeting the chosen segmentation.
fn run_two_cycle(seed: u64) -> RunReport {
    let (n, k, b) = (4096, 96, 6);
    let builder = SimBuilder::new(byz_params(n, k, b))
        .seed(seed)
        .protocol(move |_| TwoCycleDownload::new(n, k, b));
    let (seg, tau) = match TwoCyclePlan::choose(n, k, b) {
        TwoCyclePlan::Sampled {
            segments,
            threshold,
        } => (Segmentation::new(n, segments), threshold),
        TwoCyclePlan::Naive => panic!("golden grid must exercise the sampled regime"),
    };
    let mut builder = builder;
    for i in 0..b {
        builder = match i % 3 {
            0 => builder.byzantine(PeerId(i), Equivocator::new(seg, SegmentId(i % seg.count()))),
            1 => {
                let group = i / tau.max(1);
                builder.byzantine(
                    PeerId(i),
                    CollusionGroup::new(seg, SegmentId(group % seg.count()), group as u64),
                )
            }
            _ => builder.byzantine(PeerId(i), RandomNoise::new(seg)),
        };
    }
    verified(builder.build())
}

/// Multi-cycle protocol with a silent Byzantine slate.
fn run_multi_cycle(seed: u64) -> RunReport {
    let (n, k, b) = (4096, 96, 8);
    let mut builder = SimBuilder::new(byz_params(n, k, b))
        .seed(seed)
        .protocol(move |_| MultiCycleDownload::new(n, k, b));
    for i in 0..b {
        builder = builder.byzantine(PeerId(i), SilentAgent::new());
    }
    verified(builder.build())
}

/// A seeded single-run driver for one golden case.
type CaseRunner = fn(u64) -> RunReport;

/// The golden grid: (case name, runner).
fn cases() -> Vec<(&'static str, CaseRunner)> {
    vec![
        ("crash_single", run_crash_single as CaseRunner),
        ("crash_multi", run_crash_multi),
        ("committee", run_committee),
        ("two_cycle", run_two_cycle),
        ("multi_cycle", run_multi_cycle),
    ]
}

/// Recorded pre-rewrite values, one row per (case, seed), in `cases()` ×
/// `SEEDS` order. Regenerate only for intentional semantic changes (see
/// module docs).
const GOLDENS: &[(&str, u64, Golden)] = &[
    (
        "crash_single",
        1,
        Golden {
            fingerprint: 0x9386ce27c91b0216,
            q: 15,
            t_ticks: 1240,
            msgs: 32,
            msg_bits: 1015,
            events: 15,
            releases: 0,
        },
    ),
    (
        "crash_single",
        42,
        Golden {
            fingerprint: 0x73198e1f08b5058d,
            q: 15,
            t_ticks: 1426,
            msgs: 31,
            msg_bits: 999,
            events: 15,
            releases: 0,
        },
    ),
    (
        "crash_single",
        53469,
        Golden {
            fingerprint: 0x1da63a936a037bc5,
            q: 15,
            t_ticks: 1431,
            msgs: 27,
            msg_bits: 912,
            events: 14,
            releases: 0,
        },
    ),
    (
        "crash_multi",
        1,
        Golden {
            fingerprint: 0x3f71e89ab90f6f57,
            q: 16,
            t_ticks: 2683,
            msgs: 177,
            msg_bits: 14424,
            events: 96,
            releases: 0,
        },
    ),
    (
        "crash_multi",
        42,
        Golden {
            fingerprint: 0xc69c628d07a3d892,
            q: 32,
            t_ticks: 7718,
            msgs: 387,
            msg_bits: 30954,
            events: 242,
            releases: 0,
        },
    ),
    (
        "crash_multi",
        53469,
        Golden {
            fingerprint: 0x43d21c48d49e797a,
            q: 32,
            t_ticks: 8259,
            msgs: 386,
            msg_bits: 30808,
            events: 245,
            releases: 0,
        },
    ),
    (
        "committee",
        1,
        Golden {
            fingerprint: 0x76e232984b741394,
            q: 35,
            t_ticks: 1369,
            msgs: 36,
            msg_bits: 1230,
            events: 35,
            releases: 0,
        },
    ),
    (
        "committee",
        42,
        Golden {
            fingerprint: 0x19317bf14263d3f0,
            q: 35,
            t_ticks: 1552,
            msgs: 36,
            msg_bits: 1230,
            events: 35,
            releases: 0,
        },
    ),
    (
        "committee",
        53469,
        Golden {
            fingerprint: 0xe99205b016f3e690,
            q: 35,
            t_ticks: 1510,
            msgs: 36,
            msg_bits: 1230,
            events: 36,
            releases: 0,
        },
    ),
    (
        "two_cycle",
        1,
        Golden {
            fingerprint: 0xeb460bf5611d0015,
            q: 1366,
            t_ticks: 2875,
            msgs: 17100,
            msg_bits: 12494590,
            events: 8660,
            releases: 0,
        },
    ),
    (
        "two_cycle",
        42,
        Golden {
            fingerprint: 0xc21249b195c23f04,
            q: 1366,
            t_ticks: 2845,
            msgs: 17100,
            msg_bits: 12494970,
            events: 8657,
            releases: 0,
        },
    ),
    (
        "two_cycle",
        53469,
        Golden {
            fingerprint: 0xa66ba89e979e1604,
            q: 1366,
            t_ticks: 2831,
            msgs: 17100,
            msg_bits: 12494685,
            events: 8658,
            releases: 0,
        },
    ),
    (
        "multi_cycle",
        1,
        Golden {
            fingerprint: 0x13805907bdca93c9,
            q: 2048,
            t_ticks: 4089,
            msgs: 25080,
            msg_bits: 17923840,
            events: 8455,
            releases: 0,
        },
    ),
    (
        "multi_cycle",
        42,
        Golden {
            fingerprint: 0x48ef1a40ac88fc60,
            q: 2048,
            t_ticks: 4087,
            msgs: 25080,
            msg_bits: 17923840,
            events: 8456,
            releases: 0,
        },
    ),
    (
        "multi_cycle",
        53469,
        Golden {
            fingerprint: 0xceb1a69bc21fa037,
            q: 2048,
            t_ticks: 4084,
            msgs: 25080,
            msg_bits: 17923840,
            events: 8456,
            releases: 0,
        },
    ),
];

#[test]
fn fingerprints_match_pre_rewrite_goldens() {
    let mut i = 0;
    for (name, run) in cases() {
        for seed in SEEDS {
            let (g_name, g_seed, ref golden) = GOLDENS[i];
            assert_eq!((g_name, g_seed), (name, seed), "golden table out of sync");
            let got = golden_of(&run(seed));
            assert_eq!(
                &got, golden,
                "{name} seed={seed}: run diverged from pre-rewrite golden"
            );
            i += 1;
        }
    }
    assert_eq!(i, GOLDENS.len());
}

/// Record → replay bit-identity on the golden grid: a schedule recorded
/// from a live run must replay to the very same fingerprint (and that
/// fingerprint is already pinned by the table above, so the replay path
/// is transitively pinned to pre-rewrite behaviour too).
#[test]
fn recorded_schedules_replay_bit_identically() {
    for seed in SEEDS {
        let (n, k, t) = (48, 7, 2);
        let (recorder, handle) = RecordingAdversary::new(StandardAdversary::benign());
        let sim = SimBuilder::new(byz_params(n, k, t))
            .seed(seed)
            .protocol(move |_| CommitteeDownload::new(n, k, t))
            .byzantine(PeerId(0), SilentAgent::new())
            .adversary(recorder)
            .build();
        let recorded = verified(sim);
        let trace = handle.take();
        let sim = SimBuilder::new(byz_params(n, k, t))
            .seed(seed)
            .protocol(move |_| CommitteeDownload::new(n, k, t))
            .byzantine(PeerId(0), SilentAgent::new())
            .adversary(ReplayAdversary::new(trace))
            .build();
        let replayed = verified(sim);
        assert_eq!(
            recorded.fingerprint(),
            replayed.fingerprint(),
            "seed={seed}: replay diverged from recording"
        );
    }
}

/// Generator: prints the `GOLDENS` table body. Run against the
/// pre-rewrite tree (or after an intentional semantic change) and paste
/// the output into `GOLDENS` above.
#[test]
#[ignore = "generator for the GOLDENS table"]
fn print_goldens() {
    for (name, run) in cases() {
        for seed in SEEDS {
            let g = golden_of(&run(seed));
            println!(
                "    (\"{name}\", {seed}, Golden {{ fingerprint: 0x{:016x}, q: {}, t_ticks: {}, \
                 msgs: {}, msg_bits: {}, events: {}, releases: {} }}),",
                g.fingerprint, g.q, g.t_ticks, g.msgs, g.msg_bits, g.events, g.releases
            );
        }
    }
}
