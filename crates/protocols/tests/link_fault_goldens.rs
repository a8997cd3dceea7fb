//! Golden link-fault schedules: every park, link drop, resend, loss,
//! churn deferral and compelled release of a fixed grid of faulty runs,
//! pinned across commits.
//!
//! `golden_fingerprints.rs` pins fault-free and crash schedules through
//! `RunReport::fingerprint`, which leaves the link-fault counters out and
//! does not see *when* a message was parked, resent or deferred. Each row
//! here pins, for one (case, seed):
//!
//! * a digest of the run's full `TraceEntry` stream (every `Deliver`,
//!   `Park`, `LinkDrop`, `Lost`, `ChurnDefer`, `Hold`, `Drop` and release
//!   with its tick) and its length;
//! * the five link counters (parked, link drops, retransmissions, lost,
//!   deferred) and the slab's peak occupancy;
//! * `RunReport::fingerprint()`;
//! * the content hash of the adversary's recorded decisions
//!   (`ScheduleTrace`), which still pins a run that ends in a `RunError`
//!   (whose `Debug` text the row pins instead of the report).
//!
//! To regenerate after an *intentional* change to link-fault semantics
//! (never for a refactor or a perf change):
//!
//! ```text
//! cargo test -p dr-protocols --test link_fault_goldens -- --ignored print_link_fault_goldens --nocapture
//! ```

use dr_core::{FaultModel, ModelParams, PeerId, ProtocolMessage};
use dr_protocols::{BalancedDownload, CrashMultiDownload, TwoCycleDownload};
use dr_sim::{
    Adversary, ChaosAdversary, ChaosConfig, ChurnMixer, Delivery, HeldInfo, HoldUntilQuiescence,
    LinkFaultPlan, LossyLinks, PartitionDirective, PartitionHealer, RecordingAdversary, Release,
    RetransmitPolicy, RunReport, SilentAgent, SimBuilder, TraceEntry, View, TICKS_PER_UNIT,
};
use rand::rngs::StdRng;
use std::borrow::Cow;

/// The seeds every case is recorded under.
const SEEDS: [u64; 2] = [3, 0x5EED];

/// What one golden row pins (see the module docs).
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    /// `Debug` text of the `RunError`; empty for a completed run.
    error: Cow<'static, str>,
    /// `ScheduleTrace::content_hash` of the adversary's decisions.
    schedule: u64,
    /// FNV-1a over the `Debug` text of every trace entry (0 on error).
    trace_digest: u64,
    trace_len: usize,
    /// Parked, link drops, retransmissions, lost, deferred.
    counters: [u64; 5],
    peak_slab: u64,
    fingerprint: u64,
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn trace_digest(trace: &[TraceEntry]) -> u64 {
    trace.iter().fold(0xcbf2_9ce4_8422_2325, |h, entry| {
        fnv1a(h, format!("{entry:?};").as_bytes())
    })
}

/// Runs `builder` with tracing on under `adversary`, recording the
/// adversary's decisions, and collects the row.
fn pin<M: ProtocolMessage>(
    builder: SimBuilder<M>,
    adversary: impl Adversary<M> + 'static,
) -> Pinned {
    let (recorder, handle) = RecordingAdversary::new(adversary);
    let sim = builder.trace().adversary(recorder).build();
    let input = sim.input().clone();
    let result = sim.run();
    let schedule = handle.take().content_hash();
    match result {
        Ok(report) => {
            report
                .verify_downloads(&input)
                .expect("download specification violated");
            pinned_report(&report, schedule)
        }
        Err(e) => Pinned {
            error: Cow::Owned(format!("{e:?}")),
            schedule,
            trace_digest: 0,
            trace_len: 0,
            counters: [0; 5],
            peak_slab: 0,
            fingerprint: 0,
        },
    }
}

fn pinned_report(report: &RunReport, schedule: u64) -> Pinned {
    let trace = report.trace.as_deref().expect("trace enabled");
    Pinned {
        error: Cow::Borrowed(""),
        schedule,
        trace_digest: trace_digest(trace),
        trace_len: trace.len(),
        counters: [
            report.parked_messages,
            report.link_drops,
            report.retransmissions,
            report.messages_lost,
            report.deferred_deliveries,
        ],
        peak_slab: report.peak_slab_len,
        fingerprint: report.fingerprint(),
    }
}

/// The link-fault adversaries the protocol cases run under.
#[derive(Clone, Copy, Debug)]
enum Links {
    Lossy,
    Partition,
    Churn,
    ChaosAggressive,
}

impl Links {
    fn adversary<M: ProtocolMessage>(
        self,
        k: usize,
        seed: u64,
        crash_budget: usize,
    ) -> Box<dyn Adversary<M>> {
        match self {
            Links::Lossy => Box::new(LossyLinks::new(seed, 300)),
            Links::Partition => Box::new(PartitionHealer::new(k, seed, 3)),
            Links::Churn => Box::new(ChurnMixer::new(k, seed, (k / 8).max(1))),
            Links::ChaosAggressive => Box::new(ChaosAdversary::new(
                seed,
                ChaosConfig::aggressive(crash_budget),
            )),
        }
    }
}

/// 2-cycle in its sampled regime with one silent Byzantine peer; the
/// rest of the budget is the adversary's crash budget.
fn two_cycle(links: Links, seed: u64) -> Pinned {
    let (n, k, b) = (512, 64, 2);
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Byzantine, b)
        .build()
        .unwrap();
    let builder = SimBuilder::new(params)
        .seed(seed)
        .protocol(move |_| TwoCycleDownload::new(n, k, b))
        .byzantine(PeerId(0), SilentAgent::new());
    pin(builder, links.adversary(k, seed, b - 1))
}

/// 2-cycle with a wider budget and no Byzantine peer, over lossy links
/// under a tight retry policy: it tolerates the messages that are lost,
/// so the run completes with `Lost` entries in its trace.
fn two_cycle_lossy(seed: u64, drop_permille: u16, max_retries: u32) -> Pinned {
    let (n, k, b) = (512, 64, 6);
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Byzantine, b)
        .build()
        .unwrap();
    let policy = RetransmitPolicy {
        max_retries,
        ..RetransmitPolicy::default()
    };
    let builder = SimBuilder::new(params)
        .seed(seed)
        .protocol(move |_| TwoCycleDownload::new(n, k, b));
    pin(
        builder,
        LossyLinks::new(seed, drop_permille).with_policy(policy),
    )
}

/// Algorithm 2 with the whole budget left to the adversary.
fn crash_multi(links: Links, seed: u64) -> Pinned {
    let (n, k, b) = (192, 12, 2);
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Crash, b)
        .build()
        .unwrap();
    let builder = SimBuilder::new(params)
        .seed(seed)
        .protocol(move |_| CrashMultiDownload::new(n, k, b));
    pin(builder, links.adversary(k, seed, b))
}

fn balanced(seed: u64, adversary: impl Adversary<dr_protocols::Chunk> + 'static) -> Pinned {
    let (n, k) = (96, 6);
    let builder = SimBuilder::new(ModelParams::fault_free(n, k).unwrap())
        .seed(seed)
        .protocol(move |_| BalancedDownload::new(n, k));
    pin(builder, adversary)
}

/// The fault-free balanced download over lossy links under a tight
/// retry policy.
fn balanced_lossy(seed: u64, max_retries: u32, fail_fast: bool) -> Pinned {
    let policy = RetransmitPolicy {
        max_retries,
        fail_fast,
        ..RetransmitPolicy::default()
    };
    balanced(seed, LossyLinks::new(seed, 120).with_policy(policy))
}

/// Holds every send and releases the two oldest at a time, while a cut
/// isolates peers 0 and 1 until tick `6·TICKS_PER_UNIT`: compelled
/// releases across the cut park until it heals.
struct HoldAcrossCut(HoldUntilQuiescence);

impl<M: ProtocolMessage> Adversary<M> for HoldAcrossCut {
    fn on_send(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        self.0.on_send(view, from, to, msg, rng)
    }
    fn on_quiescence(&mut self, view: &View<'_>, held: &[HeldInfo]) -> Release {
        <HoldUntilQuiescence as Adversary<M>>::on_quiescence(&mut self.0, view, held)
    }
    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }
    fn link_fault_plan(&self) -> LinkFaultPlan {
        LinkFaultPlan {
            partitions: vec![PartitionDirective {
                name: "hold-cut".into(),
                group: vec![PeerId(0), PeerId(1)],
                from_tick: 0,
                heal_tick: 6 * TICKS_PER_UNIT,
            }],
            ..Default::default()
        }
    }
}

/// A seeded single-run driver for one golden case.
type CaseRunner = fn(u64) -> Pinned;

/// The golden grid: (case name, runner).
fn cases() -> Vec<(&'static str, CaseRunner)> {
    vec![
        ("two_cycle/lossy", |s| two_cycle(Links::Lossy, s)),
        ("two_cycle/partition", |s| two_cycle(Links::Partition, s)),
        ("two_cycle/churn", |s| two_cycle(Links::Churn, s)),
        ("two_cycle/chaos_aggressive", |s| {
            two_cycle(Links::ChaosAggressive, s)
        }),
        ("two_cycle/lossy_max_retries_0", |s| {
            two_cycle_lossy(s, 30, 0)
        }),
        ("two_cycle/lossy_max_retries_2", |s| {
            two_cycle_lossy(s, 150, 2)
        }),
        ("crash_multi/lossy", |s| crash_multi(Links::Lossy, s)),
        ("crash_multi/partition", |s| {
            crash_multi(Links::Partition, s)
        }),
        ("crash_multi/churn", |s| crash_multi(Links::Churn, s)),
        ("crash_multi/chaos_aggressive", |s| {
            crash_multi(Links::ChaosAggressive, s)
        }),
        ("balanced/max_retries_0", |s| balanced_lossy(s, 0, false)),
        ("balanced/max_retries_1", |s| balanced_lossy(s, 1, false)),
        ("balanced/fail_fast", |s| balanced_lossy(s, 0, true)),
        ("balanced/hold_across_cut", |s| {
            balanced(s, HoldAcrossCut(HoldUntilQuiescence::new(1.0, 2)))
        }),
    ]
}

/// Recorded values, one row per (case, seed), in `cases()` × `SEEDS`
/// order. Regenerate only for intentional semantic changes (see module
/// docs).
const GOLDENS: &[(&str, u64, Pinned)] = &[
    (
        "two_cycle/lossy",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xe3a7dfe4c49c346a,
            trace_digest: 0xac9cf00f30702343,
            trace_len: 5873,
            counters: [0, 1778, 1778, 0, 0],
            peak_slab: 63,
            fingerprint: 0x911999b629ab05cf,
        },
    ),
    (
        "two_cycle/lossy",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xf896a8cfda64f88e,
            trace_digest: 0x47003b09f863ffed,
            trace_len: 5811,
            counters: [0, 1717, 1717, 0, 0],
            peak_slab: 63,
            fingerprint: 0x50f6d3613e7702c6,
        },
    ),
    (
        "two_cycle/partition",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xc6f69a5fd92bd0f8,
            trace_digest: 0xa8bdee85d644935a,
            trace_len: 6080,
            counters: [1995, 0, 0, 0, 0],
            peak_slab: 63,
            fingerprint: 0x4f14386f4ffa71d6,
        },
    ),
    (
        "two_cycle/partition",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xd01bbccf0a651479,
            trace_digest: 0xbef1164e02e75952,
            trace_len: 6102,
            counters: [2015, 0, 0, 0, 0],
            peak_slab: 63,
            fingerprint: 0x5861298ef231b6c8,
        },
    ),
    (
        "two_cycle/churn",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xc28eaaf65ee46cf9,
            trace_digest: 0xa611a5461af1f25f,
            trace_len: 4197,
            counters: [0, 0, 0, 0, 102],
            peak_slab: 63,
            fingerprint: 0x4ef25fd868db64f2,
        },
    ),
    (
        "two_cycle/churn",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x2f656303058d15cd,
            trace_digest: 0x8c0ed32807730218,
            trace_len: 4203,
            counters: [0, 0, 0, 0, 108],
            peak_slab: 63,
            fingerprint: 0x5a744fcbd9d6f99b,
        },
    ),
    (
        "two_cycle/chaos_aggressive",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x4034811261bbe221,
            trace_digest: 0x92584cba8135441c,
            trace_len: 5038,
            counters: [0, 0, 0, 0, 0],
            peak_slab: 63,
            fingerprint: 0xa9b4b0e0dabf6ede,
        },
    ),
    (
        "two_cycle/chaos_aggressive",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x6efd03b3d1b7cfd2,
            trace_digest: 0x4e71d118e696a80d,
            trace_len: 5060,
            counters: [0, 0, 0, 0, 0],
            peak_slab: 63,
            fingerprint: 0x5e6e243f519d92ef,
        },
    ),
    (
        "two_cycle/lossy_max_retries_0",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x6433e14831e99148,
            trace_digest: 0xea242321fa8b3825,
            trace_len: 4167,
            counters: [0, 111, 0, 111, 0],
            peak_slab: 64,
            fingerprint: 0x84d9b88562fda859,
        },
    ),
    (
        "two_cycle/lossy_max_retries_0",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x538770f4b4680788,
            trace_digest: 0x6bff3d420f2b687d,
            trace_len: 4249,
            counters: [0, 119, 0, 119, 0],
            peak_slab: 64,
            fingerprint: 0x36146dfe4128a731,
        },
    ),
    (
        "two_cycle/lossy_max_retries_2",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x8e5415c637e29b83,
            trace_digest: 0xc49ddb0af125754c,
            trace_len: 4736,
            counters: [0, 698, 680, 18, 0],
            peak_slab: 64,
            fingerprint: 0x75fed3fb1ca0e08b,
        },
    ),
    (
        "two_cycle/lossy_max_retries_2",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xf555591bd3c5fc07,
            trace_digest: 0x0ccd0e12e74cde2a,
            trace_len: 4812,
            counters: [0, 728, 715, 13, 0],
            peak_slab: 64,
            fingerprint: 0x8cd999cee72b2140,
        },
    ),
    (
        "crash_multi/lossy",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xbe61b5bfae149ee1,
            trace_digest: 0x35a8d41dbed09b2f,
            trace_len: 803,
            counters: [0, 247, 247, 0, 0],
            peak_slab: 135,
            fingerprint: 0xa9f5c6e4e9564175,
        },
    ),
    (
        "crash_multi/lossy",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xda9abe100ef2e89a,
            trace_digest: 0x62ec367984bfbbae,
            trace_len: 828,
            counters: [0, 289, 289, 0, 0],
            peak_slab: 139,
            fingerprint: 0x11c74ac580fae172,
        },
    ),
    (
        "crash_multi/partition",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x206f9123820196b0,
            trace_digest: 0xa9f457bc62290689,
            trace_len: 670,
            counters: [130, 0, 0, 0, 0],
            peak_slab: 126,
            fingerprint: 0x2139a3b61f6e4d0e,
        },
    ),
    (
        "crash_multi/partition",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x3af9e4d9c430af4b,
            trace_digest: 0xa2ecaae2eba82cc2,
            trace_len: 656,
            counters: [115, 0, 0, 0, 0],
            peak_slab: 127,
            fingerprint: 0x3b1e9977f937b922,
        },
    ),
    (
        "crash_multi/churn",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x9fa63f06b42169aa,
            trace_digest: 0x0139a03e644dcf6e,
            trace_len: 561,
            counters: [0, 0, 0, 0, 18],
            peak_slab: 146,
            fingerprint: 0xff254b2bd49d3ac5,
        },
    ),
    (
        "crash_multi/churn",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xa58a2681a08f20cb,
            trace_digest: 0xfe7b2b281bbba11f,
            trace_len: 562,
            counters: [0, 0, 0, 0, 23],
            peak_slab: 132,
            fingerprint: 0x0addc2027165ed27,
        },
    ),
    (
        "crash_multi/chaos_aggressive",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xfce47a454f264ffb,
            trace_digest: 0xb2951ca7e0cecc76,
            trace_len: 633,
            counters: [0, 0, 0, 0, 0],
            peak_slab: 121,
            fingerprint: 0x1e29a7c313b85d15,
        },
    ),
    (
        "crash_multi/chaos_aggressive",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x6970826d1ae8a84f,
            trace_digest: 0xd62a518b923bf2a7,
            trace_len: 581,
            counters: [0, 0, 0, 0, 0],
            peak_slab: 126,
            fingerprint: 0xe11e84975a3399a1,
        },
    ),
    (
        "balanced/max_retries_0",
        3,
        Pinned {
            error: Cow::Borrowed(
                "Deadlock { stuck: [PeerId(0), PeerId(1), PeerId(3), PeerId(5)] }",
            ),
            schedule: 0xd0c116e1c3f84530,
            trace_digest: 0x0000000000000000,
            trace_len: 0,
            counters: [0, 0, 0, 0, 0],
            peak_slab: 0,
            fingerprint: 0x0000000000000000,
        },
    ),
    (
        "balanced/max_retries_0",
        24301,
        Pinned {
            error: Cow::Borrowed("Deadlock { stuck: [PeerId(0), PeerId(1), PeerId(5)] }"),
            schedule: 0x5e47e772d229c21c,
            trace_digest: 0x0000000000000000,
            trace_len: 0,
            counters: [0, 0, 0, 0, 0],
            peak_slab: 0,
            fingerprint: 0x0000000000000000,
        },
    ),
    (
        "balanced/max_retries_1",
        3,
        Pinned {
            error: Cow::Borrowed("Deadlock { stuck: [PeerId(3), PeerId(5)] }"),
            schedule: 0x6fa520d1d31077b5,
            trace_digest: 0x0000000000000000,
            trace_len: 0,
            counters: [0, 0, 0, 0, 0],
            peak_slab: 0,
            fingerprint: 0x0000000000000000,
        },
    ),
    (
        "balanced/max_retries_1",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x801ac96f1b048f08,
            trace_digest: 0xfa27bd9b5ee9eb7f,
            trace_len: 49,
            counters: [0, 7, 7, 0, 0],
            peak_slab: 6,
            fingerprint: 0x9d246d4b70d1ad51,
        },
    ),
    (
        "balanced/fail_fast",
        3,
        Pinned {
            error: Cow::Borrowed(
                "RetriesExhausted { from: PeerId(4), to: PeerId(5), attempts: 1 }",
            ),
            schedule: 0x7bb7c21b55425e77,
            trace_digest: 0x0000000000000000,
            trace_len: 0,
            counters: [0, 0, 0, 0, 0],
            peak_slab: 0,
            fingerprint: 0x0000000000000000,
        },
    ),
    (
        "balanced/fail_fast",
        24301,
        Pinned {
            error: Cow::Borrowed(
                "RetriesExhausted { from: PeerId(3), to: PeerId(1), attempts: 1 }",
            ),
            schedule: 0x5eada83abe01587d,
            trace_digest: 0x0000000000000000,
            trace_len: 0,
            counters: [0, 0, 0, 0, 0],
            peak_slab: 0,
            fingerprint: 0x0000000000000000,
        },
    ),
    (
        "balanced/hold_across_cut",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x03e3a673b129e41d,
            trace_digest: 0x3e86d5e6c36f760d,
            trace_len: 89,
            counters: [2, 0, 0, 0, 0],
            peak_slab: 6,
            fingerprint: 0x65a08152cf32488f,
        },
    ),
    (
        "balanced/hold_across_cut",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x56ce689b2ee2982e,
            trace_digest: 0xd6a76a29e5127585,
            trace_len: 89,
            counters: [2, 0, 0, 0, 0],
            peak_slab: 6,
            fingerprint: 0x60c53acd2d653d9b,
        },
    ),
];

#[test]
fn link_fault_schedules_match_goldens() {
    let mut i = 0;
    for (name, run) in cases() {
        for seed in SEEDS {
            let (g_name, g_seed, ref golden) = GOLDENS[i];
            assert_eq!((g_name, g_seed), (name, seed), "golden table out of sync");
            assert_eq!(&run(seed), golden, "{name} seed={seed}: schedule diverged");
            i += 1;
        }
    }
    assert_eq!(i, GOLDENS.len());
}

/// Prints the golden table in source form.
#[test]
#[ignore = "regenerates the golden table; run explicitly"]
fn print_link_fault_goldens() {
    for (name, run) in cases() {
        for seed in SEEDS {
            let p = run(seed);
            println!("    (");
            println!("        {name:?},");
            println!("        {seed},");
            println!("        Pinned {{");
            println!("            error: Cow::Borrowed({:?}),", p.error.as_ref());
            println!("            schedule: {:#018x},", p.schedule);
            println!("            trace_digest: {:#018x},", p.trace_digest);
            println!("            trace_len: {},", p.trace_len);
            println!("            counters: {:?},", p.counters);
            println!("            peak_slab: {},", p.peak_slab);
            println!("            fingerprint: {:#018x},", p.fingerprint);
            println!("        }},");
            println!("    ),");
        }
    }
}
