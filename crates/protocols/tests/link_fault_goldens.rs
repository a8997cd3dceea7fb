//! Golden link-fault schedules: every park, link drop, resend, churn
//! deferral and compelled release of a fixed grid of faulty runs, pinned
//! across commits.
//!
//! `golden_fingerprints.rs` pins fault-free and crash schedules through
//! `RunReport::fingerprint`, which leaves the link-fault counters out and
//! does not see *when* a message was parked, resent or deferred. Each row
//! here pins, for one (case, seed):
//!
//! * a digest of the run's full `TraceEntry` stream (every `Deliver`,
//!   `Park`, `LinkDrop`, `ChurnDefer`, `Hold`, `Drop` and release
//!   with its tick) and its length;
//! * the four link counters (parked, link drops, retransmissions,
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
    RunReport, SilentAgent, SimBuilder, TraceEntry, View, TICKS_PER_UNIT,
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
    /// Parked, link drops, retransmissions, deferred.
    counters: [u64; 4],
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
            counters: [0; 4],
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
        ("crash_multi/lossy", |s| crash_multi(Links::Lossy, s)),
        ("crash_multi/partition", |s| {
            crash_multi(Links::Partition, s)
        }),
        ("crash_multi/churn", |s| crash_multi(Links::Churn, s)),
        ("crash_multi/chaos_aggressive", |s| {
            crash_multi(Links::ChaosAggressive, s)
        }),
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
            schedule: 0x5790836815ab43dd,
            trace_digest: 0xac9cf00f30702343,
            trace_len: 5873,
            counters: [0, 1778, 1778, 0],
            peak_slab: 63,
            fingerprint: 0x911999b629ab05cf,
        },
    ),
    (
        "two_cycle/lossy",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x7e64e44de6bfc85f,
            trace_digest: 0x47003b09f863ffed,
            trace_len: 5811,
            counters: [0, 1717, 1717, 0],
            peak_slab: 63,
            fingerprint: 0x50f6d3613e7702c6,
        },
    ),
    (
        "two_cycle/partition",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xdd415003b1dd355f,
            trace_digest: 0xa8bdee85d644935a,
            trace_len: 6080,
            counters: [1995, 0, 0, 0],
            peak_slab: 63,
            fingerprint: 0x4f14386f4ffa71d6,
        },
    ),
    (
        "two_cycle/partition",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xf6db45af2b08c7ce,
            trace_digest: 0xbef1164e02e75952,
            trace_len: 6102,
            counters: [2015, 0, 0, 0],
            peak_slab: 63,
            fingerprint: 0x5861298ef231b6c8,
        },
    ),
    (
        "two_cycle/churn",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x2593a3746cfd844e,
            trace_digest: 0xa611a5461af1f25f,
            trace_len: 4197,
            counters: [0, 0, 0, 102],
            peak_slab: 63,
            fingerprint: 0x4ef25fd868db64f2,
        },
    ),
    (
        "two_cycle/churn",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x5f1ea926dad9ffca,
            trace_digest: 0x8c0ed32807730218,
            trace_len: 4203,
            counters: [0, 0, 0, 108],
            peak_slab: 63,
            fingerprint: 0x5a744fcbd9d6f99b,
        },
    ),
    (
        "two_cycle/chaos_aggressive",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xcd78f5d9cec19bb6,
            trace_digest: 0x92584cba8135441c,
            trace_len: 5038,
            counters: [0, 0, 0, 0],
            peak_slab: 63,
            fingerprint: 0xa9b4b0e0dabf6ede,
        },
    ),
    (
        "two_cycle/chaos_aggressive",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x8e2ab277c39dbec9,
            trace_digest: 0x4e71d118e696a80d,
            trace_len: 5060,
            counters: [0, 0, 0, 0],
            peak_slab: 63,
            fingerprint: 0x5e6e243f519d92ef,
        },
    ),
    (
        "crash_multi/lossy",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xa4738baeb82917cc,
            trace_digest: 0x35a8d41dbed09b2f,
            trace_len: 803,
            counters: [0, 247, 247, 0],
            peak_slab: 135,
            fingerprint: 0xa9f5c6e4e9564175,
        },
    ),
    (
        "crash_multi/lossy",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x5b9f2a3a86096eb5,
            trace_digest: 0x62ec367984bfbbae,
            trace_len: 828,
            counters: [0, 289, 289, 0],
            peak_slab: 139,
            fingerprint: 0x11c74ac580fae172,
        },
    ),
    (
        "crash_multi/partition",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xe051fc00723afbd7,
            trace_digest: 0xa9f457bc62290689,
            trace_len: 670,
            counters: [130, 0, 0, 0],
            peak_slab: 126,
            fingerprint: 0x2139a3b61f6e4d0e,
        },
    ),
    (
        "crash_multi/partition",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xc5e5e7e96b871cf0,
            trace_digest: 0xa2ecaae2eba82cc2,
            trace_len: 656,
            counters: [115, 0, 0, 0],
            peak_slab: 127,
            fingerprint: 0x3b1e9977f937b922,
        },
    ),
    (
        "crash_multi/churn",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x9174219c4efd9f81,
            trace_digest: 0x0139a03e644dcf6e,
            trace_len: 561,
            counters: [0, 0, 0, 18],
            peak_slab: 146,
            fingerprint: 0xff254b2bd49d3ac5,
        },
    ),
    (
        "crash_multi/churn",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x8345d556c98afa70,
            trace_digest: 0xfe7b2b281bbba11f,
            trace_len: 562,
            counters: [0, 0, 0, 23],
            peak_slab: 132,
            fingerprint: 0x0addc2027165ed27,
        },
    ),
    (
        "crash_multi/chaos_aggressive",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x41c2d83269d37e60,
            trace_digest: 0xb2951ca7e0cecc76,
            trace_len: 633,
            counters: [0, 0, 0, 0],
            peak_slab: 121,
            fingerprint: 0x1e29a7c313b85d15,
        },
    ),
    (
        "crash_multi/chaos_aggressive",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0xdc1aa11a2d49709c,
            trace_digest: 0xd62a518b923bf2a7,
            trace_len: 581,
            counters: [0, 0, 0, 0],
            peak_slab: 126,
            fingerprint: 0xe11e84975a3399a1,
        },
    ),
    (
        "balanced/hold_across_cut",
        3,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x57b3b92162150ada,
            trace_digest: 0x3e86d5e6c36f760d,
            trace_len: 89,
            counters: [2, 0, 0, 0],
            peak_slab: 6,
            fingerprint: 0x65a08152cf32488f,
        },
    ),
    (
        "balanced/hold_across_cut",
        24301,
        Pinned {
            error: Cow::Borrowed(""),
            schedule: 0x786258667347406d,
            trace_digest: 0xd6a76a29e5127585,
            trace_len: 89,
            counters: [2, 0, 0, 0],
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
