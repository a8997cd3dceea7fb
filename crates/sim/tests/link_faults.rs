//! Integration tests for the link-fault plane: healing partitions,
//! lossy links with bounded retransmission, peer churn, and the
//! record/replay + sharded-pump-degrade guarantees of all three.

use dr_core::{BitArray, Context, ModelParams, PeerId, Protocol, ProtocolMessage};
use dr_sim::{
    Adversary, ChurnDirective, ChurnMixer, Delivery, LinkDecision, LinkFaultPlan, LossyLinks,
    PartitionDirective, PartitionHealer, RecordingAdversary, ReplayAdversary, RetransmitPolicy,
    RunError, RunReport, SimBuilder, Ticks, TraceEntry, View, TICKS_PER_UNIT,
};
use rand::rngs::StdRng;

/// Message carrying a chunk of bits (offset + payload).
#[derive(Debug, Clone)]
struct Chunk {
    offset: usize,
    bits: BitArray,
}

impl ProtocolMessage for Chunk {
    fn bit_len(&self) -> usize {
        64 + self.bits.len()
    }
}

/// Fault-free balanced download: query your share, broadcast it, wait
/// for everyone else's. Needs every message to eventually arrive, so it
/// terminates iff the link layer is lossless-in-the-limit.
struct Balanced {
    acc: dr_core::PartialArray,
    out: Option<BitArray>,
}

impl Balanced {
    fn new(n: usize) -> Self {
        Balanced {
            acc: dr_core::PartialArray::new(n),
            out: None,
        }
    }
    fn check(&mut self) {
        if self.out.is_none() && self.acc.is_complete() {
            self.out = Some(self.acc.clone().into_complete());
        }
    }
}

impl Protocol for Balanced {
    type Msg = Chunk;
    fn on_start(&mut self, ctx: &mut dyn Context<Chunk>) {
        let n = ctx.input_len();
        let k = ctx.num_peers();
        let per = n.div_ceil(k);
        let me = ctx.me().index();
        let range = (me * per).min(n)..((me + 1) * per).min(n);
        let bits = ctx.query_range(range.clone());
        self.acc.learn_slice(range.start, &bits);
        ctx.broadcast(Chunk {
            offset: range.start,
            bits,
        });
        self.check();
    }
    fn on_message(&mut self, _f: PeerId, m: Chunk, _c: &mut dyn Context<Chunk>) {
        self.acc.learn_slice(m.offset, &m.bits);
        self.check();
    }
    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

/// Unit-latency adversary with a single static cut isolating `group`
/// over `[0, heal)`. Crash-inert.
struct StaticCut {
    group: Vec<PeerId>,
    heal: Ticks,
}

impl<M: ProtocolMessage> Adversary<M> for StaticCut {
    fn on_send(
        &mut self,
        _v: &View<'_>,
        _f: PeerId,
        _t: PeerId,
        _m: &M,
        _r: &mut StdRng,
    ) -> Delivery {
        Delivery::After(1)
    }
    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }
    fn link_fault_plan(&self) -> LinkFaultPlan {
        LinkFaultPlan {
            partitions: vec![PartitionDirective {
                name: "test-cut".into(),
                group: self.group.clone(),
                from_tick: 0,
                heal_tick: self.heal,
            }],
            ..Default::default()
        }
    }
}

/// Unit-latency adversary whose lossy layer drops *every* transmission
/// attempt, under a configurable retry policy. Crash-inert.
struct AlwaysDrop {
    policy: RetransmitPolicy,
}

impl<M: ProtocolMessage> Adversary<M> for AlwaysDrop {
    fn on_send(
        &mut self,
        _v: &View<'_>,
        _f: PeerId,
        _t: PeerId,
        _m: &M,
        _r: &mut StdRng,
    ) -> Delivery {
        Delivery::After(1)
    }
    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }
    fn link_fault_plan(&self) -> LinkFaultPlan {
        LinkFaultPlan {
            retransmit: self.policy,
            ..Default::default()
        }
    }
    fn lossy(&self) -> bool {
        true
    }
    fn on_transmit(
        &mut self,
        _v: &View<'_>,
        _f: PeerId,
        _t: PeerId,
        _a: u32,
        _r: &mut StdRng,
    ) -> LinkDecision {
        LinkDecision::Drop
    }
}

fn run_balanced(
    n: usize,
    k: usize,
    seed: u64,
    adversary: impl Adversary<Chunk> + 'static,
) -> Result<RunReport, RunError> {
    SimBuilder::new(ModelParams::fault_free(n, k).unwrap())
        .seed(seed)
        .protocol(move |_| Balanced::new(n))
        .adversary(adversary)
        .build()
        .run()
}

/// The five link-fault counters, for replay-equality assertions (they
/// are deliberately excluded from `RunReport::fingerprint`).
fn link_counters(r: &RunReport) -> [u64; 5] {
    [
        r.parked_messages,
        r.link_drops,
        r.retransmissions,
        r.messages_lost,
        r.deferred_deliveries,
    ]
}

/// Messages sent across an active cut are parked — not lost — and
/// re-enter delivery at heal time: the run completes only after the
/// partition heals, with correct outputs everywhere.
#[test]
fn partition_parks_messages_until_heal() {
    let (n, k) = (64, 4);
    let heal = 5 * TICKS_PER_UNIT;
    let report = run_balanced(
        n,
        k,
        9,
        StaticCut {
            group: vec![PeerId(0)],
            heal,
        },
    )
    .expect("parked messages re-enter delivery at heal");
    // Chunks cross the cut in both directions: peer 0's k-1 outgoing and
    // the k-1 incoming ones.
    assert_eq!(report.parked_messages, 2 * (k as u64 - 1));
    assert!(
        report.virtual_time_ticks >= heal,
        "completed at {} < heal {heal} — a delivery crossed the unhealed cut",
        report.virtual_time_ticks
    );
    for p in 0..k {
        assert!(report.outputs[p].is_some(), "peer {p} incomplete");
    }
}

/// The trace records the parking: one `Park` entry per parked message,
/// each pointing at the heal tick.
#[test]
fn partition_parking_is_traced() {
    let (n, k) = (64, 4);
    let heal = 3 * TICKS_PER_UNIT;
    let report = SimBuilder::new(ModelParams::fault_free(n, k).unwrap())
        .seed(9)
        .trace()
        .protocol(move |_| Balanced::new(n))
        .adversary(StaticCut {
            group: vec![PeerId(0)],
            heal,
        })
        .build()
        .run()
        .unwrap();
    let trace = report.trace.as_ref().expect("trace enabled");
    let parks: Vec<_> = trace
        .iter()
        .filter_map(|e| match e {
            TraceEntry::Park { until, .. } => Some(*until),
            _ => None,
        })
        .collect();
    assert_eq!(parks.len() as u64, report.parked_messages);
    assert!(parks.iter().all(|&u| u == heal));
}

/// Exhausted retries under a fail-fast policy surface as the structured
/// `RetriesExhausted` error — with the exact attempt count — instead of
/// a silent loss or an eventual deadlock.
#[test]
fn exhausted_retries_surface_as_structured_error() {
    let policy = RetransmitPolicy {
        backoff_base: TICKS_PER_UNIT / 8,
        max_retries: 2,
        fail_fast: true,
    };
    match run_balanced(64, 4, 3, AlwaysDrop { policy }) {
        Err(RunError::RetriesExhausted { attempts, .. }) => {
            // Original send + max_retries resends, all dropped.
            assert_eq!(attempts, 3);
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// Without fail-fast the same exhaustion is a counted loss: the run goes
/// on (and here deadlocks, since Balanced needs every chunk) — the point
/// is that the loss is *reported*, not hidden.
#[test]
fn exhausted_retries_without_fail_fast_deadlock_balanced() {
    let policy = RetransmitPolicy {
        backoff_base: TICKS_PER_UNIT / 8,
        max_retries: 1,
        fail_fast: false,
    };
    match run_balanced(64, 4, 3, AlwaysDrop { policy }) {
        Err(RunError::Deadlock { stuck }) => assert_eq!(stuck.len(), 4),
        other => panic!("expected deadlock from total loss, got {other:?}"),
    }
}

/// Same-seed record → replay is bit-identical for every new adversary,
/// including under the sharded pump (where the link-fault gate degrades
/// window dispatch to the serial path): equal fingerprints and equal
/// link-fault counters.
#[test]
fn link_fault_adversaries_replay_bit_identically() {
    let (n, k) = (96, 6);
    type MakeAdversary = Box<dyn Fn(u64) -> Box<dyn Adversary<Chunk>>>;
    let make: Vec<(&str, MakeAdversary)> = vec![
        (
            "partition_healer",
            Box::new(|seed| Box::new(PartitionHealer::new(6, seed, 3))),
        ),
        (
            "lossy_links",
            Box::new(|seed| Box::new(LossyLinks::new(seed, 300))),
        ),
        (
            "churn_mixer",
            Box::new(|seed| Box::new(ChurnMixer::new(6, seed, 2))),
        ),
    ];
    for (label, factory) in &make {
        for seed in [5u64, 77] {
            let (recorder, handle) = RecordingAdversary::new(factory(seed));
            let sim = SimBuilder::new(ModelParams::fault_free(n, k).unwrap())
                .seed(seed)
                .protocol(move |_| Balanced::new(n))
                .adversary(recorder)
                .build();
            let input = sim.input().clone();
            let original = sim.run().unwrap_or_else(|e| panic!("{label}/{seed}: {e}"));
            original
                .verify_downloads(&input)
                .unwrap_or_else(|v| panic!("{label}/{seed}: {v}"));
            let trace = handle.take();
            let replayed = run_balanced(n, k, seed, ReplayAdversary::new(trace))
                .unwrap_or_else(|e| panic!("{label}/{seed}: {e}"));
            assert_eq!(
                replayed.fingerprint(),
                original.fingerprint(),
                "{label}/{seed}: fingerprint diverged"
            );
            assert_eq!(
                link_counters(&replayed),
                link_counters(&original),
                "{label}/{seed}: link counters diverged"
            );
        }
    }
}

/// Churn defers deliveries to the rejoin tick without losing any: the
/// run completes with correct outputs and a nonzero deferral count.
#[test]
fn churn_defers_deliveries_losslessly() {
    let (n, k) = (96, 6);
    struct FixedChurn;
    impl<M: ProtocolMessage> Adversary<M> for FixedChurn {
        fn on_send(
            &mut self,
            _v: &View<'_>,
            _f: PeerId,
            _t: PeerId,
            _m: &M,
            _r: &mut StdRng,
        ) -> Delivery {
            Delivery::After(1)
        }
        fn planned_crashes(&self) -> Option<usize> {
            Some(0)
        }
        fn link_fault_plan(&self) -> LinkFaultPlan {
            LinkFaultPlan {
                churn: vec![ChurnDirective {
                    peer: PeerId(2),
                    // Away from before its start until well after every
                    // other peer has finished: all its events defer.
                    leave: 0,
                    rejoin: 4 * TICKS_PER_UNIT,
                }],
                ..Default::default()
            }
        }
    }
    let report = run_balanced(n, k, 21, FixedChurn).expect("deferred events re-fire at rejoin");
    assert!(report.deferred_deliveries > 0, "nothing deferred");
    assert!(
        report.virtual_time_ticks >= 4 * TICKS_PER_UNIT,
        "completed before the churned peer rejoined"
    );
    for p in 0..k {
        assert!(report.outputs[p].is_some(), "peer {p} incomplete");
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same-seed `LossyLinks` runs replay bit-identically at any drop
    /// rate: fingerprints and link counters are equal, and (with the generous default retry budget) the
    /// terminating run's downloads verify at any drop rate < 1.0.
    #[test]
    fn lossy_runs_replay_and_verify_at_any_drop_rate(
        seed in any::<u64>(),
        drop_permille in 1u16..950,
    ) {
        let (n, k) = (64, 4);
        let (recorder, handle) =
            RecordingAdversary::new(LossyLinks::new(seed, drop_permille));
        let sim = SimBuilder::new(ModelParams::fault_free(n, k).unwrap())
            .seed(seed)
            .protocol(move |_| Balanced::new(n))
            .adversary(recorder)
            .build();
        let input = sim.input().clone();
        // Retransmission makes termination overwhelmingly likely even at
        // heavy loss (LossyLinks caps per-link rates below 1.0 and the
        // default policy retries 12 times); a terminating run must then
        // download correctly — loss surfaces as deadlock, never as a
        // wrong bit.
        let original = sim.run();
        let trace = handle.take();
        match original {
            Ok(report) => {
                prop_assert!(report.verify_downloads(&input).is_ok());
                if drop_permille > 0 {
                    prop_assert!(report.link_drops > 0 || report.retransmissions == 0);
                }
                let replayed = run_balanced(n, k, seed, ReplayAdversary::new(trace))
                    .unwrap_or_else(|e| panic!("replay: {e}"));
                prop_assert_eq!(replayed.fingerprint(), report.fingerprint());
                prop_assert_eq!(link_counters(&replayed), link_counters(&report));
            }
            Err(RunError::Deadlock { .. }) => {
                // Legal only if something was genuinely abandoned.
                prop_assert!(trace.transmits.iter().filter(|t| !**t).count() > 12);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    /// Partition + churn adversaries terminate and verify at every seed:
    /// parking and deferring never lose a message.
    #[test]
    fn partitions_and_churn_never_lose_messages(seed in any::<u64>()) {
        let (n, k) = (64, 8);
        let report = run_balanced(n, k, seed, PartitionHealer::new(k, seed, 2))
            .unwrap_or_else(|e| panic!("partition: {e}"));
        prop_assert_eq!(report.messages_lost, 0);
        let report = run_balanced(n, k, seed, ChurnMixer::new(k, seed, 2))
            .unwrap_or_else(|e| panic!("churn: {e}"));
        prop_assert_eq!(report.messages_lost, 0);
    }
}
