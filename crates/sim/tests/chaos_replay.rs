//! Integration tests for chaos adversaries, schedule record/replay, and
//! the joint fault budget.

use dr_core::{
    BitArray, Context, FaultModel, ModelParams, PartialArray, PeerId, Protocol, ProtocolMessage,
};
use dr_sim::{
    Adversary, ChaosAdversary, ChaosConfig, CrashPlan, Delivery, HoldUntilQuiescence,
    RecordingAdversary, ReplayAdversary, RunError, SilentAgent, SimBuilder, StandardAdversary,
    UniformDelay, View,
};
use rand::rngs::StdRng;

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

struct Balanced {
    acc: PartialArray,
    out: Option<BitArray>,
}

impl Balanced {
    fn new(n: usize) -> Self {
        Balanced {
            acc: PartialArray::new(n),
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

#[test]
fn recorded_chaos_run_replays_bit_identically() {
    let n = 64;
    let k = 4;
    let seed = 0xfeed;
    // Hold-heavy chaos without crashes so the run completes and yields a
    // report to fingerprint.
    let cfg = ChaosConfig {
        crash_budget: 0,
        crash_prob: 0.0,
        cut_prob: 0.0,
        hold_prob: 0.4,
        partial_release_prob: 0.8,
    };
    let params = ModelParams::fault_free(n, k).unwrap();
    let (recorder, handle) = RecordingAdversary::new(ChaosAdversary::new(seed, cfg));
    let sim = SimBuilder::new(params)
        .seed(seed)
        .protocol(move |_| Balanced::new(n))
        .adversary(recorder)
        .build();
    let input = sim.input().clone();
    let original = sim.run().unwrap();
    original.verify_downloads(&input).unwrap();
    assert!(original.quiescence_releases > 0, "chaos run held nothing");
    let trace = handle.take();
    assert!(trace.sends.iter().any(|s| s.is_none()));

    // Replay, re-recording to confirm the trace is a fixed point.
    let (rerecorder, rehandle) = RecordingAdversary::new(ReplayAdversary::new(trace.clone()));
    let sim = SimBuilder::new(params)
        .seed(seed)
        .protocol(move |_| Balanced::new(n))
        .adversary(rerecorder)
        .build();
    let replayed = sim.run().unwrap();
    assert_eq!(replayed.fingerprint(), original.fingerprint());
    assert_eq!(rehandle.take(), trace);
}

/// A schedule of holds released two at a time under compulsion replays
/// bit-identically: positional decision alignment holds because the pump
/// consults the adversary in the identical sequence.
#[test]
fn recorded_hold_schedule_replays_bit_identically() {
    let (n, k) = (96, 6);
    let params = ModelParams::fault_free(n, k).unwrap();
    for seed in [3u64, 1719, 0xBEEF] {
        let (recorder, handle) = RecordingAdversary::new(HoldUntilQuiescence::new(0.5, 2));
        let recorded = SimBuilder::new(params)
            .seed(seed)
            .protocol(move |_| Balanced::new(n))
            .adversary(recorder)
            .build()
            .run()
            .expect("fault-free run terminates");
        let replayed = SimBuilder::new(params)
            .seed(seed)
            .protocol(move |_| Balanced::new(n))
            .adversary(ReplayAdversary::new(handle.take()))
            .build()
            .run()
            .expect("replay terminates");
        assert_eq!(
            recorded.fingerprint(),
            replayed.fingerprint(),
            "seed={seed}: replay diverged"
        );
    }
}

#[test]
fn replayed_failure_reproduces_the_error() {
    // A crashing chaos schedule that deadlocks Balanced must deadlock
    // identically on replay.
    let n = 64;
    let k = 4;
    let seed = 7;
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Crash, 1)
        .build()
        .unwrap();
    let cfg = ChaosConfig {
        crash_budget: 1,
        crash_prob: 0.5,
        cut_prob: 0.0,
        hold_prob: 0.0,
        partial_release_prob: 0.0,
    };
    let (recorder, handle) = RecordingAdversary::new(ChaosAdversary::new(seed, cfg));
    let sim = SimBuilder::new(params)
        .seed(seed)
        .protocol(move |_| Balanced::new(n))
        .adversary(recorder)
        .build();
    let original = sim.run();
    let trace = handle.take();
    assert_eq!(trace.crashes.len(), 1, "expected exactly one crash");
    let stuck = match original {
        Err(RunError::Deadlock { stuck }) => stuck,
        other => panic!("expected deadlock, got {other:?}"),
    };

    let sim = SimBuilder::new(params)
        .seed(seed)
        .protocol(move |_| Balanced::new(n))
        .adversary(ReplayAdversary::new(trace).with_fault_cap(1))
        .build();
    match sim.run() {
        Err(RunError::Deadlock { stuck: stuck2 }) => assert_eq!(stuck2, stuck),
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "joint fault budget exceeded")]
fn joint_fault_budget_enforced_at_build_time() {
    // b = 1: one Byzantine corruption plus one planned crash must be
    // rejected before the run starts.
    let n = 16;
    let params = ModelParams::builder(n, 4)
        .faults(FaultModel::Byzantine, 1)
        .build()
        .unwrap();
    let _ = SimBuilder::new(params)
        .seed(0)
        .protocol(move |_| Balanced::new(n))
        .byzantine(PeerId(3), SilentAgent::new())
        .adversary(StandardAdversary::new(
            UniformDelay::new(),
            CrashPlan::before_event([PeerId(0)], 0),
        ))
        .build();
}

#[test]
fn joint_fault_budget_allows_exact_fit() {
    // b = 2: one Byzantine + one planned crash fills the budget exactly
    // and must build (the crash itself stays legal at run time).
    let n = 16;
    let params = ModelParams::builder(n, 4)
        .faults(FaultModel::Byzantine, 2)
        .build()
        .unwrap();
    let sim = SimBuilder::new(params)
        .seed(0)
        .protocol(move |_| Balanced::new(n))
        .byzantine(PeerId(3), SilentAgent::new())
        .adversary(StandardAdversary::new(
            UniformDelay::new(),
            CrashPlan::before_event([PeerId(0)], 0),
        ))
        .build();
    // Balanced can't survive faults; we only care that the build-time
    // budget check passed and the run executes the planned crash.
    match sim.run() {
        Err(RunError::Deadlock { stuck }) => {
            assert!(!stuck.contains(&PeerId(0)));
            assert!(!stuck.contains(&PeerId(3)));
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// Cuts peer 0's start batch down to its first message *and* holds that
/// surviving message: the crash_during_send × held interaction of the
/// chaos satellite.
struct CutAndHold;

impl Adversary<Chunk> for CutAndHold {
    fn on_send(
        &mut self,
        _v: &View<'_>,
        from: PeerId,
        _t: PeerId,
        _m: &Chunk,
        _r: &mut StdRng,
    ) -> Delivery {
        if from == PeerId(0) {
            Delivery::Hold
        } else {
            Delivery::After(1)
        }
    }

    fn crash_during_send(&mut self, _v: &View<'_>, peer: PeerId, planned: usize) -> Option<usize> {
        if peer == PeerId(0) {
            Some(planned.min(1))
        } else {
            None
        }
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(1)
    }
}

#[test]
fn cut_batch_surviving_prefix_is_releasable_at_quiescence() {
    // k = 2: peer 0's single-message start batch is "cut" at keep = 1
    // (crashing peer 0) and the surviving message to peer 1 is held. At
    // quiescence the adversary must still be able to release it, letting
    // peer 1 — the only nonfaulty peer — finish the download.
    let n = 32;
    let params = ModelParams::builder(n, 2)
        .faults(FaultModel::Crash, 1)
        .build()
        .unwrap();
    let sim = SimBuilder::new(params)
        .seed(5)
        .protocol(move |_| Balanced::new(n))
        .adversary(CutAndHold)
        .build();
    let input = sim.input().clone();
    let report = sim.run().unwrap();
    report.verify_downloads(&input).unwrap();
    assert!(report.crashed.contains(PeerId(0)));
    assert!(report.nonfaulty.contains(PeerId(1)));
    assert_eq!(report.quiescence_releases, 1);
    assert!(report.outputs[1].is_some());
}

/// Holds every message while a partition separates the two peers: the
/// compelled-release × link-fault interaction of the fault-plane
/// satellite.
struct HoldAllWithCut {
    heal: dr_sim::Ticks,
}

impl Adversary<Chunk> for HoldAllWithCut {
    fn on_send(
        &mut self,
        _v: &View<'_>,
        _f: PeerId,
        _t: PeerId,
        _m: &Chunk,
        _r: &mut StdRng,
    ) -> Delivery {
        Delivery::Hold
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }

    fn link_fault_plan(&self) -> dr_sim::LinkFaultPlan {
        dr_sim::LinkFaultPlan {
            partitions: vec![dr_sim::PartitionDirective {
                name: "quiescence-cut".into(),
                group: vec![PeerId(0)],
                from_tick: 0,
                heal_tick: self.heal,
            }],
            ..Default::default()
        }
    }
}

#[test]
fn compelled_release_parks_across_an_unhealed_cut() {
    // k = 2, every message held, peers partitioned from tick 0: the
    // queue drains while the cut is still up, so quiescence compels the
    // adversary to release both chunks *during* the partition. The
    // release must still happen (compelled progress is non-negotiable)
    // but the released messages must not cross the unhealed cut — they
    // park and deliver at heal, so the run finishes only after it.
    let n = 32;
    let heal = 10 * dr_sim::TICKS_PER_UNIT;
    let params = ModelParams::fault_free(n, 2).unwrap();
    let sim = SimBuilder::new(params)
        .seed(5)
        .protocol(move |_| Balanced::new(n))
        .adversary(HoldAllWithCut { heal })
        .build();
    let input = sim.input().clone();
    let report = sim.run().unwrap();
    report.verify_downloads(&input).unwrap();
    assert!(report.quiescence_releases > 0, "nothing was compelled");
    assert_eq!(
        report.parked_messages, 2,
        "both released chunks should park at the cut"
    );
    assert!(
        report.virtual_time_ticks >= heal,
        "completed at {} < heal {heal} — a compelled release crossed the unhealed cut",
        report.virtual_time_ticks
    );
    assert!(report.outputs[0].is_some() && report.outputs[1].is_some());
}
