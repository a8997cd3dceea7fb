//! Differential test for one-slot broadcasts.
//!
//! The simulator's context records `Context::broadcast` as one outbox
//! entry and stores its payload once, shared by the recipients. The provided default of `broadcast` — a loop over `send`,
//! one payload and one slot per recipient — is still there, so a context
//! that forwards only `send` runs a protocol the way every broadcast ran
//! before. Whole executions of the two must be indistinguishable: the
//! adversary is consulted with the same arguments in the same order, and
//! the execution trace, fingerprint, M, message bits and link-fault
//! counters are equal — under mid-send crashes, holds, partitions, lossy
//! links, churn, and recipients in every lifecycle state.

use dr_core::{BitArray, Context, FaultModel, ModelParams, PeerId, Protocol, ProtocolMessage};
use dr_sim::{
    Adversary, ChaosAdversary, ChaosConfig, ChurnDirective, ChurnMixer, Delivery,
    HoldUntilQuiescence, LinkDecision, LinkFaultPlan, LossyLinks, PartitionDirective,
    PartitionHealer, RecordingAdversary, Release, RunError, RunReport, ScheduleTrace, SimBuilder,
    StandardAdversary, Ticks, TraceEntry, View, TICKS_PER_UNIT,
};
use rand::rngs::StdRng;

/// A stretch of the input, as its sender read it from the source.
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

/// Every peer reads the whole input at its start, so it can terminate on
/// its own whoever crashes, and gossips its share of it. A start step
/// emits a broadcast and, with `sends`, a point-to-point message on
/// either side of it (the second one to itself); the first delivery makes
/// the peer broadcast once more, from a message step. It terminates after
/// hearing from `quorum` distinct peers — at its start for a quorum of 0,
/// which leaves every message addressed to it to be dropped.
///
/// Each delivered chunk is checked against the peer's own copy, so a
/// payload that reached a recipient damaged, or reached the wrong one,
/// panics the run.
struct Gossip {
    quorum: usize,
    sends: bool,
    input: Option<BitArray>,
    heard: Vec<bool>,
    count: usize,
    out: Option<BitArray>,
}

impl Gossip {
    fn new(k: usize, quorum: usize, sends: bool) -> Self {
        Gossip {
            quorum,
            sends,
            input: None,
            heard: vec![false; k],
            count: 0,
            out: None,
        }
    }

    fn share(&self, of: PeerId, k: usize) -> Chunk {
        let input = self.input.as_ref().expect("read at start");
        let per = input.len().div_ceil(k);
        let range = (of.index() * per).min(input.len())..((of.index() + 1) * per).min(input.len());
        Chunk {
            offset: range.start,
            bits: input.slice(range),
        }
    }

    fn finish_if_heard_enough(&mut self) {
        if self.count >= self.quorum {
            self.out = self.input.clone();
        }
    }
}

impl Protocol for Gossip {
    type Msg = Chunk;

    fn on_start(&mut self, ctx: &mut dyn Context<Chunk>) {
        let (me, k) = (ctx.me(), ctx.num_peers());
        self.input = Some(ctx.query_range(0..ctx.input_len()));
        let share = self.share(me, k);
        if self.sends {
            ctx.send(PeerId((me.index() + 1) % k), share.clone());
        }
        ctx.broadcast(share.clone());
        if self.sends {
            ctx.send(me, share);
        }
        self.finish_if_heard_enough();
    }

    fn on_message(&mut self, from: PeerId, msg: Chunk, ctx: &mut dyn Context<Chunk>) {
        let input = self.input.as_ref().expect("started");
        assert_eq!(
            msg.bits,
            input.slice(msg.offset..msg.offset + msg.bits.len()),
            "{} received a damaged chunk from {from}",
            ctx.me()
        );
        if !std::mem::replace(&mut self.heard[from.index()], true) {
            self.count += 1;
            if self.count == 1 {
                ctx.broadcast(self.share(from, ctx.num_peers()));
            }
        }
        self.finish_if_heard_enough();
    }

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

/// Hands the wrapped protocol a context with `send` but no `broadcast`
/// override: every broadcast becomes the provided loop of sends.
struct PerRecipientSends<P>(P);

struct SendOnlyCtx<'a, M>(&'a mut dyn Context<M>);

impl<M: ProtocolMessage> Context<M> for SendOnlyCtx<'_, M> {
    fn me(&self) -> PeerId {
        self.0.me()
    }
    fn num_peers(&self) -> usize {
        self.0.num_peers()
    }
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn send(&mut self, to: PeerId, msg: M) {
        self.0.send(to, msg)
    }
    fn query(&mut self, index: usize) -> bool {
        self.0.query(index)
    }
    fn query_range(&mut self, range: std::ops::Range<usize>) -> BitArray {
        self.0.query_range(range)
    }
    fn rng(&mut self) -> &mut dyn rand::RngCore {
        self.0.rng()
    }
}

impl<P: Protocol> Protocol for PerRecipientSends<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut dyn Context<P::Msg>) {
        self.0.on_start(&mut SendOnlyCtx(ctx))
    }
    fn on_message(&mut self, from: PeerId, msg: P::Msg, ctx: &mut dyn Context<P::Msg>) {
        self.0.on_message(from, msg, &mut SendOnlyCtx(ctx))
    }
    fn output(&self) -> Option<&BitArray> {
        self.0.output()
    }
}

/// A deterministic adversary scripted field by field; everything left at
/// its default is benign. Latencies depend on the link only.
#[derive(Clone, Default)]
struct Script {
    /// Start offset per peer (peer index ticks where absent).
    starts: Vec<Ticks>,
    /// Crashed at its first event, before taking a step.
    crash_at_start: Option<PeerId>,
    /// `(victim, keep)`: crash the victim in its first outgoing batch,
    /// letting `keep` messages out.
    cut: Option<(PeerId, usize)>,
    /// Hold every `n`-th message (0: none). Each compelled release lets
    /// go of the older half of what is held.
    hold_every: usize,
    /// Drop every `n`-th transmission attempt (0: links are not lossy).
    drop_every: usize,
    plan: LinkFaultPlan,
    sends_seen: usize,
    transmits_seen: usize,
}

impl<M: ProtocolMessage> Adversary<M> for Script {
    fn start_offset(&mut self, peer: PeerId, _rng: &mut StdRng) -> Ticks {
        self.starts
            .get(peer.index())
            .copied()
            .unwrap_or(peer.index() as Ticks)
    }

    fn on_send(
        &mut self,
        _view: &View<'_>,
        from: PeerId,
        to: PeerId,
        _msg: &M,
        _rng: &mut StdRng,
    ) -> Delivery {
        self.sends_seen += 1;
        if self.hold_every > 0 && self.sends_seen.is_multiple_of(self.hold_every) {
            Delivery::Hold
        } else {
            Delivery::After(1 + ((7 * from.index() + 3 * to.index()) % 5) as Ticks)
        }
    }

    fn on_quiescence(&mut self, _view: &View<'_>, held: &[dr_sim::HeldInfo]) -> Release {
        Release::Some((0..held.len().div_ceil(2)).collect())
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(usize::from(self.crash_at_start.is_some()) + usize::from(self.cut.is_some()))
    }

    fn crash_before_event(&mut self, _view: &View<'_>, peer: PeerId) -> bool {
        self.crash_at_start == Some(peer)
    }

    fn crash_during_send(
        &mut self,
        _view: &View<'_>,
        peer: PeerId,
        _planned: usize,
    ) -> Option<usize> {
        match self.cut {
            Some((victim, keep)) if victim == peer => Some(keep),
            _ => None,
        }
    }

    fn link_fault_plan(&self) -> LinkFaultPlan {
        self.plan.clone()
    }

    fn lossy(&self) -> bool {
        self.drop_every > 0
    }

    fn on_transmit(
        &mut self,
        _view: &View<'_>,
        _from: PeerId,
        _to: PeerId,
        _attempt: u32,
        _rng: &mut StdRng,
    ) -> LinkDecision {
        self.transmits_seen += 1;
        if self.transmits_seen.is_multiple_of(self.drop_every) {
            LinkDecision::Drop
        } else {
            LinkDecision::Transmit
        }
    }
}

/// Makes a run's adversary; called once per run so every run starts from
/// the same adversary state.
type AdversaryFactory = Box<dyn Fn() -> Box<dyn Adversary<Chunk>>>;

/// One configuration, run natively and through [`PerRecipientSends`].
struct Case {
    label: &'static str,
    n: usize,
    k: usize,
    b: usize,
    seed: u64,
    quorum: usize,
    adversary: AdversaryFactory,
}

/// Everything the two runs must agree on. `schedule` is what the
/// adversary was asked and answered, call by call (the effective `keep`
/// of a cut is capped by the `planned` count the simulator announced);
/// `trace` is what the simulator did with it.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<Facts, RunError>,
    schedule: ScheduleTrace,
}

#[derive(Debug, PartialEq)]
struct Facts {
    fingerprint: u64,
    trace: Vec<TraceEntry>,
    messages_sent: u64,
    message_bits: u64,
    /// Parked, link drops, retransmissions, deferred.
    link: [u64; 4],
    events: u64,
    quiescence_releases: u64,
    peak_queue_len: u64,
    crashed: Vec<PeerId>,
}

impl Facts {
    fn of(mut report: RunReport) -> (Self, u64) {
        let facts = Facts {
            fingerprint: report.fingerprint(),
            trace: report.trace.take().expect("trace enabled"),
            messages_sent: report.messages_sent,
            message_bits: report.message_bits,
            link: [
                report.parked_messages,
                report.link_drops,
                report.retransmissions,
                report.deferred_deliveries,
            ],
            events: report.events,
            quiescence_releases: report.quiescence_releases,
            peak_queue_len: report.peak_queue_len,
            crashed: report.crashed.iter().collect(),
        };
        (facts, report.peak_slab_len)
    }
}

fn params(case: &Case) -> ModelParams {
    ModelParams::builder(case.n, case.k)
        .faults(FaultModel::Crash, case.b)
        .build()
        .unwrap()
}

/// Runs `case` and returns what was observed plus the peak slab
/// occupancy (zero for a failed run).
fn observe<P: Protocol<Msg = Chunk> + 'static>(
    case: &Case,
    wrap: fn(Gossip) -> P,
) -> (Observed, u64) {
    let (recorder, handle) = RecordingAdversary::new((case.adversary)());
    let (k, quorum) = (case.k, case.quorum);
    let run = SimBuilder::new(params(case))
        .seed(case.seed)
        .trace()
        .protocol(move |_| wrap(Gossip::new(k, quorum, true)))
        .adversary(recorder)
        .build()
        .run();
    let (result, peak_slab) = match run.map(Facts::of) {
        Ok((facts, peak_slab)) => (Ok(facts), peak_slab),
        Err(e) => (Err(e), 0),
    };
    let observed = Observed {
        result,
        schedule: handle.take(),
    };
    (observed, peak_slab)
}

/// The native run and the send-only run of `case` agree, and the native
/// one never occupies more slots.
fn assert_equivalent(case: &Case) -> Observed {
    let (native, native_slab) = observe(case, |g| g);
    let (adapted, adapted_slab) = observe(case, PerRecipientSends);
    assert_eq!(native, adapted, "{}", case.label);
    assert!(
        native_slab <= adapted_slab,
        "{}: {native_slab} slots natively, {adapted_slab} per recipient",
        case.label
    );
    native
}

fn completed<'a>(observed: &'a Observed, label: &str) -> &'a Facts {
    observed
        .result
        .as_ref()
        .unwrap_or_else(|e| panic!("{label}: {e}"))
}

fn scripted(script: Script) -> AdversaryFactory {
    Box::new(move || Box::new(script.clone()))
}

/// Messages one start step of [`Gossip`] plans: a send, the broadcast,
/// the self-send.
fn start_batch(k: usize) -> usize {
    k + 1
}

#[test]
fn staggered_starts_and_random_delays() {
    for seed in [1u64, 2, 3] {
        let observed = assert_equivalent(&Case {
            label: "benign",
            n: 200,
            k: 9,
            b: 0,
            seed,
            quorum: 8,
            adversary: Box::new(|| Box::new(StandardAdversary::benign())),
        });
        let facts = completed(&observed, "benign");
        // Everyone starts (k + 1 messages) and everyone hears a first
        // message (k − 1 more).
        assert_eq!(facts.messages_sent, 9 * (start_batch(9) + 8) as u64);
    }
}

/// A recipient that starts after every broadcast has arrived finds them
/// in its pre-start buffer; one that terminated at its start has them
/// dropped; one crashed at its start never sees them.
#[test]
fn recipients_not_started_terminated_and_crashed() {
    let k = 7;
    let mut starts: Vec<Ticks> = (0..k as Ticks).collect();
    starts[4] = 3 * TICKS_PER_UNIT;
    for quorum in [0, 2, 5] {
        let observed = assert_equivalent(&Case {
            label: "lifecycle",
            n: 130,
            k,
            b: 1,
            seed: 5,
            quorum,
            adversary: scripted(Script {
                starts: starts.clone(),
                crash_at_start: Some(PeerId(2)),
                ..Script::default()
            }),
        });
        let facts = completed(&observed, "lifecycle");
        assert_eq!(facts.crashed, vec![PeerId(2)]);
        let dropped = facts
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEntry::Drop { .. }))
            .count();
        assert!(dropped > 0, "quorum={quorum}: nothing was dropped");
    }
}

/// `crash_during_send` sees the batch with its broadcast expanded, and
/// the cut keeps a prefix of it in send order: nothing, the send and
/// half the broadcast, or — asking for more than there is — all of it.
#[test]
fn mid_send_crash_cuts_inside_a_broadcast() {
    let k = 8;
    let victim = PeerId(3);
    let mid = 1 + (k - 1) / 2;
    for (keep, kept) in [(0, 0), (mid, mid), (usize::MAX, start_batch(k))] {
        let observed = assert_equivalent(&Case {
            label: "cut",
            n: 150,
            k,
            b: 1,
            seed: 11,
            quorum: k - 2,
            adversary: scripted(Script {
                cut: Some((victim, keep)),
                ..Script::default()
            }),
        });
        // The recorder caps the cut at the announced batch size.
        assert_eq!(observed.schedule.cuts.len(), 1);
        assert_eq!(observed.schedule.cuts[0].keep, kept, "keep={keep}");
        let facts = completed(&observed, "cut");
        assert_eq!(facts.crashed, vec![victim]);
        let victim_deliveries = facts
            .trace
            .iter()
            .filter(|e| matches!(e, TraceEntry::Deliver { from, .. } if from == &victim))
            .count();
        assert!(victim_deliveries <= kept, "keep={keep}");
    }
}

#[test]
fn holds_are_released_under_compulsion() {
    let scripted_holds = Case {
        label: "scripted holds",
        n: 160,
        k: 8,
        b: 0,
        seed: 13,
        quorum: 7,
        adversary: scripted(Script {
            hold_every: 3,
            ..Script::default()
        }),
    };
    let observed = assert_equivalent(&scripted_holds);
    assert!(completed(&observed, "scripted holds").quiescence_releases > 0);
    for seed in [17u64, 18] {
        let observed = assert_equivalent(&Case {
            label: "random holds",
            n: 160,
            k: 8,
            b: 0,
            seed,
            quorum: 7,
            adversary: Box::new(|| Box::new(HoldUntilQuiescence::new(0.4, 3))),
        });
        assert!(completed(&observed, "random holds").quiescence_releases > 0);
    }
}

/// A cut through the middle of the network parks half of every
/// broadcast; the other half is delivered at once.
#[test]
fn a_partition_parks_half_a_broadcast() {
    let k = 8;
    let heal = 4 * TICKS_PER_UNIT;
    let observed = assert_equivalent(&Case {
        label: "static cut",
        n: 160,
        k,
        b: 0,
        seed: 19,
        quorum: k - 1,
        adversary: scripted(Script {
            plan: LinkFaultPlan {
                partitions: vec![PartitionDirective {
                    name: "halves".into(),
                    group: (0..k / 2).map(PeerId).collect(),
                    from_tick: 0,
                    heal_tick: heal,
                }],
                ..Default::default()
            },
            hold_every: 5,
            ..Script::default()
        }),
    });
    let facts = completed(&observed, "static cut");
    assert!(
        facts.link[0] >= (k * k / 2) as u64,
        "parked {}",
        facts.link[0]
    );
    for seed in [23u64, 24] {
        let observed = assert_equivalent(&Case {
            label: "partition healer",
            n: 160,
            k,
            b: 0,
            seed,
            quorum: k - 1,
            adversary: Box::new(move || Box::new(PartitionHealer::new(k, seed, 2))),
        });
        completed(&observed, "partition healer");
    }
}

/// Lossy links: a dropped recipient waits for its resend while the rest
/// of the broadcast goes ahead.
#[test]
fn lossy_links_resend_inside_a_broadcast() {
    let retrying: [(&str, AdversaryFactory); 2] = [
        (
            "scripted drops",
            scripted(Script {
                drop_every: 3,
                ..Script::default()
            }),
        ),
        (
            "lossy links",
            Box::new(|| Box::new(LossyLinks::new(31, 300))),
        ),
    ];
    for (label, adversary) in retrying {
        let observed = assert_equivalent(&Case {
            label,
            n: 140,
            k: 7,
            b: 0,
            seed: 31,
            quorum: 3,
            adversary,
        });
        let facts = completed(&observed, label);
        assert!(
            facts.link[1] > 0 && facts.link[1] == facts.link[2],
            "{label}: {:?}",
            facts.link
        );
    }
}

#[test]
fn churn_defers_shared_deliveries() {
    let k = 7;
    let observed = assert_equivalent(&Case {
        label: "fixed churn",
        n: 140,
        k,
        b: 0,
        seed: 41,
        quorum: k - 1,
        adversary: scripted(Script {
            plan: LinkFaultPlan {
                churn: vec![ChurnDirective {
                    peer: PeerId(2),
                    leave: 0,
                    rejoin: 3 * TICKS_PER_UNIT,
                }],
                ..Default::default()
            },
            ..Script::default()
        }),
    });
    assert!(completed(&observed, "fixed churn").link[3] > 0);
    for seed in [43u64, 44] {
        let observed = assert_equivalent(&Case {
            label: "churn mixer",
            n: 140,
            k,
            b: 0,
            seed,
            quorum: k - 1,
            adversary: Box::new(move || Box::new(ChurnMixer::new(k, seed, 2))),
        });
        completed(&observed, "churn mixer");
    }
}

/// Crashes before events, mid-send cuts sized from the announced batch,
/// holds and partial releases, all drawn from the adversary's own
/// generator: one draw out of step and the schedules part ways.
#[test]
fn chaos_draws_the_same_schedule() {
    let (k, b) = (9, 3);
    let cfg = ChaosConfig {
        crash_budget: b,
        crash_prob: 0.05,
        cut_prob: 0.15,
        hold_prob: 0.3,
        partial_release_prob: 0.6,
    };
    let mut cuts = 0;
    for seed in 0..16u64 {
        let observed = assert_equivalent(&Case {
            label: "chaos",
            n: 180,
            k,
            b,
            seed,
            quorum: k - 1 - b,
            adversary: Box::new(move || Box::new(ChaosAdversary::new(seed, cfg))),
        });
        cuts += observed.schedule.cuts.len();
    }
    assert!(cuts > 0, "no seed cut a batch");
}

/// Capacity counts slots. Peer 1's broadcast to peers 0 and 2 fits a
/// one-slot slab, which two private copies would not. While it is in
/// flight peer 0 broadcasts and finds the slab full. The run fails with
/// the structured error, and the audit that follows (debug builds) finds
/// peer 1's slot still owned by its two recipients.
#[test]
fn slab_overflow_while_a_broadcast_is_in_flight() {
    let (n, k) = (60, 3);
    let run = |capacity: u32| {
        SimBuilder::new(ModelParams::fault_free(n, k).unwrap())
            .seed(53)
            .slab_capacity(capacity)
            .protocol(move |_| Gossip::new(k, 0, false))
            .adversary(Script {
                starts: vec![1, 0, 10 * TICKS_PER_UNIT],
                ..Script::default()
            })
            .build()
            .run()
    };
    match run(1) {
        Err(RunError::SlabOverflow { capacity }) => assert_eq!(capacity, 1),
        other => panic!("expected slab overflow, got {other:?}"),
    }
    // Peer 2 starts last, with both broadcasts waiting for it, and adds
    // its own.
    let report = run(3).expect("three slots are enough");
    assert_eq!(report.peak_slab_len, 3);
}
