//! Slab-lifecycle regressions: slot ownership across crashes, the
//! capacity error path, and the adaptive crasher's pre-start behavior.
//!
//! Debug builds end every run, failed ones included, with the simulator's
//! no-leaked-slots audit (every occupied payload slot must count exactly
//! the queued deliveries, pending resends, held messages and pre-start
//! buffer entries that share it), so simply driving these scenarios to
//! their end is itself the regression check.

use dr_core::{BitArray, Context, FaultModel, ModelParams, PeerId, Protocol, ProtocolMessage};
use dr_sim::{
    AdaptiveCrasher, Adversary, ChaosAdversary, ChaosConfig, Delivery, LinkDecision, LinkFaultPlan,
    PartitionDirective, RetransmitPolicy, RunError, SimBuilder, Ticks, TICKS_PER_UNIT,
};
use rand::rngs::StdRng;

/// A fixed-size ping; its only job is to occupy a slab slot.
#[derive(Debug, Clone)]
struct Ping;

impl ProtocolMessage for Ping {
    fn bit_len(&self) -> usize {
        8
    }
}

/// Crash-resilient protocol: every peer downloads the whole input itself
/// and terminates on its start step, after broadcasting a ping to every
/// other peer. No peer depends on any other, so runs complete no matter
/// who crashes — while the pings exercise every slot-lifecycle path
/// (in-flight, held, pre-start-buffered, dropped-at-crash).
struct Solo {
    out: Option<BitArray>,
}

impl Protocol for Solo {
    type Msg = Ping;

    fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
        let n = ctx.input_len();
        let bits = ctx.query_range(0..n);
        ctx.broadcast(Ping);
        self.out = Some(bits);
    }

    fn on_message(&mut self, _from: PeerId, _msg: Ping, _ctx: &mut dyn Context<Ping>) {}

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

/// Starts the victim almost a full unit after everyone else (so pings
/// pile up in its pre-start buffer) and crashes it at its start event —
/// before it ever takes a step. The regression: those buffered pings'
/// slab slots used to leak at the crash.
struct CrashVictimAtStart {
    victim: PeerId,
}

impl<M: ProtocolMessage> Adversary<M> for CrashVictimAtStart {
    fn start_offset(&mut self, peer: PeerId, _rng: &mut StdRng) -> Ticks {
        if peer == self.victim {
            TICKS_PER_UNIT - 1
        } else {
            peer.index() as Ticks
        }
    }

    fn on_send(
        &mut self,
        _view: &dr_sim::View<'_>,
        _from: PeerId,
        _to: PeerId,
        _msg: &M,
        _rng: &mut StdRng,
    ) -> Delivery {
        Delivery::After(1)
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(1)
    }

    fn crash_before_event(&mut self, _view: &dr_sim::View<'_>, peer: PeerId) -> bool {
        peer == self.victim
    }
}

/// Fully deterministic benign schedule: indexed start offsets, unit
/// latency, no crashes.
struct DetBenign;

impl<M: ProtocolMessage> Adversary<M> for DetBenign {
    fn start_offset(&mut self, peer: PeerId, _rng: &mut StdRng) -> Ticks {
        peer.index() as Ticks
    }

    fn on_send(
        &mut self,
        _view: &dr_sim::View<'_>,
        _from: PeerId,
        _to: PeerId,
        _msg: &M,
        _rng: &mut StdRng,
    ) -> Delivery {
        Delivery::After(1)
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }
}

/// Holds one peer's start late (messages accumulate pre-start) while an
/// inner adversary makes all other decisions.
struct LateStart<A> {
    victim: PeerId,
    inner: A,
}

impl<M: ProtocolMessage, A: Adversary<M>> Adversary<M> for LateStart<A> {
    fn start_offset(&mut self, peer: PeerId, _rng: &mut StdRng) -> Ticks {
        if peer == self.victim {
            TICKS_PER_UNIT - 1
        } else {
            peer.index() as Ticks
        }
    }

    fn on_send(
        &mut self,
        view: &dr_sim::View<'_>,
        from: PeerId,
        to: PeerId,
        msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        self.inner.on_send(view, from, to, msg, rng)
    }

    fn on_quiescence(
        &mut self,
        view: &dr_sim::View<'_>,
        held: &[dr_sim::HeldInfo],
    ) -> dr_sim::Release {
        self.inner.on_quiescence(view, held)
    }

    fn planned_crashes(&self) -> Option<usize> {
        self.inner.planned_crashes()
    }

    fn crash_before_event(&mut self, view: &dr_sim::View<'_>, peer: PeerId) -> bool {
        self.inner.crash_before_event(view, peer)
    }

    fn crash_during_send(
        &mut self,
        view: &dr_sim::View<'_>,
        peer: PeerId,
        planned: usize,
    ) -> Option<usize> {
        self.inner.crash_during_send(view, peer, planned)
    }
}

fn crash_params(n: usize, k: usize, b: usize) -> ModelParams {
    ModelParams::builder(n, k)
        .faults(FaultModel::Crash, b)
        .build()
        .unwrap()
}

/// The held-at-start leak: a peer with pings waiting in its pre-start
/// buffer crashes before its first step. Its buffered slots must be
/// freed at the crash — the debug no-leak audit at end of run fails
/// otherwise.
#[test]
fn crash_before_start_frees_buffered_slots() {
    let (n, k) = (64, 5);
    let victim = PeerId(k - 1);
    let sim = SimBuilder::new(crash_params(n, k, 1))
        .seed(7)
        .protocol(move |_| Solo { out: None })
        .adversary(CrashVictimAtStart { victim })
        .build();
    let report = sim
        .run()
        .expect("solo peers terminate regardless of the crash");
    assert!(report.crashed.contains(victim));
    for p in 0..k - 1 {
        assert!(
            report.outputs[p].is_some(),
            "honest peer {p} missing output"
        );
    }
    // The victim never ran: it holds no output and took no queries.
    assert!(report.outputs[victim.index()].is_none());
    assert_eq!(report.query_counts[victim.index()], 0);
}

/// Chaos campaign over the full lifecycle: random crashes (including
/// before-start), mid-send cuts, and holds, across seeds. Every run must
/// complete and pass the debug no-leak audit.
#[test]
fn chaos_campaign_leaks_no_slots() {
    let (n, k, b) = (64, 8, 3);
    let cfg = ChaosConfig {
        crash_budget: b,
        crash_prob: 0.5,
        cut_prob: 0.25,
        hold_prob: 0.4,
        partial_release_prob: 0.5,
    };
    for seed in 0..12u64 {
        let sim = SimBuilder::new(crash_params(n, k, b))
            .seed(seed)
            .protocol(move |_| Solo { out: None })
            .adversary(ChaosAdversary::new(seed, cfg))
            .build();
        let report = sim.run().unwrap_or_else(|e| panic!("seed={seed}: {e}"));
        assert!(report.crashed.len() <= b, "seed={seed}");
    }
}

/// A broadcast occupies one slot whatever its fan-out, so a slab capped
/// at 1 slot holds the 3-ping broadcast of the first peer to start — and
/// not the second peer's, sent while those pings are still queued: the
/// run must surface the structured overflow error instead of panicking
/// mid-pump.
#[test]
fn tiny_slab_capacity_is_a_structured_error() {
    let sim = SimBuilder::new(ModelParams::fault_free(64, 4).unwrap())
        .seed(3)
        .slab_capacity(1)
        .protocol(move |_| Solo { out: None })
        .adversary(DetBenign)
        .build();
    match sim.run() {
        Err(RunError::SlabOverflow { capacity }) => assert_eq!(capacity, 1),
        other => panic!("expected slab overflow, got {other:?}"),
    }
}

/// Sends to peer 1 arrive after a full unit, sends to peer 2 are held,
/// everything else arrives on the next tick; peer 0 starts first and the
/// last peer almost a unit later. After peer 0's start step its broadcast
/// therefore has one recipient queued, one held and (a tick later) one
/// waiting in a pre-start buffer — every kind of owner a slot can have.
struct ScatterOwners {
    k: usize,
}

impl<M: ProtocolMessage> Adversary<M> for ScatterOwners {
    fn start_offset(&mut self, peer: PeerId, _rng: &mut StdRng) -> Ticks {
        if peer.index() == self.k - 1 {
            TICKS_PER_UNIT - 1
        } else {
            5 * peer.index() as Ticks
        }
    }

    fn on_send(
        &mut self,
        _view: &dr_sim::View<'_>,
        _from: PeerId,
        to: PeerId,
        _msg: &M,
        _rng: &mut StdRng,
    ) -> Delivery {
        match to.index() {
            1 => Delivery::After(TICKS_PER_UNIT),
            2 => Delivery::Hold,
            _ => Delivery::After(1),
        }
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }
}

/// A run the livelock guard stops after two steps, while peer 0's
/// broadcast slot is still owned by a queued delivery (to peer 1), a held
/// message (to peer 2) and a pre-start buffer entry (peer 3 has not
/// started). The audit runs after the error and must account for all
/// three.
#[test]
fn event_limit_with_queued_held_and_buffered_recipients_leaks_no_slots() {
    let k = 4;
    let sim = SimBuilder::new(ModelParams::fault_free(64, k).unwrap())
        .seed(31)
        .max_events(2)
        .protocol(move |_| Solo { out: None })
        .adversary(ScatterOwners { k })
        .build();
    match sim.run() {
        Err(RunError::EventLimitExceeded { limit }) => assert_eq!(limit, 2),
        other => panic!("expected the event limit, got {other:?}"),
    }
}

/// Two point-to-point sends, then a broadcast, in one start step.
struct SendsThenBroadcast {
    out: Option<BitArray>,
}

impl Protocol for SendsThenBroadcast {
    type Msg = Ping;

    fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
        ctx.send(PeerId(1), Ping);
        ctx.send(PeerId(2), Ping);
        ctx.broadcast(Ping);
        self.out = Some(ctx.query_range(0..ctx.input_len()));
    }

    fn on_message(&mut self, _from: PeerId, _msg: Ping, _ctx: &mut dyn Context<Ping>) {}

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

/// The slab fills up in the middle of a step's outbox: peer 0's two
/// sends are already routed — one queued, one held — when its broadcast
/// finds the 2-slot slab full. The run fails with the structured error
/// and the recipients routed before it still own their slots, which the
/// audit must find and release.
#[test]
fn slab_overflow_mid_outbox_keeps_routed_recipients_accounted() {
    let k = 4;
    let sim = SimBuilder::new(ModelParams::fault_free(64, k).unwrap())
        .seed(37)
        .slab_capacity(2)
        .protocol(move |_| SendsThenBroadcast { out: None })
        .adversary(ScatterOwners { k })
        .build();
    match sim.run() {
        Err(RunError::SlabOverflow { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected slab overflow, got {other:?}"),
    }
}

/// An ample capacity is never hit: the same run that overflows at 1
/// slot completes untouched at 4 (slots are recycled after the last
/// delivery, so the cap bounds concurrent payloads, not total traffic).
#[test]
fn ample_slab_capacity_never_trips() {
    let sim = SimBuilder::new(ModelParams::fault_free(64, 4).unwrap())
        .seed(3)
        .slab_capacity(4)
        .protocol(move |_| Solo { out: None })
        .adversary(DetBenign)
        .build();
    sim.run().expect("4 slots cover one broadcast per peer");
}

/// Unit-latency lossy adversary that drops every transmission attempt,
/// under a configurable retry policy. Crash-inert.
struct AlwaysDrop {
    policy: RetransmitPolicy,
}

impl<M: ProtocolMessage> Adversary<M> for AlwaysDrop {
    fn on_send(
        &mut self,
        _view: &dr_sim::View<'_>,
        _from: PeerId,
        _to: PeerId,
        _msg: &M,
        _rng: &mut StdRng,
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
        _view: &dr_sim::View<'_>,
        _from: PeerId,
        _to: PeerId,
        _attempt: u32,
        _rng: &mut StdRng,
    ) -> LinkDecision {
        LinkDecision::Drop
    }
}

/// Unit-latency adversary with a single static cut isolating peer 0
/// until `heal`. Crash-inert.
struct StaticCut {
    heal: Ticks,
}

impl<M: ProtocolMessage> Adversary<M> for StaticCut {
    fn on_send(
        &mut self,
        _view: &dr_sim::View<'_>,
        _from: PeerId,
        _to: PeerId,
        _msg: &M,
        _rng: &mut StdRng,
    ) -> Delivery {
        Delivery::After(1)
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }

    fn link_fault_plan(&self) -> LinkFaultPlan {
        LinkFaultPlan {
            partitions: vec![PartitionDirective {
                name: "audit-cut".into(),
                group: vec![PeerId(0)],
                from_tick: 0,
                heal_tick: self.heal,
            }],
            ..Default::default()
        }
    }
}

/// Messages abandoned by the retransmission layer free their slab slots
/// at the loss: with a zero-retry policy every ping is dropped exactly
/// once and lost, and the end-of-run audit must find no orphan slots.
#[test]
fn lost_messages_free_their_slots() {
    let (n, k) = (64, 5);
    let sim = SimBuilder::new(ModelParams::fault_free(n, k).unwrap())
        .seed(17)
        .protocol(move |_| Solo { out: None })
        .adversary(AlwaysDrop {
            policy: RetransmitPolicy {
                backoff_base: TICKS_PER_UNIT / 8,
                max_retries: 0,
                fail_fast: false,
            },
        })
        .build();
    let report = sim.run().expect("solo peers need no messages");
    let pings = (k * (k - 1)) as u64;
    assert_eq!(report.link_drops, pings);
    assert_eq!(report.messages_lost, pings);
    assert_eq!(report.retransmissions, 0);
    for p in 0..k {
        assert!(report.outputs[p].is_some());
    }
}

/// A run that ends while messages are still parked behind an unhealed
/// cut: the parked payloads' slots are owned by queued deliveries the
/// run never drains, and the audit must account for every one of them.
#[test]
fn parked_payloads_survive_an_unhealed_cut_without_leaking() {
    let (n, k) = (64, 5);
    let heal = 100 * TICKS_PER_UNIT;
    let sim = SimBuilder::new(ModelParams::fault_free(n, k).unwrap())
        .seed(23)
        .protocol(move |_| Solo { out: None })
        .adversary(StaticCut { heal })
        .build();
    let report = sim.run().expect("solo peers terminate mid-cut");
    // Peer 0's k-1 outgoing pings plus the k-1 inbound ones all park.
    assert_eq!(report.parked_messages, 2 * (k as u64 - 1));
    assert!(
        report.virtual_time_ticks < heal,
        "solo run should end before the far-future heal"
    );
}

/// A run that ends with resends still pending: the backed-off
/// retransmit events own their payload slots and carry side-table
/// state; the audit must drain both together.
#[test]
fn pending_retransmissions_do_not_leak_at_termination() {
    let (n, k) = (64, 5);
    let sim = SimBuilder::new(ModelParams::fault_free(n, k).unwrap())
        .seed(29)
        .protocol(move |_| Solo { out: None })
        .adversary(AlwaysDrop {
            policy: RetransmitPolicy::default(),
        })
        .build();
    let report = sim
        .run()
        .expect("solo peers terminate with resends pending");
    assert!(report.link_drops > 0);
    assert!(report.retransmissions > 0);
    assert_eq!(report.messages_lost, 0, "retries never capped out");
}

/// The adaptive crasher must not spend its budget on the held-at-start
/// peer: every crash consultation in this run happens at a start event
/// (event count still zero), so nothing may be crashed — in particular
/// not the victim, whose start fires last against an all-zero frontier.
#[test]
fn adaptive_crasher_skips_held_at_start_peer() {
    let (n, k) = (64, 5);
    let victim = PeerId(k - 1);
    let sim = SimBuilder::new(crash_params(n, k, 1))
        .seed(11)
        .protocol(move |_| Solo { out: None })
        .adversary(LateStart {
            victim,
            inner: AdaptiveCrasher::new(1, 0),
        })
        .build();
    let report = sim.run().expect("nothing crashes, everyone terminates");
    assert!(
        report.crashed.is_empty(),
        "adaptive budget spent on a peer that never ran: {:?}",
        report.crashed
    );
    assert!(report.outputs[victim.index()].is_some());
}
