//! The adversary: delays, holds, and crashes.
//!
//! The model's adversary (§1.2) controls (i) when each peer starts, (ii)
//! the finite latency of every message, and (iii) which peers fail and
//! when — under the restrictions that crashes happen only between local
//! steps, at most `b` peers fail, and messages cannot be delayed forever:
//! when all honest peers are waiting (quiescence, §3.1), the adversary is
//! compelled to release held messages.
//!
//! [`Adversary`] is the full hook interface the simulator consults;
//! [`StandardAdversary`] composes the common case from a pluggable
//! [`DelayStrategy`] and a [`CrashPlan`]. The lower-bound experiments
//! implement `Adversary` directly for full adaptive control.

use crate::linkfault::{LinkDecision, LinkFaultPlan};
use crate::time::{Ticks, TICKS_PER_UNIT};
use crate::view::View;
use dr_core::{PeerId, ProtocolMessage};
use rand::rngs::StdRng;
use rand::Rng;

/// The adversary's decision about a freshly sent message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver after the given latency in ticks (clamped by the simulator
    /// to `1..=TICKS_PER_UNIT`; the normalization that defines the time
    /// unit).
    After(Ticks),
    /// Hold indefinitely; the message stays pending until the adversary
    /// releases it (voluntarily or when compelled at quiescence).
    Hold,
}

/// The adversary's decision at quiescence: which held messages to let go.
///
/// The model (§3.1) compels the adversary to make progress once every
/// nonfaulty peer is waiting, so "release nothing" is not expressible:
/// [`Release::Some`] with an empty (or entirely out-of-range) index set is
/// rejected by the simulator with a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Release {
    /// Release every held message.
    All,
    /// Release exactly the held messages at these indices (into the `held`
    /// slice passed to [`Adversary::on_quiescence`]). Must select at least
    /// one in-range index.
    Some(Vec<usize>),
}

/// Full adversary interface consulted by the simulator.
pub trait Adversary<M: ProtocolMessage>: Send {
    /// Offset (in ticks) before `peer` starts executing. There is no
    /// simultaneous start in the model; the default staggers peers within
    /// one time unit.
    fn start_offset(&mut self, peer: PeerId, rng: &mut StdRng) -> Ticks {
        let _ = peer;
        rng.gen_range(0..TICKS_PER_UNIT)
    }

    /// Latency (or hold) for a message just sent.
    fn on_send(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        msg: &M,
        rng: &mut StdRng,
    ) -> Delivery;

    /// Called at quiescence: the event queue is empty, some nonfaulty peer
    /// has not terminated, and `held` messages are pending. Returns which
    /// held messages to release now. The model compels progress, so the
    /// decision must release at least one message; [`Release::Some`] with
    /// no in-range index makes the simulator panic.
    fn on_quiescence(&mut self, view: &View<'_>, held: &[HeldInfo]) -> Release {
        let (_, _) = (view, held);
        Release::All
    }

    /// Upper bound on the number of distinct peers this adversary intends
    /// to crash, if it knows one in advance. Used by the simulator at build
    /// time to enforce the *joint* fault budget
    /// `num_crashed + num_byzantine ≤ b` before the run starts (the
    /// per-crash budget check still applies during the run regardless).
    /// Return `None` (the default) for adaptive adversaries that decide
    /// online.
    fn planned_crashes(&self) -> Option<usize> {
        None
    }

    /// Called immediately before delivering an event to `peer`. Returning
    /// `true` crashes the peer now (before it processes the event). The
    /// simulator enforces the fault budget; returning `true` once the
    /// budget is exhausted is an error in the adversary and will panic.
    fn crash_before_event(&mut self, view: &View<'_>, peer: PeerId) -> bool {
        let (_, _) = (view, peer);
        false
    }

    /// Called after `peer` handled an event and produced `planned` outgoing
    /// messages. Returning `Some(p)` crashes the peer mid-send: only the
    /// first `p` messages of the batch leave, modelling the paper's "crash
    /// after the peer has already sent some, but perhaps not all, of the
    /// messages".
    fn crash_during_send(
        &mut self,
        view: &View<'_>,
        peer: PeerId,
        planned: usize,
    ) -> Option<usize> {
        let (_, _, _) = (view, peer, planned);
        None
    }

    // Inert: nothing reads it. Kept only so `benchmark/` (which overrides
    // it) compiles; the next `[benchmark]` PR removes it.
    #[doc(hidden)]
    fn parallel_safe(&self) -> bool {
        false
    }

    /// The run's static link-fault declaration: partitions with scheduled
    /// heal ticks and peer churn windows (lossiness is declared by
    /// [`lossy`](Self::lossy)). Fetched exactly once at build time and
    /// validated against the peer count; the default is the trivial plan.
    /// Must be a pure function of the adversary's configuration (the same
    /// plan every call) so record/replay stays aligned.
    fn link_fault_plan(&self) -> LinkFaultPlan {
        LinkFaultPlan::default()
    }

    /// Whether this adversary drops transmissions — the gate for
    /// [`on_transmit`](Self::on_transmit) consultations. Must be constant
    /// for the whole run.
    fn lossy(&self) -> bool {
        false
    }

    /// Called for each transmission attempt of a scheduled delivery while
    /// [`lossy`](Self::lossy) is true: `attempt` 0 is the original send,
    /// `attempt` `a ≥ 1` the `a`-th backed-off resend. Returning
    /// [`LinkDecision::Drop`] makes the retransmission layer schedule a
    /// backed-off resend; no message is ever abandoned. Not consulted for
    /// quiescence releases or partition-parked deliveries.
    fn on_transmit(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        attempt: u32,
        rng: &mut StdRng,
    ) -> LinkDecision {
        let _ = (view, from, to, attempt, rng);
        LinkDecision::Transmit
    }
}

/// Boxed adversaries forward to their contents, so adversary choices can
/// be made at runtime (a CLI flag, a property-test mix) and still be
/// handed to [`SimBuilder::adversary`](crate::SimBuilder::adversary).
impl<M: ProtocolMessage> Adversary<M> for Box<dyn Adversary<M>> {
    fn start_offset(&mut self, peer: PeerId, rng: &mut StdRng) -> Ticks {
        (**self).start_offset(peer, rng)
    }

    fn on_send(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        (**self).on_send(view, from, to, msg, rng)
    }

    fn on_quiescence(&mut self, view: &View<'_>, held: &[HeldInfo]) -> Release {
        (**self).on_quiescence(view, held)
    }

    fn planned_crashes(&self) -> Option<usize> {
        (**self).planned_crashes()
    }

    fn crash_before_event(&mut self, view: &View<'_>, peer: PeerId) -> bool {
        (**self).crash_before_event(view, peer)
    }

    fn crash_during_send(
        &mut self,
        view: &View<'_>,
        peer: PeerId,
        planned: usize,
    ) -> Option<usize> {
        (**self).crash_during_send(view, peer, planned)
    }

    fn link_fault_plan(&self) -> LinkFaultPlan {
        (**self).link_fault_plan()
    }

    fn lossy(&self) -> bool {
        (**self).lossy()
    }

    fn on_transmit(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        attempt: u32,
        rng: &mut StdRng,
    ) -> LinkDecision {
        (**self).on_transmit(view, from, to, attempt, rng)
    }
}

/// Metadata about a held message, exposed to [`Adversary::on_quiescence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldInfo {
    /// Sender of the held message.
    pub from: PeerId,
    /// Recipient of the held message.
    pub to: PeerId,
    /// Virtual time at which it was sent.
    pub sent_at: Ticks,
}

/// Pluggable per-message latency policy used by [`StandardAdversary`].
pub trait DelayStrategy<M>: Send {
    /// Latency in ticks for this message; the simulator clamps the result
    /// to `1..=TICKS_PER_UNIT`.
    fn latency(&mut self, from: PeerId, to: PeerId, msg: &M, now: Ticks, rng: &mut StdRng)
        -> Ticks;
}

/// Uniformly random latency in `1..=TICKS_PER_UNIT` — the "anything goes"
/// asynchronous baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct UniformDelay;

impl UniformDelay {
    /// Creates the strategy.
    pub fn new() -> Self {
        UniformDelay
    }
}

impl<M> DelayStrategy<M> for UniformDelay {
    fn latency(&mut self, _f: PeerId, _t: PeerId, _m: &M, _now: Ticks, rng: &mut StdRng) -> Ticks {
        rng.gen_range(1..=TICKS_PER_UNIT)
    }
}

/// Constant latency for every message (a synchronous-looking schedule;
/// useful as a best case and in determinism tests).
#[derive(Debug, Clone, Copy)]
pub struct FixedDelay(pub Ticks);

impl<M> DelayStrategy<M> for FixedDelay {
    fn latency(&mut self, _f: PeerId, _t: PeerId, _m: &M, _now: Ticks, _rng: &mut StdRng) -> Ticks {
        self.0
    }
}

/// Messages from (or to) a designated set of slow peers always take the
/// maximum latency, everything else is fast. This is the schedule that
/// makes "waiting for the last peer risks deadlock" bite: slow peers are
/// indistinguishable from crashed ones for as long as possible.
#[derive(Debug, Clone)]
pub struct TargetedSlowdown {
    slow: Vec<PeerId>,
    fast_ticks: Ticks,
}

impl TargetedSlowdown {
    /// Creates a strategy where `slow` peers' traffic crawls at max
    /// latency and all other traffic takes `fast_ticks`.
    pub fn new(slow: Vec<PeerId>, fast_ticks: Ticks) -> Self {
        TargetedSlowdown { slow, fast_ticks }
    }

    fn is_slow(&self, p: PeerId) -> bool {
        self.slow.contains(&p)
    }
}

impl<M> DelayStrategy<M> for TargetedSlowdown {
    fn latency(
        &mut self,
        from: PeerId,
        to: PeerId,
        _m: &M,
        _now: Ticks,
        _rng: &mut StdRng,
    ) -> Ticks {
        if self.is_slow(from) || self.is_slow(to) {
            TICKS_PER_UNIT
        } else {
            self.fast_ticks
        }
    }
}

/// When does a planned crash fire?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// Crash immediately before the peer processes its `n`-th event
    /// (0 = before it even starts).
    BeforeEvent(u64),
    /// Crash while the peer sends the batch produced by its `n`-th event,
    /// letting only the first `keep` messages out.
    DuringSend {
        /// Event index whose outgoing batch is cut.
        event: u64,
        /// Number of messages of the batch that still get out.
        keep: usize,
    },
}

/// A scheduled crash of one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashDirective {
    /// The peer to crash.
    pub peer: PeerId,
    /// When the crash fires.
    pub trigger: CrashTrigger,
}

/// A set of scheduled crashes (the crash-fault adversary's failure
/// pattern, fixed per execution).
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    directives: Vec<CrashDirective>,
}

impl CrashPlan {
    /// No crashes.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// Crash each listed peer before it processes its `event`-th event.
    pub fn before_event(peers: impl IntoIterator<Item = PeerId>, event: u64) -> Self {
        CrashPlan {
            directives: peers
                .into_iter()
                .map(|peer| CrashDirective {
                    peer,
                    trigger: CrashTrigger::BeforeEvent(event),
                })
                .collect(),
        }
    }

    /// Adds a directive.
    pub fn push(&mut self, d: CrashDirective) -> &mut Self {
        self.directives.push(d);
        self
    }

    /// Number of distinct peers this plan crashes.
    pub fn num_crashed(&self) -> usize {
        let mut peers: Vec<PeerId> = self.directives.iter().map(|d| d.peer).collect();
        peers.sort_unstable();
        peers.dedup();
        peers.len()
    }

    fn find_before(&self, peer: PeerId, event: u64) -> bool {
        self.directives.iter().any(|d| {
            d.peer == peer && matches!(d.trigger, CrashTrigger::BeforeEvent(e) if e == event)
        })
    }

    fn find_during(&self, peer: PeerId, event: u64) -> Option<usize> {
        self.directives.iter().find_map(|d| match d.trigger {
            CrashTrigger::DuringSend { event: e, keep } if d.peer == peer && e == event => {
                Some(keep)
            }
            _ => None,
        })
    }
}

/// The composable adversary covering the common experiments: a delay
/// strategy plus a crash plan. Never holds messages (all latencies are
/// finite and bounded by one unit), so quiescence never involves it.
pub struct StandardAdversary<M> {
    delay: Box<dyn DelayStrategy<M>>,
    crash_plan: CrashPlan,
    stagger_starts: bool,
}

impl<M: ProtocolMessage> StandardAdversary<M> {
    /// Creates an adversary with the given delay strategy and crash plan.
    pub fn new(delay: impl DelayStrategy<M> + 'static, crash_plan: CrashPlan) -> Self {
        StandardAdversary {
            delay: Box::new(delay),
            crash_plan,
            stagger_starts: true,
        }
    }

    /// Uniform random delays, no crashes.
    pub fn benign() -> Self {
        StandardAdversary::new(UniformDelay::new(), CrashPlan::none())
    }

    /// Starts every peer at time zero instead of staggering starts.
    pub fn simultaneous_start(mut self) -> Self {
        self.stagger_starts = false;
        self
    }
}

impl<M: ProtocolMessage> Adversary<M> for StandardAdversary<M> {
    fn start_offset(&mut self, _peer: PeerId, rng: &mut StdRng) -> Ticks {
        if self.stagger_starts {
            rng.gen_range(0..TICKS_PER_UNIT)
        } else {
            0
        }
    }

    fn on_send(
        &mut self,
        view: &View<'_>,
        from: PeerId,
        to: PeerId,
        msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        Delivery::After(self.delay.latency(from, to, msg, view.now, rng))
    }

    fn crash_before_event(&mut self, view: &View<'_>, peer: PeerId) -> bool {
        let event = view.status(peer).events_processed;
        self.crash_plan.find_before(peer, event)
    }

    fn crash_during_send(
        &mut self,
        view: &View<'_>,
        peer: PeerId,
        planned: usize,
    ) -> Option<usize> {
        // events_processed has already been incremented for the event whose
        // batch is being sent, so the current event index is the count - 1.
        // A zero count means the peer never took a step — it has no batch
        // to cut, and must not be confused with "currently at event 0".
        let event = view.status(peer).events_processed.checked_sub(1)?;
        self.crash_plan
            .find_during(peer, event)
            .map(|keep| keep.min(planned))
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(self.crash_plan.num_crashed())
    }
}

impl<M> std::fmt::Debug for StandardAdversary<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StandardAdversary")
            .field("crash_plan", &self.crash_plan)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{PeerRole, PeerStatus};
    use rand::SeedableRng;

    #[derive(Debug, Clone)]
    struct Unit;
    impl ProtocolMessage for Unit {
        fn bit_len(&self) -> usize {
            0
        }
    }

    fn view_with(peers: &[PeerStatus]) -> View<'_> {
        View { now: 0, peers }
    }

    #[test]
    fn uniform_delay_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = UniformDelay::new();
        for _ in 0..100 {
            let t =
                DelayStrategy::<Unit>::latency(&mut d, PeerId(0), PeerId(1), &Unit, 0, &mut rng);
            assert!((1..=TICKS_PER_UNIT).contains(&t));
        }
    }

    #[test]
    fn targeted_slowdown_discriminates() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = TargetedSlowdown::new(vec![PeerId(2)], 5);
        let slow = DelayStrategy::<Unit>::latency(&mut d, PeerId(2), PeerId(0), &Unit, 0, &mut rng);
        let fast = DelayStrategy::<Unit>::latency(&mut d, PeerId(0), PeerId(1), &Unit, 0, &mut rng);
        assert_eq!(slow, TICKS_PER_UNIT);
        assert_eq!(fast, 5);
    }

    #[test]
    fn crash_plan_matches_triggers() {
        let mut plan = CrashPlan::none();
        plan.push(CrashDirective {
            peer: PeerId(1),
            trigger: CrashTrigger::BeforeEvent(2),
        });
        plan.push(CrashDirective {
            peer: PeerId(1),
            trigger: CrashTrigger::DuringSend { event: 3, keep: 1 },
        });
        assert!(plan.find_before(PeerId(1), 2));
        assert!(!plan.find_before(PeerId(1), 1));
        assert_eq!(plan.find_during(PeerId(1), 3), Some(1));
        assert_eq!(plan.num_crashed(), 1);
    }

    #[test]
    fn standard_adversary_crashes_per_plan() {
        let plan = CrashPlan::before_event([PeerId(0)], 1);
        let mut adv: StandardAdversary<Unit> = StandardAdversary::new(FixedDelay(7), plan);
        let mut peers = vec![PeerStatus::new(PeerRole::Honest)];
        peers[0].events_processed = 1;
        assert!(adv.crash_before_event(&view_with(&peers), PeerId(0)));
        peers[0].events_processed = 2;
        assert!(!adv.crash_before_event(&view_with(&peers), PeerId(0)));
    }

    #[test]
    fn during_send_never_fires_for_a_peer_that_never_ran() {
        let mut plan = CrashPlan::none();
        plan.push(CrashDirective {
            peer: PeerId(0),
            trigger: CrashTrigger::DuringSend { event: 0, keep: 0 },
        });
        let mut adv: StandardAdversary<Unit> = StandardAdversary::new(FixedDelay(7), plan);
        let mut peers = vec![PeerStatus::new(PeerRole::Honest)];
        // A zero event count means the peer never took a step. The old
        // saturating subtraction aliased it with "currently at event 0"
        // and cut a batch that does not exist.
        assert_eq!(
            adv.crash_during_send(&view_with(&peers), PeerId(0), 3),
            None
        );
        // Once the count is 1, the peer really is sending event 0's batch.
        peers[0].events_processed = 1;
        assert_eq!(
            adv.crash_during_send(&view_with(&peers), PeerId(0), 3),
            Some(0)
        );
    }

    #[test]
    fn benign_adversary_never_holds() {
        let mut adv: StandardAdversary<Unit> = StandardAdversary::benign();
        let peers = vec![PeerStatus::new(PeerRole::Honest)];
        let mut rng = StdRng::seed_from_u64(0);
        match adv.on_send(&view_with(&peers), PeerId(0), PeerId(0), &Unit, &mut rng) {
            Delivery::After(t) => assert!(t >= 1),
            Delivery::Hold => panic!("benign adversary held a message"),
        }
    }
}
