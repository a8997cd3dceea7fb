//! Adaptive fault-injection adversaries for chaos campaigns.
//!
//! The paper's adversary is adaptive (§1.2): it observes the execution and
//! chooses delays, holds, and crashes on the fly. The scripted
//! [`CrashPlan`](crate::CrashPlan)s and stateless delay strategies used by
//! the reproduction experiments never exercise that adaptivity. The three
//! adversaries here do:
//!
//! * [`AdaptiveCrasher`] — fells the *most advanced* honest peer, the
//!   worst case for protocols whose progress concentrates in a few peers;
//! * [`HoldUntilQuiescence`] — holds random message subsets until the
//!   quiescence rule (§3.1) compels release, then releases as little as
//!   allowed;
//! * [`ChaosAdversary`] — randomly mixes delays, holds, crashes, and
//!   mid-send cuts within the fault budget.
//!
//! All three are deterministic given the simulation seed, so every chaos
//! run can be recorded with
//! [`RecordingAdversary`](crate::RecordingAdversary) and replayed
//! bit-identically.

use crate::adversary::{Adversary, Delivery, HeldInfo, Release};
use crate::time::TICKS_PER_UNIT;
use crate::view::{PeerRole, View};
use dr_core::{PeerId, ProtocolMessage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Budget-aware adaptive crash adversary: before a peer processes an
/// event, crash it if it is (one of) the most advanced honest peers and
/// has taken at least `min_events` steps. Uniform random delays otherwise.
///
/// Targeting the front-runner is the adaptive analogue of the paper's
/// "crash the peer that already queried its part" worst case: whatever a
/// protocol has learned through its most advanced peer is destroyed the
/// moment before that peer can act on it again.
#[derive(Debug)]
pub struct AdaptiveCrasher {
    budget: usize,
    used: usize,
    min_events: u64,
}

impl AdaptiveCrasher {
    /// Crashes up to `budget` peers, each only once it has processed at
    /// least `min_events` events.
    pub fn new(budget: usize, min_events: u64) -> Self {
        AdaptiveCrasher {
            budget,
            used: 0,
            min_events,
        }
    }
}

impl<M: ProtocolMessage> Adversary<M> for AdaptiveCrasher {
    fn on_send(
        &mut self,
        _view: &View<'_>,
        _from: PeerId,
        _to: PeerId,
        _msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        Delivery::After(rng.gen_range(1..=TICKS_PER_UNIT))
    }

    fn crash_before_event(&mut self, view: &View<'_>, peer: PeerId) -> bool {
        if self.used >= self.budget {
            return false;
        }
        let st = view.status(peer);
        // A peer that never took a step is not a front-runner, whatever
        // `min_events` says: with `min_events = 0` the all-zero frontier
        // used to let the crasher spend budget on a peer that had learned
        // nothing — crashing it destroys no progress and wastes the
        // adaptive budget.
        if st.events_processed == 0 || st.events_processed < self.min_events {
            return false;
        }
        // Only crash the current front-runner among live honest peers.
        let frontier = view
            .peers
            .iter()
            .filter(|p| p.is_nonfaulty() && !p.terminated)
            .map(|p| p.events_processed)
            .max()
            .unwrap_or(0);
        if st.events_processed >= frontier {
            self.used += 1;
            true
        } else {
            false
        }
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(self.budget)
    }
}

/// Holds each message with probability `hold_prob` and, when compelled at
/// quiescence, releases only the `release_chunk` oldest held messages —
/// the stingiest schedule the quiescence rule permits.
#[derive(Debug)]
pub struct HoldUntilQuiescence {
    hold_prob: f64,
    release_chunk: usize,
}

impl HoldUntilQuiescence {
    /// Holds each message with probability `hold_prob` (clamped to
    /// `[0, 1]`), releasing `release_chunk.max(1)` messages per compelled
    /// quiescence.
    pub fn new(hold_prob: f64, release_chunk: usize) -> Self {
        HoldUntilQuiescence {
            hold_prob: hold_prob.clamp(0.0, 1.0),
            release_chunk: release_chunk.max(1),
        }
    }
}

impl<M: ProtocolMessage> Adversary<M> for HoldUntilQuiescence {
    fn on_send(
        &mut self,
        _view: &View<'_>,
        _from: PeerId,
        _to: PeerId,
        _msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        if rng.gen_bool(self.hold_prob) {
            Delivery::Hold
        } else {
            Delivery::After(rng.gen_range(1..=TICKS_PER_UNIT))
        }
    }

    fn on_quiescence(&mut self, _view: &View<'_>, held: &[HeldInfo]) -> Release {
        if held.len() <= self.release_chunk {
            return Release::All;
        }
        // Oldest `release_chunk` messages by send time (ties by index).
        let mut order: Vec<usize> = (0..held.len()).collect();
        order.sort_by_key(|&i| (held[i].sent_at, i));
        order.truncate(self.release_chunk);
        Release::Some(order)
    }
}

/// Configuration for [`ChaosAdversary`]: per-decision probabilities and
/// the crash budget.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Crash budget: at most this many peers are crashed (must respect the
    /// joint fault budget `crashes + byzantine ≤ b`).
    pub crash_budget: usize,
    /// Probability of crashing an honest peer right before an event.
    pub crash_prob: f64,
    /// Probability of cutting an outgoing batch mid-send (also a crash).
    pub cut_prob: f64,
    /// Probability of holding a message instead of delivering it.
    pub hold_prob: f64,
    /// Probability that a compelled quiescence releases only a random
    /// non-empty subset instead of everything.
    pub partial_release_prob: f64,
}

impl ChaosConfig {
    /// A mild default mix: rare crashes and cuts, occasional holds.
    pub fn mild(crash_budget: usize) -> Self {
        ChaosConfig {
            crash_budget,
            crash_prob: 0.002,
            cut_prob: 0.002,
            hold_prob: 0.05,
            partial_release_prob: 0.25,
        }
    }

    /// An aggressive mix: frequent holds, eager crashes and cuts.
    pub fn aggressive(crash_budget: usize) -> Self {
        ChaosConfig {
            crash_budget,
            crash_prob: 0.01,
            cut_prob: 0.01,
            hold_prob: 0.25,
            partial_release_prob: 0.75,
        }
    }
}

/// Composable randomized adversary mixing delays, holds, crashes, and
/// mid-send cuts within the fault budget.
///
/// Crash hooks receive no RNG from the simulator, so the chaos adversary
/// carries its own seeded generator — the whole decision sequence is a
/// deterministic function of `(seed, config)` and the execution it
/// observes.
#[derive(Debug)]
pub struct ChaosAdversary {
    cfg: ChaosConfig,
    rng: StdRng,
    used: usize,
}

impl ChaosAdversary {
    /// Creates the adversary with its own decision RNG seeded by `seed`.
    pub fn new(seed: u64, cfg: ChaosConfig) -> Self {
        ChaosAdversary {
            cfg,
            rng: StdRng::seed_from_u64(seed ^ 0xc4a0_5c4a_05c4_a05c),
            used: 0,
        }
    }

    fn budget_left(&self) -> bool {
        self.used < self.cfg.crash_budget
    }
}

impl<M: ProtocolMessage> Adversary<M> for ChaosAdversary {
    fn on_send(
        &mut self,
        _view: &View<'_>,
        _from: PeerId,
        _to: PeerId,
        _msg: &M,
        rng: &mut StdRng,
    ) -> Delivery {
        if rng.gen_bool(self.cfg.hold_prob) {
            Delivery::Hold
        } else {
            Delivery::After(rng.gen_range(1..=TICKS_PER_UNIT))
        }
    }

    fn on_quiescence(&mut self, _view: &View<'_>, held: &[HeldInfo]) -> Release {
        if held.len() > 1 && self.rng.gen_bool(self.cfg.partial_release_prob) {
            let m = self.rng.gen_range(1..held.len());
            let mut chosen: Vec<usize> =
                (0..m).map(|_| self.rng.gen_range(0..held.len())).collect();
            chosen.sort_unstable();
            chosen.dedup();
            Release::Some(chosen)
        } else {
            Release::All
        }
    }

    fn crash_before_event(&mut self, _view: &View<'_>, _peer: PeerId) -> bool {
        // The simulator consults this hook only for honest peers while
        // crash budget remains; we additionally respect our own budget.
        if self.budget_left() && self.rng.gen_bool(self.cfg.crash_prob) {
            self.used += 1;
            true
        } else {
            false
        }
    }

    fn crash_during_send(
        &mut self,
        view: &View<'_>,
        peer: PeerId,
        planned: usize,
    ) -> Option<usize> {
        // Unlike crash_before_event, this hook fires for every live peer —
        // Byzantine ones must not be crashed (they are corrupted, not
        // crash-faulty, and the budget already paid for them).
        if view.status(peer).role != PeerRole::Honest {
            return None;
        }
        if self.budget_left() && self.rng.gen_bool(self.cfg.cut_prob) {
            self.used += 1;
            Some(self.rng.gen_range(0..=planned))
        } else {
            None
        }
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(self.cfg.crash_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::PeerStatus;

    #[derive(Debug, Clone)]
    struct Unit;
    impl ProtocolMessage for Unit {
        fn bit_len(&self) -> usize {
            0
        }
    }

    fn peers(events: &[u64]) -> Vec<PeerStatus> {
        events
            .iter()
            .map(|&e| {
                let mut s = PeerStatus::new(PeerRole::Honest);
                s.events_processed = e;
                s
            })
            .collect()
    }

    #[test]
    fn adaptive_crasher_hits_front_runner_only() {
        let mut adv = AdaptiveCrasher::new(1, 2);
        let ps = peers(&[5, 3]);
        let view = View { now: 0, peers: &ps };
        // Peer 1 trails the frontier: spared.
        assert!(!<AdaptiveCrasher as Adversary<Unit>>::crash_before_event(
            &mut adv,
            &view,
            PeerId(1)
        ));
        // Peer 0 is the front-runner: crashed.
        assert!(<AdaptiveCrasher as Adversary<Unit>>::crash_before_event(
            &mut adv,
            &view,
            PeerId(0)
        ));
        // Budget spent: never again.
        assert!(!<AdaptiveCrasher as Adversary<Unit>>::crash_before_event(
            &mut adv,
            &view,
            PeerId(0)
        ));
    }

    #[test]
    fn adaptive_crasher_spares_peer_that_never_ran() {
        // min_events = 0 used to let the all-zero frontier nominate a peer
        // that had not taken a single step (its pre-start event count of 0
        // "matched" the frontier of 0), wasting the adaptive budget on a
        // peer holding no progress. Never-ran peers are now never targets.
        let mut adv = AdaptiveCrasher::new(1, 0);
        let ps = peers(&[0, 0]);
        let view = View { now: 0, peers: &ps };
        assert!(!<AdaptiveCrasher as Adversary<Unit>>::crash_before_event(
            &mut adv,
            &view,
            PeerId(0)
        ));
        // The budget is still intact for a peer that actually ran.
        let ps = peers(&[1, 0]);
        let view = View { now: 0, peers: &ps };
        assert!(<AdaptiveCrasher as Adversary<Unit>>::crash_before_event(
            &mut adv,
            &view,
            PeerId(0)
        ));
    }

    #[test]
    fn adaptive_crasher_respects_min_events() {
        let mut adv = AdaptiveCrasher::new(1, 10);
        let ps = peers(&[5, 3]);
        let view = View { now: 0, peers: &ps };
        assert!(!<AdaptiveCrasher as Adversary<Unit>>::crash_before_event(
            &mut adv,
            &view,
            PeerId(0)
        ));
    }

    #[test]
    fn hold_until_quiescence_releases_oldest() {
        let mut adv = HoldUntilQuiescence::new(1.0, 2);
        let held = [
            HeldInfo {
                from: PeerId(0),
                to: PeerId(1),
                sent_at: 30,
            },
            HeldInfo {
                from: PeerId(1),
                to: PeerId(0),
                sent_at: 10,
            },
            HeldInfo {
                from: PeerId(2),
                to: PeerId(0),
                sent_at: 20,
            },
        ];
        let ps = peers(&[0, 0, 0]);
        let view = View {
            now: 40,
            peers: &ps,
        };
        let r = <HoldUntilQuiescence as Adversary<Unit>>::on_quiescence(&mut adv, &view, &held);
        assert_eq!(r, Release::Some(vec![1, 2]));
    }

    #[test]
    fn chaos_adversary_never_exceeds_budget() {
        let mut adv = ChaosAdversary::new(
            7,
            ChaosConfig {
                crash_budget: 2,
                crash_prob: 1.0,
                cut_prob: 1.0,
                hold_prob: 0.0,
                partial_release_prob: 0.0,
            },
        );
        let ps = peers(&[1, 1, 1, 1]);
        let view = View { now: 0, peers: &ps };
        let mut crashes = 0;
        for p in 0..4 {
            if <ChaosAdversary as Adversary<Unit>>::crash_before_event(&mut adv, &view, PeerId(p)) {
                crashes += 1;
            }
            if <ChaosAdversary as Adversary<Unit>>::crash_during_send(&mut adv, &view, PeerId(p), 3)
                .is_some()
            {
                crashes += 1;
            }
        }
        assert_eq!(crashes, 2);
        assert_eq!(
            <ChaosAdversary as Adversary<Unit>>::planned_crashes(&adv),
            Some(2)
        );
    }

    #[test]
    fn chaos_adversary_spares_byzantine_in_cut() {
        let mut adv = ChaosAdversary::new(
            1,
            ChaosConfig {
                crash_budget: 4,
                crash_prob: 0.0,
                cut_prob: 1.0,
                hold_prob: 0.0,
                partial_release_prob: 0.0,
            },
        );
        let mut ps = peers(&[1, 1]);
        ps[1] = PeerStatus::new(PeerRole::Byzantine);
        let view = View { now: 0, peers: &ps };
        assert!(<ChaosAdversary as Adversary<Unit>>::crash_during_send(
            &mut adv,
            &view,
            PeerId(1),
            3
        )
        .is_none());
        assert!(<ChaosAdversary as Adversary<Unit>>::crash_during_send(
            &mut adv,
            &view,
            PeerId(0),
            3
        )
        .is_some());
    }
}
