//! The link-fault plane: healing partitions, lossy links that resend,
//! and peer churn.
//!
//! The base [`Adversary`](crate::Adversary) controls *scheduling* faults
//! (delays, holds, crashes). This module adds *link* faults, layered
//! under the same trait through three hooks the simulator consults:
//!
//! * [`Adversary::link_fault_plan`](crate::Adversary::link_fault_plan)
//!   declares the run's static [`LinkFaultPlan`] — named partitions with
//!   scheduled heal ticks and peer leave/rejoin churn directives — fetched
//!   once at build time and validated against the peer count.
//! * [`Adversary::lossy`](crate::Adversary::lossy) +
//!   [`Adversary::on_transmit`](crate::Adversary::on_transmit) drive
//!   per-link drops: each transmission attempt of a scheduled delivery may
//!   be dropped, and a dropped message is sent again after an
//!   exponentially backed-off tick interval.
//!
//! Every one of the three is a delay: the links stay reliable, as in the
//! paper's model (§1.2), where the adversary fixes a finite delay for
//! every message and loses none.
//!
//! # Parking, not losing
//!
//! The simulator puts every message on the wire through one delivery
//! step: a send (attempt 0, at the latency `on_send` chose), a backed-off
//! resend (attempt `a ≥ 1`, same latency) and a compelled quiescence
//! release (latency 1). The step's first check is the cut. A message
//! transmitted while an active cut separates sender from recipient is
//! **parked**: its payload keeps its slab slot, owned by a delivery event
//! scheduled at `heal + latency + transmission`, so it re-enters delivery
//! deterministically the moment the partition heals, and no link is
//! consulted for it. Cuts affect messages *transmitted* during the cut
//! window; messages already in flight when a cut begins were transmitted
//! before the link went down and still arrive.
//!
//! # Retransmission
//!
//! Delivery in the simulator implies acknowledgement, so the ack-tracked
//! resend layer reduces to its deterministic equivalent. On a lossy link
//! the delivery step consults `on_transmit` for each attempt it does not
//! park; a dropped attempt schedules a `Retransmit` event after
//! `backoff(attempt) = (TICKS_PER_UNIT / 8) · 2^(attempt-1)` ticks
//! (clamped to `1..=2·TICKS_PER_UNIT`). When it fires, the resend is
//! dropped if its recipient crashed or terminated meanwhile, and
//! otherwise goes through the same step again with the next attempt
//! number. A quiescence release consults no link. There is no retry cap:
//! a message is resent until a link lets it through, so an adversary that
//! drops one message forever drives a livelock, which the simulator's
//! event limit reports as
//! [`RunError::EventLimitExceeded`](crate::RunError::EventLimitExceeded).
//!
//! # Churn
//!
//! A churn directive makes a peer *leave* at one tick and *rejoin* at a
//! later one. While away the peer takes no steps: every event addressed
//! to it (starts included) is deferred to the rejoin tick, payload slot
//! riding along — a suspend/resume lifecycle that tears the peer out of
//! the schedule and re-admits it without leaking `MsgSlab` slots and
//! without losing messages.
//!
//! All three capabilities are recorded/replayed through
//! [`ScheduleTrace`](crate::ScheduleTrace).

use crate::adversary::{Adversary, Delivery};
use crate::time::{Ticks, TICKS_PER_UNIT};
use crate::view::View;
use dr_core::{json_struct, PeerId, ProtocolMessage};
use rand::rngs::StdRng;
use rand::Rng;

/// The adversary's decision about one transmission attempt of a message
/// over a lossy link (consulted only when [`Adversary::lossy`] is true).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDecision {
    /// The attempt succeeds; the message is delivered after its latency.
    Transmit,
    /// The attempt is dropped; the retransmission layer schedules a
    /// backed-off resend.
    Drop,
}

/// A named network partition with a scheduled heal tick.
///
/// While `from_tick <= now < heal_tick`, messages sent between `group`
/// and its complement are parked until `heal_tick`. A group that is empty
/// or contains every peer separates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionDirective {
    /// Human-readable name (carried into docs and repro output).
    pub name: String,
    /// One side of the cut; the complement is the other side.
    pub group: Vec<PeerId>,
    /// First tick at which the cut is active.
    pub from_tick: Ticks,
    /// Tick at which the partition heals (exclusive end of the cut).
    pub heal_tick: Ticks,
}

json_struct!(ToJson, FromJson for PartitionDirective { name, group, from_tick, heal_tick });

/// A peer leaving the network and rejoining later (suspend/resume churn:
/// the peer keeps its local state but takes no steps while away).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnDirective {
    /// The churning peer.
    pub peer: PeerId,
    /// Tick at which the peer leaves.
    pub leave: Ticks,
    /// Tick at which the peer rejoins (must be after `leave`).
    pub rejoin: Ticks,
}

json_struct!(ToJson, FromJson for ChurnDirective { peer, leave, rejoin });

/// Backoff before the first resend of a dropped message, in ticks.
const BACKOFF_BASE: Ticks = TICKS_PER_UNIT / 8;

/// Backoff before resend number `attempt` (1-based): exponential in the
/// attempt, clamped to `1..=2·TICKS_PER_UNIT` so the gap between two
/// resends stays within a bounded multiple of the latency unit.
pub(crate) fn backoff(attempt: u32) -> Ticks {
    let shift = attempt.saturating_sub(1).min(16);
    (BACKOFF_BASE << shift).clamp(1, 2 * TICKS_PER_UNIT)
}

/// The static link-fault declaration of one run: partitions and churn.
/// Fetched once from [`Adversary::link_fault_plan`] at build time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaultPlan {
    /// Named partitions with scheduled heal ticks.
    pub partitions: Vec<PartitionDirective>,
    /// Peer leave/rejoin directives.
    pub churn: Vec<ChurnDirective>,
}

impl LinkFaultPlan {
    /// Whether the plan declares no partitions and no churn. (Lossiness is
    /// declared separately through [`Adversary::lossy`].)
    pub fn is_trivial(&self) -> bool {
        self.partitions.is_empty() && self.churn.is_empty()
    }

    /// Checks every directive against the peer count `k`: each named peer
    /// is `< k`, and each heal/rejoin tick comes after its window opens.
    ///
    /// # Errors
    ///
    /// Names the first malformed directive by field and index.
    pub fn check(&self, k: usize) -> Result<(), String> {
        for (i, p) in self.partitions.iter().enumerate() {
            if let Some(peer) = p.group.iter().find(|peer| peer.index() >= k) {
                return Err(format!(
                    "partitions[{i}].group: peer {peer} out of range (k={k})"
                ));
            }
            if p.heal_tick <= p.from_tick {
                return Err(format!(
                    "partitions[{i}] never active: heal_tick <= from_tick"
                ));
            }
        }
        for (i, c) in self.churn.iter().enumerate() {
            if c.peer.index() >= k {
                return Err(format!("churn[{i}].peer: {} out of range (k={k})", c.peer));
            }
            if c.rejoin <= c.leave {
                return Err(format!("churn[{i}] never away: rejoin <= leave"));
            }
        }
        Ok(())
    }
}

/// One cut in the precomputed runtime form: membership bitmap instead of
/// a peer list, so the per-message check is O(#directives).
struct RuntimeCut {
    member: Vec<bool>,
    from_tick: Ticks,
    heal_tick: Ticks,
}

/// The simulator's validated, query-optimized view of a [`LinkFaultPlan`].
pub(crate) struct RuntimeLinkState {
    cuts: Vec<RuntimeCut>,
    /// Per-peer `(leave, rejoin)` windows.
    away: Vec<Vec<(Ticks, Ticks)>>,
}

impl RuntimeLinkState {
    /// Validates `plan` against the peer count and builds the runtime
    /// form.
    ///
    /// # Panics
    ///
    /// Panics when [`LinkFaultPlan::check`] fails — a build-time
    /// configuration error, like an over-budget crash plan.
    pub(crate) fn new(plan: &LinkFaultPlan, k: usize) -> Self {
        if let Err(e) = plan.check(k) {
            panic!("malformed link-fault plan: {e}");
        }
        let mut cuts = Vec::with_capacity(plan.partitions.len());
        for p in &plan.partitions {
            let mut member = vec![false; k];
            for peer in &p.group {
                member[peer.index()] = true;
            }
            cuts.push(RuntimeCut {
                member,
                from_tick: p.from_tick,
                heal_tick: p.heal_tick,
            });
        }
        let mut away = vec![Vec::new(); k];
        for c in &plan.churn {
            away[c.peer.index()].push((c.leave, c.rejoin));
        }
        RuntimeLinkState { cuts, away }
    }

    /// If an active cut separates `a` from `b` at `now`, the latest heal
    /// tick among such cuts (always `> now`); `None` on a connected link.
    pub(crate) fn cut_heal(&self, a: PeerId, b: PeerId, now: Ticks) -> Option<Ticks> {
        self.cuts
            .iter()
            .filter(|c| {
                c.from_tick <= now
                    && now < c.heal_tick
                    && c.member[a.index()] != c.member[b.index()]
            })
            .map(|c| c.heal_tick)
            .max()
    }

    /// If `peer` is away at `now`, the latest rejoin tick among its active
    /// churn windows (always `> now`); `None` while present.
    pub(crate) fn away_until(&self, peer: PeerId, now: Ticks) -> Option<Ticks> {
        self.away[peer.index()]
            .iter()
            .filter(|(leave, rejoin)| *leave <= now && now < *rejoin)
            .map(|(_, rejoin)| *rejoin)
            .max()
    }
}

/// Pure 64-bit mixer (splitmix64 finalizer) for seed-derived plan
/// construction — deterministic, no RNG state.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seed-derived nontrivial group split: each peer joins by a hash bit,
/// then the split is forced proper (neither empty nor everyone).
fn seeded_split(k: usize, salt: u64) -> Vec<PeerId> {
    let mut group: Vec<PeerId> = (0..k)
        .filter(|&p| mix(salt ^ p as u64) & 1 == 1)
        .map(PeerId)
        .collect();
    if group.len() == k && k > 1 {
        group.pop();
    }
    if group.is_empty() {
        group.push(PeerId(0));
    }
    group
}

/// Adversary driving two successive seed-derived partitions that heal on
/// schedule, with uniform random delays — the "network splits, then
/// heals, then splits differently" robustness scenario. Crash-inert.
pub struct PartitionHealer {
    plan: LinkFaultPlan,
}

impl PartitionHealer {
    /// Builds the adversary for `k` peers: cut one spans
    /// `[0, heal_units/2)` time units, cut two (a different seed-derived
    /// split) spans `[heal_units/2, heal_units)`. `heal_units` must be at
    /// least 1.
    pub fn new(k: usize, seed: u64, heal_units: u64) -> Self {
        assert!(heal_units >= 1, "PartitionHealer needs a heal horizon");
        let mid = ((heal_units * TICKS_PER_UNIT) / 2).max(1);
        let end = (heal_units * TICKS_PER_UNIT).max(mid + 1);
        let plan = LinkFaultPlan {
            partitions: vec![
                PartitionDirective {
                    name: "early-cut".to_string(),
                    group: seeded_split(k, mix(seed)),
                    from_tick: 0,
                    heal_tick: mid,
                },
                PartitionDirective {
                    name: "late-cut".to_string(),
                    group: seeded_split(k, mix(seed ^ 0x5151_5151_5151_5151)),
                    from_tick: mid,
                    heal_tick: end,
                },
            ],
            churn: Vec::new(),
        };
        PartitionHealer { plan }
    }

    /// The plan this adversary declares (for tests and docs).
    pub fn plan(&self) -> &LinkFaultPlan {
        &self.plan
    }
}

impl<M: ProtocolMessage> Adversary<M> for PartitionHealer {
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

    fn link_fault_plan(&self) -> LinkFaultPlan {
        self.plan.clone()
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }
}

/// Adversary dropping transmissions per link at a seed-jittered rate,
/// with uniform random delays. Dropped messages are resent until they get
/// through. Crash-inert.
pub struct LossyLinks {
    salt: u64,
    drop_permille: u16,
}

impl LossyLinks {
    /// Builds the adversary: each directed link `(from, to)` drops a
    /// transmission attempt with probability `drop_permille/1000` scaled
    /// by a per-link jitter factor in `[0.5, 1.5)` derived from `seed`
    /// (and clamped below 1.0 so retransmission always eventually wins).
    /// A zero rate declares the adversary non-lossy.
    pub fn new(seed: u64, drop_permille: u16) -> Self {
        LossyLinks {
            salt: mix(seed ^ 0x10_55_1e_55),
            drop_permille: drop_permille.min(950),
        }
    }

    /// Effective drop rate (permille) of the directed link `from → to`.
    pub fn link_rate(&self, from: PeerId, to: PeerId) -> u16 {
        if self.drop_permille == 0 {
            return 0;
        }
        let h = mix(self.salt ^ ((from.index() as u64) << 32 | to.index() as u64));
        // Jitter factor in [0.5, 1.5) as 512..1536 over 1024.
        let scale = 512 + (h % 1024);
        ((self.drop_permille as u64 * scale / 1024).clamp(1, 980)) as u16
    }
}

impl<M: ProtocolMessage> Adversary<M> for LossyLinks {
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

    fn lossy(&self) -> bool {
        self.drop_permille > 0
    }

    fn on_transmit(
        &mut self,
        _view: &View<'_>,
        from: PeerId,
        to: PeerId,
        _attempt: u32,
        rng: &mut StdRng,
    ) -> LinkDecision {
        if rng.gen_range(0u64..1000) < self.link_rate(from, to) as u64 {
            LinkDecision::Drop
        } else {
            LinkDecision::Transmit
        }
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }
}

/// Adversary churning a seed-derived subset of peers through staggered
/// leave/rejoin windows, with uniform random delays. Crash-inert and
/// lossless: deferred events re-enter at the rejoin tick.
pub struct ChurnMixer {
    plan: LinkFaultPlan,
}

impl ChurnMixer {
    /// Builds the adversary for `k` peers: `churners` distinct peers each
    /// leave once at a staggered seed-jittered tick within the first few
    /// time units and rejoin one to two units later.
    pub fn new(k: usize, seed: u64, churners: usize) -> Self {
        let churners = churners.clamp(1, k);
        // Distinct peers via a seeded stride over the ring.
        let stride = (mix(seed) as usize % k.max(1)).max(1) | 1;
        let start = mix(seed ^ 0xc0a1) as usize % k;
        let mut chosen = Vec::with_capacity(churners);
        let mut p = start;
        while chosen.len() < churners {
            if !chosen.contains(&p) {
                chosen.push(p);
            }
            p = (p + stride) % k;
        }
        let churn = chosen
            .into_iter()
            .enumerate()
            .map(|(i, peer)| {
                let j = mix(seed ^ (peer as u64) << 8);
                let leave =
                    TICKS_PER_UNIT / 4 + (i as u64 * TICKS_PER_UNIT) / 2 + j % (TICKS_PER_UNIT / 4);
                let rejoin = leave + TICKS_PER_UNIT + (j >> 32) % TICKS_PER_UNIT;
                ChurnDirective {
                    peer: PeerId(peer),
                    leave,
                    rejoin,
                }
            })
            .collect();
        ChurnMixer {
            plan: LinkFaultPlan {
                partitions: Vec::new(),
                churn,
            },
        }
    }

    /// The plan this adversary declares (for tests and docs).
    pub fn plan(&self) -> &LinkFaultPlan {
        &self.plan
    }
}

impl<M: ProtocolMessage> Adversary<M> for ChurnMixer {
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

    fn link_fault_plan(&self) -> LinkFaultPlan {
        self.plan.clone()
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_heal_respects_window_and_sides() {
        let plan = LinkFaultPlan {
            partitions: vec![PartitionDirective {
                name: "t".into(),
                group: vec![PeerId(0), PeerId(2)],
                from_tick: 10,
                heal_tick: 100,
            }],
            churn: Vec::new(),
        };
        let rt = RuntimeLinkState::new(&plan, 4);
        // Across the cut, inside the window.
        assert_eq!(rt.cut_heal(PeerId(0), PeerId(1), 10), Some(100));
        assert_eq!(rt.cut_heal(PeerId(1), PeerId(2), 99), Some(100));
        // Same side.
        assert_eq!(rt.cut_heal(PeerId(0), PeerId(2), 50), None);
        assert_eq!(rt.cut_heal(PeerId(1), PeerId(3), 50), None);
        // Outside the window.
        assert_eq!(rt.cut_heal(PeerId(0), PeerId(1), 9), None);
        assert_eq!(rt.cut_heal(PeerId(0), PeerId(1), 100), None);
    }

    #[test]
    fn away_until_covers_active_windows_only() {
        let plan = LinkFaultPlan {
            partitions: Vec::new(),
            churn: vec![
                ChurnDirective {
                    peer: PeerId(1),
                    leave: 5,
                    rejoin: 20,
                },
                ChurnDirective {
                    peer: PeerId(1),
                    leave: 15,
                    rejoin: 40,
                },
            ],
        };
        let rt = RuntimeLinkState::new(&plan, 2);
        assert_eq!(rt.away_until(PeerId(1), 4), None);
        assert_eq!(rt.away_until(PeerId(1), 5), Some(20));
        // Overlap picks the latest rejoin.
        assert_eq!(rt.away_until(PeerId(1), 16), Some(40));
        assert_eq!(rt.away_until(PeerId(1), 40), None);
        assert_eq!(rt.away_until(PeerId(0), 10), None);
    }

    #[test]
    fn backoff_is_exponential_and_clamped() {
        let base = TICKS_PER_UNIT / 8;
        assert_eq!(backoff(1), base);
        assert_eq!(backoff(2), base * 2);
        assert_eq!(backoff(3), base * 4);
        // Clamped: never past two time units.
        assert_eq!(backoff(5), 2 * TICKS_PER_UNIT);
        assert_eq!(backoff(30), 2 * TICKS_PER_UNIT);
    }

    #[test]
    #[should_panic(expected = "never active")]
    fn empty_partition_window_rejected() {
        let plan = LinkFaultPlan {
            partitions: vec![PartitionDirective {
                name: "bad".into(),
                group: vec![PeerId(0)],
                from_tick: 7,
                heal_tick: 7,
            }],
            churn: Vec::new(),
        };
        let _ = RuntimeLinkState::new(&plan, 2);
    }

    #[test]
    fn seeded_split_is_proper_for_any_seed() {
        for k in [1, 2, 3, 17, 64] {
            for seed in 0..50 {
                let g = seeded_split(k, seed);
                assert!(!g.is_empty(), "k={k} seed={seed}");
                assert!(g.len() < k.max(2), "k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn lossy_link_rates_jitter_but_stay_capped() {
        let adv = LossyLinks::new(3, 500);
        let mut distinct = std::collections::BTreeSet::new();
        for f in 0..6 {
            for t in 0..6 {
                let r = adv.link_rate(PeerId(f), PeerId(t));
                assert!((1..=980).contains(&r));
                distinct.insert(r);
            }
        }
        assert!(
            distinct.len() > 3,
            "per-link jitter collapsed: {distinct:?}"
        );
        let off = LossyLinks::new(3, 0);
        assert_eq!(off.link_rate(PeerId(0), PeerId(1)), 0);
    }

    #[test]
    fn churn_mixer_directives_are_distinct_and_well_formed() {
        let mixer = ChurnMixer::new(16, 9, 5);
        let plan = mixer.plan();
        assert_eq!(plan.churn.len(), 5);
        let mut peers: Vec<usize> = plan.churn.iter().map(|c| c.peer.index()).collect();
        peers.sort_unstable();
        peers.dedup();
        assert_eq!(peers.len(), 5, "churners must be distinct");
        for c in &plan.churn {
            assert!(c.rejoin > c.leave);
        }
    }
}
