//! Algorithm 2: deterministic Download with up to `b = βk` crashes for any
//! `β < 1` (§2.2, Lemma 2.11 / Theorem 2.13).
//!
//! The protocol proceeds in *phases* of three stages. In phase `i`, every
//! bit `j` has a globally agreed owner [`owner`]`(j, i, k)` — a pure
//! function of `(j, i, k)`, so any two honest peers agree on every bit's
//! owner (this realizes Claim 1 of the paper structurally; see the
//! [`owner`] module docs). Because ownership is structural, messages never
//! need to carry bit indices: a response is a packed bitmap over the
//! owner's (globally computable) bit set, keeping the message complexity
//! at the paper's `O(k² + nk/a)` packets rather than 64× that.
//!
//! * **Stage 1** — peer `v` queries its own unknown bits and asks each
//!   peer `w` owning bits `v` lacks for `w`'s phase-`i` set.
//! * **Stage 2** — `v` waits for full answers from at least `k − b` peers
//!   (waiting for more risks deadlock), then broadcasts the list of
//!   *missing* peers. A peer answers a stage-1 request once it has passed
//!   stage 1 of that phase, and a stage-2 request once it has passed
//!   stage 2 — deferred answers are buffered.
//! * **Stage 3** — `v` waits for `k − b` stage-2 answers, each carrying,
//!   per missing peer `u`, either `u`'s full bit set (if the responder
//!   learned it from `u`) or "me neither". Unresolved bits simply fall to
//!   their phase-`i+1` owners. Each phase shrinks the unknown set by a
//!   factor `β` in expectation, so after `O(log_{1/β} k)` phases at most
//!   `n/k` bits remain, which the peer queries directly before
//!   broadcasting the full array and terminating (every terminating peer
//!   broadcasts — the Claim 2 pattern that lets the rest terminate too).
//!
//! With the [`early_release`](CrashMultiDownload::with_early_release)
//! modification of Theorem 2.13, a peer stuck in stage 3 may continue as
//! soon as late stage-1 answers resolve every missing peer, removing
//! long-response waits from the time complexity.

use super::owner::{round_robin, Partition};
use super::query_unknown;
use dr_core::collections::DetMap;
use dr_core::{BitArray, BitIndices, Context, PartialArray, PeerId, Protocol, ProtocolMessage};
use std::sync::Arc;

/// Messages of Algorithm 2. All bit payloads are packed bitmaps over
/// *structural* index sets (`{j : owner(j, phase, k) = peer}`), which
/// every peer can compute locally.
#[derive(Debug, Clone)]
pub enum MultiCrashMsg {
    /// Stage-1 request: "send me the values of your phase-`phase` set".
    Request1 {
        /// Phase the request belongs to.
        phase: u32,
    },
    /// Answer to [`MultiCrashMsg::Request1`]: the values of every bit the
    /// responder owns in that phase, in increasing index order.
    Response1 {
        /// Phase of the answered request.
        phase: u32,
        /// Packed values of the responder's phase set.
        values: BitArray,
    },
    /// Stage-2 request naming the peers the sender is missing.
    Request2 {
        /// Phase the request belongs to.
        phase: u32,
        /// Peers the sender did not hear from in this phase.
        missing: Vec<PeerId>,
    },
    /// Answer to [`MultiCrashMsg::Request2`]: per missing peer, either the
    /// packed values of that peer's phase set or "me neither" (`None`).
    Response2 {
        /// Phase of the answered request.
        phase: u32,
        /// Per-missing-peer answers, in the order of the request.
        answers: Vec<(PeerId, Option<BitArray>)>,
    },
    /// Termination broadcast of the complete array (Claim 2).
    Final {
        /// The complete input array.
        bits: BitArray,
    },
}

impl ProtocolMessage for MultiCrashMsg {
    fn bit_len(&self) -> usize {
        match self {
            MultiCrashMsg::Request1 { .. } => 40,
            MultiCrashMsg::Response1 { values, .. } => 40 + values.len(),
            MultiCrashMsg::Request2 { missing, .. } => 40 + 16 * missing.len(),
            MultiCrashMsg::Response2 { answers, .. } => {
                40 + answers
                    .iter()
                    .map(|(_, a)| 17 + a.as_ref().map_or(0, BitArray::len))
                    .sum::<usize>()
            }
            MultiCrashMsg::Final { bits } => bits.len(),
        }
    }
}

/// What a peer keeps per phase while stragglers may still ask about it.
#[derive(Debug)]
struct PhaseCache {
    /// A hashed phase's owner sets, shared with every other instance that
    /// has the same `(n, k)` and is near the same phase. `None` in phase
    /// 1, whose sets are strides.
    partition: Option<Arc<Partition>>,
    /// Each peer's packed phase set, once we know all of it and someone
    /// has asked: our own answers every `Request1` of the phase, a missing
    /// peer's every `Request2` naming it. One shared buffer for all of
    /// them, packed once.
    packed: Vec<Option<BitArray>>,
}

/// The per-phase caches of one peer. A field of its own so that an owner
/// set can be borrowed from it next to the peer's `acc`.
#[derive(Debug)]
struct PhaseCaches {
    n: usize,
    k: usize,
    /// Ordered map: pruned with `retain`, which must visit phases
    /// deterministically.
    by_phase: DetMap<u32, PhaseCache>,
}

impl PhaseCaches {
    /// The cache of `phase`, fetching the shared partition of a hashed
    /// phase on first use.
    fn of(&mut self, phase: u32) -> &mut PhaseCache {
        let (n, k) = (self.n, self.k);
        self.by_phase.entry(phase).or_insert_with(|| PhaseCache {
            partition: (phase > 1).then(|| Partition::shared(n, k, phase)),
            packed: vec![None; k],
        })
    }

    /// The ascending bit set owned by `peer` in `phase`.
    fn set(&mut self, phase: u32, peer: PeerId) -> BitIndices<'_> {
        let n = self.n;
        let k = self.k;
        match &self.of(phase).partition {
            Some(partition) => BitIndices::Table(partition.set(peer)),
            None => round_robin(n, k, peer),
        }
    }
}

/// Local position within the phase/stage lattice, used for deferral.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Position {
    phase: u32,
    stage: u8,
}

/// Algorithm 2 (§2.2): deterministic Download tolerating `b` crashes for
/// any `b < k`.
///
/// # Examples
///
/// ```
/// use dr_core::{FaultModel, ModelParams, PeerId};
/// use dr_protocols::CrashMultiDownload;
/// use dr_sim::{CrashPlan, SimBuilder, StandardAdversary, UniformDelay};
///
/// let params = ModelParams::builder(256, 8)
///     .faults(FaultModel::Crash, 5)
///     .build()?;
/// let sim = SimBuilder::new(params)
///     .protocol(|_| CrashMultiDownload::new(256, 8, 5))
///     .adversary(StandardAdversary::new(
///         UniformDelay::new(),
///         CrashPlan::before_event([PeerId(0), PeerId(1), PeerId(2)], 1),
///     ))
///     .build();
/// let input = sim.input().clone();
/// let report = sim.run().unwrap();
/// report.verify_downloads(&input).unwrap();
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
#[derive(Debug)]
pub struct CrashMultiDownload {
    n: usize,
    k: usize,
    b: usize,
    early_release: bool,
    acc: PartialArray,
    out: Option<BitArray>,
    phase: u32,
    stage: u8,
    phases: PhaseCaches,
    /// Peers counted as heard-from this phase (self, vacuous, full answers).
    correct: Vec<bool>,
    /// Missing peers computed on entering stage 3.
    missing: Vec<PeerId>,
    /// Stage-2 answer senders this phase (includes self).
    resp2_senders: Vec<bool>,
    /// Deferred requests waiting for this peer to advance.
    pending: Vec<(PeerId, MultiCrashMsg)>,
    /// Termination threshold: remaining unknown bits a peer just queries.
    threshold: usize,
    /// Hard cap on phases before falling back to direct queries.
    max_phases: u32,
    /// Phases fully executed (for tests and experiments).
    phases_run: u32,
    /// Peers whose own Final we already received (they have terminated;
    /// sending them ours would be wasted).
    finished: Vec<bool>,
}

impl CrashMultiDownload {
    /// Creates an instance for `n` bits, `k` peers, and up to `b < k`
    /// crashes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `b >= k`.
    pub fn new(n: usize, k: usize, b: usize) -> Self {
        assert!(k > 0, "need at least one peer");
        assert!(b < k, "fault budget must leave one nonfaulty peer");
        let beta = b as f64 / k as f64;
        // Expected phases until β^i·n ≤ n/k is log_{1/β}(k); the hashed
        // owner function shrinks in expectation, so leave generous slack
        // (termination at the n/k threshold caps the cost regardless).
        let max_phases = if b == 0 {
            2
        } else {
            (3.0 * (k as f64).ln() / (1.0 / beta).ln()).ceil() as u32 + 8
        }
        .min(64);
        CrashMultiDownload {
            n,
            k,
            b,
            early_release: false,
            acc: PartialArray::new(n),
            out: None,
            phase: 0,
            stage: 1,
            phases: PhaseCaches {
                n,
                k,
                by_phase: DetMap::new(),
            },
            correct: vec![false; k],
            missing: Vec::new(),
            resp2_senders: vec![false; k],
            pending: Vec::new(),
            threshold: n.div_ceil(k),
            max_phases,
            phases_run: 0,
            finished: vec![false; k],
        }
    }

    /// Chaos-campaign invariant envelope for Algorithm 2 (Theorem 2.9:
    /// `Q ≤ (n/k)/(1−β) + n/k + 1` in expectation): twice the bound plus
    /// slack on `Q`; time allows the phase loop, which is `O(log k)` in
    /// expectation but capped at `max_phases` by construction.
    pub fn cost_envelope(n: usize, k: usize, b: usize) -> crate::CostEnvelope {
        let beta = b as f64 / k as f64;
        let per = n as f64 / k as f64;
        let theory = per / (1.0 - beta) + per + 1.0;
        crate::CostEnvelope {
            q_max: (2.0 * theory).ceil() as u64 + 16,
            t_base: 16.0 + 8.0 * (b as f64 + 1.0),
            t_per_release: 4.0,
            t_per_retry: 0.0,
            t_link_slack: 0.0,
        }
    }

    /// Enables the Theorem 2.13 modification: stage 3 completes as soon as
    /// every missing peer is resolved by late answers, even before `k − b`
    /// stage-2 responses arrive.
    pub fn with_early_release(mut self) -> Self {
        self.early_release = true;
        self
    }

    /// Number of phases this peer fully executed.
    pub fn phases_run(&self) -> u32 {
        self.phases_run
    }

    fn position(&self) -> Position {
        Position {
            phase: self.phase,
            stage: self.stage,
        }
    }

    /// Learns a packed bitmap over `peer`'s phase set. Returns `false` if
    /// the bitmap length does not match the set (malformed).
    fn learn_set_values(&mut self, phase: u32, peer: PeerId, values: &BitArray) -> bool {
        let set = self.phases.set(phase, peer);
        if values.len() != set.len() {
            return false;
        }
        self.acc.learn_scattered(set, values);
        true
    }

    /// The packed values of `peer`'s phase set, if all of them are known:
    /// packed on the first call that finds them so, the same shared
    /// buffer for every later one (values, once known, never change).
    fn pack_set_values(&mut self, phase: u32, peer: PeerId) -> Option<BitArray> {
        if let Some(packed) = &self.phases.of(phase).packed[peer.index()] {
            return Some(packed.clone());
        }
        let packed = self.acc.gather(self.phases.set(phase, peer))?;
        self.phases.of(phase).packed[peer.index()] = Some(packed.clone());
        Some(packed)
    }

    /// Whether any bit of `peer`'s phase set is still unknown to us.
    fn lacks_bits_of(&mut self, phase: u32, peer: PeerId) -> bool {
        !self.acc.knows_all(self.phases.set(phase, peer))
    }

    /// Terminates: query whatever is still unknown, broadcast the full
    /// array (Claim 2), output, halt.
    fn terminate(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        let unknown = self.acc.unknown_mask();
        query_unknown(&mut self.acc, &unknown, ctx);
        let bits = self.acc.clone().into_complete();
        self.out = Some(bits.clone());
        // Claim 2: send everything to every peer that might still be
        // waiting; peers whose Final we already hold have terminated.
        // One message value, cloned per recipient — each clone shares the
        // payload buffer, so the fan-out is O(k), not O(k·n).
        let msg = MultiCrashMsg::Final { bits };
        for p in 0..self.k {
            if p != ctx.me().index() && !self.finished[p] {
                ctx.send(PeerId(p), msg.clone());
            }
        }
        self.stage = 4; // past every deferral condition
    }

    /// Enters the next phase (or terminates if few enough bits remain).
    fn start_phase(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        loop {
            if self.out.is_some() {
                return;
            }
            let unknown = self.acc.unknown_count();
            // Degenerate regimes where cooperation cannot help: alone
            // (b = k − 1 leaves no one to rely on), few bits left, or the
            // phase cap. The Lemma 2.11 bound n/(k(1−β)) + n/k covers the
            // direct cost in each.
            if unknown <= self.threshold || self.phase >= self.max_phases || self.b + 1 == self.k {
                self.terminate(ctx);
                return;
            }
            self.phase += 1;
            self.stage = 1;
            self.correct = vec![false; self.k];
            self.missing.clear();
            self.resp2_senders = vec![false; self.k];
            // Drop the caches (our hold on the shared partition and our
            // packed answer) of phases nobody will ask about again; keep
            // a window for stragglers.
            let current = self.phase;
            self.phases.by_phase.retain(|&p, _| p + 8 >= current);

            // Stage 1: query our own unknown share, request everyone
            // else's.
            let me = ctx.me();
            let mine = self.acc.unknown_among(self.phases.set(current, me));
            query_unknown(&mut self.acc, &mine, ctx);
            self.correct[me.index()] = true;
            for w in 0..self.k {
                if w == me.index() {
                    continue;
                }
                if self.lacks_bits_of(self.phase, PeerId(w)) {
                    ctx.send(PeerId(w), MultiCrashMsg::Request1 { phase: self.phase });
                } else {
                    // Nothing wanted from w: vacuously heard.
                    self.correct[w] = true;
                }
            }
            self.stage = 2;
            self.replay_pending(ctx);
            if !self.try_finish_stage2(ctx) {
                return;
            }
            // Stage 3 finished synchronously (e.g. no missing peers):
            // loop into the next phase.
        }
    }

    /// Checks the stage-2 condition; returns `true` if the whole phase
    /// completed synchronously and the caller should advance phases.
    fn try_finish_stage2(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) -> bool {
        if self.stage != 2 || self.out.is_some() {
            return false;
        }
        let heard = self.correct.iter().filter(|&&c| c).count();
        if heard < self.k - self.b {
            return false;
        }
        self.stage = 3;
        self.replay_pending(ctx);
        let phase = self.phase;
        let unheard: Vec<PeerId> = (0..self.k)
            .filter(|&w| !self.correct[w])
            .map(PeerId)
            .collect();
        let mut missing = Vec::new();
        for w in unheard {
            if self.lacks_bits_of(phase, w) {
                missing.push(w);
            }
        }
        if missing.is_empty() {
            // Nothing actually lacking: phase over.
            self.phases_run = self.phase;
            return true;
        }
        self.missing = missing.clone();
        ctx.broadcast(MultiCrashMsg::Request2 {
            phase: self.phase,
            missing,
        });
        // Our own answer is "me neither" for every missing peer — it
        // contributes nothing but counts as a response (self is a valid
        // responder in the k − b count).
        self.resp2_senders[ctx.me().index()] = true;
        self.try_finish_stage3(ctx)
    }

    /// Checks the stage-3 condition; returns `true` if the phase completed
    /// synchronously.
    fn try_finish_stage3(&mut self, _ctx: &mut dyn Context<MultiCrashMsg>) -> bool {
        if self.stage != 3 || self.out.is_some() {
            return false;
        }
        let responses = self.resp2_senders.iter().filter(|&&r| r).count();
        let done = if responses >= self.k - self.b {
            true
        } else if self.early_release {
            // Thm 2.13: late stage-1 answers may have resolved every
            // missing peer already, making further waiting pointless.
            let phase = self.phase;
            let missing = self.missing.clone();
            missing.iter().all(|&u| !self.lacks_bits_of(phase, u))
        } else {
            false
        };
        if !done {
            return false;
        }
        // Unresolved bits stay unknown and fall to their phase-(i+1)
        // owners; nothing to compute — the owner function is global.
        self.phases_run = self.phase;
        true
    }

    /// Whether a message with the given phase/stage requirement can be
    /// processed now.
    fn ready_for(&self, phase: u32, stage: u8) -> bool {
        self.out.is_some() || self.position() >= Position { phase, stage }
    }

    fn replay_pending(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        let mut pending = std::mem::take(&mut self.pending);
        let mut still = Vec::new();
        for (from, msg) in pending.drain(..) {
            let ready = match &msg {
                MultiCrashMsg::Request1 { phase } => self.ready_for(*phase, 2),
                MultiCrashMsg::Request2 { phase, .. } => self.ready_for(*phase, 3),
                _ => true,
            };
            if ready {
                self.answer_request(from, msg, ctx);
            } else {
                still.push((from, msg));
            }
        }
        self.pending.extend(still);
    }

    fn answer_request(
        &mut self,
        from: PeerId,
        msg: MultiCrashMsg,
        ctx: &mut dyn Context<MultiCrashMsg>,
    ) {
        match msg {
            MultiCrashMsg::Request1 { phase } => {
                let values = self
                    .pack_set_values(phase, ctx.me())
                    .expect("past stage 1 of the phase, our own set is fully known");
                ctx.send(from, MultiCrashMsg::Response1 { phase, values });
            }
            MultiCrashMsg::Request2 { phase, missing } => {
                let answers: Vec<(PeerId, Option<BitArray>)> = missing
                    .into_iter()
                    .map(|u| {
                        let packed = if u.index() < self.k {
                            self.pack_set_values(phase, u)
                        } else {
                            None
                        };
                        (u, packed)
                    })
                    .collect();
                ctx.send(from, MultiCrashMsg::Response2 { phase, answers });
            }
            _ => unreachable!("only requests are deferred"),
        }
    }

    /// Advances through any synchronously-completable stages/phases.
    fn pump(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        loop {
            if self.out.is_some() {
                return;
            }
            let advanced = match self.stage {
                2 => self.try_finish_stage2(ctx),
                3 => self.try_finish_stage3(ctx),
                _ => false,
            };
            if advanced {
                self.start_phase(ctx);
            } else {
                return;
            }
        }
    }
}

impl Protocol for CrashMultiDownload {
    type Msg = MultiCrashMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        self.start_phase(ctx);
        self.pump(ctx);
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: MultiCrashMsg,
        ctx: &mut dyn Context<MultiCrashMsg>,
    ) {
        if self.out.is_some() {
            return;
        }
        // No honest peer names a phase outside 1..=max_phases: drop such a
        // message here, before it can reach the owner function (phase 0
        // is outside its domain) or sit in `pending` forever.
        let named = match &msg {
            MultiCrashMsg::Request1 { phase }
            | MultiCrashMsg::Response1 { phase, .. }
            | MultiCrashMsg::Request2 { phase, .. }
            | MultiCrashMsg::Response2 { phase, .. } => Some(*phase),
            MultiCrashMsg::Final { .. } => None,
        };
        if named.is_some_and(|phase| phase == 0 || phase > self.max_phases) {
            return;
        }
        match msg {
            MultiCrashMsg::Request1 { phase } => {
                if self.ready_for(phase, 2) {
                    self.answer_request(from, MultiCrashMsg::Request1 { phase }, ctx);
                } else {
                    self.pending.push((from, MultiCrashMsg::Request1 { phase }));
                }
            }
            MultiCrashMsg::Request2 { phase, missing } => {
                let msg = MultiCrashMsg::Request2 { phase, missing };
                if self.ready_for(phase, 3) {
                    self.answer_request(from, msg, ctx);
                } else {
                    self.pending.push((from, msg));
                }
            }
            MultiCrashMsg::Response1 { phase, values } => {
                if phase <= self.phase && self.learn_set_values(phase, from, &values) {
                    // A full answer for the *current* phase marks the
                    // sender heard; answers for earlier phases only
                    // contribute their bits (useful to early release).
                    if phase == self.phase {
                        self.correct[from.index()] = true;
                    }
                }
                self.pump(ctx);
            }
            MultiCrashMsg::Response2 { phase, answers } => {
                for (u, answer) in &answers {
                    if u.index() >= self.k {
                        continue; // no such peer, no such set
                    }
                    if let Some(values) = answer {
                        self.learn_set_values(phase, *u, values);
                    }
                }
                if phase == self.phase && self.stage == 3 {
                    self.resp2_senders[from.index()] = true;
                }
                self.pump(ctx);
            }
            MultiCrashMsg::Final { bits } => {
                self.finished[from.index()] = true;
                if bits.len() == self.n {
                    self.acc.learn_slice(0, &bits);
                }
                self.terminate(ctx);
            }
        }
        // Our own state may now satisfy deferred requests.
        if self.out.is_none() {
            self.replay_pending(ctx);
        }
    }

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::{FaultModel, ModelParams};
    use dr_sim::{
        CrashDirective, CrashPlan, CrashTrigger, RunReport, SimBuilder, StandardAdversary,
        TargetedSlowdown, UniformDelay,
    };

    fn params(n: usize, k: usize, b: usize) -> ModelParams {
        ModelParams::builder(n, k)
            .faults(FaultModel::Crash, b)
            .build()
            .unwrap()
    }

    fn run(
        seed: u64,
        n: usize,
        k: usize,
        b: usize,
        plan: CrashPlan,
        early: bool,
    ) -> (RunReport, BitArray) {
        let sim = SimBuilder::new(params(n, k, b))
            .seed(seed)
            .protocol(move |_| {
                let p = CrashMultiDownload::new(n, k, b);
                if early {
                    p.with_early_release()
                } else {
                    p
                }
            })
            .adversary(StandardAdversary::new(UniformDelay::new(), plan))
            .build();
        let input = sim.input().clone();
        (sim.run().expect("must not deadlock"), input)
    }

    #[test]
    fn fault_free_run_is_balanced() {
        let (report, input) = run(1, 240, 6, 0, CrashPlan::none(), false);
        report.verify_downloads(&input).unwrap();
        // b = 0: one phase, everyone queries exactly n/k plus the ≤ n/k
        // terminal remainder.
        assert!(report.max_nonfaulty_queries <= 2 * (240 / 6) as u64);
    }

    #[test]
    fn tolerates_crashes_before_start() {
        let (report, input) = run(
            2,
            300,
            6,
            3,
            CrashPlan::before_event([PeerId(0), PeerId(1), PeerId(2)], 0),
            false,
        );
        report.verify_downloads(&input).unwrap();
        assert_eq!(report.crashed.len(), 3);
    }

    #[test]
    fn tolerates_majority_crashes() {
        // β = 7/8: only one peer survives.
        let victims: Vec<PeerId> = (1..8).map(PeerId).collect();
        let (report, input) = run(3, 128, 8, 7, CrashPlan::before_event(victims, 0), false);
        report.verify_downloads(&input).unwrap();
        assert_eq!(report.nonfaulty.len(), 1);
    }

    #[test]
    fn tolerates_mid_execution_crashes() {
        for seed in 0..10 {
            let mut plan = CrashPlan::none();
            plan.push(CrashDirective {
                peer: PeerId(1),
                trigger: CrashTrigger::BeforeEvent(2 + seed % 3),
            });
            plan.push(CrashDirective {
                peer: PeerId(4),
                trigger: CrashTrigger::DuringSend {
                    event: seed % 4,
                    keep: (seed % 3) as usize,
                },
            });
            let (report, input) = run(seed, 200, 5, 2, plan, false);
            report.verify_downloads(&input).unwrap();
        }
    }

    #[test]
    fn slow_peers_are_not_fatal() {
        // Nobody crashes, but two peers are maximally slow: the protocol
        // must finish anyway and may charge the reassigned load.
        let slow = vec![PeerId(0), PeerId(1)];
        let n = 400;
        let k = 8;
        let b = 2;
        let sim = SimBuilder::new(params(n, k, b))
            .seed(9)
            .protocol(move |_| CrashMultiDownload::new(n, k, b))
            .adversary(StandardAdversary::new(
                TargetedSlowdown::new(slow, 3),
                CrashPlan::none(),
            ))
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
        assert_eq!(report.nonfaulty.len(), 8);
    }

    #[test]
    fn query_complexity_matches_bound() {
        // Q ≤ (n/k) · 1/(1-β) + n/k + slack (Lemma 2.11).
        let n = 2048;
        let k = 8;
        let b = 4; // β = 1/2
        let (report, input) = run(
            7,
            n,
            k,
            b,
            CrashPlan::before_event((0..4).map(PeerId), 1),
            false,
        );
        report.verify_downloads(&input).unwrap();
        let per_phase = (n / k) as f64;
        let bound = per_phase * 2.0 + per_phase + 64.0;
        assert!(
            (report.max_nonfaulty_queries as f64) <= bound,
            "Q = {} exceeds {bound}",
            report.max_nonfaulty_queries
        );
    }

    #[test]
    fn message_bits_stay_near_paper_bound() {
        // With packed structural bitmaps, total payload over a fault-free
        // run is dominated by the k² Final broadcasts of n bits each (the
        // Claim 2 termination pattern); the phase traffic is O(k·n). The
        // old index-explicit format cost 64× the phase traffic.
        let (n, k) = (4096usize, 8usize);
        let (report, input) = run(11, n, k, 0, CrashPlan::none(), false);
        report.verify_downloads(&input).unwrap();
        let bound = (k * k * n + 4 * k * n) as u64;
        assert!(
            report.message_bits <= bound,
            "message bits {} exceed {bound}",
            report.message_bits
        );
    }

    #[test]
    fn early_release_matches_outputs() {
        let plan = CrashPlan::before_event([PeerId(2), PeerId(5)], 1);
        let (r1, i1) = run(11, 160, 6, 2, plan.clone(), false);
        let (r2, i2) = run(11, 160, 6, 2, plan, true);
        r1.verify_downloads(&i1).unwrap();
        r2.verify_downloads(&i2).unwrap();
    }

    #[test]
    fn lone_survivor_regime_degrades_to_naive() {
        // b = k − 1: the peer cannot count on anyone; it must pay Q = n
        // but should do so without protocol chatter.
        let (report, input) = run(13, 256, 4, 3, CrashPlan::none(), false);
        report.verify_downloads(&input).unwrap();
        assert_eq!(report.max_nonfaulty_queries, 256);
    }

    #[test]
    fn randomized_crash_fuzz_never_fails() {
        for seed in 0..25 {
            let k = 5 + (seed as usize % 4);
            let b = (seed as usize) % k;
            let mut plan = CrashPlan::none();
            for v in 0..b {
                plan.push(CrashDirective {
                    peer: PeerId(v),
                    trigger: CrashTrigger::BeforeEvent(seed % 5),
                });
            }
            let (report, input) = run(100 + seed, 150, k, b, plan, seed % 2 == 0);
            report.verify_downloads(&input).unwrap();
        }
    }

    /// A context outside any simulation: answers queries from `input`
    /// and keeps what was sent.
    struct LoneCtx {
        me: PeerId,
        k: usize,
        input: BitArray,
        sent: Vec<(PeerId, MultiCrashMsg)>,
        rng: rand::rngs::mock::StepRng,
    }

    impl Context<MultiCrashMsg> for LoneCtx {
        fn me(&self) -> PeerId {
            self.me
        }
        fn num_peers(&self) -> usize {
            self.k
        }
        fn input_len(&self) -> usize {
            self.input.len()
        }
        fn send(&mut self, to: PeerId, msg: MultiCrashMsg) {
            self.sent.push((to, msg));
        }
        fn query(&mut self, index: usize) -> bool {
            self.input.get(index)
        }
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            &mut self.rng
        }
    }

    /// Peer 0 of `(n, k, b) = (64, 4, 1)`, started and waiting in stage 2
    /// of phase 1.
    fn started() -> (CrashMultiDownload, LoneCtx) {
        let (n, k) = (64, 4);
        let mut p = CrashMultiDownload::new(n, k, 1);
        let mut ctx = LoneCtx {
            me: PeerId(0),
            k,
            input: BitArray::from_fn(n, |i| i % 3 == 0),
            sent: Vec::new(),
            rng: rand::rngs::mock::StepRng::new(0, 1),
        };
        p.on_start(&mut ctx);
        assert_eq!((p.phase, p.stage), (1, 2));
        ctx.sent.clear();
        (p, ctx)
    }

    #[test]
    fn phase_zero_messages_are_dropped() {
        // Phase 0 is outside `owner`'s domain; each of these used to
        // reach its `assert!(phase > 0)`.
        let (mut p, mut ctx) = started();
        let unknown = p.acc.unknown_count();
        let values = BitArray::from_fn(16, |_| true);
        for msg in [
            MultiCrashMsg::Request1 { phase: 0 },
            MultiCrashMsg::Response1 {
                phase: 0,
                values: values.clone(),
            },
            MultiCrashMsg::Request2 {
                phase: 0,
                missing: vec![PeerId(2)],
            },
            MultiCrashMsg::Response2 {
                phase: 0,
                answers: vec![(PeerId(2), Some(values))],
            },
        ] {
            p.on_message(PeerId(1), msg, &mut ctx);
        }
        assert!(ctx.sent.is_empty(), "nothing is answered");
        assert!(p.pending.is_empty(), "nothing is deferred");
        assert_eq!(p.acc.unknown_count(), unknown, "nothing is learned");
        assert!(p.phases.by_phase.keys().eq([1].iter()), "no partition");
    }

    #[test]
    fn requests_past_the_phase_cap_are_not_parked() {
        // No peer ever reaches phase max_phases + 1, so such a request
        // could never be answered: it used to sit in `pending` for good.
        let (mut p, mut ctx) = started();
        let beyond = p.max_phases + 1;
        p.on_message(
            PeerId(1),
            MultiCrashMsg::Request1 { phase: beyond },
            &mut ctx,
        );
        p.on_message(
            PeerId(2),
            MultiCrashMsg::Request2 {
                phase: u32::MAX,
                missing: vec![PeerId(3)],
            },
            &mut ctx,
        );
        assert!(p.pending.is_empty());
        // The cap itself is a legal phase and is still deferred.
        let cap = p.max_phases;
        p.on_message(PeerId(1), MultiCrashMsg::Request1 { phase: cap }, &mut ctx);
        assert_eq!(p.pending.len(), 1);
        assert!(ctx.sent.is_empty());
    }

    #[test]
    fn response2_about_a_nonexistent_peer_is_skipped() {
        // Only the request side checked `u < k`; an answer naming peer 77
        // indexed past the partition. Its neighbours are still learned.
        let (mut p, mut ctx) = started();
        let theirs: Vec<usize> = (2..64).step_by(4).collect();
        let values = BitArray::from_fn(theirs.len(), |r| ctx.input.get(theirs[r]));
        p.on_message(
            PeerId(1),
            MultiCrashMsg::Response2 {
                phase: 1,
                answers: vec![
                    (PeerId(77), Some(BitArray::zeros(16))),
                    (PeerId(2), Some(values)),
                ],
            },
            &mut ctx,
        );
        assert!(!p.lacks_bits_of(1, PeerId(2)));
        assert!(p.lacks_bits_of(1, PeerId(3)));
    }

    #[test]
    fn instances_of_one_size_hold_one_partition() {
        let (mut a, _) = started();
        let (mut b, _) = started();
        // Phase 1 is a stride: no table at all.
        assert!(a.phases.of(1).partition.is_none());
        let table = |p: &mut CrashMultiDownload, phase| {
            Arc::clone(p.phases.of(phase).partition.as_ref().expect("hashed"))
        };
        let shared = table(&mut a, 2);
        assert!(Arc::ptr_eq(&shared, &table(&mut b, 2)));
        // ... and fetch a later phase's the same way.
        assert!(Arc::ptr_eq(&table(&mut a, 3), &table(&mut b, 3)));
        let mut other = CrashMultiDownload::new(65, 4, 1);
        assert!(!Arc::ptr_eq(&shared, &table(&mut other, 2)));
    }

    #[test]
    fn every_response1_of_a_phase_shares_one_packed_buffer() {
        let (mut p, mut ctx) = started();
        for from in 1..4 {
            p.on_message(PeerId(from), MultiCrashMsg::Request1 { phase: 1 }, &mut ctx);
        }
        let answers: Vec<&BitArray> = ctx
            .sent
            .iter()
            .map(|(_, msg)| match msg {
                MultiCrashMsg::Response1 { phase: 1, values } => values,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(answers.len(), 3);
        let mine: Vec<bool> = (0..64).step_by(4).map(|j| ctx.input.get(j)).collect();
        assert_eq!(answers[0], &BitArray::from_bools(&mine));
        assert!(answers[1].shares_buffer_with(answers[0]));
        assert!(answers[2].shares_buffer_with(answers[0]));
    }

    #[test]
    #[should_panic(expected = "nonfaulty")]
    fn rejects_all_faulty() {
        let _ = CrashMultiDownload::new(10, 4, 4);
    }
}
