//! Algorithm 1: deterministic Download with at most one crash (§2.1).
//!
//! The protocol runs two phases of three stages each.
//!
//! * **Phase 1, stage 1** — peer `v` queries its round-robin share
//!   (`{j : j ≡ v (mod k)}`) and pushes the values to every peer.
//! * **Stage 2** — `v` waits for stage-1 shares from at least `k − 1`
//!   peers (waiting for the last risks deadlock if it crashed), then asks
//!   everyone who has the bits of its *missing* peer `m`. A peer answers
//!   `m`'s bits if it heard `m`, "me neither" otherwise — delaying its
//!   answer until it finished its own stage-2 wait.
//! * **Stage 3** — `v` collects `k − 1` answers. If any answer carries
//!   `m`'s bits, `v` enters *completion mode*; if all say "me neither",
//!   `v` reassigns `m`'s bits evenly over the remaining peers (every peer
//!   that reaches this point has the same missing peer, by the Overlap
//!   Lemma — Lemma 2.1), and phase 2 repeats the pattern on the
//!   reassigned share. Completion-mode peers instead broadcast the full
//!   array and terminate.
//!
//! A peer terminates the moment it knows every bit (Theorem 2.3 shows this
//! happens by the end of phase 2's stage 2). `Q ≤ ⌈n/k⌉ + ⌈n/(k(k−1))⌉`,
//! i.e. `O(n/k)`.

use super::query_unknown;
use dr_core::{BitArray, Context, PartialArray, PeerId, Protocol, ProtocolMessage};

/// Messages of Algorithm 1. Bit payloads are packed bitmaps over
/// *structural* index sets: the phase-1 share of peer `p` is
/// `{j : j ≡ p (mod k)}` and the phase-2 reassignment of the missing
/// peer's share is rank-based — both computable by every receiver, so no
/// indices travel on the wire.
#[derive(Debug, Clone)]
pub enum SingleCrashMsg {
    /// Stage-1 push of the sender's phase-1 share (packed, ascending).
    Share1 {
        /// Packed values of `{j : j ≡ sender (mod k)}`.
        values: BitArray,
    },
    /// Phase-2 push of the sender's reassigned share of `missing`'s bits.
    Share2 {
        /// The peer whose bits were reassigned (Lemma 2.1: globally
        /// agreed among reassigners, but carried for late receivers).
        missing: PeerId,
        /// Packed values of the sender's reassigned sub-share.
        values: BitArray,
    },
    /// Stage-2 question: "did you hear the bits of `missing`?"
    WhoHas {
        /// The asker's missing peer.
        missing: PeerId,
    },
    /// Positive stage-2 answer: the phase-1 share of `missing` (packed).
    Has {
        /// The peer whose bits are attached.
        missing: PeerId,
        /// Packed values of `missing`'s phase-1 share.
        values: BitArray,
    },
    /// Negative stage-2 answer: the sender lacks `missing`'s bits too.
    MeNeither {
        /// The peer the answer is about.
        missing: PeerId,
    },
    /// Completion-mode broadcast of the entire array.
    Full {
        /// The complete input array.
        bits: BitArray,
    },
}

impl ProtocolMessage for SingleCrashMsg {
    fn bit_len(&self) -> usize {
        match self {
            SingleCrashMsg::Share1 { values } => 8 + values.len(),
            SingleCrashMsg::Share2 { values, .. } => 24 + values.len(),
            SingleCrashMsg::WhoHas { .. } => 16,
            SingleCrashMsg::Has { values, .. } => 24 + values.len(),
            SingleCrashMsg::MeNeither { .. } => 16,
            SingleCrashMsg::Full { bits } => bits.len(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Phase 1: waiting for k−1 stage-1 shares.
    P1WaitShares,
    /// Phase 1: waiting for k−1 stage-2 answers about `missing`.
    P1WaitAnswers,
    /// Phase 2: waiting until every bit is known.
    P2WaitComplete,
    Done,
}

/// Algorithm 1 (§2.1): deterministic Download tolerating one crash.
///
/// # Examples
///
/// ```
/// use dr_core::{FaultModel, ModelParams, PeerId};
/// use dr_protocols::SingleCrashDownload;
/// use dr_sim::{CrashPlan, SimBuilder, StandardAdversary, UniformDelay};
///
/// let params = ModelParams::builder(120, 4)
///     .faults(FaultModel::Crash, 1)
///     .build()?;
/// let sim = SimBuilder::new(params)
///     .protocol(|_| SingleCrashDownload::new(120, 4))
///     .adversary(StandardAdversary::new(
///         UniformDelay::new(),
///         CrashPlan::before_event([PeerId(3)], 0),
///     ))
///     .build();
/// let input = sim.input().clone();
/// let report = sim.run().unwrap();
/// report.verify_downloads(&input).unwrap();
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
#[derive(Debug)]
pub struct SingleCrashDownload {
    n: usize,
    k: usize,
    me: usize,
    acc: PartialArray,
    out: Option<BitArray>,
    step: Step,
    /// Peers whose phase-1 share arrived (includes self).
    p1_heard: Vec<bool>,
    /// Phase-1 shares by owner (packed values), kept to answer `WhoHas`.
    p1_shares: Vec<Option<BitArray>>,
    /// The missing peer this peer asked about in stage 2.
    missing: Option<PeerId>,
    /// Peers whose stage-2 answer arrived (includes self).
    answered: Vec<bool>,
    /// Whether any stage-2 answer carried the missing peer's bits.
    got_bits: bool,
    /// Buffered `WhoHas` questions to answer after our own stage-2 wait.
    pending_questions: Vec<(PeerId, PeerId)>,
}

impl SingleCrashDownload {
    /// Creates an instance for `n` bits and `k ≥ 3` peers.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` (the Overlap Lemma argument needs two
    /// `(k−1)`-subsets of peers to intersect).
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 3, "Algorithm 1 requires k >= 3 peers");
        SingleCrashDownload {
            n,
            k,
            me: usize::MAX,
            acc: PartialArray::new(n),
            out: None,
            step: Step::P1WaitShares,
            p1_heard: vec![false; k],
            p1_shares: vec![None; k],
            missing: None,
            answered: vec![false; k],
            got_bits: false,
            pending_questions: Vec::new(),
        }
    }

    /// Chaos-campaign invariant envelope for Algorithm 1 (Theorem 2.6:
    /// `Q ≤ n/k + n/(k(k−1)) + 2`): twice the bound plus constant slack
    /// on `Q`; time allows the two phases plus crash recovery.
    pub fn cost_envelope(n: usize, k: usize) -> crate::CostEnvelope {
        let theory = n as f64 / k as f64 + n as f64 / (k as f64 * (k as f64 - 1.0)) + 2.0;
        crate::CostEnvelope {
            q_max: (2.0 * theory).ceil() as u64 + 16,
            t_base: 16.0,
            t_per_release: 4.0,
            t_per_retry: 0.0,
            t_link_slack: 0.0,
        }
    }

    fn phase1_share(&self, peer: usize) -> Vec<usize> {
        (0..self.n).filter(|j| j % self.k == peer).collect()
    }

    /// The deterministic even reassignment of `m`'s bits over the other
    /// peers: the `r`-th bit of `m`'s (sorted) share goes to the `r mod
    /// (k−1)`-th peer of `P ∖ {m}`.
    fn phase2_share(&self, m: usize, peer: usize) -> Vec<usize> {
        let others: Vec<usize> = (0..self.k).filter(|&p| p != m).collect();
        self.phase1_share(m)
            .into_iter()
            .enumerate()
            .filter(|(r, _)| others[r % others.len()] == peer)
            .map(|(_, j)| j)
            .collect()
    }

    /// Learns a packed bitmap against an explicit index set; rejects
    /// arity mismatches.
    fn learn_packed(&mut self, set: &[usize], values: &BitArray) -> bool {
        if set.len() != values.len() {
            return false;
        }
        for (r, &j) in set.iter().enumerate() {
            self.acc.learn(j, values.get(r));
        }
        true
    }

    /// Terminates if every bit is known. Every termination broadcasts the
    /// full array first (the Claim 2 pattern): a silently-halting peer
    /// could otherwise starve others still waiting for its stage-2
    /// answers. Each peer broadcasts at most once.
    fn finish_if_complete(&mut self, ctx: &mut dyn Context<SingleCrashMsg>) -> bool {
        if self.out.is_none() && self.acc.is_complete() {
            let bits = self.acc.clone().into_complete();
            // The retained copy is an O(1) shared-buffer clone; the
            // broadcast takes the array by move.
            self.out = Some(bits.clone());
            ctx.broadcast(SingleCrashMsg::Full { bits });
            self.step = Step::Done;
            true
        } else {
            false
        }
    }

    fn answer_question(&self, asker_missing: PeerId) -> SingleCrashMsg {
        match &self.p1_shares[asker_missing.index()] {
            Some(values) => SingleCrashMsg::Has {
                missing: asker_missing,
                values: values.clone(),
            },
            None => SingleCrashMsg::MeNeither {
                missing: asker_missing,
            },
        }
    }

    /// Packs the known values over an index set (all must be known).
    fn pack(&self, set: &[usize]) -> BitArray {
        BitArray::from_fn(set.len(), |r| {
            self.acc.get(set[r]).expect("bit known before packing")
        })
    }

    fn flush_pending_questions(&mut self, ctx: &mut dyn Context<SingleCrashMsg>) {
        let pending = std::mem::take(&mut self.pending_questions);
        for (asker, m) in pending {
            let reply = self.answer_question(m);
            ctx.send(asker, reply);
        }
    }

    /// Checks the phase-1 stage-2 condition (`k − 1` shares heard).
    fn try_advance_from_wait_shares(&mut self, ctx: &mut dyn Context<SingleCrashMsg>) {
        if self.step != Step::P1WaitShares {
            return;
        }
        let heard = self.p1_heard.iter().filter(|&&h| h).count();
        if heard < self.k - 1 {
            return;
        }
        // Our stage-2 wait is over: we may now answer buffered questions.
        if heard == self.k {
            // Heard everyone: completion mode, straight to phase 2.
            self.step = Step::P2WaitComplete;
            self.flush_pending_questions(ctx);
            self.enter_phase2(ctx);
        } else {
            let m = PeerId(
                self.p1_heard
                    .iter()
                    .position(|&h| !h)
                    .expect("exactly one peer missing"),
            );
            self.missing = Some(m);
            self.step = Step::P1WaitAnswers;
            self.flush_pending_questions(ctx);
            ctx.broadcast(SingleCrashMsg::WhoHas { missing: m });
            // Our own answer about m is "me neither" by definition.
            self.answered[ctx.me().index()] = true;
            self.try_advance_from_wait_answers(ctx);
        }
    }

    /// Checks the phase-1 stage-3 condition (`k − 1` answers collected).
    fn try_advance_from_wait_answers(&mut self, ctx: &mut dyn Context<SingleCrashMsg>) {
        if self.step != Step::P1WaitAnswers {
            return;
        }
        let count = self.answered.iter().filter(|&&a| a).count();
        if count < self.k - 1 {
            return;
        }
        self.step = Step::P2WaitComplete;
        self.enter_phase2(ctx);
    }

    fn enter_phase2(&mut self, ctx: &mut dyn Context<SingleCrashMsg>) {
        if self.finish_if_complete(ctx) {
            return;
        }
        if self.got_bits {
            // Bits arrived in stage 3 but something is still unknown
            // (possible only with partial adversarial shares): query the
            // remainder directly, then terminate in completion mode.
            let unknown: Vec<usize> = self.acc.unknown_iter().collect();
            query_unknown(&mut self.acc, unknown, ctx);
            self.finish_if_complete(ctx);
            return;
        }
        // All answers were "me neither": query our reassigned share of the
        // missing peer's bits and push it.
        let m = self
            .missing
            .expect("missing peer set before phase 2")
            .index();
        let mine = self.phase2_share(m, ctx.me().index());
        query_unknown(&mut self.acc, mine.iter().copied(), ctx);
        let values = self.pack(&mine);
        ctx.broadcast(SingleCrashMsg::Share2 {
            missing: PeerId(m),
            values,
        });
        self.finish_if_complete(ctx);
    }
}

impl Protocol for SingleCrashDownload {
    type Msg = SingleCrashMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<SingleCrashMsg>) {
        self.me = ctx.me().index();
        let mine = self.phase1_share(self.me);
        query_unknown(&mut self.acc, mine.iter().copied(), ctx);
        let values = self.pack(&mine);
        self.p1_heard[self.me] = true;
        self.p1_shares[self.me] = Some(values.clone());
        ctx.broadcast(SingleCrashMsg::Share1 { values });
        self.try_advance_from_wait_shares(ctx);
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: SingleCrashMsg,
        ctx: &mut dyn Context<SingleCrashMsg>,
    ) {
        if self.step == Step::Done {
            return;
        }
        match msg {
            SingleCrashMsg::Share1 { values } => {
                let set = self.phase1_share(from.index());
                if self.learn_packed(&set, &values) {
                    self.p1_heard[from.index()] = true;
                    self.p1_shares[from.index()] = Some(values);
                    // A late phase-1 share from our missing peer also
                    // resolves stage 3.
                    if self.missing == Some(from) {
                        self.got_bits = true;
                    }
                    self.try_advance_from_wait_shares(ctx);
                }
                if !self.finish_if_complete(ctx) {
                    self.try_advance_from_wait_answers(ctx);
                }
            }
            SingleCrashMsg::Share2 { missing, values } => {
                if missing.index() < self.k {
                    let set = self.phase2_share(missing.index(), from.index());
                    self.learn_packed(&set, &values);
                }
                if !self.finish_if_complete(ctx) {
                    self.try_advance_from_wait_answers(ctx);
                }
            }
            SingleCrashMsg::WhoHas { missing } => {
                // Delay the answer until our own stage-2 wait is over.
                if self.step == Step::P1WaitShares {
                    self.pending_questions.push((from, missing));
                } else {
                    let reply = self.answer_question(missing);
                    ctx.send(from, reply);
                }
            }
            SingleCrashMsg::Has { missing, values } => {
                if missing.index() < self.k {
                    let set = self.phase1_share(missing.index());
                    if self.learn_packed(&set, &values) && self.missing == Some(missing) {
                        self.answered[from.index()] = true;
                        self.got_bits = true;
                    }
                }
                if !self.finish_if_complete(ctx) {
                    self.try_advance_from_wait_answers(ctx);
                }
            }
            SingleCrashMsg::MeNeither { missing } => {
                if self.missing == Some(missing) {
                    self.answered[from.index()] = true;
                }
                self.try_advance_from_wait_answers(ctx);
            }
            SingleCrashMsg::Full { bits } => {
                if bits.len() == self.n {
                    self.acc.learn_slice(0, &bits);
                }
                self.finish_if_complete(ctx);
            }
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
        CrashDirective, CrashPlan, CrashTrigger, SimBuilder, StandardAdversary, UniformDelay,
    };

    fn params(n: usize, k: usize) -> ModelParams {
        ModelParams::builder(n, k)
            .faults(FaultModel::Crash, 1)
            .build()
            .unwrap()
    }

    fn run_with_plan(
        seed: u64,
        n: usize,
        k: usize,
        plan: CrashPlan,
    ) -> (dr_sim::RunReport, BitArray) {
        let sim = SimBuilder::new(params(n, k))
            .seed(seed)
            .protocol(move |_| SingleCrashDownload::new(n, k))
            .adversary(StandardAdversary::new(UniformDelay::new(), plan))
            .build();
        let input = sim.input().clone();
        (sim.run().expect("run must not deadlock"), input)
    }

    #[test]
    fn no_crash_completes_with_balanced_queries() {
        let (report, input) = run_with_plan(1, 120, 4, CrashPlan::none());
        report.verify_downloads(&input).unwrap();
        // Without a crash, stage 2 may still miss one slow peer, so the
        // worst case is the n/k share plus the n/(k(k-1)) reassigned share.
        let bound = (120 / 4) + 120 / (4 * 3) + 2;
        assert!(report.max_nonfaulty_queries <= bound as u64);
    }

    #[test]
    fn crash_before_start_is_tolerated() {
        for victim in 0..4 {
            let plan = CrashPlan::before_event([PeerId(victim)], 0);
            let (report, input) = run_with_plan(7 + victim as u64, 96, 4, plan);
            report.verify_downloads(&input).unwrap();
            assert_eq!(report.crashed.len(), 1);
        }
    }

    #[test]
    fn crash_mid_broadcast_is_tolerated() {
        // Victim sends its phase-1 share to some peers then dies.
        for keep in 0..3 {
            let mut plan = CrashPlan::none();
            plan.push(CrashDirective {
                peer: PeerId(1),
                trigger: CrashTrigger::DuringSend { event: 0, keep },
            });
            let (report, input) = run_with_plan(20 + keep as u64, 60, 4, plan);
            report.verify_downloads(&input).unwrap();
        }
    }

    #[test]
    fn crash_late_in_phase_two_is_tolerated() {
        let mut plan = CrashPlan::none();
        plan.push(CrashDirective {
            peer: PeerId(2),
            trigger: CrashTrigger::BeforeEvent(5),
        });
        let (report, input) = run_with_plan(3, 80, 5, plan);
        report.verify_downloads(&input).unwrap();
    }

    #[test]
    fn query_complexity_is_near_optimal() {
        let n = 1200;
        let k = 8;
        let (report, input) = run_with_plan(5, n, k, CrashPlan::before_event([PeerId(0)], 0));
        report.verify_downloads(&input).unwrap();
        let bound = n / k + n / (k * (k - 1)) + 2;
        assert!(
            report.max_nonfaulty_queries <= bound as u64,
            "Q = {} exceeds bound {bound}",
            report.max_nonfaulty_queries
        );
    }

    #[test]
    fn many_seeds_never_deadlock() {
        for seed in 0..20 {
            let victim = PeerId((seed as usize) % 5);
            let plan = CrashPlan::before_event([victim], seed % 7);
            let (report, input) = run_with_plan(seed, 50, 5, plan);
            report.verify_downloads(&input).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "k >= 3")]
    fn rejects_two_peers() {
        let _ = SingleCrashDownload::new(10, 2);
    }

    #[test]
    fn phase2_share_partitions_missing_bits() {
        let p = SingleCrashDownload::new(100, 5);
        let m = 2;
        let mut all: Vec<usize> = Vec::new();
        for peer in 0..5 {
            if peer == m {
                assert!(p.phase2_share(m, peer).is_empty());
                continue;
            }
            all.extend(p.phase2_share(m, peer));
        }
        all.sort_unstable();
        assert_eq!(all, p.phase1_share(m));
    }
}
