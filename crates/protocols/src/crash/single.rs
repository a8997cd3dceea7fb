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
use dr_core::{BitArray, BitIndices, Context, PartialArray, PeerId, Protocol, ProtocolMessage};

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

    /// `peer`'s round-robin share `{j : j ≡ peer (mod k)}`: the stride
    /// `peer + r·k`.
    fn phase1_share(&self, peer: usize) -> BitIndices<'static> {
        BitIndices::stride_below(self.n, peer, self.k)
    }

    /// The deterministic even reassignment of `m`'s bits over the other
    /// peers: the `r`-th bit of `m`'s (sorted) share goes to the `r mod
    /// (k−1)`-th peer of `P ∖ {m}`. For the peer at position `pos` of
    /// `P ∖ {m}` those are the bits `m + (pos + t·(k−1))·k`: the stride
    /// from `m + pos·k` with step `k(k−1)`. `m` itself gets nothing.
    fn phase2_share(&self, m: usize, peer: usize) -> BitIndices<'static> {
        let pos = match peer.cmp(&m) {
            std::cmp::Ordering::Less => peer,
            std::cmp::Ordering::Equal => return BitIndices::Table(&[]),
            std::cmp::Ordering::Greater => peer - 1,
        };
        BitIndices::stride_below(self.n, m + pos * self.k, self.k * (self.k - 1))
    }

    /// Learns a packed bitmap against a share; rejects arity mismatches.
    fn learn_packed(&mut self, set: BitIndices<'_>, values: &BitArray) -> bool {
        if set.len() != values.len() {
            return false;
        }
        self.acc.learn_scattered(set, values);
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

    /// Queries what is still unknown of `share`, then packs it.
    fn query_and_pack(
        &mut self,
        share: BitIndices<'_>,
        ctx: &mut dyn Context<SingleCrashMsg>,
    ) -> BitArray {
        let wanted = self.acc.unknown_among(share);
        query_unknown(&mut self.acc, &wanted, ctx);
        self.acc.gather(share).expect("bit known before packing")
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
            let unknown = self.acc.unknown_mask();
            query_unknown(&mut self.acc, &unknown, ctx);
            self.finish_if_complete(ctx);
            return;
        }
        // All answers were "me neither": query our reassigned share of the
        // missing peer's bits and push it.
        let m = self
            .missing
            .expect("missing peer set before phase 2")
            .index();
        let values = self.query_and_pack(self.phase2_share(m, ctx.me().index()), ctx);
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
        let values = self.query_and_pack(self.phase1_share(self.me), ctx);
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
                if self.learn_packed(self.phase1_share(from.index()), &values) {
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
                    self.learn_packed(self.phase2_share(missing.index(), from.index()), &values);
                }
                if !self.finish_if_complete(ctx) {
                    self.try_advance_from_wait_answers(ctx);
                }
            }
            SingleCrashMsg::WhoHas { missing } => {
                // No such peer, no such share: no honest peer asks this.
                if missing.index() >= self.k {
                    return;
                }
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
                    if self.learn_packed(set, &values) && self.missing == Some(missing) {
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

    /// The indices of the ascending `share` of bits below `n`.
    fn listed(n: usize, share: BitIndices<'_>) -> Vec<usize> {
        PartialArray::new(n).unknown_among(share).ones().collect()
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
            all.extend(listed(100, p.phase2_share(m, peer)));
        }
        all.sort_unstable();
        assert_eq!(all, listed(100, p.phase1_share(m)));
    }

    #[test]
    fn shares_are_the_filtered_lists_they_replaced() {
        // The share functions as they were, building each list by
        // filtering 0..n.
        fn phase1_share(n: usize, k: usize, peer: usize) -> Vec<usize> {
            (0..n).filter(|j| j % k == peer).collect()
        }
        fn phase2_share(n: usize, k: usize, m: usize, peer: usize) -> Vec<usize> {
            let others: Vec<usize> = (0..k).filter(|&p| p != m).collect();
            phase1_share(n, k, m)
                .into_iter()
                .enumerate()
                .filter(|(r, _)| others[r % others.len()] == peer)
                .map(|(_, j)| j)
                .collect()
        }
        for k in 3..11 {
            // Empty, fewer bits than peers, and around k(k−1) and its
            // multiples, where a phase-2 stride gains or loses a member.
            for n in (0..40).chain([k * (k - 1) - 1, k * (k - 1), 3 * k * (k - 1) + 1, 997]) {
                let p = SingleCrashDownload::new(n, k);
                for m in 0..k {
                    assert_eq!(listed(n, p.phase1_share(m)), phase1_share(n, k, m));
                    for peer in 0..k {
                        let share = p.phase2_share(m, peer);
                        let expected = phase2_share(n, k, m, peer);
                        assert_eq!(share.len(), expected.len(), "n {n} k {k} m {m} peer {peer}");
                        assert_eq!(listed(n, share), expected, "n {n} k {k} m {m} peer {peer}");
                    }
                }
            }
        }
    }

    /// A context outside any simulation: answers queries from `input`
    /// and keeps what was sent.
    struct LoneCtx {
        me: PeerId,
        k: usize,
        input: BitArray,
        sent: Vec<(PeerId, SingleCrashMsg)>,
        rng: rand::rngs::mock::StepRng,
    }

    impl Context<SingleCrashMsg> for LoneCtx {
        fn me(&self) -> PeerId {
            self.me
        }
        fn num_peers(&self) -> usize {
            self.k
        }
        fn input_len(&self) -> usize {
            self.input.len()
        }
        fn send(&mut self, to: PeerId, msg: SingleCrashMsg) {
            self.sent.push((to, msg));
        }
        fn query(&mut self, index: usize) -> bool {
            self.input.get(index)
        }
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            &mut self.rng
        }
    }

    #[test]
    fn a_question_about_a_nonexistent_peer_is_dropped() {
        // `WhoHas { missing }` indexed the share table unchecked, so a
        // `missing ≥ k` panicked: at once past the stage-2 wait, and on
        // the flush of the buffered questions before it.
        let (n, k) = (40, 4);
        let input = BitArray::from_fn(n, |i| i % 3 == 0);
        let mut p = SingleCrashDownload::new(n, k);
        let mut ctx = LoneCtx {
            me: PeerId(0),
            k,
            input: input.clone(),
            sent: Vec::new(),
            rng: rand::rngs::mock::StepRng::new(0, 1),
        };
        p.on_start(&mut ctx);
        assert_eq!(p.step, Step::P1WaitShares);
        ctx.sent.clear();
        // Still waiting for shares: the question would be buffered.
        p.on_message(
            PeerId(1),
            SingleCrashMsg::WhoHas { missing: PeerId(k) },
            &mut ctx,
        );
        assert!(p.pending_questions.is_empty());
        // Two more shares end the wait (peer 3 stays missing) and flush
        // the buffer; then the question arrives again.
        for from in [1, 2] {
            let values = BitArray::from_fn(p.phase1_share(from).len(), |r| input.get(from + r * k));
            p.on_message(PeerId(from), SingleCrashMsg::Share1 { values }, &mut ctx);
        }
        assert_eq!(p.step, Step::P1WaitAnswers);
        ctx.sent.clear();
        p.on_message(
            PeerId(2),
            SingleCrashMsg::WhoHas {
                missing: PeerId(usize::MAX),
            },
            &mut ctx,
        );
        assert!(ctx.sent.is_empty(), "nothing is answered");
        // A legal question is still answered.
        p.on_message(
            PeerId(2),
            SingleCrashMsg::WhoHas { missing: PeerId(3) },
            &mut ctx,
        );
        assert!(matches!(
            ctx.sent.as_slice(),
            [(PeerId(2), SingleCrashMsg::MeNeither { missing: PeerId(3) })]
        ));
    }
}
