//! Differential test for Algorithm 1's arithmetic shares.
//!
//! `SingleCrashDownload` computes its phase-1 share `{j : j ≡ p (mod k)}`
//! and its phase-2 share of a missing peer's bits as strides, and scatters,
//! gathers and queries them through `PartialArray` and one masked query.
//! The version it replaced — each share an `O(n)` filtered `Vec<usize>`,
//! one `learn`/`get` per bit — lives on here, verbatim, as the reference:
//! over random sizes, seeds and crash points, whole simulated executions
//! of the two must be indistinguishable — outputs, per-peer Q and query
//! logs, T, M, message bits, event count and fingerprint.

use dr_core::{
    BitArray, Context, FaultModel, ModelParams, PartialArray, PeerId, Protocol, ProtocolMessage,
};
use dr_protocols::{SingleCrashDownload, SingleCrashMsg};
use dr_sim::{
    CrashDirective, CrashPlan, CrashTrigger, RunReport, SimBuilder, StandardAdversary, UniformDelay,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The pre-rewrite `SingleCrashDownload`, unchanged but for its name, and
// the index-list `query_unknown` it called.
// ---------------------------------------------------------------------

/// Queries those of `indices` (ascending) that `acc` does not know yet and
/// learns the answers: one [`Context::query_masked`] call, charged and
/// logged exactly like a `ctx.query` per unknown index in that order.
fn query_unknown<M: ProtocolMessage>(
    acc: &mut PartialArray,
    indices: impl IntoIterator<Item = usize>,
    ctx: &mut dyn Context<M>,
) {
    let mut words = vec![0u64; acc.len().div_ceil(64)];
    let mut wanted = false;
    for j in indices {
        if !acc.is_known(j) {
            words[j / 64] |= 1 << (j % 64);
            wanted = true;
        }
    }
    if !wanted {
        return;
    }
    let mask = BitArray::from_words(acc.len(), words);
    let answers = ctx.query_masked(&mask);
    for w in 0..mask.word_count() {
        if mask.word(w) != 0 {
            acc.learn_word(w, mask.word(w), answers.word(w));
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

#[derive(Debug)]
struct Reference {
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

impl Reference {
    /// Creates an instance for `n` bits and `k ≥ 3` peers.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` (the Overlap Lemma argument needs two
    /// `(k−1)`-subsets of peers to intersect).
    fn new(n: usize, k: usize) -> Self {
        assert!(k >= 3, "Algorithm 1 requires k >= 3 peers");
        Reference {
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

impl Protocol for Reference {
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

// ---------------------------------------------------------------------

/// Everything a run is observed by.
type Observed = (
    Vec<Option<BitArray>>,
    Vec<u64>,
    Vec<Vec<usize>>,
    (u64, u64, u64, u64),
    u64,
);

fn observe(report: &RunReport) -> Observed {
    (
        report.outputs.clone(),
        report.query_counts.clone(),
        report
            .query_indices
            .clone()
            .expect("index tracking enabled"),
        (
            report.virtual_time_ticks,
            report.messages_sent,
            report.message_bits,
            report.events,
        ),
        report.fingerprint(),
    )
}

fn run<P, F>(n: usize, k: usize, seed: u64, plan: &CrashPlan, make: F) -> RunReport
where
    P: Protocol<Msg = SingleCrashMsg> + 'static,
    F: Fn(usize, usize) -> P + Send + Clone + 'static,
{
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Crash, 1)
        .build()
        .unwrap();
    let sim = SimBuilder::new(params)
        .seed(seed)
        .protocol(move |_| make(n, k))
        .adversary(StandardAdversary::new(UniformDelay::new(), plan.clone()))
        .track_query_indices()
        .build();
    let input = sim.input().clone();
    let report = sim.run().expect("must not deadlock");
    report.verify_downloads(&input).expect("exact download");
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn whole_executions_match_the_filtered_list_reference(
        // Fewer bits than peers, sub-word, and several phase-2 strides.
        n in (0usize..3, 0usize..400).prop_map(|(band, off)| match band {
            0 => 1 + off % 12,
            1 => 40 + off % 90,
            _ => 300 + off * 4,
        }),
        // Phase-2 steps k(k−1) inside a word and well past one.
        k in (0usize..4, 0usize..10).prop_map(|(band, off)| match band {
            0 => 60 + off % 6,
            _ => 3 + off,
        }),
        seed in any::<u64>(),
        // No crash, a crash before an event, or one in the middle of a send.
        crash in (0usize..3, 0usize..80, 0u64..6, 0usize..4),
    ) {
        let (kind, victim, event, keep) = crash;
        let victim = PeerId(victim % k);
        let plan = match kind {
            0 => CrashPlan::none(),
            1 => CrashPlan::before_event([victim], event),
            _ => {
                let mut plan = CrashPlan::none();
                plan.push(CrashDirective {
                    peer: victim,
                    trigger: CrashTrigger::DuringSend { event, keep },
                });
                plan
            }
        };
        let new = run(n, k, seed, &plan, SingleCrashDownload::new);
        let reference = run(n, k, seed, &plan, Reference::new);
        prop_assert_eq!(observe(&new), observe(&reference));
    }
}
