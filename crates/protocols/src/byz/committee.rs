//! Deterministic Byzantine Download via committees (§3.3, Theorem 3.4).
//!
//! For `β < 1/2` (i.e. `t = b < k/2` Byzantine peers), a committee of
//! `2t + 1` peers is assigned to every input bit in round-robin order.
//! Each committee member queries its bit and broadcasts `(index, value)`;
//! a peer accepts value `x` for bit `j` once `t + 1` *distinct committee
//! members of* `C_j` reported `x` — at least one of them is honest, so
//! `x = X[j]`, and since at least `t + 1` committee members are honest,
//! every peer eventually accepts every bit. Byzantine members can lie or
//! stay silent but can never assemble `t + 1` votes for a wrong value.
//!
//! The tally treats the `n`-bit input wholesale instead of as `n` one-bit
//! instances: votes are counted in bit-sliced counter planes, 64 input
//! bits per word operation, so one [`VoteBatch`] costs `O(n/64)` word
//! steps and — past the first batch from its sender — no allocation (see
//! DESIGN.md §4, "Word-parallel handlers").
//!
//! `Q = ⌈n(2t+1)/k⌉` per peer and `M = O(k · n(2t+1)/k) = O(nt)` vote
//! messages (batched into one physical message per recipient here, sized
//! accordingly).

use dr_core::{
    low_mask, BitArray, Context, MaskWord, PartialArray, PeerId, Protocol, ProtocolMessage,
};

/// A batch of committee votes: a packed bitmap of the sender's claimed
/// values over its committee-membership bit set, in increasing index
/// order. The membership set is structural (round-robin), so the receiver
/// reconstructs the indices locally — messages carry `n·c/k` payload bits
/// instead of 65 bits per vote.
#[derive(Debug, Clone)]
pub struct VoteBatch {
    /// Claimed values for the sender's committee bits, ascending by index.
    pub values: BitArray,
}

impl ProtocolMessage for VoteBatch {
    fn bit_len(&self) -> usize {
        self.values.len()
    }
}

/// The committee of bit `j` for `k` peers and committee size `c`:
/// peers `(j·c + l) mod k` for `l = 0..c` (round-robin, so each peer sits
/// on at most `⌈n·c/k⌉` committees).
pub fn committee(j: usize, k: usize, c: usize) -> impl Iterator<Item = PeerId> {
    (0..c).map(move |l| PeerId((j * c + l) % k))
}

/// O(1) membership test for [`committee`]: `peer ∈ C_j` iff
/// `(peer − j·c) mod k < c`.
pub fn in_committee(j: usize, k: usize, c: usize, peer: PeerId) -> bool {
    let start = (j * c) % k;
    let off = (peer.index() + k - start) % k;
    off < c.min(k)
}

/// Adds the 0/1 word `new` to 64 bit-sliced counters (`planes[i]` holds
/// bit `i` of each count) with a ripple carry, and returns the positions
/// of `new` whose count is now exactly `target`.
fn add_votes(planes: &mut [u64], new: u64, target: usize) -> u64 {
    let mut carry = new;
    let mut hit = new;
    for (i, plane) in planes.iter_mut().enumerate() {
        let sum = *plane ^ carry;
        carry &= *plane;
        *plane = sum;
        hit &= if (target >> i) & 1 == 1 { sum } else { !sum };
    }
    debug_assert_eq!(carry, 0, "vote counter overflow");
    hit
}

/// One peer's committee-membership set as a mask over the `n` input
/// indices. `(j·c) mod k` repeats every `k` indices, so the mask is a
/// repeating pattern of `k / gcd(k, 64)` words; only the array's last
/// word needs its tail cut. One buffer per protocol instance, re-aimed
/// at whichever peer is being decoded.
#[derive(Debug)]
struct Membership {
    n: usize,
    k: usize,
    c: usize,
    /// Pattern length in words, capped at the array's own word count.
    period: usize,
    pattern: Vec<MaskWord>,
}

impl Membership {
    fn new(n: usize, k: usize, c: usize) -> Self {
        let period = (k >> k.trailing_zeros().min(6)).min(n.div_ceil(64));
        Membership {
            n,
            k,
            c,
            period,
            pattern: Vec::with_capacity(period),
        }
    }

    /// Makes this the membership set of `peer`.
    fn aim(&mut self, peer: PeerId) {
        let (k, c) = (self.k, self.c);
        self.pattern.clear();
        self.pattern.extend((0..self.period).map(|w| {
            MaskWord::new((0..64).fold(0, |word, b| {
                word | u64::from(in_committee(w * 64 + b, k, c, peer)) << b
            }))
        }));
    }

    /// Number of mask words (`⌈n/64⌉`).
    fn words(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// Word `w` of the mask.
    fn word(&self, w: usize) -> MaskWord {
        let word = self.pattern[w % self.pattern.len()];
        if w + 1 == self.words() {
            word.cut(self.n - w * 64)
        } else {
            word
        }
    }

    /// Size of the set: how many votes a well-formed batch carries.
    fn count(&self) -> usize {
        (0..self.words())
            .map(|w| self.word(w).mask().count_ones() as usize)
            .sum()
    }
}

/// Deterministic Byzantine-tolerant Download via per-bit committees.
///
/// # Examples
///
/// ```
/// use dr_core::{FaultModel, ModelParams, PeerId};
/// use dr_protocols::CommitteeDownload;
/// use dr_sim::{SilentAgent, SimBuilder};
///
/// let params = ModelParams::builder(64, 7)
///     .faults(FaultModel::Byzantine, 2)
///     .build()?;
/// let sim = SimBuilder::new(params)
///     .protocol(|_| CommitteeDownload::new(64, 7, 2))
///     .byzantine(PeerId(0), SilentAgent::new())
///     .byzantine(PeerId(1), SilentAgent::new())
///     .build();
/// let input = sim.input().clone();
/// let report = sim.run().unwrap();
/// report.verify_downloads(&input).unwrap();
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
#[derive(Debug)]
pub struct CommitteeDownload {
    n: usize,
    t: usize,
    acc: PartialArray,
    out: Option<BitArray>,
    /// Counter planes per input word: `⌈log₂(2t+2)⌉`, enough to count the
    /// `2t + 1` members of a committee.
    planes: usize,
    /// Bit-sliced vote counters, one stack per vote value: the count of
    /// distinct committee members that voted `v` on bit `64·w + b` has its
    /// bit `i` at bit `b` of `votes[v][w·planes + i]`.
    votes: [Vec<u64>; 2],
    /// `seen[p][v]` bit `r`: sender `p` already voted `v` on its `r`-th
    /// committee bit. Kept in the packed (rank) order of [`VoteBatch`], so
    /// it costs `n·c/k` bits per value, not `n`, and only for senders
    /// actually heard from.
    seen: Vec<Option<[BitArray; 2]>>,
    /// The membership mask of the peer being decoded.
    members: Membership,
}

impl CommitteeDownload {
    /// Creates an instance for `n` bits, `k` peers, and up to `t < k/2`
    /// Byzantine peers.
    ///
    /// # Panics
    ///
    /// Panics unless `2t + 1 ≤ k` (honest majority is required for
    /// deterministic sub-naive Download — Theorem 3.1 shows `β ≥ 1/2`
    /// forces `Q = n`).
    pub fn new(n: usize, k: usize, t: usize) -> Self {
        assert!(2 * t < k, "committee protocol requires t < k/2");
        let planes = (usize::BITS - (2 * t + 1).leading_zeros()) as usize;
        let counters = || vec![0; n.div_ceil(64) * planes];
        CommitteeDownload {
            n,
            t,
            acc: PartialArray::new(n),
            out: None,
            planes,
            votes: [counters(), counters()],
            seen: (0..k).map(|_| None).collect(),
            members: Membership::new(n, k, 2 * t + 1),
        }
    }

    /// Committee size used by this instance.
    pub fn committee_size(&self) -> usize {
        2 * self.t + 1
    }

    /// The bits accepted so far (queried directly, or backed by `t + 1`
    /// committee votes).
    pub fn learned(&self) -> &PartialArray {
        &self.acc
    }

    /// Chaos-campaign invariant envelope: each bit is queried by its
    /// committee of `2t + 1` peers and the load is balanced, so
    /// `Q ≤ ⌈n(2t+1)/k⌉ + 1` exactly; twice that plus slack leaves room
    /// for nothing but bugs. One round of votes: small constant time.
    pub fn cost_envelope(n: usize, k: usize, t: usize) -> crate::CostEnvelope {
        let theory = (n * (2 * t + 1)).div_ceil(k) as f64 + 1.0;
        crate::CostEnvelope {
            q_max: (2.0 * theory).ceil() as u64 + 16,
            t_base: 16.0,
            t_per_release: 4.0,
            t_per_retry: 0.0,
            t_link_slack: 0.0,
        }
    }

    fn check_done(&mut self) {
        if self.out.is_none() && self.acc.is_complete() {
            self.out = Some(self.acc.clone().into_complete());
        }
    }

    /// Counts `from`'s votes and accepts every bit that reaches `t + 1`
    /// distinct votes for one value (first value wins, as in
    /// [`PartialArray::learn`]). Vote `r` of the batch is for the `r`-th
    /// index of `from`'s membership set, so non-member votes cannot even
    /// be expressed; a repeated `(sender, bit, value)` counts once.
    ///
    /// Returns whether the batch covered the whole membership set. A
    /// short batch has its prefix tallied; a long one's surplus is
    /// ignored.
    fn tally(&mut self, from: PeerId, values: &BitArray) -> bool {
        let Some(seen) = self.seen.get_mut(from.index()) else {
            return true; // not one of the k peers: sits on no committee
        };
        self.members.aim(from);
        let seen = seen.get_or_insert_with(|| {
            let seats = self.members.count();
            [BitArray::zeros(seats), BitArray::zeros(seats)]
        });
        // Rank of the current word's first member: the batch position its
        // votes start at.
        let mut rank = 0;
        for w in 0..self.members.words() {
            let members = self.members.word(w);
            let here = members.mask().count_ones() as usize;
            let present = here.min(values.len().saturating_sub(rank));
            let ones = values.word_at(rank);
            let voted = [!ones & low_mask(present), ones & low_mask(present)];
            let mut accepted = [0u64; 2];
            for (v, seen) in seen.iter_mut().enumerate() {
                let fresh = voted[v] & !seen.word_at(rank);
                if fresh != 0 {
                    seen.or_word_at(rank, fresh);
                    let counters = &mut self.votes[v][w * self.planes..][..self.planes];
                    accepted[v] = add_votes(counters, members.deposit(fresh), self.t + 1);
                }
            }
            // A batch holds one vote per index, so the two are disjoint.
            self.acc
                .learn_word(w, accepted[0] | accepted[1], accepted[1]);
            if present < here {
                return false;
            }
            rank += here;
        }
        true
    }
}

impl Protocol for CommitteeDownload {
    type Msg = VoteBatch;

    fn on_start(&mut self, ctx: &mut dyn Context<VoteBatch>) {
        self.members.aim(ctx.me());
        let mine = &self.members;
        let mask = BitArray::from_words(
            self.n,
            (0..mine.words()).map(|w| mine.word(w).mask()).collect(),
        );
        // One metered call for the whole membership set, charged and
        // logged exactly like a query per member in ascending order.
        let answers = ctx.query_masked(&mask);
        // Vote r is the answer for the r-th member index: gather the
        // answers from index order into the batch's rank order.
        let mut values = BitArray::zeros(mask.count_ones());
        let mut rank = 0;
        for w in 0..mine.words() {
            let members = mine.word(w);
            self.acc.learn_word(w, members.mask(), answers.word(w));
            values.or_word_at(rank, members.extract(answers.word(w)));
            rank += members.mask().count_ones() as usize;
        }
        ctx.broadcast(VoteBatch { values });
        self.check_done();
    }

    fn on_message(&mut self, from: PeerId, msg: VoteBatch, _ctx: &mut dyn Context<VoteBatch>) {
        if self.out.is_some() {
            return;
        }
        // Decode the packed bitmap against the sender's structural
        // membership set. A batch of the wrong arity is not discarded: a
        // short one has the votes it does carry tallied, but does not
        // trigger the completion check (the next batch does); a long
        // one's surplus is ignored. Byzantine senders gain nothing either
        // way — only committee votes are tallied.
        if self.tally(from, &msg.values) {
            self.check_done();
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
    use dr_sim::{SilentAgent, SimBuilder};

    fn params(n: usize, k: usize, t: usize) -> ModelParams {
        ModelParams::builder(n, k)
            .faults(FaultModel::Byzantine, t)
            .build()
            .unwrap()
    }

    #[test]
    fn committee_rotation_is_balanced() {
        let n = 100;
        let k = 9;
        let c = 5;
        let mut load = vec![0usize; k];
        for j in 0..n {
            for p in committee(j, k, c) {
                load[p.index()] += 1;
            }
        }
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        assert!(max - min <= 1, "committee load {load:?}");
        assert_eq!(load.iter().sum::<usize>(), n * c);
    }

    #[test]
    fn membership_test_matches_enumeration() {
        for k in [3usize, 5, 8, 13] {
            for c in [1usize, 3, 5, 7] {
                for j in 0..40 {
                    for p in 0..k {
                        let by_iter = committee(j, k, c).any(|q| q == PeerId(p));
                        assert_eq!(
                            by_iter,
                            in_committee(j, k, c, PeerId(p)),
                            "k={k} c={c} j={j} p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_byzantine_still_works() {
        let sim = SimBuilder::new(params(80, 5, 2))
            .seed(1)
            .protocol(|_| CommitteeDownload::new(80, 5, 2))
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
        // Q = n(2t+1)/k = 80·5/5 = 80.
        assert_eq!(report.max_nonfaulty_queries, 80);
    }

    #[test]
    fn silent_byzantine_members_are_tolerated() {
        let sim = SimBuilder::new(params(60, 7, 2))
            .seed(2)
            .protocol(|_| CommitteeDownload::new(60, 7, 2))
            .byzantine(PeerId(3), SilentAgent::new())
            .byzantine(PeerId(6), SilentAgent::new())
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
    }

    #[test]
    fn lying_byzantine_members_cannot_corrupt() {
        use dr_core::Context;

        /// Votes the complement of the truth on every committee it sits on.
        struct Liar {
            n: usize,
            k: usize,
            c: usize,
        }
        impl Protocol for Liar {
            type Msg = VoteBatch;
            fn on_start(&mut self, ctx: &mut dyn Context<VoteBatch>) {
                let me = ctx.me();
                let mut votes = Vec::new();
                for j in 0..self.n {
                    if committee(j, self.k, self.c).any(|p| p == me) {
                        let v = ctx.query(j);
                        votes.push(!v);
                    }
                }
                ctx.broadcast(VoteBatch {
                    values: BitArray::from_bools(&votes),
                });
            }
            fn on_message(&mut self, _f: PeerId, _m: VoteBatch, _c: &mut dyn Context<VoteBatch>) {}
            fn output(&self) -> Option<&BitArray> {
                None
            }
        }

        let (n, k, t) = (48, 7, 3);
        let sim = SimBuilder::new(params(n, k, t))
            .seed(3)
            .protocol(move |_| CommitteeDownload::new(n, k, t))
            .byzantine(PeerId(0), Liar { n, k, c: 2 * t + 1 })
            .byzantine(PeerId(2), Liar { n, k, c: 2 * t + 1 })
            .byzantine(PeerId(4), Liar { n, k, c: 2 * t + 1 })
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
    }

    /// A context for driving `on_message` alone: it sends nowhere and is
    /// never queried.
    struct NullCtx(rand::rngs::mock::StepRng);

    impl Context<VoteBatch> for NullCtx {
        fn me(&self) -> PeerId {
            PeerId(0)
        }
        fn num_peers(&self) -> usize {
            0
        }
        fn input_len(&self) -> usize {
            0
        }
        fn send(&mut self, _to: PeerId, _msg: VoteBatch) {}
        fn query(&mut self, _index: usize) -> bool {
            unreachable!("on_message never queries")
        }
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            &mut self.0
        }
    }

    fn deliver(p: &mut CommitteeDownload, from: usize, votes: &[bool]) {
        let batch = VoteBatch {
            values: BitArray::from_bools(votes),
        };
        let mut ctx = NullCtx(rand::rngs::mock::StepRng::new(0, 1));
        p.on_message(PeerId(from), batch, &mut ctx);
    }

    /// The bit-sliced count of `value`-votes on bit `j`.
    fn count(p: &CommitteeDownload, value: bool, j: usize) -> usize {
        let planes = &p.votes[usize::from(value)][j / 64 * p.planes..][..p.planes];
        planes
            .iter()
            .enumerate()
            .map(|(i, plane)| ((plane >> (j % 64)) & 1) << i)
            .sum::<u64>() as usize
    }

    #[test]
    fn bit_sliced_counters_count_and_flag_the_target() {
        let mut planes = [0u64; 3];
        for round in 1..=5 {
            // Position 0 is voted every round, position 1 every other.
            let new = if round % 2 == 1 { 0b11 } else { 0b01 };
            let hit = add_votes(&mut planes, new, 3);
            let expected = match round {
                3 => 0b01, // position 0 reaches 3 votes
                5 => 0b10, // position 1 does, two rounds later
                _ => 0,
            };
            assert_eq!(hit, expected, "round {round}");
        }
        assert_eq!(planes, [0b11, 0b10, 0b01]); // counts 5 and 3
    }

    #[test]
    fn membership_mask_matches_the_membership_test() {
        for (n, k, c) in [
            (200, 7, 3),
            (130, 12, 5),
            (64, 64, 9),
            (5, 96, 3),
            (0, 3, 1),
        ] {
            let mut members = Membership::new(n, k, c);
            for p in (0..k).map(PeerId) {
                members.aim(p);
                let mut count = 0;
                for j in 0..n {
                    let in_mask = (members.word(j / 64).mask() >> (j % 64)) & 1 == 1;
                    assert_eq!(in_mask, in_committee(j, k, c, p), "n={n} k={k} c={c} j={j}");
                    count += usize::from(in_mask);
                }
                assert_eq!(members.count(), count);
                // No stray bits past n in the last word.
                if n % 64 != 0 {
                    assert_eq!(members.word(n / 64).mask() >> (n % 64), 0);
                }
            }
        }
    }

    #[test]
    fn non_member_votes_are_ignored() {
        let mut p = CommitteeDownload::new(10, 5, 1);
        let c = p.committee_size();
        // Find a peer not on bit 0's committee.
        let outsider = (0..5)
            .find(|&q| !committee(0, 5, c).any(|m| m == PeerId(q)))
            .unwrap();
        let seats = (0..10)
            .filter(|&j| in_committee(j, 5, c, PeerId(outsider)))
            .count();
        // Whatever it sends, and however often, decodes onto its own
        // seats only.
        deliver(&mut p, outsider, &vec![true; seats]);
        deliver(&mut p, outsider, &vec![true; seats]);
        deliver(&mut p, outsider, &[false; 10]);
        assert!(!p.acc.is_known(0));
        for j in 0..10 {
            let seated = usize::from(in_committee(j, 5, c, PeerId(outsider)));
            assert_eq!(count(&p, true, j), seated, "bit {j}");
            assert_eq!(count(&p, false, j), seated, "bit {j}");
        }
    }

    #[test]
    fn short_batch_tallies_its_prefix_and_skips_the_completion_check() {
        // k = 5, c = 3: peer 0 sits on bits {0,1,3}, 1 on {0,2,3}, 2 on
        // {0,2,4}, 3 on {1,2,4}, 4 on {1,3,4}. Two votes accept a bit.
        let mut p = CommitteeDownload::new(5, 5, 1);
        for from in [0, 3, 4] {
            deliver(&mut p, from, &[true; 3]);
        }
        // Bits 1, 3, 4 are accepted; 0 and 2 have one vote each.
        assert_eq!(p.acc.unknown_iter().collect::<Vec<_>>(), vec![0, 2]);
        // Peer 1's batch stops one vote short: bits 0 and 2 are tallied
        // (and complete the array), bit 3 is not.
        deliver(&mut p, 1, &[true; 2]);
        assert!(p.acc.is_complete());
        assert_eq!(count(&p, true, 3), 2);
        assert!(p.output().is_none(), "a short batch must not terminate");
        // Not even an empty one.
        deliver(&mut p, 2, &[]);
        assert!(p.output().is_none());
        // The next well-formed (or long) batch runs the check.
        deliver(&mut p, 2, &[true; 4]);
        assert_eq!(p.output(), Some(&BitArray::from_bools(&[true; 5])));
    }

    #[test]
    fn long_batch_surplus_is_ignored() {
        let mut exact = CommitteeDownload::new(70, 5, 1);
        let mut long = CommitteeDownload::new(70, 5, 1);
        for from in 0..3 {
            let seats = (0..70)
                .filter(|&j| in_committee(j, 5, 3, PeerId(from)))
                .count();
            let mut votes: Vec<bool> = (0..seats).map(|r| r % 3 == 0).collect();
            deliver(&mut exact, from, &votes);
            votes.extend([true; 90]);
            deliver(&mut long, from, &votes);
            assert_eq!(exact.acc, long.acc);
            assert_eq!(exact.votes, long.votes);
        }
        // A long batch is well-formed enough to run the completion check.
        let mut p = CommitteeDownload::new(0, 3, 1);
        deliver(&mut p, 1, &[true; 4]);
        assert_eq!(p.output(), Some(&BitArray::zeros(0)));
    }

    #[test]
    fn repeats_count_once_but_both_values_count() {
        let mut p = CommitteeDownload::new(5, 5, 1);
        deliver(&mut p, 0, &[true; 3]);
        deliver(&mut p, 0, &[true; 3]);
        assert_eq!((count(&p, true, 0), count(&p, false, 0)), (1, 0));
        assert_eq!(p.acc.unknown_count(), 5);
        deliver(&mut p, 0, &[false; 3]);
        assert_eq!((count(&p, true, 0), count(&p, false, 0)), (1, 1));
        // First value to reach t + 1 wins, later majorities do not flip it.
        deliver(&mut p, 1, &[false; 3]);
        assert_eq!(p.acc.get(0), Some(false));
        deliver(&mut p, 1, &[true; 3]);
        deliver(&mut p, 2, &[true; 3]);
        assert_eq!(count(&p, true, 0), 3);
        assert_eq!(p.acc.get(0), Some(false));
    }

    #[test]
    fn query_complexity_scales_with_t() {
        let n = 120;
        let k = 12;
        for t in [0usize, 1, 2, 3, 5] {
            let sim = SimBuilder::new(params(n, k, t))
                .seed(4 + t as u64)
                .protocol(move |_| CommitteeDownload::new(n, k, t))
                .build();
            let input = sim.input().clone();
            let report = sim.run().unwrap();
            report.verify_downloads(&input).unwrap();
            let expected = (n * (2 * t + 1)).div_ceil(k) as u64;
            assert!(
                report.max_nonfaulty_queries <= expected + 1,
                "t={t}: Q={} > {expected}",
                report.max_nonfaulty_queries
            );
        }
    }

    #[test]
    #[should_panic(expected = "t < k/2")]
    fn rejects_byzantine_majority() {
        let _ = CommitteeDownload::new(10, 4, 2);
    }
}
