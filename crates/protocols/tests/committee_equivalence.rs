//! Differential test for the word-parallel committee tally.
//!
//! `CommitteeDownload` counts votes in bit-sliced counter planes, 64 input
//! bits per word operation. The per-bit tally it replaced — one map entry
//! and two voter lists per input bit, one `in_committee` test per index
//! per batch — lives on here as the reference: after every message, on
//! every input (honest or not), both must have accepted the same bits
//! with the same values and agree on whether the peer has terminated.

use dr_core::{BitArray, Context, PartialArray, PeerId, Protocol};
use dr_protocols::byz::{in_committee, VoteBatch};
use dr_protocols::CommitteeDownload;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;

/// The pre-rewrite `CommitteeDownload`, bit by bit.
struct Reference {
    n: usize,
    k: usize,
    t: usize,
    acc: PartialArray,
    done: bool,
    tally: BTreeMap<usize, [Vec<PeerId>; 2]>,
}

impl Reference {
    fn new(n: usize, k: usize, t: usize) -> Self {
        Reference {
            n,
            k,
            t,
            acc: PartialArray::new(n),
            done: false,
            tally: BTreeMap::new(),
        }
    }

    fn seats(&self, peer: PeerId) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&j| in_committee(j, self.k, 2 * self.t + 1, peer))
    }

    fn check_done(&mut self) {
        self.done |= self.acc.is_complete();
    }

    /// `on_start`: query every seat, return the votes to broadcast.
    fn start(&mut self, me: PeerId, input: &BitArray) -> Vec<bool> {
        let seats: Vec<usize> = self.seats(me).collect();
        for &j in &seats {
            self.acc.learn(j, input.get(j));
        }
        self.check_done();
        seats.iter().map(|&j| input.get(j)).collect()
    }

    fn record_vote(&mut self, from: PeerId, j: usize, value: bool) {
        let bucket = &mut self.tally.entry(j).or_default()[usize::from(value)];
        if !bucket.contains(&from) {
            bucket.push(from);
        }
        if bucket.len() > self.t {
            self.acc.learn(j, value);
        }
    }

    /// `on_message`: a short batch returns from inside the loop, past the
    /// completion check.
    fn message(&mut self, from: PeerId, values: &BitArray) {
        if self.done {
            return;
        }
        let seats: Vec<usize> = self.seats(from).collect();
        for (r, j) in seats.into_iter().enumerate() {
            if r >= values.len() {
                return;
            }
            self.record_vote(from, j, values.get(r));
        }
        self.check_done();
    }
}

/// Answers queries from a fixed input through the per-bit `query` only
/// (so `query_masked` runs its provided default), logging what was asked
/// and what was sent.
struct RecordingCtx {
    me: PeerId,
    k: usize,
    input: BitArray,
    queried: Vec<usize>,
    sent: Vec<(PeerId, BitArray)>,
    rng: StdRng,
}

impl Context<VoteBatch> for RecordingCtx {
    fn me(&self) -> PeerId {
        self.me
    }
    fn num_peers(&self) -> usize {
        self.k
    }
    fn input_len(&self) -> usize {
        self.input.len()
    }
    fn send(&mut self, to: PeerId, msg: VoteBatch) {
        self.sent.push((to, msg.values));
    }
    fn query(&mut self, index: usize) -> bool {
        self.queried.push(index);
        self.input.get(index)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// One adversarial batch from `from`: truthful, complemented, random,
/// short, long, or a repeat of its previous batch with some bits flipped.
fn next_batch(rng: &mut StdRng, truthful: &[bool], previous: Option<&BitArray>) -> BitArray {
    let seats = truthful.len();
    let mut votes: Vec<bool> = match rng.gen_range(0..6) {
        0 => truthful.to_vec(),
        1 => truthful.iter().map(|v| !v).collect(),
        2 => (0..seats).map(|_| rng.gen()).collect(),
        3 => truthful[..rng.gen_range(0..=seats)].to_vec(),
        4 => {
            let surplus = rng.gen_range(1..130);
            let mut v = truthful.to_vec();
            v.extend((0..surplus).map(|_| rng.gen::<bool>()));
            v
        }
        _ => previous.map_or_else(|| truthful.to_vec(), |p| p.iter().collect()),
    };
    // Sometimes lie on a few positions on top of the shape chosen above.
    if rng.gen_bool(0.5) && !votes.is_empty() {
        for _ in 0..rng.gen_range(1..4) {
            let r = rng.gen_range(0..votes.len());
            votes[r] = !votes[r];
        }
    }
    BitArray::from_bools(&votes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn word_parallel_tally_matches_the_per_bit_reference(
        // Word-straddling, sub-word, empty and exact-multiple lengths;
        // peer counts on both sides of 64 and mostly not powers of two.
        n in (0usize..3, 0usize..140).prop_map(|(band, off)| match band {
            0 => off % 70,
            1 => 120 + off % 16,
            _ => 190 + off,
        }),
        k in (0usize..4, 0usize..23).prop_map(|(band, off)| match band {
            0 => 60 + off % 10,
            _ => 1 + off,
        }),
        budget in 0usize..5,
        started in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // budget = 4 gives the largest legal t, where for odd k the
        // committee is everyone (c = k).
        let t = (k - 1) / 2 * budget / 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let input = BitArray::random(n, &mut rng);
        let me = PeerId(rng.gen_range(0..k));

        let mut fast = CommitteeDownload::new(n, k, t);
        let mut slow = Reference::new(n, k, t);
        let mut ctx = RecordingCtx {
            me,
            k,
            input: input.clone(),
            queried: Vec::new(),
            sent: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        };

        if started {
            fast.on_start(&mut ctx);
            let votes = BitArray::from_bools(&slow.start(me, &input));
            prop_assert_eq!(&ctx.queried, &slow.seats(me).collect::<Vec<_>>());
            prop_assert_eq!(ctx.sent.len(), k - 1);
            for (to, values) in &ctx.sent {
                prop_assert!(*to != me);
                prop_assert_eq!(values, &votes);
            }
            prop_assert_eq!(fast.learned(), &slow.acc);
            prop_assert_eq!(fast.output().is_some(), slow.done);
        }

        let truthful: Vec<Vec<bool>> = (0..k)
            .map(|p| slow.seats(PeerId(p)).map(|j| input.get(j)).collect())
            .collect();
        let mut previous: Vec<Option<BitArray>> = vec![None; k];
        // Enough batches that more than t senders repeat themselves.
        for step in 0..4 * k + 8 {
            let from = rng.gen_range(0..k);
            let batch = next_batch(&mut rng, &truthful[from], previous[from].as_ref());
            previous[from] = Some(batch.clone());
            fast.on_message(PeerId(from), VoteBatch { values: batch.clone() }, &mut ctx);
            slow.message(PeerId(from), &batch);
            prop_assert_eq!(
                fast.learned(), &slow.acc,
                "step {} from {} batch {:?}", step, from, batch
            );
            prop_assert_eq!(fast.output().is_some(), slow.done, "step {}", step);
            if let Some(out) = fast.output() {
                prop_assert_eq!(Some(out), slow.acc.as_complete());
            }
        }
        // on_message never queries.
        prop_assert_eq!(ctx.queried.len(), if started { truthful[me.index()].len() } else { 0 });
    }
}
