//! Iteration-order property tests: protocol state built from the same
//! facts in *any* insertion order must behave identically, and full runs
//! must fingerprint identically on re-execution. The bitset-backed
//! τ-frequent table is also held to the B-tree one it replaced, the
//! cycle protocols to the exact delivery on which their wait ends, and
//! their cycle-end tally to the table they used to build delivery by
//! delivery.
//!
//! These are the regression guards behind the ordered-collection sweep
//! (clippy's `disallowed_types` on `HashMap`/`HashSet`, set in the root
//! `clippy.toml`): before it, `HashMap` state
//! in the committee tally and the τ-frequent table meant a per-instance
//! random hash seed sat one iteration away from replay divergence.

use dr_core::collections::{DetMap, DetSet};
use dr_core::{BitArray, Context, PeerId, Protocol, SegmentId, Segmentation};
use dr_protocols::byz::{in_committee, CycleClaims, FrequencyTable, SegmentMsg, VoteBatch};
use dr_protocols::{
    CommitteeDownload, MultiCycleDownload, MultiCyclePlan, TwoCycleDownload, TwoCyclePlan,
};
use dr_sim::SimBuilder;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

/// Deterministic Fisher–Yates permutation of `items` from a `u64` seed
/// (the vendored proptest has no `prop_shuffle`, so we roll our own).
fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<T> = items.to_vec();
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// Minimal honest context: answers queries from a fixed input, counts
/// them, counts and drops outgoing messages, seeds the RNG from the peer
/// ID.
struct FixedCtx {
    me: PeerId,
    k: usize,
    input: BitArray,
    rng: StdRng,
    sent: usize,
    queries: usize,
}

impl FixedCtx {
    /// The context of peer `k − 1` over `input`.
    fn last_peer(k: usize, input: &BitArray) -> Self {
        FixedCtx {
            me: PeerId(k - 1),
            k,
            input: input.clone(),
            rng: StdRng::seed_from_u64(1),
            sent: 0,
            queries: 0,
        }
    }
}

impl<M: dr_core::ProtocolMessage> Context<M> for FixedCtx {
    fn me(&self) -> PeerId {
        self.me
    }
    fn num_peers(&self) -> usize {
        self.k
    }
    fn input_len(&self) -> usize {
        self.input.len()
    }
    fn send(&mut self, _to: PeerId, _msg: M) {
        self.sent += 1;
    }
    fn query(&mut self, index: usize) -> bool {
        self.queries += 1;
        self.input.get(index)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// A truthful vote batch for `sender`: its committee bits in ascending
/// index order, read straight from the input.
fn truthful_batch(sender: PeerId, input: &BitArray, k: usize, c: usize) -> VoteBatch {
    let values: Vec<bool> = (0..input.len())
        .filter(|&j| in_committee(j, k, c, sender))
        .map(|j| input.get(j))
        .collect();
    VoteBatch {
        values: BitArray::from_bools(&values),
    }
}

/// The τ-frequent table as it stood before the sender bitsets, kept
/// verbatim as the reference: one B-tree of `(sender, segment)` pairs
/// and one of senders.
#[derive(Default)]
struct BTreeFrequencyTable {
    counts: DetMap<SegmentId, DetMap<BitArray, usize>>,
    seen: DetSet<(PeerId, SegmentId)>,
    senders: DetMap<PeerId, usize>,
}

impl BTreeFrequencyTable {
    fn record(&mut self, sender: PeerId, segment: SegmentId, string: BitArray) -> bool {
        if !self.seen.insert((sender, segment)) {
            return false;
        }
        *self
            .counts
            .entry(segment)
            .or_default()
            .entry(string)
            .or_insert(0) += 1;
        *self.senders.entry(sender).or_insert(0) += 1;
        true
    }

    fn frequent(&self, segment: SegmentId, threshold: usize) -> Vec<BitArray> {
        self.counts
            .get(&segment)
            .map(|m| {
                m.iter()
                    .filter(|(_, &c)| c >= threshold)
                    .map(|(s, _)| s.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn distinct(&self, segment: SegmentId) -> usize {
        self.counts.get(&segment).map_or(0, |m| m.len())
    }

    fn received(&self, segment: SegmentId) -> usize {
        self.counts.get(&segment).map_or(0, |m| m.values().sum())
    }

    fn distinct_senders(&self) -> usize {
        self.senders.len()
    }
}

/// One cycle as the cycle protocols kept it before the cycle-end tally,
/// kept as the reference: every delivery goes straight into the
/// frequency table, and into the B-tree table beside it, which shares no
/// counting code with the tally. As in `CycleDownload`, the caller routes
/// each message to its own cycle's reference.
struct PerDeliveryCycle {
    heard: DetSet<PeerId>,
    table: FrequencyTable,
    btree: BTreeFrequencyTable,
}

impl PerDeliveryCycle {
    fn new() -> Self {
        PerDeliveryCycle {
            heard: DetSet::new(),
            table: FrequencyTable::new(),
            btree: BTreeFrequencyTable::default(),
        }
    }

    fn on_message(&mut self, from: PeerId, msg: &SegmentMsg, seg: &Segmentation) {
        if self.heard.insert(from)
            && msg.segment.index() < seg.count()
            && msg.bits.len() == seg.len_of(msg.segment)
        {
            self.table.record(from, msg.segment, msg.bits.clone());
            self.btree.record(from, msg.segment, msg.bits.clone());
        }
    }
}

/// `tallied` answers every query about `segments` as both tables of
/// `reference` do.
fn assert_tables_agree(
    tallied: &FrequencyTable,
    reference: &PerDeliveryCycle,
    segments: std::ops::Range<usize>,
) {
    let (table, btree) = (&reference.table, &reference.btree);
    for segment in segments.map(SegmentId) {
        for threshold in 0..6 {
            let frequent = tallied.frequent(segment, threshold);
            assert_eq!(frequent, table.frequent(segment, threshold));
            assert_eq!(frequent, btree.frequent(segment, threshold));
        }
        assert_eq!(tallied.distinct(segment), table.distinct(segment));
        assert_eq!(tallied.distinct(segment), btree.distinct(segment));
        assert_eq!(tallied.received(segment), table.received(segment));
        assert_eq!(tallied.received(segment), btree.received(segment));
    }
}

/// A delivery drawn for the tally tests: sender, cycle, segment and
/// string shape. Few senders and segments, so duplicates per sender are
/// the rule; cycles and segments run past both ends of what a protocol
/// accepts, and one shape in nine has the wrong length.
type Delivery = (usize, u32, usize, u8);

fn delivery() -> impl Strategy<Value = Delivery> {
    (0usize..10, 0u32..5, 0usize..10, 0u8..18)
}

/// The message of a delivery, sized against the segmentation `seg` of
/// its cycle.
fn delivered(d: Delivery, seg: &Segmentation) -> (PeerId, SegmentMsg) {
    let (from, cycle, segment, shape) = d;
    let (ones, fill, right_length) = (shape % 4, (shape / 4) % 2 == 1, shape < 16);
    let want = seg.len_of(SegmentId(segment % seg.count()));
    let msg = SegmentMsg {
        cycle,
        segment: SegmentId(segment),
        bits: BitArray::from_fn(if right_length { want } else { want + 1 }, |i| {
            (i as u8) < ones || fill
        }),
    };
    (PeerId(from), msg)
}

/// Sender ids on both sides of every word boundary a `k ≤ 4097` run has.
const SENDERS: [usize; 14] = [
    0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 1023, 1024, 4095, 4096,
];

/// Segment ids far enough apart that nothing dense could index them.
const SEGMENTS: [usize; 6] = [0, 1, 7, 1000, 1 << 20, usize::MAX / 2];

/// A claim drawn for the multi-word tests: sender, segment, string shape
/// (see [`long_string`]) and a bit position.
type LongClaim = (usize, usize, u8, usize);

fn long_claim(senders: usize, segments: usize) -> impl Strategy<Value = LongClaim> {
    (0..senders, 0..segments, 0u8..7, any::<usize>())
}

/// The string of a multi-word claim against its segment's `truth`, by
/// shape. Strings are several words long, so comparisons run past the
/// first word, and shapes mix equal strings that share a buffer, equal
/// strings that do not, and strings one bit away from the truth.
/// `earlier` holds the strings claimed before, for the shape that clones
/// one of them.
fn long_string(truth: &BitArray, earlier: &[BitArray], shape: u8, pos: usize) -> BitArray {
    let len = truth.len();
    let flipped = |i: usize| {
        let mut s = truth.clone();
        s.flip(i);
        s
    };
    match shape {
        // Honest: the truth, sharing one buffer with the other honest claims.
        0 | 1 => truth.clone(),
        // The truth in a buffer of its own: equal, word by word.
        2 => truth.deep_clone(),
        // An equivocator's: the truth with bit `p` flipped.
        3 => flipped(pos % len),
        // Equal to the truth up to its last word.
        4 => flipped(len - 1 - pos % (len - (len - 1) / 64 * 64)),
        // A string claimed before, sharing its buffer.
        5 if !earlier.is_empty() => earlier[pos % earlier.len()].clone(),
        // One bit too long.
        _ => BitArray::zeros(len + 1),
    }
}

/// The input `FixedCtx` answers from in the wait-condition tests.
fn wait_input(n: usize) -> BitArray {
    BitArray::from_fn(n, |i| i % 3 == 0)
}

/// A truthful cycle-`cycle` claim for `segment` of `seg`.
fn claim(input: &BitArray, seg: Segmentation, cycle: u32, segment: usize) -> SegmentMsg {
    let range = seg.range(SegmentId(segment));
    SegmentMsg {
        cycle,
        segment: SegmentId(segment),
        bits: input.slice(range),
    }
}

#[test]
fn two_cycle_advances_on_exactly_the_k_minus_b_th_distinct_sender() {
    let (n, k, b) = (32usize, 9usize, 2usize);
    let plan = TwoCyclePlan::Sampled {
        segments: 2,
        threshold: 2,
    };
    let seg = Segmentation::new(n, 2);
    let input = wait_input(n);
    let mut proto = TwoCycleDownload::with_plan(n, k, b, plan);
    let mut ctx = FixedCtx::last_peer(k, &input);
    proto.on_start(&mut ctx);

    let good = |s| claim(&input, seg, 1, s);
    let wrong_cycle = SegmentMsg {
        cycle: 2,
        ..good(0)
    };
    let wrong_length = SegmentMsg {
        bits: BitArray::zeros(3),
        ..good(1)
    };
    let wrong_segment = SegmentMsg {
        segment: SegmentId(2),
        ..good(0)
    };
    // The peer itself is the first of the k − b = 7 it waits for. A
    // sender's first message counts whatever it carries; later ones do
    // not.
    let before: Vec<(usize, SegmentMsg)> = vec![
        (0, good(0)),
        (0, good(1)),
        (1, wrong_cycle),
        (1, good(0)),
        (2, wrong_length),
        (3, wrong_segment),
        (4, good(1)),
        (4, good(1)),
        (0, good(0)),
    ];
    for (from, msg) in before {
        proto.on_message(PeerId(from), msg, &mut ctx);
        assert!(proto.output().is_none(), "advanced early, after p{from}");
    }
    proto.on_message(PeerId(5), good(0), &mut ctx);
    assert_eq!(proto.output(), Some(&input));
}

#[test]
fn multi_cycle_advances_on_exactly_the_k_minus_b_th_distinct_sender() {
    let (n, k, b) = (32usize, 9usize, 2usize);
    let plan = MultiCyclePlan::Sampled {
        initial_segments: 4,
        threshold: 2,
        cycles: 3,
    };
    let input = wait_input(n);
    let mut proto = MultiCycleDownload::with_plan(n, k, b, plan);
    let mut ctx = FixedCtx::last_peer(k, &input);
    proto.on_start(&mut ctx);
    assert_eq!(ctx.sent, k - 1);

    // Each waiting cycle ends on its own count of k − b = 7, the peer
    // included; the broadcast of the next cycle's claim marks the step.
    for (cycle, segments) in [(1u32, 4usize), (2, 2)] {
        let seg = Segmentation::new(n, segments);
        let good = |s| claim(&input, seg, cycle, s);
        let wrong_length = SegmentMsg {
            bits: BitArray::zeros(1),
            ..good(0)
        };
        let wrong_segment = SegmentMsg {
            segment: SegmentId(segments),
            ..good(0)
        };
        // A claim for a cycle nobody waits on is dropped unseen: p5 is
        // still unheard when its real claim arrives last.
        let no_such_cycle = SegmentMsg {
            cycle: 0,
            ..good(0)
        };
        let final_cycle = SegmentMsg {
            cycle: 3,
            ..good(0)
        };
        let before: Vec<(usize, SegmentMsg)> = vec![
            (0, good(0)),
            (0, good(1)),
            (1, wrong_length),
            (1, good(0)),
            (5, no_such_cycle),
            (2, wrong_segment),
            (3, good(1)),
            (5, final_cycle),
            (4, good(segments - 1)),
            (4, good(0)),
        ];
        let sent = ctx.sent;
        for (from, msg) in before {
            proto.on_message(PeerId(from), msg, &mut ctx);
            assert_eq!(ctx.sent, sent, "cycle {cycle} ended early, after p{from}");
            assert!(proto.output().is_none());
        }
        proto.on_message(PeerId(5), good(0), &mut ctx);
        if cycle == 1 {
            assert_eq!(
                ctx.sent,
                sent + k - 1,
                "cycle 1 did not end on the 7th sender"
            );
            assert!(proto.output().is_none());
        }
    }
    assert_eq!(proto.output(), Some(&input));
}

#[test]
fn two_cycle_advances_on_exactly_the_k_minus_b_th_sender_of_cycle_1() {
    let (n, k, b) = (32usize, 9usize, 2usize);
    let plan = TwoCyclePlan::Sampled {
        segments: 2,
        threshold: 2,
    };
    let seg = Segmentation::new(n, 2);
    let input = wait_input(n);
    let mut proto = TwoCycleDownload::with_plan(n, k, b, plan);
    let mut ctx = FixedCtx::last_peer(k, &input);
    proto.on_start(&mut ctx);

    let good = |s| claim(&input, seg, 1, s);
    // Nobody waits on cycle 0 or on the last cycle, 2: a sender whose
    // only message names one of them is not heard.
    let unheard = [
        (
            5,
            SegmentMsg {
                cycle: 2,
                ..good(0)
            },
        ),
        (
            6,
            SegmentMsg {
                cycle: 0,
                ..good(1)
            },
        ),
    ];
    // The peer itself and p0..p4 are six of the k − b = 7 it waits for.
    let before = (0..5).map(|p| (p, good(p % 2))).chain(unheard);
    for (from, msg) in before {
        proto.on_message(PeerId(from), msg, &mut ctx);
        assert!(proto.output().is_none(), "advanced early, after p{from}");
    }
    proto.on_message(PeerId(7), good(1), &mut ctx);
    assert_eq!(proto.output(), Some(&input));
}

/// Ends the wait of `cycle` with one heard claim of the wrong length from
/// each of the `k − b − 1` senders it still needs, so that no string of
/// that cycle is τ-frequent.
fn end_wait_malformed<P: Protocol<Msg = SegmentMsg>>(
    proto: &mut P,
    ctx: &mut FixedCtx,
    cycle: u32,
    waited: usize,
) {
    for from in 0..waited - 1 {
        let msg = SegmentMsg {
            cycle,
            segment: SegmentId(0),
            bits: BitArray::zeros(1),
        };
        proto.on_message(PeerId(from), msg, ctx);
    }
}

#[test]
fn two_cycle_falls_back_to_direct_queries_for_every_other_segment() {
    let (n, k, b) = (32usize, 9usize, 2usize);
    let plan = TwoCyclePlan::Sampled {
        segments: 4,
        threshold: 2,
    };
    let input = wait_input(n);
    let mut proto = TwoCycleDownload::with_plan(n, k, b, plan);
    let mut ctx = FixedCtx::last_peer(k, &input);
    proto.on_start(&mut ctx);
    assert!(proto.output().is_none());
    end_wait_malformed(&mut proto, &mut ctx, 1, k - b);
    assert_eq!(proto.output(), Some(&input));
    assert_eq!(proto.fallback_segments(), 3);
    // Its own segment once, then the three others bit by bit: n in all.
    assert_eq!(ctx.queries, n);
}

#[test]
fn multi_cycle_falls_back_to_direct_queries_for_every_other_half() {
    let (n, k, b) = (32usize, 9usize, 2usize);
    let plan = MultiCyclePlan::Sampled {
        initial_segments: 4,
        threshold: 2,
        cycles: 3,
    };
    let input = wait_input(n);
    let mut proto = MultiCycleDownload::with_plan(n, k, b, plan);
    let mut ctx = FixedCtx::last_peer(k, &input);
    // The peer's picks, drawn from the rng `FixedCtx` gives it: one of
    // four quarters, then one of two halves.
    let mut draws = StdRng::seed_from_u64(1);
    let (quarter, half) = (draws.gen_range(0..4usize), draws.gen_range(0..2usize));
    proto.on_start(&mut ctx);
    end_wait_malformed(&mut proto, &mut ctx, 1, k - b);
    assert!(proto.output().is_none());
    end_wait_malformed(&mut proto, &mut ctx, 2, k - b);
    assert_eq!(proto.output(), Some(&input));
    // Cycle 2 resolves both quarters of its half but its own quarter;
    // cycle 3 the half it did not pick.
    let own_quarter_in_half = usize::from(quarter / 2 == half);
    assert_eq!(proto.fallback_segments(), 2 - own_quarter_in_half + 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frequency_table_matches_its_btree_reference(
        claims in prop::collection::vec(
            (0usize..SENDERS.len(), 0usize..SEGMENTS.len(), 0u8..5, any::<bool>()),
            1..200,
        ),
    ) {
        let mut table = FrequencyTable::new();
        let mut reference = BTreeFrequencyTable::default();
        for (sender, segment, shape, bit) in claims {
            let sender = PeerId(SENDERS[sender]);
            let segment = SegmentId(SEGMENTS[segment]);
            let string = BitArray::from_fn(4, |i| (i as u8) < shape || bit);
            prop_assert_eq!(
                table.record(sender, segment, string.clone()),
                reference.record(sender, segment, string)
            );
            prop_assert_eq!(table.distinct_senders(), reference.distinct_senders());
        }
        // SegmentId(2) is never claimed.
        for segment in SEGMENTS.into_iter().chain([2]).map(SegmentId) {
            for threshold in 0..6 {
                prop_assert_eq!(
                    table.frequent(segment, threshold),
                    reference.frequent(segment, threshold)
                );
            }
            prop_assert_eq!(table.distinct(segment), reference.distinct(segment));
            prop_assert_eq!(table.received(segment), reference.received(segment));
        }
    }

    #[test]
    fn frequency_table_matches_its_btree_reference_on_long_strings(
        claims in prop::collection::vec(long_claim(SENDERS.len(), SEGMENTS.len()), 1..200),
        len in 65usize..400,
    ) {
        let truth = |segment: usize| BitArray::from_fn(len, |i| (i * 7 + segment) % 5 < 2);
        let truths: Vec<BitArray> = (0..SEGMENTS.len()).map(truth).collect();
        let mut earlier: Vec<Vec<BitArray>> = vec![Vec::new(); SEGMENTS.len()];
        let mut table = FrequencyTable::new();
        let mut reference = BTreeFrequencyTable::default();
        for (sender, segment, shape, pos) in claims {
            let string = long_string(&truths[segment], &earlier[segment], shape, pos);
            earlier[segment].push(string.clone());
            let (sender, segment) = (PeerId(SENDERS[sender]), SegmentId(SEGMENTS[segment]));
            prop_assert_eq!(
                table.record(sender, segment, string.clone()),
                reference.record(sender, segment, string)
            );
            prop_assert_eq!(table.distinct_senders(), reference.distinct_senders());
        }
        for segment in SEGMENTS.into_iter().map(SegmentId) {
            for threshold in 0..6 {
                prop_assert_eq!(
                    table.frequent(segment, threshold),
                    reference.frequent(segment, threshold)
                );
            }
            prop_assert_eq!(table.distinct(segment), reference.distinct(segment));
            prop_assert_eq!(table.received(segment), reference.received(segment));
        }
    }

    #[test]
    fn frequency_table_is_insertion_order_invariant(
        claims in prop::collection::vec(
            (0usize..12, 0usize..6, 0u8..5, any::<bool>()),
            1..60,
        ),
        perm_seed in any::<u64>(),
        threshold in 1usize..5,
    ) {
        // Dedupe on (sender, segment): the table's first-claim-wins rule
        // means duplicate pairs are genuinely order-dependent — the
        // *protocol* only ever feeds one claim per (sender, segment).
        let mut unique: Vec<(PeerId, SegmentId, BitArray)> = Vec::new();
        for (sender, segment, shape, bit) in claims {
            let sender = PeerId(sender);
            let segment = SegmentId(segment);
            if unique.iter().any(|(p, s, _)| *p == sender && *s == segment) {
                continue;
            }
            let string = BitArray::from_fn(4, |i| (i as u8) < shape || bit);
            unique.push((sender, segment, string));
        }

        let mut forward = FrequencyTable::new();
        for (p, s, b) in &unique {
            forward.record(*p, *s, b.clone());
        }
        let mut permuted = FrequencyTable::new();
        for (p, s, b) in shuffled(&unique, perm_seed) {
            permuted.record(p, s, b);
        }

        for seg in 0..6 {
            let seg = SegmentId(seg);
            prop_assert_eq!(forward.frequent(seg, threshold), permuted.frequent(seg, threshold));
            prop_assert_eq!(forward.distinct(seg), permuted.distinct(seg));
            prop_assert_eq!(forward.received(seg), permuted.received(seg));
        }
        prop_assert_eq!(forward.distinct_senders(), permuted.distinct_senders());
    }

    #[test]
    fn two_cycle_tally_matches_per_delivery_recording(
        deliveries in prop::collection::vec(delivery(), 0..120),
    ) {
        // The 2-cycle protocol has one waiting cycle, and a message that
        // names another cycle is not heard at all. A first message that
        // names a segment that does not exist or a string of the wrong
        // length counts as heard and is not tallied.
        let seg = Segmentation::new(32, 8);
        let mut inbox = CycleClaims::new(10);
        let mut reference = PerDeliveryCycle::new();
        for d in deliveries.into_iter().filter(|d| d.1 == 1) {
            let (from, msg) = delivered(d, &seg);
            reference.on_message(from, &msg, &seg);
            inbox.hear(from, msg, &seg);
            prop_assert_eq!(inbox.heard(), reference.heard.len());
        }
        let tallied = inbox.tally(0..seg.count());
        assert_tables_agree(&tallied, &reference, 0..seg.count() + 2);
        prop_assert_eq!(tallied.distinct_senders(), reference.table.distinct_senders());
    }

    #[test]
    fn multi_cycle_tally_matches_per_delivery_recording(
        deliveries in prop::collection::vec(delivery(), 0..160),
        waits in prop::collection::vec(0usize..160, 3),
        picks in prop::collection::vec(0usize..4, 3),
    ) {
        // Three waiting cycles of 8, 4 and 2 segments; claims are filed
        // under their own cycle whenever they arrive, and a claim for
        // cycle 0 or 4 is dropped unseen. Cycle `c` is tallied once — for
        // the two halves of one pick — when its wait ends, here after an
        // arbitrary number of deliveries: claims of later cycles are
        // already waiting by then, and its own stragglers no longer count.
        let cycles = 3usize;
        let seg_of = |cycle: u32| Segmentation::new(32, 8 >> (cycle - 1));
        let mut inboxes: Vec<CycleClaims> = (0..cycles).map(|_| CycleClaims::new(10)).collect();
        let mut reference: Vec<PerDeliveryCycle> =
            (0..cycles).map(|_| PerDeliveryCycle::new()).collect();
        let mut ends: Vec<usize> = waits.iter().map(|w| w % (deliveries.len() + 1)).collect();
        ends.sort_unstable();
        let mut current = 0;
        for i in 0..=deliveries.len() {
            while current < cycles && ends[current] == i {
                let children = 2 * (picks[current] % (4 >> current));
                let tallied = inboxes[current].tally(children..children + 2);
                assert_tables_agree(&tallied, &reference[current], children..children + 2);
                current += 1;
            }
            let Some(&d) = deliveries.get(i) else { break };
            let c = d.1 as usize;
            if (1..=cycles).contains(&c) {
                let seg = seg_of(d.1);
                let (from, msg) = delivered(d, &seg);
                reference[c - 1].on_message(from, &msg, &seg);
                inboxes[c - 1].hear(from, msg, &seg);
                prop_assert_eq!(inboxes[c - 1].heard(), reference[c - 1].heard.len());
            }
        }
    }

    #[test]
    fn long_string_tally_matches_per_delivery_recording(
        deliveries in prop::collection::vec(long_claim(130, 5), 0..400),
        extra in 0usize..64,
        first in 0usize..5,
        width in 1usize..4,
    ) {
        // Four multi-word segments of unequal length and one cycle. Each
        // inbox is tallied over a subrange, as a multi-cycle peer tallies
        // the two children it resolves; claims outside it, for segment 4
        // (which does not exist) or of the wrong length are heard and not
        // counted.
        let seg = Segmentation::new(4 * 150 + extra, 4);
        let input = BitArray::from_fn(seg.input_len(), |i| (i * 13) % 7 < 3);
        let mut earlier: Vec<Vec<BitArray>> = vec![Vec::new(); 5];
        let mut inbox = CycleClaims::new(130);
        let mut reference = PerDeliveryCycle::new();
        for (from, segment, shape, pos) in deliveries {
            let truth = input.slice(seg.range(SegmentId(segment % 4)));
            let bits = long_string(&truth, &earlier[segment], shape, pos);
            earlier[segment].push(bits.clone());
            let msg = SegmentMsg { cycle: 1, segment: SegmentId(segment), bits };
            reference.on_message(PeerId(from), &msg, &seg);
            inbox.hear(PeerId(from), msg, &seg);
            prop_assert_eq!(inbox.heard(), reference.heard.len());
        }
        let range = first..first + width;
        let tallied = inbox.tally(range.clone());
        assert_tables_agree(&tallied, &reference, range.clone());
        for outside in (0..8).filter(|s| !range.contains(s)).map(SegmentId) {
            prop_assert_eq!(tallied.received(outside), 0);
        }
    }

    #[test]
    fn committee_tally_is_delivery_order_invariant(
        input_seed in any::<u64>(),
        perm_seed in any::<u64>(),
        t in 0usize..3,
    ) {
        let (n, k) = (40usize, 7usize);
        let c = 2 * t + 1;
        let input = BitArray::from_fn(n, |i| (input_seed >> (i % 64)) & 1 == 1);
        let batches: Vec<(PeerId, VoteBatch)> = (0..k)
            .map(PeerId)
            .map(|p| (p, truthful_batch(p, &input, k, c)))
            .collect();

        let run = |order: &[(PeerId, VoteBatch)]| {
            let mut proto = CommitteeDownload::new(n, k, t);
            let mut ctx = FixedCtx::last_peer(k, &input);
            proto.on_start(&mut ctx);
            for (from, batch) in order {
                proto.on_message(*from, batch.clone(), &mut ctx);
            }
            proto.output().cloned()
        };

        let forward = run(&batches);
        let permuted = run(&shuffled(&batches, perm_seed));
        prop_assert_eq!(forward.clone(), permuted);
        prop_assert_eq!(forward, Some(input));
    }

    #[test]
    fn committee_run_fingerprint_is_reproducible(seed in any::<u64>(), t in 0usize..3) {
        // Two fresh executions of the same seeded simulation must agree
        // bit-for-bit. Before the ordered-collection sweep, every map in
        // protocol state carried a fresh random hash seed per run — any
        // iteration-order leak shows up here as a fingerprint mismatch.
        let (n, k) = (48usize, 5usize);
        let fp = |seed| {
            let sim = SimBuilder::new(dr_core::ModelParams::builder(n, k)
                    .faults(dr_core::FaultModel::Byzantine, t)
                    .build()
                    .unwrap())
                .seed(seed)
                .protocol(move |_| CommitteeDownload::new(n, k, t))
                .build();
            let input = sim.input().clone();
            let report = sim.run().unwrap();
            report.verify_downloads(&input).unwrap();
            report.fingerprint()
        };
        prop_assert_eq!(fp(seed), fp(seed));
    }

    #[test]
    fn two_cycle_run_fingerprint_is_reproducible(seed in any::<u64>(), b in 0usize..3) {
        // The 2-cycle protocol exercises the τ-frequent table (the
        // "frequent-element" state) on every honest peer.
        let (n, k) = (192usize, 7usize);
        let fp = |seed| {
            let sim = SimBuilder::new(dr_core::ModelParams::builder(n, k)
                    .faults(dr_core::FaultModel::Byzantine, b)
                    .build()
                    .unwrap())
                .seed(seed)
                .protocol(move |_| TwoCycleDownload::new(n, k, b))
                .build();
            let input = sim.input().clone();
            let report = sim.run().unwrap();
            report.verify_downloads(&input).unwrap();
            report.fingerprint()
        };
        prop_assert_eq!(fp(seed), fp(seed));
    }
}
