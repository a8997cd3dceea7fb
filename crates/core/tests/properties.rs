//! Crate-local property tests for `dr-core` invariants.

use dr_core::{
    ArraySource, Assignment, BitArray, BitIndices, CacheStats, CachedSource, PartialArray, PeerId,
    PeerSet, QueryMeter, ReadReceipt, Source,
};
use proptest::prelude::*;
use std::ops::Range;

/// What a single-threaded [`CachedSource`] must do, word by word: `None`
/// is an absent word. The stripe rule is restated here on purpose (whole
/// pages per shard), so a change to it has to be made twice.
struct CacheModel {
    len: usize,
    stripe: usize,
    words: Vec<Option<u64>>,
    stats: CacheStats,
}

impl CacheModel {
    fn new(len: usize, shards: usize) -> Self {
        let words = len.div_ceil(64);
        CacheModel {
            len,
            stripe: words.div_ceil(64).div_ceil(shards).max(1) * 64,
            words: vec![None; words],
            stats: CacheStats::default(),
        }
    }

    fn invalidate_all(&mut self) {
        self.words.fill(None);
        self.stats.resident_words = 0;
    }

    /// Reads `range` of `input`: the bits, the receipt and the upstream
    /// bit ranges, one per maximal run of absent words inside one shard's
    /// stripe.
    fn read(
        &mut self,
        input: &BitArray,
        range: Range<usize>,
    ) -> (BitArray, ReadReceipt, Vec<Range<usize>>) {
        let mut receipt = ReadReceipt::default();
        let mut fetched: Vec<Range<usize>> = Vec::new();
        if range.is_empty() {
            return (BitArray::zeros(0), receipt, fetched);
        }
        let mut run_end = None;
        for w in range.start / 64..range.end.div_ceil(64) {
            if self.words[w].is_some() {
                receipt.hit_words += 1;
                continue;
            }
            receipt.fetched_words += 1;
            let bits = w * 64..(w * 64 + 64).min(self.len);
            self.words[w] = Some(input.word(w));
            if run_end == Some(w) && w % self.stripe != 0 {
                fetched.last_mut().expect("a run is open").end = bits.end;
            } else {
                fetched.push(bits);
            }
            run_end = Some(w + 1);
        }
        receipt.upstream_calls = fetched.len() as u64;
        receipt.fetched_bits = fetched.iter().map(|r| r.len() as u64).sum();
        self.stats.hits += receipt.hit_words;
        self.stats.misses += receipt.fetched_words;
        self.stats.upstream_calls += receipt.upstream_calls;
        self.stats.upstream_bits += receipt.fetched_bits;
        self.stats.resident_words += receipt.fetched_words;
        let bits = BitArray::from_fn(range.len(), |i| {
            let bit = range.start + i;
            self.words[bit / 64].expect("read words are present") >> (bit % 64) & 1 == 1
        });
        (bits, receipt, fetched)
    }
}

proptest! {
    /// The paged store against the per-word model: interleaved reads and
    /// invalidations on lengths whose tail page is partly past `len`, odd
    /// shard counts, and ranges placed on page and stripe boundaries.
    #[test]
    fn cached_source_matches_the_per_word_model(
        len in 1usize..40_000,
        shards in 1usize..8,
        ops in prop::collection::vec((0usize..10, any::<u64>(), 0usize..9_000, -70isize..70), 1..24),
    ) {
        let input = BitArray::from_fn(len, |i| (i.wrapping_mul(2_654_435_761) >> 7) % 5 < 2);
        let cache = CachedSource::new(ArraySource::new(input.clone()), shards);
        let mut model = CacheModel::new(len, shards);
        for (kind, pick, span, nudge) in ops {
            if kind == 0 {
                cache.invalidate_all();
                model.invalidate_all();
            } else {
                // Start near a page boundary (odd kinds) or a stripe
                // boundary (even kinds), `nudge` bits to either side.
                let unit = if kind % 2 == 1 { 64 * 64 } else { model.stripe * 64 };
                let anchor = (pick as usize % (len / unit + 1)) * unit;
                let start = anchor.saturating_add_signed(nudge).min(len - 1);
                let range = start..(start + span).min(len);
                let mut fetched = Vec::new();
                let (bits, receipt) = cache.read_range_with(range.clone(), &mut |r| fetched.push(r));
                let (want_bits, want_receipt, want_fetched) = model.read(&input, range.clone());
                prop_assert_eq!(bits, want_bits, "range {:?}", range);
                prop_assert_eq!(receipt, want_receipt, "range {:?}", range);
                prop_assert_eq!(fetched, want_fetched, "range {:?}", range);
            }
            prop_assert_eq!(cache.stats(), model.stats);
        }
    }

    #[test]
    fn peerset_roundtrip(universe in 1usize..200, members in prop::collection::vec(0usize..200, 0..40)) {
        let mut s = PeerSet::new(universe);
        let mut expected = std::collections::BTreeSet::new();
        for m in members {
            let m = m % universe;
            s.insert(PeerId(m));
            expected.insert(m);
        }
        prop_assert_eq!(s.len(), expected.len());
        let got: Vec<usize> = s.iter().map(|p| p.index()).collect();
        let want: Vec<usize> = expected.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn peerset_complement_is_involutive(universe in 1usize..128, members in prop::collection::vec(0usize..128, 0..32)) {
        let mut s = PeerSet::new(universe);
        for m in members {
            s.insert(PeerId(m % universe));
        }
        prop_assert_eq!(s.complement().complement(), s);
    }

    #[test]
    fn overlap_lemma_for_any_two_large_sets(
        k in 3usize..40,
        b_frac in 0.0f64..0.49,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        // Any two sets of size k − b with b < k/2 must intersect
        // (Observation "Overlap Lemma").
        let b = (b_frac * k as f64) as usize;
        let size = k - b;
        let pick = |seed: u64| {
            let mut s = PeerSet::new(k);
            let mut x = seed;
            while s.len() < size {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s.insert(PeerId((x >> 33) as usize % k));
            }
            s
        };
        let a = pick(seed_a);
        let c = pick(seed_b);
        prop_assert!(a.intersection(&c).len() >= k - 2 * b);
        prop_assert!(!a.intersection(&c).is_empty());
    }

    #[test]
    fn assignment_reassignment_is_permutation_invariant(
        n in 1usize..300,
        k in 1usize..12,
        picks in prop::collection::vec(0usize..300, 0..30),
    ) {
        let mut a = Assignment::round_robin(n, k);
        let mut b = a.clone();
        let bits: Vec<usize> = picks.into_iter().map(|p| p % n).collect();
        let mut rev = bits.clone();
        rev.reverse();
        a.reassign_evenly(&bits);
        b.reassign_evenly(&rev);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn source_metering_counts_every_access(
        n in 1usize..500,
        accesses in prop::collection::vec((0usize..500, 0usize..4), 0..60),
    ) {
        let source = ArraySource::new(BitArray::zeros(n));
        let meter = QueryMeter::new(4);
        let mut expected = [0u64; 4];
        for (idx, peer) in accesses {
            prop_assert!(!source.bit(idx % n));
            meter.record(PeerId(peer));
            expected[peer] += 1;
        }
        prop_assert_eq!(meter.counts(), expected.to_vec());
        let max = expected.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(meter.max_over((0..4).map(PeerId)), max);
    }

    #[test]
    fn array_source_is_stable(bits in prop::collection::vec(any::<bool>(), 1..200), idx in 0usize..200) {
        let src = ArraySource::new(BitArray::from_bools(&bits));
        let i = idx % bits.len();
        prop_assert_eq!(src.bit(i), bits[i]);
        prop_assert_eq!(src.bit(i), src.bit(i));
        prop_assert_eq!(src.len(), bits.len());
    }

    #[test]
    fn bitarray_order_matches_bool_lexicographic(
        a in prop::collection::vec(any::<bool>(), 0..200),
        b in prop::collection::vec(any::<bool>(), 0..200),
        prefix in prop::collection::vec(any::<bool>(), 0..400),
        zeros in 1usize..130,
    ) {
        // `Ord` on the packed representation must agree with the
        // lexicographic order of the unpacked bit sequence — this is what
        // makes DetMap<BitArray, _> iteration deterministic *and*
        // human-predictable (the τ-frequent table relies on it).
        let agree = |a: &[bool], b: &[bool]| {
            let (pa, pb) = (BitArray::from_bools(a), BitArray::from_bools(b));
            pa.cmp(&pb) == a.cmp(b) && pb.cmp(&pa) == b.cmp(a)
        };
        prop_assert!(agree(&a, &b));
        prop_assert!(agree(&a, &a));
        // A long equal prefix: the first difference, if there is one, lies
        // words into both arrays.
        let long_a = [&prefix[..], &a[..]].concat();
        let long_b = [&prefix[..], &b[..]].concat();
        prop_assert!(agree(&long_a, &long_b));
        // An array against its extension: where the packed words differ at
        // all, they differ past the shorter array's end.
        prop_assert!(agree(&prefix, &long_a));
        prop_assert!(agree(&a, &[&a[..], &[true][..]].concat()));
        // An extension by zeros differs from its prefix in no word.
        prop_assert!(agree(&long_a, &[&long_a[..], &vec![false; zeros][..]].concat()));
    }

    #[test]
    fn cow_clone_is_semantically_identical(bools in prop::collection::vec(any::<bool>(), 0..300)) {
        // A cheap clone shares the buffer; a deep clone does not; neither
        // is distinguishable through Eq, Ord, or Hash.
        let a = BitArray::from_bools(&bools);
        let b = a.clone();
        let c = a.deep_clone();
        prop_assert!(b.shares_buffer_with(&a));
        prop_assert!(!c.shares_buffer_with(&a));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        use std::hash::{Hash, Hasher};
        let fingerprint = |x: &BitArray| {
            let mut s = std::collections::hash_map::DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert_eq!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn cow_mutators_never_leak_into_shared_clones(
        bools in prop::collection::vec(any::<bool>(), 1..257),
        donor_bools in prop::collection::vec(any::<bool>(), 1..257),
        raw_i in any::<usize>(),
        raw_off in any::<usize>(),
        flip in any::<bool>(),
    ) {
        // Share a BitArray via clone, mutate one side through every
        // mutator, and require the other side to be word-for-word
        // identical to its pre-mutation snapshot (no aliasing leaks).
        let base = BitArray::from_bools(&bools);
        let n = base.len();
        let donor = BitArray::from_bools(&donor_bools);
        let assert_intact = |shared: &BitArray, snapshot: &BitArray| {
            assert_eq!(shared.len(), snapshot.len());
            for w in 0..shared.word_count() {
                assert_eq!(shared.word(w), snapshot.word(w), "word {w} leaked");
            }
        };

        // set
        {
            let shared = base.clone();
            prop_assert!(shared.shares_buffer_with(&base));
            let snapshot = shared.deep_clone();
            let mut mutated = shared.clone();
            mutated.set(raw_i % n, flip);
            // Any mutation un-shares, even one writing the same value.
            prop_assert!(!mutated.shares_buffer_with(&shared));
            assert_intact(&shared, &snapshot);
        }

        // write_at
        {
            let shared = base.clone();
            let snapshot = shared.deep_clone();
            let mut mutated = shared.clone();
            let off = raw_off % n;
            let take = donor.len().min(n - off);
            mutated.write_at(off, &donor.slice(0..take));
            assert_intact(&shared, &snapshot);
        }

        // or_assign, with a foreign donor and with the shared twin itself
        {
            let shared = base.clone();
            let snapshot = shared.deep_clone();
            let mut sized_donor = BitArray::zeros(n);
            sized_donor.copy_range(0, &donor, 0..donor.len().min(n));
            let mut mutated = shared.clone();
            mutated.or_assign(&sized_donor);
            assert_intact(&shared, &snapshot);
            // a |= a through a shared twin is a no-op on both sides.
            let mut self_or = shared.clone();
            let twin = self_or.clone();
            self_or.or_assign(&twin);
            assert_intact(&self_or, &snapshot);
            assert_intact(&twin, &snapshot);
        }

        // copy_range
        {
            let shared = base.clone();
            let snapshot = shared.deep_clone();
            let mut mutated = shared.clone();
            let off = raw_off % n;
            let take = donor.len().min(n - off);
            mutated.copy_range(off, &donor, 0..take);
            assert_intact(&shared, &snapshot);
        }

        // PartialArray::learn_slice and merge, on a half-known array: the
        // mutated clone un-shares once it learns a bit, the other side
        // stays as it was.
        {
            let mut half = PartialArray::new(n);
            half.learn_slice(0, &base.slice(0..n / 2));
            let shared = half.clone();
            prop_assert!(shared.shares_planes_with(&half));
            let mut snapshot = PartialArray::new(n);
            snapshot.merge(&shared);
            let off = raw_off % n;
            let run = donor.slice(0..donor.len().min(n - off));
            let mut taught = PartialArray::new(n);
            taught.learn_slice(off, &run);
            let teaches = off + run.len() > n / 2;

            let mut mutated = shared.clone();
            mutated.learn_slice(off, &run);
            prop_assert_eq!(mutated.shares_planes_with(&shared), !teaches);
            prop_assert_eq!(&shared, &snapshot);

            let mut merged = shared.clone();
            merged.merge(&taught);
            prop_assert_eq!(merged.shares_planes_with(&shared), !teaches);
            prop_assert_eq!(&merged, &mutated);
            prop_assert_eq!(&shared, &snapshot);
        }
    }

    #[test]
    fn learning_nothing_leaves_the_planes_shared(
        bools in prop::collection::vec(any::<bool>(), 1..300),
        raw_known in any::<usize>(),
        raw_off in any::<usize>(),
        raw_len in any::<usize>(),
    ) {
        // A run or a merge that falls inside what is already known teaches
        // nothing, whatever its values, and must copy nothing: both clones
        // keep sharing both planes.
        let n = bools.len();
        let input = BitArray::from_bools(&bools);
        let known = raw_known % n + 1;
        let mut base = PartialArray::new(n);
        base.learn_slice(0, &input.slice(0..known));
        let off = raw_off % known;
        let len = raw_len % (known - off + 1);
        let contrary = BitArray::from_fn(len, |i| !input.get(off + i));

        let mut learner = base.clone();
        learner.learn_slice(off, &contrary);
        prop_assert!(learner.shares_planes_with(&base));
        let mut subset = PartialArray::new(n);
        subset.learn_slice(off, &contrary);
        let mut merger = base.clone();
        merger.merge(&subset);
        prop_assert!(merger.shares_planes_with(&base));
        prop_assert_eq!(&learner, &base);
        prop_assert_eq!(&merger, &base);
    }

    #[test]
    fn learn_word_equals_a_loop_of_learn(
        known_first in prop::collection::vec((any::<bool>(), any::<bool>()), 0..200),
        w_raw in 0usize..4,
        mask_raw in any::<u64>(),
        values in any::<u64>(),
    ) {
        let n = known_first.len();
        let mut fast = PartialArray::new(n);
        for (i, &(known, value)) in known_first.iter().enumerate() {
            if known {
                fast.learn(i, value);
            }
        }
        let mut slow = fast.clone();
        if n > 0 {
            let w = w_raw % n.div_ceil(64);
            // Only in-range bits may be selected; the last word is partial
            // whenever n is not a multiple of 64.
            let in_word = (n - w * 64).min(64);
            let mask = if in_word == 64 { mask_raw } else { mask_raw & ((1 << in_word) - 1) };
            fast.learn_word(w, mask, values);
            for b in (0..64).filter(|b| (mask >> b) & 1 == 1) {
                slow.learn(w * 64 + b, (values >> b) & 1 == 1);
            }
        }
        prop_assert_eq!(fast.unknown_count(), slow.unknown_count());
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn learn_scattered_equals_a_loop_of_learn(
        known_first in prop::collection::vec((any::<bool>(), any::<bool>()), 1..200),
        // Unsorted, with repeats, longer than a word of packed values.
        picks in prop::collection::vec((0usize..200, any::<bool>()), 0..150),
    ) {
        let n = known_first.len();
        let mut fast = PartialArray::new(n);
        for (i, &(known, value)) in known_first.iter().enumerate() {
            if known {
                fast.learn(i, value);
            }
        }
        let mut slow = fast.clone();
        let snapshot = fast.clone();
        let indices: Vec<u32> = picks.iter().map(|p| (p.0 % n) as u32).collect();
        let values: BitArray = picks.iter().map(|p| p.1).collect();
        fast.learn_scattered(BitIndices::Table(&indices), &values);
        for (r, &i) in indices.iter().enumerate() {
            // Known bits and the second occurrence of an index keep
            // their first value.
            slow.learn(i as usize, values.get(r));
        }
        prop_assert_eq!(fast.unknown_count(), slow.unknown_count());
        prop_assert_eq!(&fast, &slow);
        // The planes were un-shared first: the clone taken before still
        // reads as it did.
        for (i, &(known, value)) in known_first.iter().enumerate() {
            prop_assert_eq!(snapshot.get(i), known.then_some(value));
        }
    }

    #[test]
    fn gather_equals_a_loop_of_get(
        known_first in prop::collection::vec((any::<bool>(), any::<bool>()), 1..200),
        picks in prop::collection::vec(0usize..200, 0..150),
        only_known in any::<bool>(),
    ) {
        let n = known_first.len();
        let mut acc = PartialArray::new(n);
        for (i, &(known, value)) in known_first.iter().enumerate() {
            if known {
                acc.learn(i, value);
            }
        }
        // Half the cases ask only for known bits, so `Some` is exercised
        // on long lists too.
        let indices: Vec<u32> = picks
            .iter()
            .map(|p| p % n)
            .filter(|&i| !only_known || acc.is_known(i))
            .map(|i| i as u32)
            .collect();
        let expected: Option<Vec<bool>> = indices.iter().map(|&i| acc.get(i as usize)).collect();
        prop_assert_eq!(expected.is_none(), indices.iter().any(|&i| !acc.is_known(i as usize)));
        prop_assert_eq!(acc.gather(BitIndices::Table(&indices)), expected.map(|v| BitArray::from_bools(&v)));
    }

    #[test]
    fn stride_scatter_and_gather_equal_loops_of_learn_and_get(
        known_first in prop::collection::vec((any::<bool>(), any::<bool>()), 0..2000),
        // Steps inside a word (a word at a time, patterns of up to 63
        // words), around one word and over several (an index at a time).
        step in (0usize..3, 0usize..200).prop_map(|(band, off)| match band {
            0 => 1 + off % 63,
            1 => 60 + off % 10,
            _ => 100 + off,
        }),
        // A start anywhere, or near (or at) the end: few indices or none.
        start in (any::<bool>(), 0usize..2000),
        packed in prop::collection::vec(any::<bool>(), 1..64),
    ) {
        let n = known_first.len();
        let start = match start {
            (true, back) => n.saturating_sub(back % 80),
            (false, at) => at,
        };
        let mut acc = PartialArray::new(n);
        for (i, &(known, value)) in known_first.iter().enumerate() {
            if known {
                acc.learn(i, value);
            }
        }
        let stride = BitIndices::stride_below(n, start, step);
        let indices: Vec<usize> = (start..n).step_by(step).collect();
        prop_assert_eq!(stride.len(), indices.len());

        // Before the scatter, most strides hold an unknown bit.
        let gathered = |acc: &PartialArray| -> Option<BitArray> {
            let values: Option<Vec<bool>> = indices.iter().map(|&i| acc.get(i)).collect();
            values.map(|v| BitArray::from_bools(&v))
        };
        prop_assert_eq!(acc.gather(stride), gathered(&acc));
        prop_assert_eq!(acc.knows_all(stride), indices.iter().all(|&i| acc.is_known(i)));
        let wanted = BitArray::from_fn(n, |i| indices.contains(&i) && !acc.is_known(i));
        prop_assert_eq!(acc.unknown_among(stride), wanted);

        let values = BitArray::from_fn(indices.len(), |r| packed[r % packed.len()]);
        let snapshot = acc.clone();
        let mut slow = acc.clone();
        acc.learn_scattered(stride, &values);
        for (r, &i) in indices.iter().enumerate() {
            slow.learn(i, values.get(r));
        }
        prop_assert_eq!(acc.unknown_count(), slow.unknown_count());
        prop_assert_eq!(&acc, &slow);
        for (i, &(known, value)) in known_first.iter().enumerate() {
            prop_assert_eq!(snapshot.get(i), known.then_some(value));
        }

        // ... and every index of the stride is known now.
        prop_assert!(acc.knows_all(stride));
        prop_assert_eq!(acc.gather(stride), gathered(&acc));
        prop_assert_eq!(acc.unknown_among(stride).count_ones(), 0);
    }

    #[test]
    fn learn_masked_equals_a_loop_of_learn_word(
        bits in prop::collection::vec((any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()), 0..300),
    ) {
        let n = bits.len();
        let mut fast = PartialArray::new(n);
        for (i, &(known, value, _, _)) in bits.iter().enumerate() {
            if known {
                fast.learn(i, value);
            }
        }
        let snapshot = fast.clone();
        let mut slow = fast.clone();
        let mask = BitArray::from_fn(n, |i| bits[i].2);
        let answers = BitArray::from_fn(n, |i| bits[i].3);
        fast.learn_masked(&mask, &answers);
        for w in 0..mask.word_count() {
            slow.learn_word(w, mask.word(w), answers.word(w));
        }
        prop_assert_eq!(fast.unknown_count(), slow.unknown_count());
        prop_assert_eq!(&fast, &slow);
        // The planes were un-shared first.
        for (i, &(known, value, _, _)) in bits.iter().enumerate() {
            prop_assert_eq!(snapshot.get(i), known.then_some(value));
        }
    }

    #[test]
    fn unknown_mask_is_the_complement_of_known_cut_at_len(
        known_first in prop::collection::vec((any::<bool>(), any::<bool>()), 0..300),
    ) {
        let n = known_first.len();
        let mut acc = PartialArray::new(n);
        for (i, &(known, value)) in known_first.iter().enumerate() {
            if known {
                acc.learn(i, value);
            }
        }
        let mask = acc.unknown_mask();
        // `from_fn` keeps the bits past `len` zero, so `Eq` checks the cut.
        prop_assert_eq!(&mask, &BitArray::from_fn(n, |i| !acc.is_known(i)));
        prop_assert_eq!(mask.count_ones(), acc.unknown_count());
        prop_assert_eq!(mask.ones().collect::<Vec<_>>(), acc.unknown_iter().collect::<Vec<_>>());
    }

    #[test]
    fn masked_reads_and_ones_agree_with_the_per_bit_view(
        bools in prop::collection::vec((any::<bool>(), any::<bool>()), 0..300),
        pos in 0usize..400,
    ) {
        let bits: BitArray = bools.iter().map(|b| b.0).collect();
        let mask: BitArray = bools.iter().map(|b| b.1).collect();
        let set: Vec<usize> = (0..mask.len()).filter(|&i| mask.get(i)).collect();
        prop_assert_eq!(mask.ones().collect::<Vec<_>>(), set.clone());
        let word: u64 = (0..64)
            .filter(|b| pos + b < bits.len() && bits.get(pos + b))
            .map(|b| 1 << b)
            .sum();
        prop_assert_eq!(bits.word_at(pos), word);
        // ... and its write-side twin: OR the mask's bits pos..pos+64 in.
        let mut ored = bits.clone();
        ored.or_word_at(pos, mask.word_at(pos));
        let expected = BitArray::from_fn(bits.len(), |i| {
            bits.get(i) || ((pos..pos + 64).contains(&i) && mask.get(i))
        });
        prop_assert_eq!(ored, expected);

        // ArraySource's word-AND override against the trait's default.
        struct PerBit(BitArray);
        impl Source for PerBit {
            fn len(&self) -> usize { self.0.len() }
            fn bit(&self, index: usize) -> bool { self.0.get(index) }
        }
        let expected = BitArray::from_fn(bits.len(), |i| bits.get(i) && mask.get(i));
        prop_assert_eq!(ArraySource::new(bits.clone()).bits_masked(&mask), expected.clone());
        prop_assert_eq!(PerBit(bits.clone()).bits_masked(&mask), expected);

        // One meter update, the same count as a record per set bit.
        let (bulk, per_bit) = (QueryMeter::new(1), QueryMeter::new(1));
        bulk.record_masked(PeerId(0), &mask);
        for _ in &set {
            per_bit.record(PeerId(0));
        }
        prop_assert_eq!(bulk.counts(), per_bit.counts());
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn learn_scattered_rejects_an_out_of_range_index_like_learn() {
    PartialArray::new(70).learn_scattered(BitIndices::Table(&[3, 70]), &BitArray::zeros(2));
}

#[test]
#[should_panic(expected = "out of range")]
fn gather_rejects_an_out_of_range_index_like_get() {
    let mut acc = PartialArray::new(70);
    acc.learn(3, true);
    let _ = acc.gather(BitIndices::Table(&[3, 70]));
}

#[test]
#[should_panic(expected = "length mismatch")]
fn learn_scattered_rejects_a_bitmap_of_the_wrong_length() {
    PartialArray::new(70).learn_scattered(BitIndices::Table(&[3, 4]), &BitArray::zeros(3));
}

thread_local! {
    /// Set while [`outcome`] runs an operation expected to panic.
    static EXPECTING_PANIC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `op`, returning its value or the message it panicked with. The
/// panic hook stays silent for it (the expected panics would otherwise
/// each print, and capture a backtrace); other threads' panics still
/// report as usual.
fn outcome<T>(op: impl FnOnce() -> T) -> Result<T, String> {
    static QUIET_HOOK: std::sync::Once = std::sync::Once::new();
    QUIET_HOOK.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !EXPECTING_PANIC.with(|expecting| expecting.get()) {
                report(info);
            }
        }));
    });
    EXPECTING_PANIC.with(|expecting| expecting.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(op));
    EXPECTING_PANIC.with(|expecting| expecting.set(false));
    result.map_err(|payload| match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    })
}

/// `stride` against `table` in all four operations: the same answer or
/// the same panic, and the same planes and unknown count afterwards.
fn assert_stride_is_its_table(
    acc: &PartialArray,
    stride: BitIndices,
    table: &[u32],
    bits: &BitArray,
) {
    let table = BitIndices::Table(table);
    let case = format!("{stride:?} over {} bits", acc.len());
    assert_eq!(
        outcome(|| acc.gather(stride)),
        outcome(|| acc.gather(table)),
        "gather {case}"
    );
    assert_eq!(
        outcome(|| acc.knows_all(stride)),
        outcome(|| acc.knows_all(table)),
        "knows_all {case}"
    );
    assert_eq!(
        outcome(|| acc.unknown_among(stride)),
        outcome(|| acc.unknown_among(table)),
        "unknown_among {case}"
    );
    let (mut by_stride, mut by_table) = (acc.clone(), acc.clone());
    assert_eq!(
        outcome(|| by_stride.learn_scattered(stride, bits)),
        outcome(|| by_table.learn_scattered(table, bits)),
        "learn_scattered {case}"
    );
    assert_eq!(
        by_stride.unknown_count(),
        by_table.unknown_count(),
        "learn_scattered {case}"
    );
    assert_eq!(by_stride, by_table, "learn_scattered {case}");
}

#[test]
fn strides_answer_and_panic_exactly_like_their_index_tables() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    const LENS: [usize; 11] = [0, 1, 63, 64, 65, 127, 128, 129, 300, 1000, 4099];
    const DENSITIES: [f64; 4] = [0.0, 0.3, 0.97, 1.0];
    let mut rng = StdRng::seed_from_u64(35);
    // Every step and start; lengths and densities rotate through the
    // starts, so each (step, length) pair meets every density.
    for step in 0..=70usize {
        for start in 0..=130usize {
            let n = LENS[start % LENS.len()];
            let density = DENSITIES[(start / LENS.len() + step) % DENSITIES.len()];
            let mut acc = PartialArray::new(n);
            for i in 0..n {
                if rng.gen_bool(density) {
                    acc.learn(i, rng.gen());
                }
            }
            // Exactly the indices below `n`, then one index past the end.
            // A step of 0 repeats its start: three times, if it is in range.
            let exact = match step {
                0 => 3 * usize::from(start < n),
                _ => (n.saturating_sub(start)).div_ceil(step),
            };
            for count in [exact, exact + 1] {
                let stride = BitIndices::Stride { start, step, count };
                let table: Vec<u32> = (0..count).map(|r| (start + r * step) as u32).collect();
                let bits = BitArray::random(count, &mut rng);
                assert_stride_is_its_table(&acc, stride, &table, &bits);
            }
            // A count no array can hold: the stride stops where the table
            // of its indices up to the first one past the end stops, and
            // a bitmap of its length cannot exist.
            if step > 0 {
                let huge = BitIndices::Stride {
                    start,
                    step,
                    count: usize::MAX / step - 1,
                };
                let table: Vec<u32> = (0..=exact).map(|r| (start + r * step) as u32).collect();
                let table = BitIndices::Table(&table);
                assert_eq!(outcome(|| acc.gather(huge)), outcome(|| acc.gather(table)));
                assert_eq!(
                    outcome(|| acc.knows_all(huge)),
                    outcome(|| acc.knows_all(table))
                );
                assert_eq!(
                    outcome(|| acc.unknown_among(huge)),
                    outcome(|| acc.unknown_among(table))
                );
                let message =
                    outcome(|| acc.clone().learn_scattered(huge, &BitArray::zeros(exact)));
                assert!(message.unwrap_err().contains("length mismatch"));
            }
        }
    }
}
