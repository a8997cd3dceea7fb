//! Meter-equivalence suite for the query admission plane.
//!
//! The admission plane (`CachedSource` + `AdmissionPlane`) must be a pure
//! amortization: caching may only *remove* metered queries,
//! never change outputs or shift charges upward. Concretely, for any
//! sequence (or concurrent interleaving) of `query_range` calls:
//!
//! * every cached read is bit-identical to reading the source directly;
//! * the **total** metered Q across all peers equals the uncached
//!   baseline's unique-word cost — 64 bits per distinct word touched,
//!   clipped at the array tail — regardless of request order, overlap, or
//!   which peer got charged for a shared fetch;
//! * with word-aligned requests, **per-peer** attribution never exceeds
//!   what the same peer would have paid against an uncached source.

use dr_download::core::{AdmissionPlane, ArraySource, BitArray, PeerId, QueryMeter, Source};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::ops::Range;

/// Deterministic pseudo-random input that exercises word boundaries.
fn test_input(n: usize) -> BitArray {
    BitArray::from_fn(n, |i| (i.wrapping_mul(2654435761) >> 9) % 7 < 3)
}

/// The uncached baseline's unique-word cost for a set of requested ranges:
/// 64 bits per distinct word any range touches, clipped at the tail.
fn unique_word_bits(n: usize, ranges: &[Range<usize>]) -> u64 {
    let mut words = BTreeSet::new();
    for r in ranges {
        if r.start < r.end {
            words.extend(r.start / 64..r.end.div_ceil(64));
        }
    }
    words
        .into_iter()
        .map(|w| ((w * 64 + 64).min(n) - w * 64) as u64)
        .sum()
}

proptest! {
    /// Arbitrary (unaligned, overlapping) request sequences: outputs are
    /// bit-identical and the plane's total metered Q collapses to the
    /// unique-word cost no matter how requests interleave across peers.
    #[test]
    fn any_request_sequence_meters_exactly_the_unique_words(
        n in 65usize..1500,
        reqs in prop::collection::vec((0usize..4, 0usize..1500, 0usize..400), 1..12),
    ) {
        let input = test_input(n);
        let plane = AdmissionPlane::new(ArraySource::new(input.clone()), 4, 3);
        let mut ranges = Vec::new();
        for (peer, start, len) in reqs {
            let start = start % n;
            let len = len.min(n - start);
            let range = start..start + len;
            let (bits, receipt) = plane.query_range(PeerId(peer), range.clone());
            prop_assert_eq!(&bits, &input.slice(range.clone()));
            // Receipts only ever bill word-aligned fetches (tail-clipped).
            prop_assert!(receipt.fetched_bits <= receipt.fetched_words * 64);
            ranges.push(range);
        }
        let expected = unique_word_bits(n, &ranges);
        let metered: u64 = plane.meter().counts().iter().sum();
        prop_assert_eq!(metered, expected);
        prop_assert_eq!(plane.cache().stats().upstream_bits, expected);
    }

    /// Word-aligned request sequences: in addition to the total collapsing
    /// to the unique-word cost, no individual peer is ever charged more
    /// than it would have paid against an uncached source.
    #[test]
    fn aligned_attribution_never_exceeds_the_uncached_run(
        words in 1usize..24,
        reqs in prop::collection::vec((0usize..4, 0usize..24, 1usize..12), 1..12),
    ) {
        let n = words * 64;
        let input = test_input(n);
        let plane = AdmissionPlane::new(ArraySource::new(input.clone()), 4, 2);
        let uncached = QueryMeter::new(4);
        let mut ranges = Vec::new();
        for (peer, start_w, len_w) in reqs {
            let start_w = start_w % words;
            let len_w = len_w.min(words - start_w);
            let range = start_w * 64..(start_w + len_w) * 64;
            let (bits, _) = plane.query_range(PeerId(peer), range.clone());
            prop_assert_eq!(&bits, &input.slice(range.clone()));
            uncached.record_range(PeerId(peer), range.clone());
            ranges.push(range);
        }
        for peer in 0..4 {
            prop_assert!(
                plane.meter().count(PeerId(peer)) <= uncached.count(PeerId(peer)),
                "peer {} charged {} cached vs {} uncached",
                peer,
                plane.meter().count(PeerId(peer)),
                uncached.count(PeerId(peer)),
            );
        }
        let metered: u64 = plane.meter().counts().iter().sum();
        prop_assert_eq!(metered, unique_word_bits(n, &ranges));
    }
}

/// Concurrent interleavings: four peer threads hammer overlapping windows
/// simultaneously. Fetching under the shard lock must keep the totals
/// identical to the sequential accounting — each unique word billed exactly once across the
/// whole fleet — while every read stays bit-identical.
#[test]
fn concurrent_interleavings_preserve_the_meter_equivalence() {
    let n = 4096;
    let input = test_input(n);
    let plane = AdmissionPlane::new(ArraySource::new(input.clone()), 4, 4);
    let uncached = QueryMeter::new(4);
    let mut ranges = Vec::new();
    // Word-aligned, heavily overlapping windows: peer p's request r covers
    // bits [r*512 .. r*512 + 1024), so consecutive requests overlap by half
    // and all four peers issue the identical schedule.
    for peer in 0..4usize {
        for r in 0..6usize {
            let range = r * 512..r * 512 + 1024;
            uncached.record_range(PeerId(peer), range.clone());
            ranges.push(range);
        }
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "concurrent reader threads in a test, joined by scope exit"
    )]
    std::thread::scope(|scope| {
        for peer in 0..4usize {
            let plane = plane.clone();
            let input = &input;
            scope.spawn(move || {
                for r in 0..6usize {
                    let range = r * 512..r * 512 + 1024;
                    let (bits, _) = plane.query_range(PeerId(peer), range.clone());
                    assert_eq!(bits, input.slice(range));
                }
            });
        }
    });
    let expected = unique_word_bits(n, &ranges);
    assert_eq!(expected, 3584, "six half-overlapping 1024-bit windows");
    let metered: u64 = plane.meter().counts().iter().sum();
    assert_eq!(metered, expected, "every unique word billed exactly once");
    assert_eq!(plane.cache().stats().upstream_bits, expected);
    for peer in 0..4 {
        assert!(
            plane.meter().count(PeerId(peer)) <= uncached.count(PeerId(peer)),
            "attribution for peer {peer} exceeds the uncached baseline"
        );
    }
}

/// Mixing cached and uncached readers of the same source never perturbs
/// either side: the uncached reader pays full freight, the plane still
/// collapses to unique words, and both see identical bits.
#[test]
fn cached_and_uncached_readers_agree_bit_for_bit() {
    let n = 1000; // deliberately not word-aligned
    let input = test_input(n);
    let raw = ArraySource::new(input.clone());
    let plane = AdmissionPlane::new(ArraySource::new(input.clone()), 2, 2);
    let mut ranges = Vec::new();
    for (i, (start, len)) in [(0, 300), (250, 500), (900, 100), (0, 1000), (63, 65)]
        .into_iter()
        .enumerate()
    {
        let range = start..start + len;
        let (cached_bits, _) = plane.query_range(PeerId(i % 2), range.clone());
        let uncached_bits = Source::bits(&raw, range.clone());
        assert_eq!(cached_bits, uncached_bits, "request {i} diverged");
        ranges.push(range);
    }
    let metered: u64 = plane.meter().counts().iter().sum();
    assert_eq!(metered, unique_word_bits(n, &ranges));
    // The whole array was touched, so the plane holds every word and the
    // tail word was clipped: total equals n exactly.
    assert_eq!(metered, n as u64);
}
