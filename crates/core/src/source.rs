//! The external data source and per-peer query accounting.
//!
//! The DR model's second component is a trusted external source storing the
//! `n`-bit input array `X`, accessed through queries `Query(i) -> X[i]`.
//! Queries are the expensive resource: the central complexity measure of the
//! paper is the maximum number of bits queried by any nonfaulty peer.
//!
//! [`Source`] abstracts the read-only array; [`ArraySource`] is the standard
//! in-memory implementation; [`QueryMeter`] counts queries per peer for
//! executors whose peers run on several threads.

use crate::bits::BitArray;
use crate::peer::PeerId;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Read-only access to the external input array.
///
/// Implementations must be deterministic: repeated queries for the same
/// index return the same bit (the paper's static-data assumption, see §4).
/// The simulator relies on it: it reads a range with [`Source::bits`] the
/// first time any peer queries that range, and serves every later query
/// of the same range from that read.
pub trait Source: Send + Sync {
    /// Number of bits stored.
    fn len(&self) -> usize;

    /// Whether the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `index >= len()`.
    fn bit(&self, index: usize) -> bool;

    /// Returns the bits of `range` as a packed array.
    ///
    /// The provided implementation calls [`Source::bit`] once per bit;
    /// in-memory sources should override it with a word-level copy (see
    /// [`ArraySource`]). Overrides must agree bit-for-bit with the default —
    /// metering is handled by the caller, never here.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `range.end > len()`.
    fn bits(&self, range: Range<usize>) -> BitArray {
        BitArray::from_fn(range.len(), |i| self.bit(range.start + i))
    }

    /// Returns the bits selected by `mask`, in place: an array of
    /// `mask.len()` bits equal to the source where `mask` is set and zero
    /// elsewhere.
    ///
    /// The provided implementation calls [`Source::bit`] for the set bits
    /// of `mask` only, in ascending order — a streaming source is never
    /// asked for a bit the caller did not select. In-memory sources
    /// override it with a word-level AND (see [`ArraySource`]). As with
    /// [`Source::bits`], overrides must agree bit-for-bit with the default
    /// and metering is the caller's job.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `mask.len() > len()`.
    fn bits_masked(&self, mask: &BitArray) -> BitArray {
        let mut out = BitArray::zeros(mask.len());
        for i in mask.ones() {
            if self.bit(i) {
                out.set(i, true);
            }
        }
        out
    }
}

impl Source for Box<dyn Source> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn bit(&self, index: usize) -> bool {
        (**self).bit(index)
    }
    fn bits(&self, range: Range<usize>) -> BitArray {
        (**self).bits(range)
    }
    fn bits_masked(&self, mask: &BitArray) -> BitArray {
        (**self).bits_masked(mask)
    }
}

/// Shared sources: lets a caller hand a source to a consumer that wants
/// ownership (e.g. a streaming simulation) while keeping a handle for
/// post-run inspection (cache statistics, verification).
impl<S: Source + ?Sized> Source for std::sync::Arc<S> {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn bit(&self, index: usize) -> bool {
        (**self).bit(index)
    }
    fn bits(&self, range: Range<usize>) -> BitArray {
        (**self).bits(range)
    }
    fn bits_masked(&self, mask: &BitArray) -> BitArray {
        (**self).bits_masked(mask)
    }
}

/// The standard in-memory source backed by a [`BitArray`].
#[derive(Debug, Clone)]
pub struct ArraySource {
    bits: BitArray,
}

impl ArraySource {
    /// Creates a source over the given input array.
    pub fn new(bits: BitArray) -> Self {
        ArraySource { bits }
    }

    /// Borrow of the underlying input array (for test assertions; real
    /// peers only see it through queries).
    pub fn bits(&self) -> &BitArray {
        &self.bits
    }
}

impl Source for ArraySource {
    fn len(&self) -> usize {
        self.bits.len()
    }

    fn bit(&self, index: usize) -> bool {
        self.bits.get(index)
    }

    fn bits(&self, range: Range<usize>) -> BitArray {
        // Word-aligned copy (shift/mask across word boundaries) instead of
        // the per-bit default.
        self.bits.slice(range)
    }

    fn bits_masked(&self, mask: &BitArray) -> BitArray {
        assert!(
            mask.len() <= self.bits.len(),
            "mask of {} bits over a source of {}",
            mask.len(),
            self.bits.len()
        );
        // The mask's zeroed tail keeps the result's tail zeroed.
        let words = (0..mask.word_count())
            .map(|w| self.bits.word(w) & mask.word(w))
            .collect();
        BitArray::from_words(mask.len(), words)
    }
}

/// Per-peer query counters shared across threads.
///
/// Counters are atomics, so the threaded runtime's peer threads, the
/// front door's [`AdmissionPlane`](crate::AdmissionPlane) and any
/// other concurrent reader can charge one meter without a lock. The
/// single-threaded simulator keeps its own plain counters instead.
#[derive(Debug)]
pub struct QueryMeter {
    counts: Vec<AtomicU64>,
}

impl QueryMeter {
    /// Creates a meter for `num_peers` peers.
    pub fn new(num_peers: usize) -> Self {
        QueryMeter {
            counts: (0..num_peers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records that `peer` queried one bit.
    pub fn record(&self, peer: PeerId) {
        self.add(peer, 1);
    }

    /// Records that `peer` queried every index in `range`: one atomic add
    /// of `range.len()`, equivalent to one [`QueryMeter::record`] per index.
    pub fn record_range(&self, peer: PeerId, range: Range<usize>) {
        self.add(peer, range.len() as u64);
    }

    /// Records that `peer` queried every index set in `mask`: one atomic
    /// add of its popcount, equivalent to one [`QueryMeter::record`] per
    /// set index.
    pub fn record_masked(&self, peer: PeerId, mask: &BitArray) {
        self.add(peer, mask.count_ones() as u64);
    }

    fn add(&self, peer: PeerId, bits: u64) {
        #[expect(
            clippy::disallowed_methods,
            reason = "independent monotonic counter; readers observe it only past a barrier or at end of run, never to publish other data"
        )]
        self.counts[peer.index()].fetch_add(bits, Ordering::Relaxed);
    }

    /// Number of queries made by `peer` so far.
    #[expect(
        clippy::disallowed_methods,
        reason = "count read for reporting; callers sequence it after the writes they care about (join/barrier)"
    )]
    pub fn count(&self, peer: PeerId) -> u64 {
        self.counts[peer.index()].load(Ordering::Relaxed)
    }

    /// Query counts for every peer, indexed by peer ID.
    #[expect(
        clippy::disallowed_methods,
        reason = "same read-side discipline as `count`"
    )]
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Maximum query count over the given set of peers (the paper's `Q`
    /// when restricted to nonfaulty peers).
    pub fn max_over(&self, peers: impl IntoIterator<Item = PeerId>) -> u64 {
        peers.into_iter().map(|p| self.count(p)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn query_returns_source_bits() {
        let s = ArraySource::new(BitArray::from_fn(10, |i| i % 3 == 0));
        assert!(s.bit(0));
        assert!(!s.bit(1));
        assert!(s.bit(3));
    }

    #[test]
    fn meter_counts_per_peer() {
        let m = QueryMeter::new(4);
        m.record(PeerId(0));
        m.record(PeerId(0));
        m.record(PeerId(1));
        assert_eq!(m.count(PeerId(0)), 2);
        assert_eq!(m.count(PeerId(1)), 1);
        assert_eq!(m.count(PeerId(2)), 0);
        assert_eq!(m.counts(), vec![2, 1, 0, 0]);
    }

    #[test]
    fn range_query_costs_length() {
        let m = QueryMeter::new(4);
        m.record_range(PeerId(3), 3..9);
        assert_eq!(m.count(PeerId(3)), 6);
        m.record_masked(PeerId(2), &BitArray::from_fn(20, |i| i % 3 == 0));
        assert_eq!(m.count(PeerId(2)), 7);
    }

    #[test]
    fn repeated_queries_are_recounted() {
        let m = QueryMeter::new(1);
        m.record(PeerId(0));
        m.record(PeerId(0));
        m.record_range(PeerId(0), 1..2);
        assert_eq!(m.count(PeerId(0)), 3);
    }

    #[test]
    fn max_over_restricts_to_given_peers() {
        let m = QueryMeter::new(4);
        m.record_range(PeerId(0), 0..7);
        m.record(PeerId(2));
        let honest = [PeerId(1), PeerId(2)];
        assert_eq!(m.max_over(honest), 1);
        assert_eq!(m.max_over([PeerId(0)]), 7);
    }

    /// A source with no `bits` override, exercising the per-bit default.
    struct PerBitSource(BitArray);

    impl Source for PerBitSource {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn bit(&self, index: usize) -> bool {
            self.0.get(index)
        }
    }

    #[test]
    fn bits_default_matches_array_override() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let input = BitArray::random(300, &mut rng);
        let fast = ArraySource::new(input.clone());
        let slow = PerBitSource(input.clone());
        for range in [0..300, 0..0, 63..65, 7..300, 128..192, 299..300] {
            assert_eq!(
                Source::bits(&fast, range.clone()),
                slow.bits(range.clone()),
                "range {range:?}"
            );
            assert_eq!(slow.bits(range.clone()), input.slice(range.clone()));
        }
    }

    #[test]
    fn record_range_matches_per_bit_record() {
        let a = QueryMeter::new(2);
        let b = QueryMeter::new(2);
        a.record_range(PeerId(0), 3..9);
        a.record_range(PeerId(0), 9..9); // empty: no-op
        a.record_range(PeerId(1), 0..2);
        for _ in 3..9 {
            b.record(PeerId(0));
        }
        for _ in 0..2 {
            b.record(PeerId(1));
        }
        assert_eq!(a.counts(), b.counts());
    }
}
