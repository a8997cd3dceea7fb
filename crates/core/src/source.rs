//! The external data source and per-peer query accounting.
//!
//! The DR model's second component is a trusted external source storing the
//! `n`-bit input array `X`, accessed through queries `Query(i) -> X[i]`.
//! Queries are the expensive resource: the central complexity measure of the
//! paper is the maximum number of bits queried by any nonfaulty peer.
//!
//! [`Source`] abstracts the read-only array; [`ArraySource`] is the standard
//! in-memory implementation; [`QueryMeter`] counts queries per peer (and can
//! optionally record the exact set of indices each peer touched, which the
//! lower-bound adversaries of §3.1 need); [`SharedSource`] bundles the two
//! behind an `Arc` so both the simulator and the threaded runtime can hand
//! out per-peer [`SourceHandle`]s.

use crate::bits::BitArray;
use crate::peer::PeerId;
use crate::sync::{Mutex, MutexGuard, PoisonError};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Read-only access to the external input array.
///
/// Implementations must be deterministic: repeated queries for the same
/// index return the same bit (the paper's static-data assumption, see §4).
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

/// Per-peer query counters, with optional per-peer index tracking.
///
/// Thread-safe: counters are atomics and the optional index log is behind a
/// mutex, so the threaded runtime can share one meter across peer threads.
#[derive(Debug)]
pub struct QueryMeter {
    counts: Vec<AtomicU64>,
    index_log: Option<Vec<Mutex<Vec<usize>>>>,
}

impl QueryMeter {
    /// Creates a meter for `num_peers` peers, counting only.
    pub fn new(num_peers: usize) -> Self {
        QueryMeter {
            // dr-lint: allow(sync-primitive-outside-facade): independent per-peer counters shared by the threaded runtime's peer threads; no protocol is built on them
            counts: (0..num_peers).map(|_| AtomicU64::new(0)).collect(),
            index_log: None,
        }
    }

    /// Creates a meter that additionally records every queried index per
    /// peer (needed by the lower-bound adversaries, which must find a bit a
    /// target peer never queried).
    pub fn with_index_tracking(num_peers: usize) -> Self {
        QueryMeter {
            // dr-lint: allow(sync-primitive-outside-facade): same counters as `new`
            counts: (0..num_peers).map(|_| AtomicU64::new(0)).collect(),
            index_log: Some((0..num_peers).map(|_| Mutex::new(Vec::new())).collect()),
        }
    }

    /// Records that `peer` queried `index`.
    pub fn record(&self, peer: PeerId, index: usize) {
        // dr-lint: allow(atomic-ordering): independent monotonic counter; readers observe it only past a barrier or at end of run, never to publish other data
        self.counts[peer.index()].fetch_add(1, Ordering::Relaxed);
        if let Some(log) = &self.index_log {
            lock_log(&log[peer.index()]).push(index);
        }
    }

    /// Records that `peer` queried every index in `range`: one atomic add
    /// of `range.len()`, and — when index tracking is on — one lock
    /// acquisition extending the log with the indices in ascending order.
    /// Equivalent to calling [`QueryMeter::record`] for each index in turn,
    /// both in counts and in the recorded log.
    pub fn record_range(&self, peer: PeerId, range: Range<usize>) {
        // dr-lint: allow(atomic-ordering): same counter discipline as `record`
        self.counts[peer.index()].fetch_add(range.len() as u64, Ordering::Relaxed);
        if let Some(log) = &self.index_log {
            lock_log(&log[peer.index()]).extend(range);
        }
    }

    /// Records that `peer` queried every index set in `mask`: one atomic
    /// add of its popcount, and — when index tracking is on — one lock
    /// acquisition extending the log with the set indices in ascending
    /// order. Equivalent to calling [`QueryMeter::record`] for each set
    /// index in turn, both in counts and in the recorded log.
    pub fn record_masked(&self, peer: PeerId, mask: &BitArray) {
        // dr-lint: allow(atomic-ordering): same counter discipline as `record`
        self.counts[peer.index()].fetch_add(mask.count_ones() as u64, Ordering::Relaxed);
        if let Some(log) = &self.index_log {
            lock_log(&log[peer.index()]).extend(mask.ones());
        }
    }

    /// Number of queries made by `peer` so far.
    pub fn count(&self, peer: PeerId) -> u64 {
        // dr-lint: allow(atomic-ordering): count read for reporting; callers sequence it after the writes they care about (join/barrier)
        self.counts[peer.index()].load(Ordering::Relaxed)
    }

    /// Query counts for every peer, indexed by peer ID.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            // dr-lint: allow(atomic-ordering): same read-side discipline as `count`
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Maximum query count over the given set of peers (the paper's `Q`
    /// when restricted to nonfaulty peers).
    pub fn max_over(&self, peers: impl IntoIterator<Item = PeerId>) -> u64 {
        peers.into_iter().map(|p| self.count(p)).max().unwrap_or(0)
    }

    /// The exact indices `peer` queried, in order, if tracking is enabled.
    pub fn indices(&self, peer: PeerId) -> Option<Vec<usize>> {
        self.index_log
            .as_ref()
            .map(|log| lock_log(&log[peer.index()]).clone())
    }

    /// Creates an empty [`MeterDelta`] over this meter's peers, with index
    /// buffering matching this meter's tracking mode.
    pub fn delta(&self) -> MeterDelta {
        let k = self.counts.len();
        MeterDelta {
            counts: vec![0; k],
            indices: self
                .index_log
                .as_ref()
                .map(|_| (0..k).map(|_| Vec::new()).collect()),
            dirty: Vec::new(),
            in_dirty: vec![false; k],
        }
    }

    /// Merges (and clears) a delta's buffered counts and index logs into
    /// this meter: one atomic add per peer the delta touched since the
    /// last fold, instead of one per query.
    ///
    /// Per-peer index logs keep the exact order the peer issued its
    /// queries in, because the delta buffers them in that order and they
    /// are appended contiguously here.
    pub fn fold(&self, delta: &mut MeterDelta) {
        debug_assert_eq!(
            self.index_log.is_some(),
            delta.indices.is_some(),
            "meter/delta tracking modes diverged"
        );
        for p in delta.dirty.drain(..) {
            let p = p as usize;
            delta.in_dirty[p] = false;
            // dr-lint: allow(atomic-ordering): same counter discipline as `record`; the delta is owned by the folding thread
            self.counts[p].fetch_add(delta.counts[p], Ordering::Relaxed);
            delta.counts[p] = 0;
            if let (Some(log), Some(buf)) = (&self.index_log, &mut delta.indices) {
                lock_log(&log[p]).append(&mut buf[p]);
            }
        }
    }
}

/// Locks one peer's index log. Appends are whole `push`/`extend` calls,
/// so a log poisoned by a panicking peer thread is still well formed.
fn lock_log(log: &Mutex<Vec<usize>>) -> MutexGuard<'_, Vec<usize>> {
    log.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Query-count buffer: the lock-free, allocation-reusing stand-in for
/// [`QueryMeter`] on the simulator's dispatch hot path.
///
/// The simulator records a step's queries into plain `u64` counters (plus
/// index buffers when tracking is on) and merges them into the shared
/// meter with [`QueryMeter::fold`] once the step ends — one atomic add per
/// step instead of one per query.
#[derive(Debug)]
pub struct MeterDelta {
    /// Buffered counts, indexed by peer.
    counts: Vec<u64>,
    /// Buffered query indices per peer (tracking mode only).
    indices: Option<Vec<Vec<usize>>>,
    /// Peers touched since the last fold.
    dirty: Vec<u32>,
    in_dirty: Vec<bool>,
}

impl MeterDelta {
    /// Marks `peer` as touched since the last fold and returns its index.
    fn touch(&mut self, peer: PeerId) -> usize {
        let p = peer.index();
        if !self.in_dirty[p] {
            self.in_dirty[p] = true;
            self.dirty.push(p as u32);
        }
        p
    }

    /// Buffers one query by `peer`.
    pub fn record(&mut self, peer: PeerId, index: usize) {
        let p = self.touch(peer);
        self.counts[p] += 1;
        if let Some(buf) = &mut self.indices {
            buf[p].push(index);
        }
    }

    /// Buffers a range query by `peer`, charging one query per bit —
    /// identical accounting to [`QueryMeter::record_range`].
    pub fn record_range(&mut self, peer: PeerId, range: Range<usize>) {
        let p = self.touch(peer);
        self.counts[p] += range.len() as u64;
        if let Some(buf) = &mut self.indices {
            buf[p].extend(range);
        }
    }

    /// Buffers a masked query by `peer`, charging one query per set bit —
    /// identical accounting to [`QueryMeter::record_masked`].
    pub fn record_masked(&mut self, peer: PeerId, mask: &BitArray) {
        let p = self.touch(peer);
        self.counts[p] += mask.count_ones() as u64;
        if let Some(buf) = &mut self.indices {
            buf[p].extend(mask.ones());
        }
    }

    /// Whether any counts are buffered and not yet folded.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// A source plus its meter, shared by all peers of a run.
#[derive(Clone)]
pub struct SharedSource {
    source: Arc<dyn Source>,
    meter: Arc<QueryMeter>,
}

impl SharedSource {
    /// Bundles a source with a fresh meter for `num_peers` peers.
    pub fn new(source: impl Source + 'static, num_peers: usize) -> Self {
        SharedSource {
            source: Arc::new(source),
            meter: Arc::new(QueryMeter::new(num_peers)),
        }
    }

    /// As [`SharedSource::new`] but with per-peer index tracking enabled.
    pub fn with_index_tracking(source: impl Source + 'static, num_peers: usize) -> Self {
        SharedSource {
            source: Arc::new(source),
            meter: Arc::new(QueryMeter::with_index_tracking(num_peers)),
        }
    }

    /// Number of bits in the underlying source.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// Whether the underlying source is empty.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// The meter accumulating query counts for this run.
    pub fn meter(&self) -> &QueryMeter {
        &self.meter
    }

    /// A shared handle to the raw (unmetered) source, for contexts that
    /// do their own accounting through a [`MeterDelta`].
    pub fn source_arc(&self) -> Arc<dyn Source> {
        Arc::clone(&self.source)
    }

    /// Creates the query handle for one peer.
    pub fn handle(&self, peer: PeerId) -> SourceHandle {
        SourceHandle {
            source: Arc::clone(&self.source),
            meter: Arc::clone(&self.meter),
            peer,
        }
    }
}

impl std::fmt::Debug for SharedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedSource[{} bits]", self.source.len())
    }
}

/// One peer's metered access to the source.
///
/// Every call is charged to the owning peer: `query` costs one bit,
/// `query_range` costs one bit per bit in the range. This realizes the
/// paper's query-complexity accounting exactly.
#[derive(Clone)]
pub struct SourceHandle {
    source: Arc<dyn Source>,
    meter: Arc<QueryMeter>,
    peer: PeerId,
}

impl SourceHandle {
    /// The peer this handle meters.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// Number of bits in the source.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// Whether the source is empty.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// Queries a single bit (cost: 1).
    pub fn query(&self, index: usize) -> bool {
        self.meter.record(self.peer, index);
        self.source.bit(index)
    }

    /// Queries a contiguous range of bits.
    ///
    /// Cost accounting: one bit is charged per bit in the range — exactly as
    /// if [`SourceHandle::query`] were called for each index in ascending
    /// order — but the whole charge lands in a single meter update
    /// ([`QueryMeter::record_range`]: one atomic add, and one lock
    /// acquisition when index tracking is on). Combined with
    /// [`Source::bits`], a range query is `O(range.len() / 64)` word
    /// operations for in-memory sources instead of one dynamically
    /// dispatched, individually metered call per bit.
    pub fn query_range(&self, range: Range<usize>) -> BitArray {
        self.meter.record_range(self.peer, range.clone());
        self.source.bits(range)
    }

    /// Queries the bits selected by `mask` (see [`Source::bits_masked`]
    /// for the shape of the answer).
    ///
    /// Cost accounting: one bit is charged per set bit of `mask` — exactly
    /// as if [`SourceHandle::query`] were called for each set index in
    /// ascending order — in a single meter update
    /// ([`QueryMeter::record_masked`]).
    pub fn query_masked(&self, mask: &BitArray) -> BitArray {
        self.meter.record_masked(self.peer, mask);
        self.source.bits_masked(mask)
    }

    /// Queries made so far by this handle's peer.
    pub fn queries_so_far(&self) -> u64 {
        self.meter.count(self.peer)
    }
}

impl std::fmt::Debug for SourceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SourceHandle[{}]", self.peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn source(n: usize) -> SharedSource {
        SharedSource::new(ArraySource::new(BitArray::from_fn(n, |i| i % 3 == 0)), 4)
    }

    #[test]
    fn query_returns_source_bits() {
        let s = source(10);
        let h = s.handle(PeerId(0));
        assert!(h.query(0));
        assert!(!h.query(1));
        assert!(h.query(3));
    }

    #[test]
    fn meter_counts_per_peer() {
        let s = source(10);
        let h0 = s.handle(PeerId(0));
        let h1 = s.handle(PeerId(1));
        h0.query(0);
        h0.query(1);
        h1.query(2);
        assert_eq!(s.meter().count(PeerId(0)), 2);
        assert_eq!(s.meter().count(PeerId(1)), 1);
        assert_eq!(s.meter().count(PeerId(2)), 0);
        assert_eq!(s.meter().counts(), vec![2, 1, 0, 0]);
    }

    #[test]
    fn range_query_costs_length() {
        let s = source(20);
        let h = s.handle(PeerId(3));
        let bits = h.query_range(3..9);
        assert_eq!(bits.len(), 6);
        assert_eq!(h.queries_so_far(), 6);
        assert!(bits.get(0)); // index 3 is divisible by 3
    }

    #[test]
    fn delta_folds_match_direct_metering() {
        // Two meters, one fed directly and one through a delta, must
        // agree on counts and per-peer index logs.
        let direct = QueryMeter::with_index_tracking(5);
        let folded = QueryMeter::with_index_tracking(5);
        let mut delta = folded.delta();
        let queries: [(usize, usize); 5] = [(0, 3), (1, 7), (2, 1), (0, 2), (3, 9)];
        for (p, i) in queries {
            direct.record(PeerId(p), i);
            delta.record(PeerId(p), i);
        }
        direct.record_range(PeerId(4), 2..6);
        delta.record_range(PeerId(4), 2..6);
        folded.fold(&mut delta);
        assert!(delta.is_empty());
        assert_eq!(direct.counts(), folded.counts());
        for p in 0..5 {
            assert_eq!(
                direct.indices(PeerId(p)),
                folded.indices(PeerId(p)),
                "peer {p}"
            );
        }
        // A reused delta keeps folding correctly.
        delta.record(PeerId(1), 4);
        folded.fold(&mut delta);
        direct.record(PeerId(1), 4);
        assert_eq!(direct.counts(), folded.counts());
    }

    #[test]
    fn repeated_queries_are_recounted() {
        let s = source(5);
        let h = s.handle(PeerId(0));
        h.query(1);
        h.query(1);
        assert_eq!(h.queries_so_far(), 2);
    }

    #[test]
    fn max_over_restricts_to_given_peers() {
        let s = source(10);
        s.handle(PeerId(0)).query_range(0..7);
        s.handle(PeerId(2)).query(1);
        let honest = [PeerId(1), PeerId(2)];
        assert_eq!(s.meter().max_over(honest), 1);
        assert_eq!(s.meter().max_over([PeerId(0)]), 7);
    }

    #[test]
    fn index_tracking_records_indices() {
        let s = SharedSource::with_index_tracking(ArraySource::new(BitArray::zeros(8)), 2);
        let h = s.handle(PeerId(1));
        h.query(4);
        h.query(2);
        assert_eq!(s.meter().indices(PeerId(1)), Some(vec![4, 2]));
        assert_eq!(s.meter().indices(PeerId(0)), Some(vec![]));
    }

    #[test]
    fn tracking_disabled_returns_none() {
        let s = source(4);
        s.handle(PeerId(0)).query(0);
        assert_eq!(s.meter().indices(PeerId(0)), None);
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
        let a = QueryMeter::with_index_tracking(2);
        let b = QueryMeter::with_index_tracking(2);
        a.record_range(PeerId(0), 3..9);
        a.record_range(PeerId(0), 9..9); // empty: no-op
        a.record_range(PeerId(1), 0..2);
        for i in 3..9 {
            b.record(PeerId(0), i);
        }
        for i in 0..2 {
            b.record(PeerId(1), i);
        }
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.indices(PeerId(0)), b.indices(PeerId(0)));
        assert_eq!(a.indices(PeerId(1)), b.indices(PeerId(1)));
    }

    #[test]
    fn query_range_through_custom_source_uses_one_meter_update() {
        let s = SharedSource::with_index_tracking(ArraySource::new(BitArray::zeros(64)), 1);
        let h = s.handle(PeerId(0));
        h.query_range(10..20);
        assert_eq!(h.queries_so_far(), 10);
        assert_eq!(s.meter().indices(PeerId(0)), Some((10..20).collect()));
    }
}
