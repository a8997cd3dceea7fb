//! Query admission plane: a concurrent, sharded, word-level cache over
//! [`Source`] with single-flight coalescing and range batching.
//!
//! Every query a peer sends to the external source costs real money in the
//! oracle-network deployments the paper's §4 motivates; when many clients
//! pull overlapping ranges through one fleet, re-paying `Q` per request is
//! pure waste. [`CachedSource`] sits between callers and an upstream
//! [`Source`] and guarantees each 64-bit word of the input is fetched
//! upstream **at most once**, no matter how many concurrent readers race:
//!
//! * **Word-level cache, stored in pages.** The keyspace is word indices
//!   (`bit / 64`), and a word is the unit of presence, classification and
//!   billing. Storage is by *page*: 64 consecutive words and one `u64` of
//!   presence bits (520 bytes per 4096 bits of input), allocated when the
//!   first of its words is filled and held in the owning shard's
//!   [`DetMap`] by page index, so memory stays proportional to what was
//!   touched. Words are striped contiguously across shards in whole pages
//!   — **a page lives in exactly one shard** — so adjacent words share a
//!   lock and a range read takes few of them. A read walks its span a
//!   page at a time under the shard mutex: one map lookup per page, the
//!   absent words read off `mask & !present`, and a page piece that is
//!   all there copied out with one `copy_from_slice`.
//! * **Single-flight coalescing.** A miss elects the first arriving reader
//!   as *leader* for a contiguous run of absent words: it records the run
//!   in the shard's in-flight list, drops the lock, performs one upstream
//!   [`Source::bits`] call, copies the words into their pages, sets the
//!   presence bits, and notifies. Readers that miss on a word already in
//!   flight park on the shard condvar and are handed the filled words
//!   without an upstream query of their own.
//! * **Range batching.** Absent words are claimed as maximal contiguous
//!   runs, so `r` adjacent missing words become one upstream `bits` call —
//!   riding the PR 2 word-level fast paths instead of `r` round trips.
//!
//! Metering stays with the caller, exactly as the [`Source`] contract
//! demands: [`CachedSource`] never touches a [`QueryMeter`]. Instead
//! [`CachedSource::read_range_with`] reports each upstream fetch through a
//! callback and returns a [`ReadReceipt`] so fronting layers (the
//! `dr-runtime` front door, the oracle ODC pipeline) can attribute
//! *amortized* query cost: the leader's peer is charged for the fetched
//! words, coalesced waiters and cache hits are free. Under any
//! interleaving, total metered upstream bits equal 64 × the number of
//! unique words touched (clipped at the tail) — the invariant the
//! meter-equivalence suite pins.
//!
//! Memory ordering: all cross-thread state transfer happens through the
//! per-shard mutex/condvar pairs from [`crate::sync`]; the statistics
//! counters are independent monotonic `Relaxed` atomics that never gate
//! control flow (see DESIGN.md §4). The loom model in
//! `crates/core/tests/loom_admission.rs` exhaustively interleaves the
//! claim/fetch/fill/notify protocol, including leader panics and two
//! readers splitting one page.

use crate::bits::{ones_of, BitArray};
use crate::collections::DetMap;
use crate::peer::PeerId;
use crate::source::{QueryMeter, Source};
use crate::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Word classification for one `read_range_with` call. First-wins: a word
/// that this call led the fetch for stays `LED` even though the re-check
/// after the fill sees it cached.
const CLASS_NONE: u8 = 0;
const CLASS_HIT: u8 = 1;
const CLASS_COALESCED: u8 = 2;
const CLASS_LED: u8 = 3;

/// Classifies a word unless an earlier pass already did.
fn classify(class: &mut u8, seen_as: u8) {
    if *class == CLASS_NONE {
        *class = seen_as;
    }
}

/// Words per [`Page`]: one presence bit each in a `u64`.
const PAGE_WORDS: usize = 64;

/// 64 consecutive cache words and which of them are filled. Page `p`
/// holds words `64p .. 64p + 64`; a word's value is meaningful only where
/// its `present` bit is set.
#[derive(Debug)]
struct Page {
    present: u64,
    words: [u64; PAGE_WORDS],
}

/// Splits a word range into its per-page pieces: the page index and the
/// in-page word offsets (`0..64`) the range covers there.
fn page_pieces(words: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
    (words.start / PAGE_WORDS..words.end.div_ceil(PAGE_WORDS)).map(move |p| {
        let base = p * PAGE_WORDS;
        let lo = words.start.max(base) - base;
        let hi = words.end.min(base + PAGE_WORDS) - base;
        (p, lo..hi)
    })
}

/// Presence mask of the non-empty in-page offsets `piece`.
fn piece_mask(piece: &Range<usize>) -> u64 {
    (u64::MAX >> (PAGE_WORDS - piece.len())) << piece.start
}

/// Per-shard cache state, guarded by the shard mutex.
#[derive(Debug, Default)]
struct ShardState {
    /// Pages holding at least one filled word, by page index. Never
    /// evicted.
    pages: DetMap<usize, Box<Page>>,
    /// Presence bits set across `pages`.
    resident: u64,
    /// Word runs currently being fetched upstream by a leader.
    inflight: Vec<Range<usize>>,
    /// Bumped by [`CachedSource::invalidate_all`]; a leader only fills
    /// words if the epoch it claimed under is still current.
    epoch: u64,
}

impl ShardState {
    /// Stores `values` as words `first..`, setting their presence bits.
    fn fill(&mut self, first: usize, values: &[u64]) {
        for (p, piece) in page_pieces(first..first + values.len()) {
            let page = self.pages.entry(p).or_insert_with(|| {
                Box::new(Page {
                    present: 0,
                    words: [0; PAGE_WORDS],
                })
            });
            let from = p * PAGE_WORDS + piece.start - first;
            let mask = piece_mask(&piece);
            page.words[piece.clone()].copy_from_slice(&values[from..from + piece.len()]);
            self.resident += u64::from((mask & !page.present).count_ones());
            page.present |= mask;
        }
    }
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

/// Cumulative counters for a [`CachedSource`], word-granular to match
/// [`ChunkStats`](crate::ChunkStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Words served from the cache without waiting.
    pub hits: u64,
    /// Words that were absent on first classification (led or coalesced).
    pub misses: u64,
    /// Words obtained by waiting on another reader's in-flight fetch.
    pub coalesced: u64,
    /// Upstream [`Source::bits`] calls issued (one per claimed run).
    pub upstream_calls: u64,
    /// Total bits fetched upstream. With no eviction this equals
    /// 64 × unique words touched, clipped at the array tail.
    pub upstream_bits: u64,
    /// Words currently resident across all shards.
    pub resident_words: u64,
}

/// Per-call accounting returned by [`CachedSource::read_range_with`].
///
/// `hit_words + fetched_words + coalesced_words` equals the word span of
/// the requested range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadReceipt {
    /// Words served directly from the cache.
    pub hit_words: u64,
    /// Words this call fetched upstream as a single-flight leader.
    pub fetched_words: u64,
    /// Words another in-flight reader fetched while this call waited.
    pub coalesced_words: u64,
    /// Bits this call fetched upstream (tail-clipped).
    pub fetched_bits: u64,
    /// Upstream `bits` calls this call issued.
    pub upstream_calls: u64,
}

impl ReadReceipt {
    /// Whether this read was served entirely without an upstream query.
    pub fn is_free(&self) -> bool {
        self.upstream_calls == 0
    }

    /// Folds another receipt into this one (per-request aggregation).
    pub fn absorb(&mut self, other: &ReadReceipt) {
        self.hit_words += other.hit_words;
        self.fetched_words += other.fetched_words;
        self.coalesced_words += other.coalesced_words;
        self.fetched_bits += other.fetched_bits;
        self.upstream_calls += other.upstream_calls;
    }
}

/// A sharded, single-flight, word-level cache over an upstream [`Source`].
///
/// See the [module docs](self) for the protocol. `CachedSource` itself
/// implements [`Source`], so anything that reads through the trait — the
/// simulator, the oracle pipeline — transparently gains cross-request
/// amortization.
pub struct CachedSource {
    inner: Arc<dyn Source>,
    len: usize,
    shards: Vec<Shard>,
    /// Words per shard stripe, a whole number of pages (contiguous
    /// striping keeps range reads on few shards).
    stripe: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    upstream_calls: AtomicU64,
    upstream_bits: AtomicU64,
}

impl std::fmt::Debug for CachedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedSource")
            .field("len", &self.len)
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Locks a shard mutex, treating poisoning as recoverable: the protocol
/// invariant (a panicking leader un-claims its runs before unwinding) is
/// restored by the panic path itself, so waiters can safely continue.
fn lock_shard(shard: &Shard) -> MutexGuard<'_, ShardState> {
    shard.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CachedSource {
    /// Wraps `inner` with `shards` cache shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(inner: impl Source + 'static, shards: usize) -> Self {
        Self::from_arc(Arc::new(inner), shards)
    }

    /// Wraps an already-shared source.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn from_arc(inner: Arc<dyn Source>, shards: usize) -> Self {
        assert!(shards > 0, "CachedSource needs at least one shard");
        let len = inner.len();
        let pages_total = len.div_ceil(64).div_ceil(PAGE_WORDS);
        // Every shard gets a contiguous stripe of whole pages, so a page
        // lives in exactly one shard; trailing shards of a small input own
        // nothing. `max(1)` keeps `shard_of` well-defined for empty inputs.
        let stripe = pages_total.div_ceil(shards).max(1) * PAGE_WORDS;
        let shards = (0..shards)
            .map(|_| Shard {
                state: Mutex::new(ShardState::default()),
                cv: Condvar::new(),
            })
            .collect();
        CachedSource {
            inner,
            len,
            shards,
            stripe,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            upstream_calls: AtomicU64::new(0),
            upstream_bits: AtomicU64::new(0),
        }
    }

    /// Shard owning word `w`.
    fn shard_of(&self, w: usize) -> usize {
        (w / self.stripe).min(self.shards.len() - 1)
    }

    /// First word index NOT owned by shard `s` (exclusive stripe end).
    fn stripe_end(&self, s: usize) -> usize {
        if s + 1 == self.shards.len() {
            usize::MAX
        } else {
            (s + 1) * self.stripe
        }
    }

    /// Current cumulative statistics. `resident_words` takes each shard
    /// lock briefly; intended for post-run inspection, not hot paths.
    pub fn stats(&self) -> CacheStats {
        let resident: u64 = self.shards.iter().map(|s| lock_shard(s).resident).sum();
        CacheStats {
            // dr-lint: allow(atomic-ordering): independent monotonic counters; reads are statistical, never gate control flow
            hits: self.hits.load(Ordering::Relaxed),
            // dr-lint: allow(atomic-ordering): independent monotonic counters; reads are statistical, never gate control flow
            misses: self.misses.load(Ordering::Relaxed),
            // dr-lint: allow(atomic-ordering): independent monotonic counters; reads are statistical, never gate control flow
            coalesced: self.coalesced.load(Ordering::Relaxed),
            // dr-lint: allow(atomic-ordering): independent monotonic counters; reads are statistical, never gate control flow
            upstream_calls: self.upstream_calls.load(Ordering::Relaxed),
            // dr-lint: allow(atomic-ordering): independent monotonic counters; reads are statistical, never gate control flow
            upstream_bits: self.upstream_bits.load(Ordering::Relaxed),
            resident_words: resident,
        }
    }

    /// Drops every cached word and bumps each shard's epoch so in-flight
    /// fetches from before the invalidation are discarded, not re-filled.
    pub fn invalidate_all(&self) {
        for shard in &self.shards {
            {
                let mut state = lock_shard(shard);
                state.pages.clear();
                state.resident = 0;
                state.epoch += 1;
            }
            // Wake waiters so they re-classify against the empty map and
            // elect fresh leaders instead of waiting on stale fills.
            shard.cv.notify_all();
        }
    }

    /// Reads `range`, reporting each upstream fetch (as a bit range) to
    /// `on_fetch` *before* returning, and returns the bits plus a
    /// [`ReadReceipt`]. `on_fetch` is the metering hook: pass
    /// `|r| meter.record_range(peer, r)` to charge the leading peer for
    /// exactly the bits that actually went upstream.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()`. Propagates panics from the upstream
    /// source (after un-claiming this call's in-flight runs so parked
    /// waiters re-elect instead of deadlocking).
    pub fn read_range_with(
        &self,
        range: Range<usize>,
        on_fetch: &mut dyn FnMut(Range<usize>),
    ) -> (BitArray, ReadReceipt) {
        assert!(
            range.end <= self.len,
            "range {range:?} out of bounds for source of {} bits",
            self.len
        );
        let mut receipt = ReadReceipt::default();
        if range.is_empty() {
            return (BitArray::zeros(0), receipt);
        }
        // The cache words the range touches land in the buffer the result
        // is built from: one copy, page by page.
        let span = range.start / 64..range.end.div_ceil(64);
        let mut words = vec![0u64; span.len()];
        let mut class = vec![CLASS_NONE; span.len()];
        self.read_word_span(span, &mut words, &mut class, &mut receipt, on_fetch);

        for &c in &class {
            match c {
                CLASS_HIT => receipt.hit_words += 1,
                CLASS_COALESCED => receipt.coalesced_words += 1,
                CLASS_LED => receipt.fetched_words += 1,
                _ => unreachable!("unclassified word after shard pass"),
            }
        }
        // dr-lint: allow(atomic-ordering): independent monotonic counter; statistics only, never gates control flow
        self.hits.fetch_add(receipt.hit_words, Ordering::Relaxed);
        let missed = receipt.fetched_words + receipt.coalesced_words;
        // dr-lint: allow(atomic-ordering): independent monotonic counter; statistics only, never gates control flow
        self.misses.fetch_add(missed, Ordering::Relaxed);
        self.coalesced
            // dr-lint: allow(atomic-ordering): independent monotonic counter; statistics only, never gates control flow
            .fetch_add(receipt.coalesced_words, Ordering::Relaxed);

        // A range that starts inside a word shifts down in place; the
        // span may then be one word longer than the result.
        let shift = range.start % 64;
        if shift != 0 {
            for r in 0..words.len() {
                let above = words.get(r + 1).copied().unwrap_or(0);
                words[r] = words[r] >> shift | above << (64 - shift);
            }
        }
        words.truncate(range.len().div_ceil(64));
        (BitArray::from_words(range.len(), words), receipt)
    }

    /// Resolves cache words `span` into `out`/`class` (one entry per
    /// word), stripe by stripe so each step deals with exactly one
    /// shard's lock.
    fn read_word_span(
        &self,
        span: Range<usize>,
        out: &mut [u64],
        class: &mut [u8],
        receipt: &mut ReadReceipt,
        on_fetch: &mut dyn FnMut(Range<usize>),
    ) {
        let mut w = span.start;
        while w < span.end {
            let s = self.shard_of(w);
            let seg_end = self.stripe_end(s).min(span.end);
            let seg = w - span.start..seg_end - span.start;
            let (seg_out, seg_class) = (&mut out[seg.clone()], &mut class[seg]);
            self.read_shard_span(s, w..seg_end, seg_out, seg_class, receipt, on_fetch);
            w = seg_end;
        }
    }

    /// Resolves words `span` (all owned by shard `s`) into `out`/`class`,
    /// leading or coalescing fetches as needed. Loops until every word in
    /// the span is present.
    fn read_shard_span(
        &self,
        s: usize,
        span: Range<usize>,
        out: &mut [u64],
        class: &mut [u8],
        receipt: &mut ReadReceipt,
        on_fetch: &mut dyn FnMut(Range<usize>),
    ) {
        let shard = &self.shards[s];
        let mut state = lock_shard(shard);
        loop {
            // Walk the span a page at a time under the lock. Present words
            // are copied out; absent words not covered by an in-flight run
            // accumulate into maximal contiguous runs for this call to lead.
            let mut runs: Vec<Range<usize>> = Vec::new();
            let mut wait_needed = false;
            for (p, piece) in page_pieces(span.clone()) {
                let base = p * PAGE_WORDS;
                // `out`/`class` index of in-page offset `b`.
                let at = |b: usize| base + b - span.start;
                let mask = piece_mask(&piece);
                // Only a fully present piece is copied: the pass that
                // returns sees every piece full, and what an earlier pass
                // copies is overwritten by it.
                let present = state.pages.get(&p).map_or(0, |page| {
                    let present = page.present & mask;
                    if present == mask {
                        out[at(piece.start)..at(piece.end)]
                            .copy_from_slice(&page.words[piece.clone()]);
                    }
                    present
                });
                for b in ones_of(present) {
                    classify(&mut class[at(b)], CLASS_HIT);
                }
                for b in ones_of(mask & !present) {
                    let w = base + b;
                    if state.inflight.iter().any(|r| r.contains(&w)) {
                        wait_needed = true;
                        classify(&mut class[at(b)], CLASS_COALESCED);
                    } else {
                        match runs.last_mut() {
                            Some(last) if last.end == w => last.end = w + 1,
                            _ => runs.push(w..w + 1),
                        }
                        classify(&mut class[at(b)], CLASS_LED);
                    }
                }
            }
            if runs.is_empty() {
                if !wait_needed {
                    return;
                }
                // Everything is cached or in flight: park until a leader
                // fills and notifies, then re-classify from scratch.
                state = shard.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Claim the runs, remember the epoch, and fetch unlocked.
            let epoch = state.epoch;
            state.inflight.extend(runs.iter().cloned());
            drop(state);
            self.lead_fetch(s, &runs, epoch, receipt, on_fetch);
            state = lock_shard(shard);
        }
    }

    /// Performs the upstream fetches for `runs` (claimed by this call),
    /// fills the shard's pages, and notifies waiters. On upstream panic,
    /// un-claims the remaining runs and re-raises so parked waiters
    /// re-elect a leader instead of deadlocking.
    fn lead_fetch(
        &self,
        s: usize,
        runs: &[Range<usize>],
        epoch: u64,
        receipt: &mut ReadReceipt,
        on_fetch: &mut dyn FnMut(Range<usize>),
    ) {
        let shard = &self.shards[s];
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for run in runs {
                let bit_lo = run.start * 64;
                let bit_hi = (run.end * 64).min(self.len);
                let fetched = self.inner.bits(bit_lo..bit_hi);
                assert_eq!(
                    fetched.len(),
                    bit_hi - bit_lo,
                    "upstream returned the wrong number of bits for {bit_lo}..{bit_hi}"
                );
                {
                    let mut state = lock_shard(shard);
                    state.inflight.retain(|r| r != run);
                    if state.epoch == epoch {
                        state.fill(run.start, fetched.as_words());
                    }
                }
                shard.cv.notify_all();
                let nbits = (bit_hi - bit_lo) as u64;
                receipt.fetched_bits += nbits;
                receipt.upstream_calls += 1;
                // dr-lint: allow(atomic-ordering): independent monotonic counter; statistics only, never gates control flow
                self.upstream_calls.fetch_add(1, Ordering::Relaxed);
                // dr-lint: allow(atomic-ordering): independent monotonic counter; statistics only, never gates control flow
                self.upstream_bits.fetch_add(nbits, Ordering::Relaxed);
                on_fetch(bit_lo..bit_hi);
            }
        }));
        if let Err(payload) = outcome {
            // The panicking run and any not-yet-fetched runs are still
            // claimed; release them so waiters can lead their own fetch.
            {
                let mut state = lock_shard(shard);
                state.inflight.retain(|r| !runs.contains(r));
            }
            shard.cv.notify_all();
            resume_unwind(payload);
        }
    }
}

impl Source for CachedSource {
    fn len(&self) -> usize {
        self.len
    }

    fn bit(&self, index: usize) -> bool {
        self.bits(index..index + 1).get(0)
    }

    fn bits(&self, range: Range<usize>) -> BitArray {
        self.read_range_with(range, &mut |_| {}).0
    }
}

/// A [`CachedSource`] bundled with a [`QueryMeter`], handing out per-peer
/// [`PlaneHandle`]s that attribute *amortized* query cost: a peer is
/// charged only for the bits its reads actually pulled upstream.
///
/// Reads flow through the cache, so two handles asking overlapping ranges
/// pay `Q` once between them.
#[derive(Debug, Clone)]
pub struct AdmissionPlane {
    cache: Arc<CachedSource>,
    meter: Arc<QueryMeter>,
}

impl AdmissionPlane {
    /// Builds a plane over `source` for `num_peers` metered peers with
    /// `shards` cache shards.
    pub fn new(source: impl Source + 'static, num_peers: usize, shards: usize) -> Self {
        AdmissionPlane {
            cache: Arc::new(CachedSource::new(source, shards)),
            meter: Arc::new(QueryMeter::new(num_peers)),
        }
    }

    /// Builds a plane around an existing cache (e.g. one also registered
    /// with a simulator) and its meter.
    pub fn from_parts(cache: Arc<CachedSource>, meter: Arc<QueryMeter>) -> Self {
        AdmissionPlane { cache, meter }
    }

    /// The underlying cache.
    pub fn cache(&self) -> &Arc<CachedSource> {
        &self.cache
    }

    /// The shared meter.
    pub fn meter(&self) -> &Arc<QueryMeter> {
        &self.meter
    }

    /// Bits in the underlying source.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the underlying source is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.len() == 0
    }

    /// A handle that attributes amortized cost to `peer`.
    pub fn handle(&self, peer: PeerId) -> PlaneHandle {
        PlaneHandle {
            cache: Arc::clone(&self.cache),
            meter: Arc::clone(&self.meter),
            peer,
        }
    }
}

/// A peer-attributed reader over an [`AdmissionPlane`].
#[derive(Debug, Clone)]
pub struct PlaneHandle {
    cache: Arc<CachedSource>,
    meter: Arc<QueryMeter>,
    peer: PeerId,
}

impl PlaneHandle {
    /// The peer this handle charges.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// Reads `range` through the cache, charging this handle's peer for
    /// exactly the bit ranges that went upstream (nothing on hits or
    /// coalesced waits).
    pub fn query_range(&self, range: Range<usize>) -> (BitArray, ReadReceipt) {
        let meter = &self.meter;
        let peer = self.peer;
        self.cache
            .read_range_with(range, &mut |r| meter.record_range(peer, r))
    }

    /// Reads a single bit through the cache (metered like
    /// [`PlaneHandle::query_range`] with a 1-bit range).
    pub fn query(&self, index: usize) -> (bool, ReadReceipt) {
        let (bits, receipt) = self.query_range(index..index + 1);
        (bits.get(0), receipt)
    }
}

#[cfg(all(test, not(feature = "loom-model")))]
mod tests {
    use super::*;
    use crate::source::ArraySource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(n: usize, seed: u64) -> BitArray {
        let mut rng = StdRng::seed_from_u64(seed);
        BitArray::random(n, &mut rng)
    }

    #[test]
    fn cached_reads_are_bit_identical() {
        let n = 1000;
        let input = sample(n, 7);
        let cache = CachedSource::new(ArraySource::new(input.clone()), 4);
        for range in [0..0, 0..1, 63..65, 0..n, 17..991, 128..256, 960..1000] {
            let got = cache.bits(range.clone());
            assert_eq!(got, input.slice(range.clone()), "range {range:?}");
            // Warm pass must agree too.
            assert_eq!(cache.bits(range.clone()), input.slice(range));
        }
    }

    #[test]
    fn repeat_reads_hit_without_upstream_traffic() {
        let input = sample(640, 3);
        let cache = CachedSource::new(ArraySource::new(input.clone()), 2);
        let (_, cold) = cache.read_range_with(64..320, &mut |_| {});
        assert_eq!(cold.fetched_words, 4);
        assert_eq!(cold.fetched_bits, 256);
        assert_eq!(
            cold.upstream_calls, 1,
            "contiguous run batches into one call"
        );
        let (_, warm) = cache.read_range_with(64..320, &mut |_| {});
        assert!(warm.is_free());
        assert_eq!(warm.hit_words, 4);
        let stats = cache.stats();
        assert_eq!(stats.upstream_bits, 256);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.resident_words, 4);
    }

    #[test]
    fn partial_overlap_fetches_only_the_gap() {
        let input = sample(1024, 11);
        let cache = CachedSource::new(ArraySource::new(input.clone()), 1);
        let (_, first) = cache.read_range_with(0..256, &mut |_| {});
        assert_eq!(first.fetched_words, 4);
        // Overlaps words 2..4, extends to 8: only 4 new words fetched.
        let mut fetched = Vec::new();
        let (bits, second) = cache.read_range_with(128..512, &mut |r| fetched.push(r));
        assert_eq!(bits, input.slice(128..512));
        assert_eq!(second.hit_words, 2);
        assert_eq!(second.fetched_words, 4);
        assert_eq!(fetched, vec![256..512]);
    }

    #[test]
    fn tail_word_is_clipped() {
        let n = 130; // 3 words, last holds 2 bits
        let input = sample(n, 5);
        let cache = CachedSource::new(ArraySource::new(input.clone()), 3);
        let (bits, receipt) = cache.read_range_with(0..n, &mut |_| {});
        assert_eq!(bits, input);
        assert_eq!(receipt.fetched_words, 3);
        assert_eq!(receipt.fetched_bits, n as u64);
    }

    #[test]
    fn invalidate_all_refetches() {
        let input = sample(256, 9);
        let cache = CachedSource::new(ArraySource::new(input.clone()), 2);
        cache.bits(0..256);
        assert_eq!(cache.stats().resident_words, 4);
        cache.invalidate_all();
        assert_eq!(cache.stats().resident_words, 0);
        assert_eq!(cache.bits(0..256), input);
        assert_eq!(cache.stats().upstream_bits, 512);
    }

    #[test]
    fn plane_handle_meters_amortized_cost() {
        let input = sample(512, 21);
        let plane = AdmissionPlane::new(ArraySource::new(input.clone()), 3, 2);
        let a = plane.handle(PeerId(0));
        let b = plane.handle(PeerId(1));
        let (bits_a, ra) = a.query_range(0..256);
        assert_eq!(bits_a, input.slice(0..256));
        assert_eq!(ra.fetched_bits, 256);
        assert_eq!(plane.meter().count(PeerId(0)), 256);
        // Full overlap: peer 1 pays nothing.
        let (bits_b, rb) = b.query_range(0..256);
        assert_eq!(bits_b, input.slice(0..256));
        assert!(rb.is_free());
        assert_eq!(plane.meter().count(PeerId(1)), 0);
        // Partial overlap: peer 1 pays only the gap.
        let (_, rb2) = b.query_range(128..512);
        assert_eq!(rb2.fetched_bits, 256);
        assert_eq!(plane.meter().count(PeerId(1)), 256);
    }

    #[test]
    fn leader_panic_unclaims_and_unwinds() {
        struct Grenade;
        impl Source for Grenade {
            fn len(&self) -> usize {
                128
            }
            fn bit(&self, _index: usize) -> bool {
                panic!("upstream exploded");
            }
        }
        let cache = Arc::new(CachedSource::new(Grenade, 1));
        let result = catch_unwind(AssertUnwindSafe(|| cache.bits(0..128)));
        assert!(result.is_err());
        // The failed claim must not linger: a later reader must classify
        // the words as absent (and panic again on fetch, not deadlock).
        let again = catch_unwind(AssertUnwindSafe(|| cache.bits(0..128)));
        assert!(again.is_err());
        assert_eq!(cache.stats().upstream_bits, 0);
    }

    #[test]
    fn concurrent_overlap_fetches_each_word_once() {
        let n = 64 * 64;
        let input = sample(n, 33);
        let cache = Arc::new(CachedSource::new(ArraySource::new(input.clone()), 4));
        // dr-lint: allow(raw-thread-spawn): concurrent reader threads in a test, joined by scope exit
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                let input = &input;
                scope.spawn(move || {
                    let lo = (t % 4) * 512;
                    let got = cache.bits(lo..lo + 2048);
                    assert_eq!(got, input.slice(lo..lo + 2048));
                });
            }
        });
        let stats = cache.stats();
        // Words 0..3584 bits... threads cover bits 0..3584 → 56 words.
        assert_eq!(stats.upstream_bits, 3584);
        assert_eq!(stats.resident_words, 56);
        assert_eq!(stats.hits + stats.misses, 8 * 32);
    }
}
