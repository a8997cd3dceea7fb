//! Query admission plane: a sharded, word-level cache over [`Source`] that
//! fetches each word upstream at most once.
//!
//! Every query a peer sends to the external source costs real money in the
//! oracle-network deployments the paper's §4 motivates; when many clients
//! pull overlapping ranges through one fleet, re-paying `Q` per request is
//! pure waste. [`CachedSource`] sits between callers and an upstream
//! [`Source`] and guarantees each 64-bit word of the input is fetched
//! upstream **at most once**, however many threads read it:
//!
//! * **Word-level cache, stored in pages.** The keyspace is word indices
//!   (`bit / 64`), and a word is the unit of presence and billing. Storage
//!   is by *page*: 64 consecutive words and one `u64` of presence bits
//!   (520 bytes per 4096 bits of input), allocated when the first of its
//!   words is filled and held in the owning shard's [`DetMap`] by page
//!   index, so memory stays proportional to what was touched. Words are
//!   striped contiguously across shards in whole pages — **a page lives
//!   in exactly one shard** — so adjacent words share a lock and a range
//!   read takes few of them. A read walks its span a page at a time under
//!   the shard mutex: one map lookup per page, a page's piece copied out
//!   with one `copy_from_slice`, the absent words read off
//!   `mask & !present`.
//! * **Fetches under the shard lock.** The absent words of a span collect
//!   into maximal contiguous runs, and each run is one upstream
//!   [`Source::bits`] call made while the shard mutex is still held; the
//!   words are stored before it is released. A concurrent reader of the
//!   same shard waits on the mutex and then finds the words present, so
//!   at-most-once needs no in-flight bookkeeping. Reads of other shards
//!   go on meanwhile.
//! * **Range batching.** Because runs are maximal, `r` adjacent missing
//!   words become one upstream `bits` call riding the word-level fast
//!   paths instead of `r` round trips.
//!
//! Metering stays with the caller, exactly as the [`Source`] contract
//! demands: [`CachedSource`] never touches a [`QueryMeter`]. Instead
//! [`CachedSource::read_range_with`] reports each upstream fetch through a
//! callback, called once the shard lock is released so caller code never
//! runs under it, and returns a [`ReadReceipt`], so fronting layers (the
//! `dr-runtime` front door, the oracle ODC pipeline) can attribute
//! *amortized* query cost: the reading peer is charged for the words it
//! fetched, cache hits are free. Under any interleaving, total metered
//! upstream bits equal 64 × the number of unique words touched (clipped
//! at the tail) — the invariant the meter-equivalence suite pins.
//!
//! A read stores nothing until all of its upstream calls have returned.
//! An upstream panic therefore unwinds through the read, and poisons the
//! shard mutex, with the shard's state as it was; the next lock takes the
//! guard back and later reads fetch the words again.
//!
//! Memory ordering: the shard mutexes carry every cross-thread hand-over
//! of cached words; the statistics counters are independent monotonic
//! `Relaxed` atomics that never gate control flow (see DESIGN.md §4).

use crate::bits::{ones_of, BitArray};
use crate::collections::DetMap;
use crate::peer::PeerId;
use crate::source::{QueryMeter, Source};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Word classification for one `read_range_with` call, one byte per word
/// of its span: served from the cache, or fetched upstream by the call.
const CLASS_HIT: u8 = 1;
const CLASS_FETCHED: u8 = 2;

/// Words per [`Page`]: one presence bit each in a `u64`.
const PAGE_WORDS: usize = 64;

/// 64 consecutive cache words and which of them are filled. Page `p`
/// holds words `64p .. 64p + 64`; a word's value is meaningful only where
/// its `present` bit is set (the others read as 0).
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

/// Cumulative counters for a [`CachedSource`], word-granular to match
/// [`ChunkStats`](crate::ChunkStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Words served from the cache.
    pub hits: u64,
    /// Words that were absent and fetched upstream.
    pub misses: u64,
    /// Always 0: a reader that misses on a word another reader is
    /// fetching waits on the shard lock and then counts a hit. Kept while
    /// the serving benchmark still reports it.
    pub coalesced: u64,
    /// Upstream [`Source::bits`] calls issued (one per fetched run).
    pub upstream_calls: u64,
    /// Total bits fetched upstream. With no eviction this equals
    /// 64 × unique words touched, clipped at the array tail.
    pub upstream_bits: u64,
    /// Words currently resident across all shards.
    pub resident_words: u64,
}

/// Per-call accounting returned by [`CachedSource::read_range_with`].
///
/// `hit_words + fetched_words` equals the word span of the requested
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadReceipt {
    /// Words served directly from the cache.
    pub hit_words: u64,
    /// Words this call fetched upstream.
    pub fetched_words: u64,
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
        self.fetched_bits += other.fetched_bits;
        self.upstream_calls += other.upstream_calls;
    }
}

/// A sharded, word-level cache over an upstream [`Source`].
///
/// How it reads is described in the module docs of `cached.rs`.
/// `CachedSource` itself implements [`Source`], so anything that reads
/// through the trait — the simulator, the oracle pipeline — transparently
/// gains cross-request amortization. The upstream must not read back through the same cache:
/// it is called under a shard lock.
pub struct CachedSource {
    inner: Box<dyn Source>,
    len: usize,
    shards: Vec<Mutex<ShardState>>,
    /// Words per shard stripe, a whole number of pages (contiguous
    /// striping keeps range reads on few shards).
    stripe: usize,
    hits: AtomicU64,
    misses: AtomicU64,
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

/// Locks a shard, treating poisoning as recoverable: a read stores
/// nothing until its upstream calls have returned, so a panic leaves the
/// state as it found it.
fn lock_shard(shard: &Mutex<ShardState>) -> MutexGuard<'_, ShardState> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CachedSource {
    /// Wraps `inner` with `shards` cache shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(inner: impl Source + 'static, shards: usize) -> Self {
        assert!(shards > 0, "CachedSource needs at least one shard");
        let len = inner.len();
        let pages_total = len.div_ceil(64).div_ceil(PAGE_WORDS);
        // Every shard gets a contiguous stripe of whole pages, so a page
        // lives in exactly one shard; trailing shards of a small input own
        // nothing. `max(1)` keeps `shard_of` well-defined for empty inputs.
        let stripe = pages_total.div_ceil(shards).max(1) * PAGE_WORDS;
        CachedSource {
            inner: Box::new(inner),
            len,
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            stripe,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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

    /// The bits of cache words `run`, clipped at the array tail.
    fn run_bits(&self, run: &Range<usize>) -> Range<usize> {
        run.start * 64..(run.end * 64).min(self.len)
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
            coalesced: 0,
            // dr-lint: allow(atomic-ordering): independent monotonic counters; reads are statistical, never gate control flow
            upstream_calls: self.upstream_calls.load(Ordering::Relaxed),
            // dr-lint: allow(atomic-ordering): independent monotonic counters; reads are statistical, never gate control flow
            upstream_bits: self.upstream_bits.load(Ordering::Relaxed),
            resident_words: resident,
        }
    }

    /// Reads `range`, reporting each upstream fetch (as a bit range) to
    /// `on_fetch` *before* returning, and returns the bits plus a
    /// [`ReadReceipt`]. `on_fetch` is the metering hook: pass
    /// `|r| meter.record_range(peer, r)` to charge the reading peer for
    /// exactly the bits that actually went upstream.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()`. Propagates panics from the upstream
    /// source; the cache stays usable (see the module docs).
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
        // is built from, stripe by stripe so each step deals with exactly
        // one shard's lock.
        let span = range.start / 64..range.end.div_ceil(64);
        let mut words = vec![0u64; span.len()];
        let mut class = vec![CLASS_FETCHED; span.len()];
        let mut w = span.start;
        while w < span.end {
            let s = self.shard_of(w);
            let seg_end = self.stripe_end(s).min(span.end);
            let seg = w - span.start..seg_end - span.start;
            let (out, seg_class) = (&mut words[seg.clone()], &mut class[seg]);
            self.read_shard_span(s, w..seg_end, out, seg_class, &mut receipt, on_fetch);
            w = seg_end;
        }
        for &c in &class {
            match c {
                CLASS_HIT => receipt.hit_words += 1,
                _ => receipt.fetched_words += 1,
            }
        }
        // dr-lint: allow(atomic-ordering): independent monotonic counter; statistics only, never gates control flow
        self.hits.fetch_add(receipt.hit_words, Ordering::Relaxed);
        self.misses
            // dr-lint: allow(atomic-ordering): independent monotonic counter; statistics only, never gates control flow
            .fetch_add(receipt.fetched_words, Ordering::Relaxed);

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

    /// Reads words `span`, all owned by shard `s`, into `out` and marks
    /// the present ones in `class` (one entry per word of each). One pass
    /// under the shard lock copies out every page piece and collects the
    /// absent words into maximal runs; each run is then fetched upstream,
    /// still under the lock, stored, and written over its place in `out`.
    /// `on_fetch` hears each fetched bit range once the lock is released.
    fn read_shard_span(
        &self,
        s: usize,
        span: Range<usize>,
        out: &mut [u64],
        class: &mut [u8],
        receipt: &mut ReadReceipt,
        on_fetch: &mut dyn FnMut(Range<usize>),
    ) {
        let mut state = lock_shard(&self.shards[s]);
        let mut runs: Vec<Range<usize>> = Vec::new();
        for (p, piece) in page_pieces(span.clone()) {
            let base = p * PAGE_WORDS;
            let mask = piece_mask(&piece);
            let present = state.pages.get(&p).map_or(0, |page| {
                out[base + piece.start - span.start..base + piece.end - span.start]
                    .copy_from_slice(&page.words[piece.clone()]);
                page.present & mask
            });
            for b in ones_of(present) {
                class[base + b - span.start] = CLASS_HIT;
            }
            for b in ones_of(mask & !present) {
                let w = base + b;
                match runs.last_mut() {
                    Some(last) if last.end == w => last.end = w + 1,
                    _ => runs.push(w..w + 1),
                }
            }
        }
        // Every upstream call returns before anything is stored, so a
        // panicking one leaves the shard as this read found it.
        let fetched: Vec<BitArray> = runs
            .iter()
            .map(|run| {
                let bits = self.run_bits(run);
                let got = self.inner.bits(bits.clone());
                assert_eq!(
                    got.len(),
                    bits.len(),
                    "upstream returned the wrong number of bits for {bits:?}"
                );
                got
            })
            .collect();
        for (run, got) in runs.iter().zip(&fetched) {
            state.fill(run.start, got.as_words());
            out[run.start - span.start..run.end - span.start].copy_from_slice(got.as_words());
            let nbits = got.len() as u64;
            // dr-lint: allow(atomic-ordering): independent monotonic counter; statistics only, never gates control flow
            self.upstream_calls.fetch_add(1, Ordering::Relaxed);
            // dr-lint: allow(atomic-ordering): independent monotonic counter; statistics only, never gates control flow
            self.upstream_bits.fetch_add(nbits, Ordering::Relaxed);
            receipt.fetched_bits += nbits;
            receipt.upstream_calls += 1;
        }
        drop(state);
        for run in &runs {
            on_fetch(self.run_bits(run));
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

/// A [`CachedSource`] bundled with a [`QueryMeter`] that attributes
/// *amortized* query cost: [`AdmissionPlane::query_range`] charges a peer
/// only for the bits its read actually pulled upstream.
///
/// Reads flow through the cache, so two peers asking overlapping ranges
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

    /// Reads `range` through the cache, charging `peer` for exactly the
    /// bit ranges that went upstream (nothing on hits).
    pub fn query_range(&self, peer: PeerId, range: Range<usize>) -> (BitArray, ReadReceipt) {
        let meter = &self.meter;
        self.cache
            .read_range_with(range, &mut |r| meter.record_range(peer, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ArraySource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;

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
    fn on_fetch_runs_outside_the_shard_lock() {
        let input = sample(8192, 17);
        let cache = CachedSource::new(ArraySource::new(input), 2);
        let mut heard = Vec::new();
        cache.read_range_with(0..8192, &mut |r| {
            assert!(cache.shards.iter().all(|s| s.try_lock().is_ok()));
            heard.push(r);
        });
        assert_eq!(heard, vec![0..4096, 4096..8192], "one run per shard");
    }

    #[test]
    fn plane_meters_amortized_cost() {
        let input = sample(512, 21);
        let plane = AdmissionPlane::new(ArraySource::new(input.clone()), 3, 2);
        let (bits_a, ra) = plane.query_range(PeerId(0), 0..256);
        assert_eq!(bits_a, input.slice(0..256));
        assert_eq!(ra.fetched_bits, 256);
        assert_eq!(plane.meter().count(PeerId(0)), 256);
        // Full overlap: peer 1 pays nothing.
        let (bits_b, rb) = plane.query_range(PeerId(1), 0..256);
        assert_eq!(bits_b, input.slice(0..256));
        assert!(rb.is_free());
        assert_eq!(plane.meter().count(PeerId(1)), 0);
        // Partial overlap: peer 1 pays only the gap.
        let (_, rb2) = plane.query_range(PeerId(1), 128..512);
        assert_eq!(rb2.fetched_bits, 256);
        assert_eq!(plane.meter().count(PeerId(1)), 256);
    }

    #[test]
    fn an_upstream_panic_leaves_the_cache_usable() {
        struct Grenade;
        impl Source for Grenade {
            fn len(&self) -> usize {
                128
            }
            fn bit(&self, _index: usize) -> bool {
                panic!("upstream exploded");
            }
        }
        let cache = CachedSource::new(Grenade, 1);
        let result = catch_unwind(AssertUnwindSafe(|| cache.bits(0..128)));
        assert!(result.is_err());
        // A later reader finds the words absent and panics again on its
        // own fetch instead of blocking.
        let again = catch_unwind(AssertUnwindSafe(|| cache.bits(0..128)));
        assert!(again.is_err());
        assert_eq!(cache.stats(), CacheStats::default());

        /// Panics on its first `bits` call only.
        struct PanicsOnce {
            inner: ArraySource,
            armed: AtomicBool,
        }
        impl Source for PanicsOnce {
            fn len(&self) -> usize {
                self.inner.len()
            }
            fn bit(&self, index: usize) -> bool {
                self.inner.bit(index)
            }
            fn bits(&self, range: Range<usize>) -> BitArray {
                // dr-lint: allow(atomic-ordering): a flag this test's one thread reads and clears; it orders nothing
                let armed = self.armed.swap(false, Ordering::Relaxed);
                assert!(!armed, "upstream exploded once");
                Source::bits(&self.inner, range)
            }
        }
        let input = sample(256, 13);
        let cache = CachedSource::new(
            PanicsOnce {
                inner: ArraySource::new(input.clone()),
                armed: AtomicBool::new(true),
            },
            1,
        );
        let blown = catch_unwind(AssertUnwindSafe(|| cache.bits(0..256)));
        assert!(blown.is_err(), "the upstream panic reaches the caller");
        assert!(
            cache.shards[0].is_poisoned(),
            "the panic unwound through the shard lock"
        );
        assert_eq!(cache.bits(0..256), input);
        let stats = cache.stats();
        assert_eq!(stats.upstream_bits, 256, "only the successful fetch");
        assert_eq!(stats.upstream_calls, 1);
        assert_eq!(stats.resident_words, 4);
        assert_eq!(cache.bits(0..256), input);
        assert_eq!(cache.stats().hits, 4);
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
        // Threads cover bits 0..3584 → 56 words.
        assert_eq!(stats.upstream_bits, 3584);
        assert_eq!(stats.resident_words, 56);
        assert_eq!(stats.hits + stats.misses, 8 * 32);
    }
}
