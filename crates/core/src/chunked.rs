//! A streaming, generate-on-demand external data source.
//!
//! [`ArraySource`](crate::ArraySource) materializes all `n` bits in RAM,
//! which caps simulated runs at whatever the host can hold. The paper's
//! setting is the opposite regime — the input is *external* precisely
//! because no single machine wants to store it — so billion-bit
//! experiments need a source whose resident footprint is bounded and
//! independent of `n`.
//!
//! [`ChunkedSource`] derives every 64-bit word of the array from a seed
//! with a splitmix64-style finalizer, materializing words lazily in
//! fixed-size chunks. A bounded FIFO cache keeps recently generated
//! chunks resident; everything else is regenerated on demand. Because
//! word values are pure functions of `(seed, word index)`, query results
//! are identical regardless of cache geometry or access order — the
//! static-data assumption holds by construction, and the same `(len,
//! seed)` pair always denotes the same array (so a verifier can rebuild
//! an equivalent source independently of the run it checks).
//!
//! The chunk size is a whole number of words, so chunk boundaries are
//! word-aligned and the [`Source::bits`] override assembles word-level
//! output (shift/mask across word boundaries) without per-bit loops —
//! the same fast path [`ArraySource`](crate::ArraySource) uses.
//!
//! [`Source::bits`] and [`Source::bits_masked`] walk their range a chunk
//! at a time: one cache lookup per chunk visited, then plain slice reads.
//! The counters stay word-granular all the same. A chunk visit is charged
//! the number of word reads the range makes in it — the first a miss if
//! the chunk had to be generated, the rest hits — which is exactly what
//! looking the words up one at a time counted, because reads ascend and
//! nothing can evict a chunk between two reads of it. A hit therefore
//! costs a slice copy, a miss a chunk of `word_value` calls.

use crate::bits::BitArray;
use crate::collections::DetMap;
use crate::source::Source;
use crate::sync::{Mutex, MutexGuard, PoisonError};
use std::collections::VecDeque;
use std::ops::Range;

/// Default words per chunk (1024 words = 64 Kibit = 8 KiB per chunk).
const DEFAULT_CHUNK_WORDS: usize = 1024;

/// Default maximum resident chunks (64 × 8 KiB = 512 KiB resident).
const DEFAULT_MAX_RESIDENT: usize = 64;

/// Derives word `w` of the array from the seed: a splitmix64-style
/// finalizer over the word index. Pure, so any two sources with equal
/// `(seed, len)` agree on every bit forever.
fn word_value(seed: u64, w: u64) -> u64 {
    let mut z = seed ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Point-in-time cache statistics of a [`ChunkedSource`].
///
/// `hits`/`misses` are word-granular — one count per word read, hit when
/// the word's chunk was resident — matching the admission plane's
/// [`CacheStats`](crate::CacheStats) accounting so the two cache layers
/// report comparable numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStats {
    /// Chunks generated so far (including regenerations after eviction).
    pub generated: u64,
    /// Chunks evicted so far.
    pub evicted: u64,
    /// Word reads served by a resident chunk.
    pub hits: u64,
    /// Word reads that had to generate their chunk first.
    pub misses: u64,
    /// Peak number of simultaneously resident chunks.
    pub peak_resident: usize,
    /// Chunks resident right now.
    pub resident: usize,
}

struct ChunkCache {
    /// Resident chunks, keyed by chunk index. Deterministic map: the
    /// cache never influences results, but det-tier code stays free of
    /// unordered iteration by policy.
    chunks: DetMap<usize, Vec<u64>>,
    /// Insertion order for FIFO eviction.
    fifo: VecDeque<usize>,
    generated: u64,
    evicted: u64,
    hits: u64,
    misses: u64,
    peak_resident: usize,
}

impl ChunkCache {
    /// The words of `chunk`, generated (and older chunks evicted) first if
    /// it is not resident, with `reads > 0` word reads counted against it:
    /// the first misses if the chunk had to be generated, all others hit.
    /// Exactly what `reads` one-word lookups in a row would count, since
    /// nothing can evict a chunk between two reads of it.
    fn chunk(
        &mut self,
        seed: u64,
        chunk_words: usize,
        max_resident: usize,
        chunk: usize,
        reads: u64,
    ) -> &[u64] {
        if self.chunks.contains_key(&chunk) {
            self.hits += reads;
        } else {
            self.misses += 1;
            self.hits += reads - 1;
            // Make room first so residency never exceeds the cap, even
            // transiently.
            while self.chunks.len() >= max_resident {
                let oldest = self.fifo.pop_front().expect("fifo tracks chunks");
                self.chunks.remove(&oldest);
                self.evicted += 1;
            }
            let base = (chunk * chunk_words) as u64;
            let words: Vec<u64> = (0..chunk_words as u64)
                .map(|i| word_value(seed, base + i))
                .collect();
            self.chunks.insert(chunk, words);
            self.fifo.push_back(chunk);
            self.generated += 1;
            self.peak_resident = self.peak_resident.max(self.chunks.len());
        }
        &self.chunks[&chunk]
    }

    /// Reads global word `w`: one read of its chunk.
    fn word(&mut self, seed: u64, chunk_words: usize, max_resident: usize, w: usize) -> u64 {
        self.chunk(seed, chunk_words, max_resident, w / chunk_words, 1)[w % chunk_words]
    }
}

/// A seeded source that generates word blocks on demand and keeps only a
/// bounded set of chunks resident — `n` can exceed RAM by orders of
/// magnitude. See the module docs for the determinism argument.
pub struct ChunkedSource {
    len: usize,
    seed: u64,
    chunk_words: usize,
    max_resident: usize,
    cache: Mutex<ChunkCache>,
}

impl ChunkedSource {
    /// Creates a source of `len` bits derived from `seed`, with the
    /// default geometry (8 KiB chunks, at most 64 resident).
    pub fn new(len: usize, seed: u64) -> Self {
        ChunkedSource::with_geometry(len, seed, DEFAULT_CHUNK_WORDS, DEFAULT_MAX_RESIDENT)
    }

    /// Creates a source with explicit geometry: `chunk_words` 64-bit
    /// words per chunk and at most `max_resident` chunks cached. Results
    /// are independent of the geometry — only generation/eviction
    /// traffic changes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_words` or `max_resident` is zero.
    pub fn with_geometry(len: usize, seed: u64, chunk_words: usize, max_resident: usize) -> Self {
        assert!(chunk_words >= 1, "chunk_words must be at least 1");
        assert!(max_resident >= 1, "max_resident must be at least 1");
        ChunkedSource {
            len,
            seed,
            chunk_words,
            max_resident,
            cache: Mutex::new(ChunkCache {
                chunks: DetMap::new(),
                fifo: VecDeque::new(),
                generated: 0,
                evicted: 0,
                hits: 0,
                misses: 0,
                peak_resident: 0,
            }),
        }
    }

    /// The seed this source derives its bits from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Maximum chunks the cache may keep resident.
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    /// Current cache statistics (generation, eviction, residency peaks).
    pub fn stats(&self) -> ChunkStats {
        let cache = self.cache();
        ChunkStats {
            generated: cache.generated,
            evicted: cache.evicted,
            hits: cache.hits,
            misses: cache.misses,
            peak_resident: cache.peak_resident,
            resident: cache.chunks.len(),
        }
    }

    fn word_count(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// Locks the chunk cache, ignoring poisoning: every chunk is a pure
    /// function of the seed, so a panic under the lock can upset the
    /// cache's bookkeeping but never a word it returns.
    fn cache(&self) -> MutexGuard<'_, ChunkCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for ChunkedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedSource")
            .field("len", &self.len)
            .field("seed", &self.seed)
            .field("chunk_words", &self.chunk_words)
            .field("max_resident", &self.max_resident)
            .finish()
    }
}

impl Source for ChunkedSource {
    fn len(&self) -> usize {
        self.len
    }

    fn bit(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mut cache = self.cache();
        let word = cache.word(self.seed, self.chunk_words, self.max_resident, index / 64);
        word & (1 << (index % 64)) != 0
    }

    fn bits(&self, range: Range<usize>) -> BitArray {
        assert!(
            range.end <= self.len,
            "bits {range:?} out of range {}",
            self.len
        );
        let out_len = range.len();
        let out_words = out_len.div_ceil(64);
        let (w0, sh) = (range.start / 64, range.start % 64);
        // Output word r spans source words w0 + r and, off a word
        // boundary, w0 + r + 1. Each of those counts as one read of its
        // word, as it did when words were looked up one at a time: `lo`
        // reads w0..w0 + out_words, `hi` reads the same run shifted by
        // one. Words past the end read as zero and are not counted.
        let lo = w0..w0 + out_words;
        let hi = if sh == 0 || out_words == 0 {
            0..0
        } else {
            w0 + 1..w0 + out_words + 1
        };
        let end = lo.end.max(hi.end).min(self.word_count());
        let overlap = |a: &Range<usize>, b: &Range<usize>| {
            (a.end.min(b.end).saturating_sub(a.start.max(b.start))) as u64
        };
        let mut src = Vec::with_capacity(out_words + 1);
        let mut cache = self.cache();
        let mut w = w0;
        while w < end {
            let chunk = w / self.chunk_words;
            let base = chunk * self.chunk_words;
            let here = w..end.min(base + self.chunk_words);
            let reads = overlap(&here, &lo) + overlap(&here, &hi);
            let words = cache.chunk(self.seed, self.chunk_words, self.max_resident, chunk, reads);
            src.extend_from_slice(&words[here.start - base..here.end - base]);
            w = here.end;
        }
        src.resize(out_words + 1, 0);
        if sh != 0 {
            for r in 0..out_words {
                src[r] = src[r] >> sh | src[r + 1] << (64 - sh);
            }
        }
        src.truncate(out_words);
        BitArray::from_words(out_len, src)
    }

    /// One lock acquisition and one cache lookup per chunk that the mask
    /// selects anything from, instead of one of each per selected bit.
    /// Chunks are visited in the same ascending order as by the per-bit
    /// default and every selected bit still counts as a read of its word,
    /// so all of [`ChunkStats`] comes out the same.
    fn bits_masked(&self, mask: &BitArray) -> BitArray {
        assert!(
            mask.len() <= self.len,
            "mask of {} bits over a source of {}",
            mask.len(),
            self.len
        );
        let mut words = vec![0u64; mask.word_count()];
        let mut cache = self.cache();
        let selected = mask.as_words().chunks(self.chunk_words);
        for (chunk, (selected, out)) in selected.zip(words.chunks_mut(self.chunk_words)).enumerate()
        {
            let reads = selected.iter().map(|s| u64::from(s.count_ones())).sum();
            if reads == 0 {
                continue;
            }
            let values = cache.chunk(self.seed, self.chunk_words, self.max_resident, chunk, reads);
            for ((out, &s), &v) in out.iter_mut().zip(selected).zip(values) {
                *out = v & s;
            }
        }
        BitArray::from_words(mask.len(), words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same array accessed through the per-bit default path, with no
    /// caching — the semantic reference for `bits` overrides.
    struct PerBitReference {
        len: usize,
        seed: u64,
    }

    impl Source for PerBitReference {
        fn len(&self) -> usize {
            self.len
        }
        fn bit(&self, index: usize) -> bool {
            word_value(self.seed, (index / 64) as u64) & (1 << (index % 64)) != 0
        }
    }

    #[test]
    fn bits_matches_per_bit_default() {
        let n = 1000;
        // Tiny chunks and a 2-chunk cache so ranges cross chunk
        // boundaries and force evictions mid-range.
        let src = ChunkedSource::with_geometry(n, 99, 4, 2);
        let reference = PerBitReference { len: n, seed: 99 };
        for range in [
            0..n,
            0..0,
            0..64,
            63..65,
            7..999,
            512..768,
            999..1000,
            250..260,
        ] {
            assert_eq!(
                src.bits(range.clone()),
                reference.bits(range.clone()),
                "range {range:?}"
            );
        }
    }

    /// A `ChunkedSource` seen through `len` and `bit` only: every provided
    /// method runs its per-bit default against the same cache.
    struct PerBitView<'a>(&'a ChunkedSource);

    impl Source for PerBitView<'_> {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn bit(&self, index: usize) -> bool {
            self.0.bit(index)
        }
    }

    #[test]
    fn bits_masked_matches_per_bit_default_and_its_chunk_traffic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for case in 0..40 {
            let n = rng.gen_range(1..2000usize);
            let (chunk_words, max_resident) = (rng.gen_range(1..6usize), rng.gen_range(1..4usize));
            let bulk = ChunkedSource::with_geometry(n, 17, chunk_words, max_resident);
            let per_bit = ChunkedSource::with_geometry(n, 17, chunk_words, max_resident);
            // A few masks in a row, so each starts from a warm cache:
            // dense, sparse, strided, and shorter than the source.
            for _ in 0..4 {
                let len = if rng.gen_bool(0.3) {
                    rng.gen_range(0..=n)
                } else {
                    n
                };
                let keep = [0.9, 0.5, 0.02][rng.gen_range(0..3usize)];
                let stride = rng.gen_range(1..9usize);
                let mask = BitArray::from_fn(len, |i| i % stride == 0 && rng.gen_bool(keep));
                let got = bulk.bits_masked(&mask);
                assert_eq!(got, PerBitView(&per_bit).bits_masked(&mask), "case {case}");
                // Generation, eviction, residency, and a read counted per
                // selected bit: nothing tells the two apart.
                assert_eq!(bulk.stats(), per_bit.stats(), "case {case}");
            }
        }
    }

    /// `bits` as it was when every source word was looked up on its own,
    /// verbatim: the reference for the chunk-at-a-time walk.
    fn per_word_bits(source: &ChunkedSource, range: Range<usize>) -> BitArray {
        let out_len = range.len();
        let total_words = source.word_count();
        let mut cache = source.cache();
        let mut src = |w: usize| {
            if w < total_words {
                cache.word(source.seed, source.chunk_words, source.max_resident, w)
            } else {
                0
            }
        };
        let (w0, sh) = (range.start / 64, range.start % 64);
        let words: Vec<u64> = (0..out_len.div_ceil(64))
            .map(|r| {
                // Word r of the output spans source words w0+r and w0+r+1
                // unless the range is word-aligned (sh == 0).
                let lo = src(w0 + r) >> sh;
                if sh == 0 {
                    lo
                } else {
                    lo | (src(w0 + r + 1) << (64 - sh))
                }
            })
            .collect();
        BitArray::from_words(out_len, words)
    }

    #[test]
    fn bits_matches_the_per_word_walk_and_its_chunk_traffic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(43);
        for case in 0..200 {
            let n = rng.gen_range(1..3000usize);
            let (chunk_words, max_resident) = (rng.gen_range(1..7usize), rng.gen_range(1..4usize));
            let chunked = ChunkedSource::with_geometry(n, 23, chunk_words, max_resident);
            let per_word = ChunkedSource::with_geometry(n, 23, chunk_words, max_resident);
            // Several ranges in a row, each from a warm cache: aligned and
            // not, empty, ending at `n`, and ending one word short of it.
            for _ in 0..5 {
                let start = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..=n / 64) * 64,
                    _ => rng.gen_range(0..=n),
                }
                .min(n);
                let end = match rng.gen_range(0..4) {
                    0 => n,
                    1 => start,
                    2 => n.saturating_sub(64).max(start),
                    _ => rng.gen_range(start..=n),
                };
                let got = chunked.bits(start..end);
                assert_eq!(
                    got,
                    per_word_bits(&per_word, start..end),
                    "case {case} {start}..{end}"
                );
                assert_eq!(
                    chunked.stats(),
                    per_word.stats(),
                    "case {case} {start}..{end}"
                );
            }
        }
    }

    #[test]
    fn single_bits_match_bulk_reads() {
        let n = 300;
        let src = ChunkedSource::with_geometry(n, 7, 2, 1);
        let all = src.bits(0..n);
        for i in 0..n {
            assert_eq!(src.bit(i), all.get(i), "bit {i}");
        }
    }

    #[test]
    fn results_independent_of_geometry() {
        let n = 4096;
        let a = ChunkedSource::with_geometry(n, 5, 1, 1);
        let b = ChunkedSource::with_geometry(n, 5, 512, 64);
        let c = ChunkedSource::new(n, 5);
        assert_eq!(a.bits(0..n), b.bits(0..n));
        assert_eq!(b.bits(0..n), c.bits(0..n));
        // Access order must not matter either.
        let d = ChunkedSource::with_geometry(n, 5, 8, 2);
        let back = d.bits(2048..n);
        let front = d.bits(0..2048);
        let mut joined = BitArray::zeros(n);
        joined.write_at(0, &front);
        joined.write_at(2048, &back);
        assert_eq!(joined, c.bits(0..n));
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChunkedSource::new(256, 1);
        let b = ChunkedSource::new(256, 2);
        assert_ne!(a.bits(0..256), b.bits(0..256));
    }

    #[test]
    fn residency_stays_bounded() {
        let n = 64 * 4 * 100; // 100 chunks of 4 words
        let src = ChunkedSource::with_geometry(n, 3, 4, 5);
        let _ = src.bits(0..n);
        let stats = src.stats();
        assert!(stats.peak_resident <= 5, "peak {}", stats.peak_resident);
        assert!(stats.resident <= 5);
        assert_eq!(stats.generated, 100);
        assert_eq!(stats.evicted, 95);
    }

    #[test]
    fn hit_miss_counters_join_the_plane_accounting() {
        // Regression guard for the counter unification: hits/misses are
        // new, and the residency numbers (peak_resident above all) must
        // be exactly what they were before the refactor.
        let n = 64 * 4 * 100; // 100 chunks of 4 words
        let src = ChunkedSource::with_geometry(n, 3, 4, 5);
        let _ = src.bits(0..n);
        let stats = src.stats();
        assert_eq!(stats.peak_resident, 5, "peak_resident changed");
        assert_eq!(stats.generated, 100);
        assert_eq!(stats.evicted, 95);
        // 400 word reads: the first of each chunk misses, the rest hit.
        assert_eq!(stats.misses, 100);
        assert_eq!(stats.hits, 300);
        // A warm re-read of a resident chunk is all hits.
        let tail_chunk_lo = n - 64 * 4;
        let _ = src.bits(tail_chunk_lo..n);
        let warm = src.stats();
        assert_eq!(warm.misses, 100);
        assert_eq!(warm.hits, 304);
    }

    #[test]
    fn regeneration_after_eviction_is_identical() {
        let n = 64 * 2 * 8;
        let src = ChunkedSource::with_geometry(n, 11, 2, 1);
        let first = src.bits(0..128);
        let _ = src.bits(n - 128..n); // evict the front chunks
        let again = src.bits(0..128); // regenerate them
        assert_eq!(first, again);
        assert!(src.stats().evicted > 0);
    }

    #[test]
    fn tail_word_is_masked() {
        let src = ChunkedSource::new(70, 13);
        let bits = src.bits(0..70);
        assert_eq!(bits.len(), 70);
        // Canonical tail: equal to a from_fn rebuild of the same bits.
        let rebuilt = BitArray::from_fn(70, |i| src.bit(i));
        assert_eq!(bits, rebuilt);
    }
}
