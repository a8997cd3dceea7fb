//! Packed bit arrays and partially-known bit arrays.
//!
//! The external data source stores an `n`-bit input array `X`; every peer
//! must output a copy of it. [`BitArray`] is the packed representation used
//! for both the source contents and protocol outputs. [`PartialArray`] pairs
//! a value array with a "known" mask and is the working state of every
//! Download protocol: bits move from unknown to known as queries are made
//! and messages arrive, and the protocol terminates once nothing is unknown.

use rand::Rng;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// All-ones mask covering the low `n` bits (`n <= 64`).
#[inline]
pub fn low_mask(n: usize) -> u64 {
    debug_assert!(n <= 64);
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Reads 64 bits of `words` starting at bit position `pos`, little-endian
/// within each word. Bits past the end of `words` read as zero.
#[inline]
fn read_word(words: &[u64], pos: usize) -> u64 {
    let (w, s) = (pos / 64, pos % 64);
    let lo = words.get(w).copied().unwrap_or(0) >> s;
    if s == 0 {
        lo
    } else {
        lo | (words.get(w + 1).copied().unwrap_or(0) << (64 - s))
    }
}

/// Panics for bit index `i` of an array of `len` bits. Out of line, so
/// that the range check in a per-bit loop keeps `i` in a register.
#[cold]
#[inline(never)]
fn out_of_range(i: usize, len: usize) -> ! {
    panic!("bit index {i} out of range {len}")
}

/// The positions of the set bits of `word`, lowest first.
pub(crate) fn ones_of(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// One word of a bit mask, with the shift schedule that moves bits between
/// index order (a bit per position of the word) and rank order (a bit per
/// set bit of the mask, lowest first): six masked shifts per word instead
/// of one step per set bit. This is the parallel-suffix "compress"/"expand"
/// pair of Hacker's Delight §7-4/7-5. The schedule costs a few moves to
/// build, so it pays for a mask word used many times: one word of a
/// repeating pattern, built once and applied across a long array.
///
/// # Examples
///
/// ```
/// use dr_core::MaskWord;
///
/// // Set positions 2, 4, 5 and 7: rank r is the r-th of them.
/// let m = MaskWord::new(0b1011_0100);
/// assert_eq!(m.deposit(0b0101), 0b0010_0100);
/// assert_eq!(m.extract(0b0010_0100), 0b0101);
/// assert_eq!(m.cut(5).mask(), 0b0001_0100);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MaskWord {
    mask: u64,
    /// `moves[i]`: the mask bits that travel `2^i` positions at step `i`.
    moves: [u64; 6],
}

impl MaskWord {
    /// The schedule of `mask`.
    #[inline]
    pub fn new(mask: u64) -> Self {
        let mut moves = [0; 6];
        let mut m = mask;
        let mut zeros_below = !m << 1;
        for (i, mv) in moves.iter_mut().enumerate() {
            // Prefix parity: bits with an odd number of (remaining) zeros
            // below them.
            let mut odd = zeros_below ^ (zeros_below << 1);
            for s in [2, 4, 8, 16, 32] {
                odd ^= odd << s;
            }
            *mv = odd & m;
            m = (m ^ *mv) | (*mv >> (1 << i));
            zeros_below &= !odd;
        }
        MaskWord { mask, moves }
    }

    /// The mask.
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// The same schedule restricted to the low `bits` positions
    /// (`bits <= 64`), such as the last word of an array whose length is
    /// not a multiple of 64. A prefix of the mask keeps the ranks of the
    /// set bits it keeps, so the schedule needs no rebuild.
    #[inline]
    pub fn cut(self, bits: usize) -> Self {
        MaskWord {
            mask: self.mask & low_mask(bits),
            ..self
        }
    }

    /// Scatters the low bits of `src` to the set positions of the mask,
    /// lowest first (`src` bit `r` lands on the `r`-th set bit): rank
    /// order → index order. Bits of `src` past the mask's count are
    /// dropped.
    #[inline]
    pub fn deposit(&self, mut src: u64) -> u64 {
        for (i, mv) in self.moves.iter().enumerate().rev() {
            src = (src & !mv) | ((src << (1 << i)) & mv);
        }
        src & self.mask
    }

    /// Gathers the bits of `src` at the set positions of the mask into
    /// the low bits of the result: index order → rank order, the inverse
    /// of [`MaskWord::deposit`].
    #[inline]
    pub fn extract(&self, src: u64) -> u64 {
        let mut src = src & self.mask;
        for (i, mv) in self.moves.iter().enumerate() {
            let moved = src & mv;
            src = (src ^ moved) | (moved >> (1 << i));
        }
        src
    }
}

/// A fixed-length packed array of bits.
///
/// Unused high bits of the last word are kept zeroed so that `Eq` and `Hash`
/// are well-defined on the packed representation.
///
/// The word buffer is a shared copy-on-write store: [`Clone`] is `O(1)`
/// (it bumps a reference count instead of copying `n` bits), and the
/// first mutation of a shared array transparently un-shares it. This is
/// what makes broadcast payloads in the simulator zero-copy — `k − 1`
/// clones of an `n`-bit message cost `O(k)`, not `O(k·n)` — while
/// `Eq`/`Hash`/`Ord` all keep value semantics over the bit
/// contents, never the sharing state. Comparing two arrays that share a
/// buffer is a pointer compare, not a word scan: `cmp` checks for it, and
/// the derived `eq` gets it from `Arc`'s own same-allocation shortcut.
///
/// # Examples
///
/// ```
/// use dr_core::BitArray;
///
/// let mut x = BitArray::zeros(10);
/// x.set(3, true);
/// assert!(x.get(3));
/// assert_eq!(x.count_ones(), 1);
///
/// // Cloning shares the buffer; mutation un-shares it.
/// let snapshot = x.clone();
/// assert!(x.shares_buffer_with(&snapshot));
/// x.set(4, true);
/// assert!(!x.shares_buffer_with(&snapshot));
/// assert!(!snapshot.get(4));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitArray {
    len: usize,
    words: Arc<Vec<u64>>,
}

impl BitArray {
    /// Creates an all-zero array of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitArray {
            len,
            words: Arc::new(vec![0; len.div_ceil(64)]),
        }
    }

    /// Mutable access to the word store, un-sharing it first if any
    /// other array aliases it (the copy-on-write step). Cheap when the
    /// buffer is unshared: one reference-count check, no copy.
    #[inline]
    fn words_mut(&mut self) -> &mut Vec<u64> {
        Arc::make_mut(&mut self.words)
    }

    /// Creates an array from a predicate on bit indices.
    ///
    /// # Examples
    ///
    /// ```
    /// use dr_core::BitArray;
    /// let x = BitArray::from_fn(8, |i| i % 2 == 0);
    /// assert_eq!(x.count_ones(), 4);
    /// ```
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut words = vec![0u64; len.div_ceil(64)];
        for (w, word) in words.iter_mut().enumerate() {
            let base = w * 64;
            let top = 64.min(len - base);
            let mut v = 0u64;
            for b in 0..top {
                if f(base + b) {
                    v |= 1 << b;
                }
            }
            *word = v;
        }
        BitArray {
            len,
            words: Arc::new(words),
        }
    }

    /// Creates an array from a slice of bools.
    pub fn from_bools(bits: &[bool]) -> Self {
        BitArray::from_fn(bits.len(), |i| bits[i])
    }

    /// Creates an array of `len` bits directly from packed 64-bit words
    /// (bit `i` is bit `i % 64` of word `i / 64`). Unused high bits of the
    /// last word are cleared, keeping the canonical-tail invariant that
    /// `Eq`/`Hash`/`Ord` rely on. This is the zero-rearrangement path for
    /// word-generating sources (see `ChunkedSource`).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "word count does not match bit length {len}"
        );
        let mut out = BitArray {
            len,
            words: Arc::new(words),
        };
        out.mask_tail();
        out
    }

    /// Creates a uniformly random array using the given RNG.
    pub fn random(len: usize, rng: &mut impl Rng) -> Self {
        let mut out = BitArray::zeros(len);
        for w in out.words_mut() {
            *w = rng.gen();
        }
        out.mask_tail();
        out
    }

    /// An independent copy with its own word buffer, never sharing with
    /// `self`. [`Clone`] is the right call almost everywhere (it is
    /// `O(1)` and copy-on-write protects both sides); `deep_clone`
    /// exists for the cases that need a guaranteed-unaliased buffer —
    /// aliasing tests and benchmark probes that time a private copy.
    pub fn deep_clone(&self) -> BitArray {
        BitArray {
            len: self.len,
            words: Arc::new(self.words.as_ref().clone()),
        }
    }

    /// Whether `self` and `other` currently share one word buffer (the
    /// observable side of copy-on-write; contents-equal arrays may or
    /// may not share).
    pub fn shares_buffer_with(&self, other: &BitArray) -> bool {
        Arc::ptr_eq(&self.words, &other.words)
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let word = &mut self.words_mut()[i / 64];
        if value {
            *word |= 1 << (i % 64);
        } else {
            *word &= !(1 << (i % 64));
        }
    }

    /// Number of 64-bit words in the packed representation.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Reads the `w`-th 64-bit word of the packed representation.
    ///
    /// Bit `i` of the array is bit `i % 64` of word `i / 64`. Unused high
    /// bits of the last word are always zero.
    ///
    /// # Panics
    ///
    /// Panics if `w >= word_count()`.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// The packed representation, [`BitArray::word`] for every `w`.
    #[inline]
    pub(crate) fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Reads the 64 bits starting at bit position `pos` (bit `pos` lands in
    /// bit 0 of the result), shifting across the word boundary as needed.
    /// Positions past the end of the array read as zero.
    #[inline]
    pub fn word_at(&self, pos: usize) -> u64 {
        read_word(&self.words, pos)
    }

    /// ORs the 64 bits of `bits` into the array starting at bit position
    /// `pos` — the write-side twin of [`BitArray::word_at`].
    ///
    /// # Panics
    ///
    /// Panics if a set bit of `bits` would land past the end.
    pub fn or_word_at(&mut self, pos: usize, bits: u64) {
        if bits == 0 {
            return;
        }
        let span = 64 - bits.leading_zeros() as usize;
        assert!(
            pos + span <= self.len,
            "or_word_at {pos}..{} out of range {}",
            pos + span,
            self.len
        );
        let (w, s) = (pos / 64, pos % 64);
        let words = self.words_mut();
        words[w] |= bits << s;
        if s + span > 64 {
            words[w + 1] |= bits >> (64 - s);
        }
    }

    /// Flips bit `i` and returns its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn flip(&mut self, i: usize) -> bool {
        let v = !self.get(i);
        self.set(i, v);
        v
    }

    /// Number of one-bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of the one-bits in ascending order,
    /// skipping all-zero words in one step.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| ones_of(word).map(move |bit| w * 64 + bit))
    }

    /// Extracts the bits of `range` as a new array.
    ///
    /// Runs in `O(range.len() / 64)` word operations, shifting across word
    /// boundaries as needed.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> BitArray {
        assert!(
            range.end <= self.len,
            "slice {range:?} out of range {}",
            self.len
        );
        let mut out = BitArray::zeros(range.len());
        for (w, word) in out.words_mut().iter_mut().enumerate() {
            *word = read_word(&self.words, range.start + w * 64);
        }
        out.mask_tail();
        out
    }

    /// Copies `src[src_range]` into `self` starting at bit `dst_offset`,
    /// overwriting whatever was there. Word-level: each loop iteration
    /// transfers up to 64 bits with shift/mask operations.
    ///
    /// # Panics
    ///
    /// Panics if `src_range` is out of bounds for `src` or the copy would
    /// run past the end of `self`.
    pub fn copy_range(&mut self, dst_offset: usize, src: &BitArray, src_range: Range<usize>) {
        assert!(
            src_range.end <= src.len,
            "copy_range source {src_range:?} out of range {}",
            src.len
        );
        let len = src_range.len();
        assert!(
            dst_offset + len <= self.len,
            "copy_range destination {dst_offset}..{} out of range {}",
            dst_offset + len,
            self.len
        );
        if len == 0 {
            return;
        }
        let words = Arc::make_mut(&mut self.words);
        let mut done = 0;
        while done < len {
            let pos = dst_offset + done;
            let (w, bit) = (pos / 64, pos % 64);
            // Fill the destination word from `bit` upward (at most 64 - bit
            // bits), so every subsequent iteration is destination-aligned.
            let take = (64 - bit).min(len - done);
            let chunk = read_word(&src.words, src_range.start + done) & low_mask(take);
            words[w] = (words[w] & !(low_mask(take) << bit)) | (chunk << bit);
            done += take;
        }
    }

    /// Writes `bits` into `self` starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the write would run past the end.
    pub fn write_at(&mut self, offset: usize, bits: &BitArray) {
        self.copy_range(offset, bits, 0..bits.len());
    }

    /// Bitwise OR of `other` into `self`, one word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &BitArray) {
        assert_eq!(self.len, other.len, "length mismatch");
        // OR-ing an array into itself (possible through sharing) is a
        // no-op; skip it so `make_mut` does not copy for nothing.
        if Arc::ptr_eq(&self.words, &other.words) {
            return;
        }
        for (a, b) in self.words_mut().iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Iterates over all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Index of the first bit on which `self` and `other` differ, if any.
    ///
    /// This is the "separating index" used by the decision-tree construction
    /// (Protocol 3) to resolve conflicts between inconsistent strings.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn first_difference(&self, other: &BitArray) -> Option<usize> {
        assert_eq!(self.len, other.len, "length mismatch");
        for (w, (a, b)) in self.words.iter().zip(other.words.iter()).enumerate() {
            let diff = a ^ b;
            if diff != 0 {
                let bit = w * 64 + diff.trailing_zeros() as usize;
                if bit < self.len {
                    return Some(bit);
                }
            }
        }
        None
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl PartialOrd for BitArray {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitArray {
    /// Lexicographic order over the bit sequence (bit 0 first, `false <
    /// true`), with a proper prefix ordering before its extensions —
    /// exactly the order of the equivalent `Vec<bool>`. This makes
    /// `BitArray` usable as a `DetMap`/`DetSet` key whose iteration order
    /// is a pure function of the data, which deterministic-tier protocol
    /// state relies on (e.g. the τ-frequent string table).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Buffers are only ever shared by `clone`, which copies `len` too.
        if self.shares_buffer_with(other) {
            return std::cmp::Ordering::Equal;
        }
        // Skip the equal prefix a word at a time. Bit 0 is the LSB of word
        // 0, so in the first differing word the lowest differing bit is
        // the earliest one, and the array holding a 1 there is the larger.
        // Tail bits past `len` are kept zeroed, so a prefix compares equal
        // through its last word; a difference past the shorter array's
        // end is no difference in the common prefix either. The length
        // comparison settles both.
        let differing = self
            .words
            .iter()
            .zip(other.words.iter())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        if let Some((w, (&a, &b))) = differing {
            let bit = (a ^ b).trailing_zeros();
            if w * 64 + (bit as usize) < self.len.min(other.len) {
                return ((a >> bit) & 1).cmp(&((b >> bit) & 1));
            }
        }
        self.len.cmp(&other.len)
    }
}

impl fmt::Debug for BitArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitArray[{}; ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitArray {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitArray::from_bools(&bits)
    }
}

/// The bit indices a packed bitmap is scattered to or gathered from, in
/// packing order: bit `r` of the bitmap belongs to the `r`-th index.
///
/// A structural index set is either tabulated or arithmetic. Algorithm 2's
/// hashed owner sets are tables; a round-robin share `{j : j mod k = p}`
/// is the stride `p, p + k, …` and needs no memory at all.
///
/// [`PartialArray`]'s scatter, gather and membership queries treat a
/// stride with `0 < step < 64` that fits the array as a repeating mask and
/// move it a destination word at a time through [`MaskWord`]. Every other
/// list — a table, a step of 64 or more (at most one index per word, so
/// nothing to batch), a step of 0, a stride that runs past the array —
/// goes an index at a time, and a stride there answers, and panics,
/// exactly as the table of its indices would.
///
/// # Examples
///
/// ```
/// use dr_core::BitIndices;
///
/// // Peer 2's round-robin share of 20 bits over 8 peers.
/// let share = BitIndices::stride_below(20, 2, 8);
/// assert_eq!(share, BitIndices::Stride { start: 2, step: 8, count: 3 });
/// assert_eq!(share.len(), BitIndices::Table(&[2, 10, 18]).len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitIndices<'a> {
    /// An explicit list.
    Table(&'a [u32]),
    /// `start, start + step, …`: `count` indices.
    Stride {
        /// The first index.
        start: usize,
        /// The distance between consecutive indices.
        step: usize,
        /// How many indices.
        count: usize,
    },
}

impl BitIndices<'_> {
    /// Every index `start + r·step` below `len`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn stride_below(len: usize, start: usize, step: usize) -> Self {
        assert!(step > 0, "a stride needs a positive step");
        BitIndices::Stride {
            start,
            step,
            count: if start < len {
                (len - start - 1) / step + 1
            } else {
                0
            },
        }
    }

    /// Number of indices: the length of a bitmap packed over them.
    pub fn len(&self) -> usize {
        match *self {
            BitIndices::Table(table) => table.len(),
            BitIndices::Stride { count, .. } => count,
        }
    }

    /// Whether there are no indices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The destination words of a stride `start, start + step, …` of `count`
/// indices with `0 < step < 64` that lies inside `len` bits: `(w, members
/// of word w)` for every word it touches, in order. `None` for any other
/// list, which then goes an index at a time ([`with_runs!`]).
///
/// The member positions of word `w` depend on `64·w mod step` only, so
/// they repeat every `step / gcd(step, 64)` words (at most 63): that
/// pattern, and each word's shift schedule, is built once per call. The
/// first word is cut below `start` and the last above the last index.
fn stride_words(
    indices: BitIndices<'_>,
    len: usize,
) -> Option<impl Iterator<Item = (usize, MaskWord)>> {
    let BitIndices::Stride { start, step, count } = indices else {
        return None;
    };
    if step == 0 || step >= 64 || count == 0 {
        return None;
    }
    let last = (count - 1).checked_mul(step)?.checked_add(start)?;
    if last >= len {
        return None;
    }
    let (first, end) = (start / 64, last / 64 + 1);
    // `step` is below 64, so this divides out all of `gcd(step, 64)`.
    let period = (step >> step.trailing_zeros()).min(end - first);
    // The first word's members before the cut: the positions congruent to
    // `start` modulo `step`, of which the lowest is `start % 64 % step`.
    let mut next = start % 64 % step;
    let pattern: Vec<MaskWord> = (0..period)
        .map(|_| {
            let mut mask = 0;
            while next < 64 {
                mask |= 1 << next;
                next += step;
            }
            next -= 64;
            MaskWord::new(mask)
        })
        .collect();
    let head = MaskWord::new(pattern[0].mask() & u64::MAX << (start % 64));
    let mut phase = 0;
    Some((first..end).map(move |w| {
        let members = if w == first { head } else { pattern[phase] };
        phase = if phase + 1 == period { 0 } else { phase + 1 };
        if w + 1 == end {
            (w, members.cut(last % 64 + 1))
        } else {
            (w, members)
        }
    }))
}

/// Evaluates `$body` with `$runs` bound to the indices of the
/// [`BitIndices`] `$list` in packing order, as an iterator over runs of 64:
/// run `q` holds the indices of packed word `q`, as an iterator of its own.
/// The kind of list is matched once and `$body` is expanded for each, so
/// every kind runs its own plain loop — a table load per index for a
/// table, a multiply-add for a stride — with a packed word at a time in a
/// register. This is the index-at-a-time path: the lists
/// [`stride_words`] does not take, with the range check and the order of
/// an index table.
macro_rules! with_runs {
    ($list:expr, |$runs:ident| $body:expr) => {
        match $list {
            BitIndices::Table(table) => {
                let $runs = table.chunks(64).map(|run| run.iter().map(|&i| i as usize));
                $body
            }
            BitIndices::Stride { start, step, count } => {
                let $runs = (0..count).step_by(64).map(move |first| {
                    (first..count.min(first + 64)).map(move |r| start + r * step)
                });
                $body
            }
        }
    };
}

/// A bit array together with a mask of which positions are known.
///
/// This is each peer's working copy of the input: queried or received bits
/// are recorded with [`PartialArray::learn`], and the protocol may terminate
/// once [`PartialArray::unknown_count`] reaches zero.
///
/// Representation invariant: `values` is zero wherever `known` is zero.
/// Every mutator preserves this, which is what lets [`PartialArray::learn_slice`]
/// and [`PartialArray::merge`] OR newly-learned bits in a word at a time.
///
/// # Examples
///
/// ```
/// use dr_core::PartialArray;
///
/// let mut p = PartialArray::new(4);
/// p.learn(2, true);
/// assert_eq!(p.unknown_count(), 3);
/// assert_eq!(p.get(2), Some(true));
/// assert_eq!(p.get(0), None);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct PartialArray {
    values: BitArray,
    known: BitArray,
    unknown: usize,
}

impl PartialArray {
    /// Creates an array of `len` bits, all unknown.
    pub fn new(len: usize) -> Self {
        PartialArray {
            values: BitArray::zeros(len),
            known: BitArray::zeros(len),
            unknown: len,
        }
    }

    /// Number of bits (known and unknown).
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the array has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of still-unknown bits.
    #[inline]
    pub fn unknown_count(&self) -> usize {
        self.unknown
    }

    /// Whether every bit is known.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.unknown == 0
    }

    /// Whether bit `i` is known.
    #[inline]
    pub fn is_known(&self, i: usize) -> bool {
        self.known.get(i)
    }

    /// The value of bit `i` if known.
    pub fn get(&self, i: usize) -> Option<bool> {
        if self.known.get(i) {
            Some(self.values.get(i))
        } else {
            None
        }
    }

    /// Records the value of bit `i`. Re-learning a known bit keeps the first
    /// value (values are never overwritten, matching the protocols in the
    /// paper where honest data is consistent).
    pub fn learn(&mut self, i: usize, value: bool) {
        if !self.known.get(i) {
            self.known.set(i, true);
            self.values.set(i, value);
            self.unknown -= 1;
        }
    }

    /// Records the bits of packed word `w` selected by `mask`, taking their
    /// values from the same positions of `values`: exactly
    /// `learn(64·w + b, values bit b)` for every set bit `b` of `mask`, in
    /// one word operation. Bits already known keep their first value.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range or `mask` selects a bit past the end.
    pub fn learn_word(&mut self, w: usize, mask: u64, values: u64) {
        let known = self.known.words[w];
        // `w` is in range, so at least one bit of it is.
        let in_range = low_mask((self.len() - w * 64).min(64));
        assert!(
            mask & !in_range == 0,
            "learn_word mask {mask:#x} of word {w} out of range {}",
            self.len()
        );
        let fresh = mask & !known;
        if fresh != 0 {
            self.values.words_mut()[w] |= values & fresh;
            self.known.words_mut()[w] |= fresh;
            self.unknown -= fresh.count_ones() as usize;
        }
    }

    /// Records the bits selected by `mask`, taking their values from the
    /// same positions of `answers`: exactly [`PartialArray::learn_word`]
    /// for every word of `mask`, but un-sharing each plane once per call
    /// instead of once per word. The receive side of a masked query.
    ///
    /// # Panics
    ///
    /// Panics if `mask` or `answers` is not as long as the array.
    pub fn learn_masked(&mut self, mask: &BitArray, answers: &BitArray) {
        assert_eq!(mask.len(), self.len(), "length mismatch");
        assert_eq!(answers.len(), self.len(), "length mismatch");
        let known = self.known.words_mut().as_mut_slice();
        let values = self.values.words_mut().as_mut_slice();
        for (w, (&m, &a)) in mask.words.iter().zip(answers.words.iter()).enumerate() {
            let fresh = m & !known[w];
            if fresh != 0 {
                values[w] |= a & fresh;
                known[w] |= fresh;
                self.unknown -= fresh.count_ones() as usize;
            }
        }
    }

    /// Records a contiguous run of bits starting at `offset`. Word-level:
    /// bits already known keep their first value (an invariant of the
    /// representation is that `values` is zero wherever `known` is zero,
    /// so newly-learned bits can be OR-ed in without a read-modify-write
    /// per bit). Each plane is un-shared at most once per call, and not at
    /// all if the run teaches nothing.
    ///
    /// # Panics
    ///
    /// Panics if the run would extend past the end.
    pub fn learn_slice(&mut self, offset: usize, bits: &BitArray) {
        let len = bits.len();
        assert!(
            offset + len <= self.len(),
            "learn_slice {offset}..{} out of range {}",
            offset + len,
            self.len()
        );
        if len == 0 {
            return;
        }
        let end = offset + len;
        let (first, last, shift) = (offset / 64, (end - 1) / 64, offset % 64);
        // The bits of destination word `w` that the run covers.
        let window = |w: usize| {
            let head = if w == first { !0 << shift } else { !0 };
            let tail = if w == last {
                low_mask(end - 64 * last)
            } else {
                !0
            };
            head & tail
        };
        // Un-share the planes only if some word learns something, so a
        // call that learns nothing copies nothing.
        if (first..=last).all(|w| window(w) & !self.known.words[w] == 0) {
            return;
        }
        let known = self.known.words_mut().as_mut_slice();
        let values = self.values.words_mut().as_mut_slice();
        let planes = known[first..=last]
            .iter_mut()
            .zip(&mut values[first..=last]);
        // Word `j` of the run lands shifted up by `shift` in destination
        // word `first + j`, and its top `shift` bits, `carry`, in the next.
        let (run, mut carry, mut learned) = (bits.as_words(), 0, 0);
        for (j, (known, value)) in planes.enumerate() {
            let word = run.get(j).copied().unwrap_or(0);
            let incoming = word << shift | carry;
            carry = if shift == 0 { 0 } else { word >> (64 - shift) };
            let fresh = window(first + j) & !*known;
            if fresh != 0 {
                *value |= incoming & fresh;
                *known |= fresh;
                learned += fresh.count_ones() as usize;
            }
        }
        self.unknown -= learned;
    }

    /// Records `bits` against an index list: exactly
    /// `learn(indices[r], bits.get(r))` for every `r` in order — known
    /// bits and repeated indices keep their first value — but on the word
    /// planes directly, un-sharing each once per call instead of once per
    /// bit. This is the receive side of a packed bitmap over a structural
    /// index set (Algorithm 2's per-phase owner sets, Algorithm 1's
    /// shares).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or an index is out of range.
    pub fn learn_scattered(&mut self, indices: BitIndices<'_>, bits: &BitArray) {
        assert_eq!(indices.len(), bits.len(), "length mismatch");
        let len = self.len();
        // Slices, not `&mut Vec`s: the loop's stores could alias a `Vec`'s
        // pointer and length in memory, but not a slice's in registers.
        let known = self.known.words_mut().as_mut_slice();
        let values = self.values.words_mut().as_mut_slice();
        let mut learned = 0;
        if let Some(stride) = stride_words(indices, len) {
            // Word `w`'s members take the packed bits from the running
            // rank on, in order.
            let mut rank = 0;
            for (w, members) in stride {
                let fresh = members.mask() & !known[w];
                values[w] |= members.deposit(bits.word_at(rank)) & fresh;
                known[w] |= fresh;
                learned += fresh.count_ones() as usize;
                rank += members.mask().count_ones() as usize;
            }
        } else {
            with_runs!(indices, |runs| {
                for (run, &packed) in runs.zip(bits.words.iter()) {
                    for (r, i) in run.enumerate() {
                        if i >= len {
                            out_of_range(i, len);
                        }
                        let (w, s) = (i / 64, i % 64);
                        if known[w] >> s & 1 == 0 {
                            known[w] |= 1 << s;
                            values[w] |= (packed >> r & 1) << s;
                            learned += 1;
                        }
                    }
                }
            });
        }
        self.unknown -= learned;
    }

    /// Packs the values at `indices`, in list order, or `None` if any of
    /// them is unknown: `get(indices[r])` for every `r`, read off the word
    /// planes and assembled a word at a time. The send side of
    /// [`PartialArray::learn_scattered`].
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range (unless an earlier one was
    /// unknown, exactly as a loop of `get` that stops at the first `None`).
    pub fn gather(&self, indices: BitIndices<'_>) -> Option<BitArray> {
        let len = self.len();
        let (known, values) = (self.known.as_words(), self.values.as_words());
        if let Some(stride) = stride_words(indices, len) {
            let mut words = vec![0u64; indices.len().div_ceil(64)];
            let mut rank = 0;
            for (w, members) in stride {
                if known[w] & members.mask() != members.mask() {
                    return None;
                }
                let packed = members.extract(values[w]);
                let (q, s) = (rank / 64, rank % 64);
                let here = members.mask().count_ones() as usize;
                words[q] |= packed << s;
                if s + here > 64 {
                    words[q + 1] |= packed >> (64 - s);
                }
                rank += here;
            }
            return Some(BitArray::from_words(indices.len(), words));
        }
        // A stride that runs past the array can claim more indices than
        // memory holds; it stops at its first out-of-range one, so reserve
        // no more than the array has.
        let mut words = Vec::with_capacity(indices.len().min(len).div_ceil(64));
        with_runs!(indices, |runs| {
            for run in runs {
                let mut packed = 0;
                for (r, i) in run.enumerate() {
                    if i >= len {
                        out_of_range(i, len);
                    }
                    let (w, s) = (i / 64, i % 64);
                    if known[w] >> s & 1 == 0 {
                        return None;
                    }
                    packed |= (values[w] >> s & 1) << r;
                }
                words.push(packed);
            }
        });
        Some(BitArray::from_words(indices.len(), words))
    }

    /// Whether every bit at `indices` is known.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range (unless an earlier one was
    /// unknown).
    pub fn knows_all(&self, indices: BitIndices<'_>) -> bool {
        if let Some(mut stride) = stride_words(indices, self.len()) {
            let known = self.known.as_words();
            return stride.all(|(w, members)| known[w] & members.mask() == members.mask());
        }
        with_runs!(indices, |runs| {
            for i in runs.flatten() {
                if !self.known.get(i) {
                    return false;
                }
            }
        });
        true
    }

    /// The unknown plane: bit `i` is set iff bit `i` is unknown.
    pub fn unknown_mask(&self) -> BitArray {
        let words = self.known.words.iter().map(|&k| !k).collect();
        BitArray::from_words(self.len(), words)
    }

    /// The still-unknown bits among `indices`, as a mask over the whole
    /// array: what a peer must query to know all of them.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn unknown_among(&self, indices: BitIndices<'_>) -> BitArray {
        let len = self.len();
        let known = self.known.as_words();
        let mut words = vec![0u64; known.len()];
        if let Some(stride) = stride_words(indices, len) {
            for (w, members) in stride {
                words[w] = !known[w] & members.mask();
            }
        } else {
            with_runs!(indices, |runs| {
                for i in runs.flatten() {
                    if i >= len {
                        out_of_range(i, len);
                    }
                    let (w, s) = (i / 64, i % 64);
                    words[w] |= !known[w] & 1 << s;
                }
            });
        }
        BitArray::from_words(len, words)
    }

    /// Copies every known bit of `other` into `self`, one word at a time.
    /// Bits known in both keep `self`'s value. Each plane is un-shared at
    /// most once per call, and not at all if `other` teaches nothing.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn merge(&mut self, other: &PartialArray) {
        assert_eq!(self.len(), other.len(), "length mismatch");
        let (their_known, their_values) = (other.known.as_words(), other.values.as_words());
        // Un-share the planes at the first word that teaches something,
        // so a merge that learns nothing copies nothing.
        let Some(first) = self
            .known
            .words
            .iter()
            .zip(their_known)
            .position(|(&mine, &theirs)| theirs & !mine != 0)
        else {
            return;
        };
        let known = self.known.words_mut().as_mut_slice();
        let values = self.values.words_mut().as_mut_slice();
        for w in first..known.len() {
            let fresh = their_known[w] & !known[w];
            if fresh != 0 {
                values[w] |= their_values[w] & fresh;
                known[w] |= fresh;
                self.unknown -= fresh.count_ones() as usize;
            }
        }
    }

    /// Whether `self` and `other` currently share both word planes (the
    /// observable side of copy-on-write, as
    /// [`BitArray::shares_buffer_with`] is for one array).
    pub fn shares_planes_with(&self, other: &PartialArray) -> bool {
        self.known.shares_buffer_with(&other.known) && self.values.shares_buffer_with(&other.values)
    }

    /// Iterates over indices of unknown bits, in order, skipping fully-known
    /// words in one step.
    pub fn unknown_iter(&self) -> impl Iterator<Item = usize> + '_ {
        let len = self.len();
        let words = &self.known.words;
        let mut w = 0usize;
        let mut cur = words.first().map_or(0, |k| !k);
        std::iter::from_fn(move || loop {
            if w >= words.len() {
                return None;
            }
            if cur != 0 {
                let i = w * 64 + cur.trailing_zeros() as usize;
                if i >= len {
                    // Only the zero-padded tail of the last word remains.
                    w = words.len();
                    return None;
                }
                cur &= cur - 1;
                return Some(i);
            }
            w += 1;
            cur = words.get(w).map_or(0, |k| !k);
        })
    }

    /// Converts into the completed array.
    ///
    /// # Panics
    ///
    /// Panics if any bit is still unknown.
    pub fn into_complete(self) -> BitArray {
        assert!(self.unknown == 0, "{} bits still unknown", self.unknown);
        self.values
    }

    /// Borrow of the completed array.
    ///
    /// Returns `None` if any bit is still unknown.
    pub fn as_complete(&self) -> Option<&BitArray> {
        if self.unknown == 0 {
            Some(&self.values)
        } else {
            None
        }
    }
}

impl fmt::Debug for PartialArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PartialArray[{} bits, {} unknown]",
            self.len(),
            self.unknown
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_set() {
        let mut x = BitArray::zeros(130);
        assert_eq!(x.len(), 130);
        assert_eq!(x.count_ones(), 0);
        x.set(0, true);
        x.set(129, true);
        assert!(x.get(0));
        assert!(x.get(129));
        assert!(!x.get(64));
        assert_eq!(x.count_ones(), 2);
    }

    #[test]
    fn random_is_masked() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = BitArray::random(70, &mut rng);
        // If the tail were unmasked, equality with a from_fn copy would fail.
        let y = BitArray::from_fn(70, |i| x.get(i));
        assert_eq!(x, y);
    }

    #[test]
    fn slice_and_write_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = BitArray::random(200, &mut rng);
        let s = x.slice(50..150);
        assert_eq!(s.len(), 100);
        let mut y = BitArray::zeros(200);
        y.write_at(50, &s);
        for i in 50..150 {
            assert_eq!(x.get(i), y.get(i));
        }
    }

    #[test]
    fn first_difference_finds_separating_index() {
        let a = BitArray::from_bools(&[false, true, false, true]);
        let b = BitArray::from_bools(&[false, true, true, true]);
        assert_eq!(a.first_difference(&b), Some(2));
        assert_eq!(a.first_difference(&a), None);
    }

    #[test]
    fn flip_toggles() {
        let mut x = BitArray::zeros(5);
        assert!(x.flip(2));
        assert!(!x.flip(2));
    }

    #[test]
    fn partial_learn_and_complete() {
        let mut p = PartialArray::new(5);
        assert_eq!(p.unknown_count(), 5);
        for i in 0..5 {
            p.learn(i, i % 2 == 0);
        }
        assert!(p.is_complete());
        let done = p.into_complete();
        assert_eq!(
            done,
            BitArray::from_bools(&[true, false, true, false, true])
        );
    }

    #[test]
    fn learn_never_overwrites() {
        let mut p = PartialArray::new(2);
        p.learn(0, true);
        p.learn(0, false);
        assert_eq!(p.get(0), Some(true));
        assert_eq!(p.unknown_count(), 1);
    }

    #[test]
    fn merge_combines_knowledge() {
        let mut a = PartialArray::new(4);
        a.learn(0, true);
        let mut b = PartialArray::new(4);
        b.learn(3, false);
        a.merge(&b);
        assert_eq!(a.unknown_count(), 2);
        assert_eq!(a.get(3), Some(false));
    }

    #[test]
    fn unknown_iter_lists_gaps() {
        let mut p = PartialArray::new(4);
        p.learn(1, false);
        let v: Vec<usize> = p.unknown_iter().collect();
        assert_eq!(v, vec![0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let x = BitArray::zeros(3);
        x.get(3);
    }

    #[test]
    fn copy_range_matches_per_bit_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let src = BitArray::random(300, &mut rng);
        for &(dst_off, start, end) in &[
            (0, 0, 300),
            (5, 63, 191),
            (64, 1, 2),
            (17, 100, 100),
            (250, 0, 50),
        ] {
            let mut fast = BitArray::random(310, &mut rng);
            let mut slow = fast.clone();
            fast.copy_range(dst_off, &src, start..end);
            for i in start..end {
                slow.set(dst_off + (i - start), src.get(i));
            }
            assert_eq!(fast, slow, "copy_range({dst_off}, {start}..{end})");
        }
    }

    #[test]
    fn slice_straddles_word_boundaries() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = BitArray::random(200, &mut rng);
        for &(a, b) in &[(0, 0), (60, 70), (63, 64), (64, 128), (1, 200), (199, 200)] {
            let s = x.slice(a..b);
            assert_eq!(s.len(), b - a);
            for i in a..b {
                assert_eq!(s.get(i - a), x.get(i), "slice({a}..{b}) bit {i}");
            }
            // Last-word padding must stay zeroed for Eq/Hash.
            assert_eq!(s, BitArray::from_fn(b - a, |i| x.get(a + i)));
        }
    }

    #[test]
    fn or_assign_sets_union() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = BitArray::random(130, &mut rng);
        let b = BitArray::random(130, &mut rng);
        let mut u = a.clone();
        u.or_assign(&b);
        for i in 0..130 {
            assert_eq!(u.get(i), a.get(i) | b.get(i));
        }
    }

    #[test]
    fn word_accessor_exposes_packed_words() {
        let mut x = BitArray::zeros(130);
        x.set(0, true);
        x.set(65, true);
        x.set(129, true);
        assert_eq!(x.word_count(), 3);
        assert_eq!(x.word(0), 1);
        assert_eq!(x.word(1), 2);
        assert_eq!(x.word(2), 2);
    }

    #[test]
    fn learn_slice_word_level_matches_per_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 257;
        for trial in 0..20 {
            let mut fast = PartialArray::new(n);
            let mut slow = PartialArray::new(n);
            // Pre-learn a scattered pattern so overlaps are exercised.
            for i in (trial..n).step_by(7) {
                fast.learn(i, i % 3 == 0);
                slow.learn(i, i % 3 == 0);
            }
            let off = trial * 9 % 64;
            let bits = BitArray::random(n - off - trial, &mut rng);
            fast.learn_slice(off, &bits);
            for i in 0..bits.len() {
                slow.learn(off + i, bits.get(i));
            }
            assert_eq!(fast, slow);
            assert_eq!(fast.unknown_count(), slow.unknown_count());
        }
    }

    #[test]
    fn merge_word_level_matches_per_bit() {
        let mut rng = StdRng::seed_from_u64(33);
        let n = 190;
        let mut a = PartialArray::new(n);
        let mut b = PartialArray::new(n);
        for i in 0..n {
            if rng.gen_bool(0.5) {
                a.learn(i, rng.gen_bool(0.5));
            }
            if rng.gen_bool(0.5) {
                b.learn(i, rng.gen_bool(0.5));
            }
        }
        let mut fast = a.clone();
        fast.merge(&b);
        let mut slow = a.clone();
        for i in 0..n {
            if let Some(v) = b.get(i) {
                slow.learn(i, v);
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn unknown_iter_skips_full_words() {
        let mut p = PartialArray::new(200);
        p.learn_slice(0, &BitArray::zeros(128));
        p.learn(130, true);
        let v: Vec<usize> = p.unknown_iter().collect();
        let expect: Vec<usize> = (128..200).filter(|&i| i != 130).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn deposit_and_extract_follow_the_mask() {
        // Set positions 2, 4, 5, 7, 63; src bits 0, 2, 4 pick the
        // 0th, 2nd and 4th of them.
        let m = MaskWord::new(0b1011_0100 | 1 << 63);
        assert_eq!(m.deposit(0b10101), 0b0010_0100 | 1 << 63);
        assert_eq!(m.extract(0b0010_0100 | 1 << 63), 0b10101);
        assert_eq!(m.extract(u64::MAX), 0b11111);
        // Against the one-member-at-a-time definition, on masks of every
        // density, whole and cut.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..400 {
            let mask = match round % 4 {
                0 => next(),
                1 => next() & next(),
                2 => next() | next(),
                _ => [0, u64::MAX, 1, 1 << 63][round / 4 % 4],
            };
            let m = MaskWord::new(mask).cut(if round % 3 == 0 { 64 } else { round % 64 + 1 });
            let src = next();
            let (mut scattered, mut gathered, mut rank) = (0u64, 0u64, 0);
            for b in (0..64).filter(|b| (m.mask() >> b) & 1 == 1) {
                scattered |= ((src >> rank) & 1) << b;
                gathered |= ((src >> b) & 1) << rank;
                rank += 1;
            }
            let in_rank = src & low_mask(rank);
            assert_eq!(
                m.deposit(in_rank),
                scattered,
                "deposit mask {:#x}",
                m.mask()
            );
            assert_eq!(m.extract(src), gathered, "extract mask {:#x}", m.mask());
            assert_eq!(m.extract(m.deposit(in_rank)), in_rank);
        }
    }

    #[test]
    fn empty_operations_are_noops() {
        let mut x = BitArray::zeros(70);
        let src = BitArray::zeros(0);
        x.copy_range(70, &src, 0..0);
        x.write_at(0, &src);
        assert_eq!(x.slice(70..70).len(), 0);
        let mut p = PartialArray::new(0);
        p.learn_slice(0, &src);
        assert!(p.is_complete());
        assert_eq!(p.unknown_iter().count(), 0);
        assert_eq!(BitArray::zeros(0).word_count(), 0);
    }
}
