//! τ-frequent strings (§3.4.1).
//!
//! In the randomized Byzantine protocols, peers broadcast
//! `(segment, string)` claims. Byzantine peers can flood arbitrary strings,
//! so a receiver only considers strings it received from at least `τ`
//! *distinct* senders — the τ-frequent strings. Since each peer sends at
//! most one claim per segment per cycle, at most `k/τ` distinct strings can
//! become frequent in total, which bounds the decision-tree work no matter
//! what the adversary injects.

use super::segment_msg::SegmentMsg;
use dr_core::collections::DetMap;
use dr_core::{BitArray, PeerId, PeerSet, SegmentId, Segmentation};
use std::ops::Range;

/// Sets bit `i` of a word-packed set that grows on demand; `true` if it
/// was clear.
fn insert_bit(words: &mut Vec<u64>, i: usize) -> bool {
    let (w, mask) = (i / 64, 1u64 << (i % 64));
    if w >= words.len() {
        words.resize(w + 1, 0);
    }
    let fresh = words[w] & mask == 0;
    words[w] |= mask;
    fresh
}

/// The claims recorded for one segment.
#[derive(Debug, Default, Clone)]
struct SegmentClaims {
    /// Each distinct string with its distinct-sender count, in ascending
    /// `BitArray` order, so that [`frequent`](FrequencyTable::frequent)
    /// never depends on insertion order.
    strings: Vec<(BitArray, usize)>,
    /// Position in `strings` of the string counted last.
    last: usize,
    /// Bit `p` set once peer `p` has claimed this segment.
    senders: Vec<u64>,
}

impl SegmentClaims {
    /// Counts `sender`'s claim of `string` unless `sender` has claimed
    /// this segment before; `true` if it was counted.
    ///
    /// Honest claims of a segment repeat one string, so a claim is first
    /// held against the string counted last. `==` is a buffer-pointer
    /// check when the two arrays share a buffer, and a `memcmp` of the
    /// words otherwise. Honest cycle-1 claims share one: the simulator
    /// hands every peer that queries a range the same array, and a claim
    /// carries it by `clone`. Only another string pays a binary search
    /// and, if new, an insertion, so `m` claims of `d` distinct strings
    /// take `O(m log d)` string comparisons in any order, equivocation
    /// floods included.
    fn count(&mut self, sender: usize, string: BitArray) -> bool {
        if !insert_bit(&mut self.senders, sender) {
            return false;
        }
        if self
            .strings
            .get(self.last)
            .is_none_or(|(last, _)| *last != string)
        {
            self.last = match self.strings.binary_search_by(|(s, _)| s.cmp(&string)) {
                Ok(i) => i,
                Err(i) => {
                    self.strings.insert(i, (string, 0));
                    i
                }
            };
        }
        self.strings[self.last].1 += 1;
        true
    }
}

/// Accumulates `(segment, string)` claims by sender and extracts the
/// τ-frequent strings per segment.
///
/// Duplicate claims by the same sender for the same segment are ignored
/// (first claim wins), so a single Byzantine peer cannot inflate a
/// string's frequency. Who has claimed what is kept as packed bitsets
/// indexed by sender id, so the table costs `⌈max id / 64⌉` words per
/// claimed segment: senders are peer ids in `0..k`, not arbitrary keys.
///
/// # Examples
///
/// ```
/// use dr_core::{BitArray, PeerId, SegmentId};
/// use dr_protocols::byz::FrequencyTable;
///
/// let mut table = FrequencyTable::new();
/// let s = BitArray::from_bools(&[true, false]);
/// table.record(PeerId(0), SegmentId(3), s.clone());
/// table.record(PeerId(1), SegmentId(3), s.clone());
/// table.record(PeerId(1), SegmentId(3), BitArray::from_bools(&[false, false])); // dup sender
/// assert_eq!(table.frequent(SegmentId(3), 2), vec![s]);
/// assert!(table.frequent(SegmentId(3), 3).is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct FrequencyTable {
    segments: DetMap<SegmentId, SegmentClaims>,
    /// Bit `p` set once peer `p` has made any claim.
    senders: Vec<u64>,
}

impl FrequencyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FrequencyTable::default()
    }

    /// Records a claim. Returns `true` if this was the sender's first
    /// claim for the segment (and was therefore counted).
    pub fn record(&mut self, sender: PeerId, segment: SegmentId, string: BitArray) -> bool {
        let counted = self
            .segments
            .entry(segment)
            .or_default()
            .count(sender.index(), string);
        if counted {
            insert_bit(&mut self.senders, sender.index());
        }
        counted
    }

    /// The `Freq(S, τ)` operator of the paper: every string for `segment`
    /// recorded by at least `threshold` distinct senders, in ascending
    /// bit-lexicographic order — the order the strings are kept in, which
    /// is `BitArray`'s `Ord`.
    pub fn frequent(&self, segment: SegmentId, threshold: usize) -> Vec<BitArray> {
        self.segments
            .get(&segment)
            .map(|claims| {
                claims
                    .strings
                    .iter()
                    .filter(|(_, c)| *c >= threshold)
                    .map(|(s, _)| s.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of distinct strings recorded for `segment` (frequent or not).
    pub fn distinct(&self, segment: SegmentId) -> usize {
        self.segments.get(&segment).map_or(0, |c| c.strings.len())
    }

    /// Total number of claims recorded for `segment` (the paper's `R_i`).
    pub fn received(&self, segment: SegmentId) -> usize {
        self.segments
            .get(&segment)
            .map_or(0, |c| c.strings.iter().map(|(_, n)| n).sum())
    }

    /// Number of distinct peers that have made at least one claim.
    pub fn distinct_senders(&self) -> usize {
        self.senders.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// A claim as delivered. The ids are `u32` so that an entry is 24 bytes:
/// a receiver logs up to `k` of them per cycle.
#[derive(Debug)]
struct Claim {
    sender: u32,
    segment: u32,
    bits: BitArray,
}

/// One cycle's inbox: the peers heard from, and their well-formed claims
/// in arrival order, not yet counted.
///
/// The paper's cycle protocols wait for claims from `k − b` peers and
/// *then* compute `Freq(S, τ)`. A delivery therefore only marks its
/// sender heard and appends to a log; [`tally`](CycleClaims::tally)
/// counts the log into a [`FrequencyTable`] when the wait ends, in one
/// pass. The table equals the one [`FrequencyTable::record`] builds
/// delivery by delivery: a sender is logged at most once, so no count
/// depends on arrival order.
///
/// # Examples
///
/// ```
/// use dr_core::{BitArray, PeerId, SegmentId, Segmentation};
/// use dr_protocols::byz::{CycleClaims, SegmentMsg};
///
/// let seg = Segmentation::new(8, 2);
/// let claim = |segment, bits: BitArray| SegmentMsg { cycle: 1, segment: SegmentId(segment), bits };
/// let mut inbox = CycleClaims::new(3);
/// inbox.hear(PeerId(0), claim(1, BitArray::zeros(4)), &seg);
/// inbox.hear(PeerId(1), claim(1, BitArray::zeros(4)), &seg);
/// inbox.hear(PeerId(1), claim(0, BitArray::zeros(4)), &seg); // second message: ignored
/// inbox.hear(PeerId(2), claim(1, BitArray::zeros(3)), &seg); // heard, but malformed
/// assert_eq!(inbox.heard(), 3);
/// let table = inbox.tally(0..2);
/// assert_eq!(table.frequent(SegmentId(1), 2), vec![BitArray::zeros(4)]);
/// assert_eq!(table.received(SegmentId(1)), 2);
/// ```
#[derive(Debug)]
pub struct CycleClaims {
    heard: PeerSet,
    heard_count: usize,
    log: Vec<Claim>,
}

impl CycleClaims {
    /// An empty inbox among `k` peers.
    ///
    /// # Panics
    ///
    /// Panics if `k > u32::MAX`, which `ModelParams` refuses too: the log
    /// stores peer ids in 32 bits.
    pub fn new(k: usize) -> Self {
        assert!(
            u32::try_from(k).is_ok(),
            "peer ids fit in u32: k={k} is too many"
        );
        CycleClaims {
            heard: PeerSet::new(k),
            heard_count: 0,
            log: Vec::new(),
        }
    }

    /// Takes delivery of a message from `sender`. A sender's first message
    /// counts toward [`heard`](CycleClaims::heard) whatever it carries and
    /// later ones are ignored; the first is logged as a claim only if it
    /// names a segment of `seg` with a string of that segment's length.
    /// Its cycle number is not looked at: the caller files each message
    /// in its own cycle's inbox.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is not one of the `k` peers.
    pub fn hear(&mut self, sender: PeerId, msg: SegmentMsg, seg: &Segmentation) {
        if !self.heard.insert(sender) {
            return;
        }
        self.heard_count += 1;
        if msg.segment.index() < seg.count() && msg.bits.len() == seg.len_of(msg.segment) {
            self.log.push(Claim {
                // `heard` holds `sender`, so `sender < k ≤ u32::MAX`.
                sender: sender.index() as u32,
                segment: u32::try_from(msg.segment.index()).expect("segment ids fit in u32"),
                bits: msg.bits,
            });
        }
    }

    /// Number of distinct peers heard from.
    pub fn heard(&self) -> usize {
        self.heard_count
    }

    /// Counts the logged claims for the segments in `segments` into a
    /// table and empties the log. The table holds one entry per segment of
    /// `segments`, and each claim goes straight to its segment's entry by
    /// position in the range: no lookup per claim, and no sort.
    pub fn tally(&mut self, segments: Range<usize>) -> FrequencyTable {
        let mut claims = vec![SegmentClaims::default(); segments.len()];
        let mut senders = Vec::new();
        for claim in std::mem::take(&mut self.log) {
            let (sender, segment) = (claim.sender as usize, claim.segment as usize);
            let Some(entry) = segment
                .checked_sub(segments.start)
                .and_then(|i| claims.get_mut(i))
            else {
                continue;
            };
            if entry.count(sender, claim.bits) {
                insert_bit(&mut senders, sender);
            }
        }
        FrequencyTable {
            segments: segments.map(SegmentId).zip(claims).collect(),
            senders,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(bits: &[bool]) -> BitArray {
        BitArray::from_bools(bits)
    }

    #[test]
    fn counts_distinct_senders_only() {
        let mut t = FrequencyTable::new();
        let a = s(&[true]);
        assert!(t.record(PeerId(0), SegmentId(0), a.clone()));
        assert!(!t.record(PeerId(0), SegmentId(0), a.clone()));
        assert!(t.record(PeerId(1), SegmentId(0), a.clone()));
        assert_eq!(t.received(SegmentId(0)), 2);
        assert_eq!(t.frequent(SegmentId(0), 2), vec![a]);
    }

    #[test]
    fn equivocation_across_segments_is_allowed() {
        // The same sender may claim different segments (multi-cycle use).
        let mut t = FrequencyTable::new();
        assert!(t.record(PeerId(0), SegmentId(0), s(&[true])));
        assert!(t.record(PeerId(0), SegmentId(1), s(&[false])));
        assert_eq!(t.distinct_senders(), 1);
    }

    #[test]
    fn threshold_filters_rare_strings() {
        let mut t = FrequencyTable::new();
        for p in 0..5 {
            t.record(PeerId(p), SegmentId(2), s(&[true, true]));
        }
        for p in 5..7 {
            t.record(PeerId(p), SegmentId(2), s(&[false, false]));
        }
        assert_eq!(t.frequent(SegmentId(2), 3), vec![s(&[true, true])]);
        let both = t.frequent(SegmentId(2), 2);
        assert_eq!(both.len(), 2);
        assert_eq!(t.distinct(SegmentId(2)), 2);
    }

    #[test]
    fn spam_bound_holds() {
        // b Byzantine senders can create at most b/τ frequent fake strings.
        let mut t = FrequencyTable::new();
        let tau = 3;
        let b = 10;
        // Adversary coordinates groups of τ senders per fake string.
        for (i, p) in (0..b).enumerate() {
            let fake = s(&[i / tau == 0, i / tau == 1, i / tau == 2, true]);
            t.record(PeerId(p), SegmentId(9), fake);
        }
        let frequent = t.frequent(SegmentId(9), tau);
        assert!(frequent.len() <= b / tau);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "peer ids fit in u32")]
    fn an_inbox_refuses_peer_ids_past_u32() {
        CycleClaims::new(u32::MAX as usize + 1);
    }

    #[test]
    fn empty_segment_has_no_frequent_strings() {
        let t = FrequencyTable::new();
        assert!(t.frequent(SegmentId(4), 1).is_empty());
        assert_eq!(t.received(SegmentId(4)), 0);
    }
}
