//! Segmentation of the input array.
//!
//! The randomized Byzantine protocols (§3.4) partition the `n`-bit input
//! into contiguous segments of roughly equal length; peers query whole
//! segments and gossip `(segment, string)` pairs. [`Segmentation`] computes
//! the partition and [`SegmentId`] names a segment.

use std::fmt;
use std::ops::Range;

/// Identifier of a segment within a [`Segmentation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub usize);

impl SegmentId {
    /// Returns the underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// A partition of `0..n` into `count` contiguous segments of near-equal
/// length (lengths differ by at most one bit).
///
/// # Examples
///
/// ```
/// use dr_core::{Segmentation, SegmentId};
///
/// let seg = Segmentation::new(10, 3);
/// assert_eq!(seg.count(), 3);
/// assert_eq!(seg.range(SegmentId(0)), 0..3);
/// assert_eq!(seg.range(SegmentId(2)), 6..10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segmentation {
    n: usize,
    count: usize,
}

impl Segmentation {
    /// Creates a segmentation of `n` bits into `count` segments.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `count > n` (a segment must be non-empty).
    pub fn new(n: usize, count: usize) -> Self {
        assert!(count > 0, "segment count must be positive");
        assert!(
            count <= n,
            "cannot split {n} bits into {count} non-empty segments"
        );
        Segmentation { n, count }
    }

    /// Total number of bits being partitioned.
    #[inline]
    pub fn input_len(&self) -> usize {
        self.n
    }

    /// Number of segments.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The bit range covered by segment `id`:
    /// `⌊id·n/count⌋ .. ⌊(id+1)·n/count⌋`.
    ///
    /// Lengths differ by at most one bit and ranges tile `0..n` exactly.
    /// This formula *nests*: with `f` dividing `count`, segment `i` of
    /// `Segmentation::new(n, count/f)` is exactly the union of segments
    /// `i·f .. (i+1)·f` of `Segmentation::new(n, count)` — the property the
    /// randomized protocols' cycles, each merging `f` segments into one,
    /// rely on.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn range(&self, id: SegmentId) -> Range<usize> {
        assert!(
            id.0 < self.count,
            "segment {id} out of range {}",
            self.count
        );
        let start = id.0 * self.n / self.count;
        let end = (id.0 + 1) * self.n / self.count;
        start..end
    }

    /// Length in bits of segment `id`.
    pub fn len_of(&self, id: SegmentId) -> usize {
        self.range(id).len()
    }

    /// Iterates over all segment IDs.
    pub fn ids(&self) -> impl Iterator<Item = SegmentId> {
        (0..self.count).map(SegmentId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tile_input() {
        for n in [1usize, 7, 64, 100, 1023] {
            for count in [1usize, 2, 3, 7] {
                if count > n {
                    continue;
                }
                let seg = Segmentation::new(n, count);
                let mut covered = 0;
                for id in seg.ids() {
                    let r = seg.range(id);
                    assert_eq!(r.start, covered, "n={n} count={count} id={id:?}");
                    covered = r.end;
                    assert!(!r.is_empty());
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn lengths_differ_by_at_most_one() {
        let seg = Segmentation::new(10, 3);
        let lens: Vec<usize> = seg.ids().map(|id| seg.len_of(id)).collect();
        assert_eq!(lens, vec![3, 3, 4]);
    }

    #[test]
    fn halving_counts_nest_exactly() {
        for n in [16usize, 100, 1023, 4097] {
            for count in [2usize, 4, 8, 16] {
                if count > n {
                    continue;
                }
                let fine = Segmentation::new(n, count);
                let coarse = Segmentation::new(n, count / 2);
                for i in 0..count / 2 {
                    let parent = coarse.range(SegmentId(i));
                    let left = fine.range(SegmentId(2 * i));
                    let right = fine.range(SegmentId(2 * i + 1));
                    assert_eq!(parent.start, left.start);
                    assert_eq!(left.end, right.start);
                    assert_eq!(right.end, parent.end);
                }
            }
        }
    }

    #[test]
    fn dividing_counts_nest_exactly() {
        for n in [100usize, 1023, 4097] {
            for (count, f) in [(12usize, 3usize), (16, 4), (24, 6), (10, 10)] {
                let fine = Segmentation::new(n, count);
                let coarse = Segmentation::new(n, count / f);
                for i in 0..count / f {
                    // `fine` tiles the input, so matching ends suffice.
                    let parent = coarse.range(SegmentId(i));
                    assert_eq!(parent.start, fine.range(SegmentId(i * f)).start);
                    assert_eq!(parent.end, fine.range(SegmentId((i + 1) * f - 1)).end);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn too_many_segments_panics() {
        Segmentation::new(3, 4);
    }
}
