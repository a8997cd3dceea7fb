//! Peer identities and sets of peers.
//!
//! The DR model consists of `k` peers with unique IDs drawn from `0..k`,
//! connected by a complete communication network. [`PeerId`] is a newtype
//! over the ID and [`PeerSet`] is a compact bitset over the peer universe,
//! used pervasively by protocols to track which peers they have heard from
//! (the paper's `CORRECT` sets) and which peers are still missing.

use std::fmt;

/// Identifier of a peer in the range `0..k`.
///
/// # Examples
///
/// ```
/// use dr_core::PeerId;
///
/// let p = PeerId(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub usize);

impl PeerId {
    /// Returns the underlying index of this peer.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for PeerId {
    fn from(i: usize) -> Self {
        PeerId(i)
    }
}

/// A set of peers over a fixed universe `0..k`, stored as a packed bitset.
///
/// # Examples
///
/// ```
/// use dr_core::{PeerId, PeerSet};
///
/// let mut s = PeerSet::new(8);
/// s.insert(PeerId(1));
/// s.insert(PeerId(5));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(PeerId(5)));
/// let ids: Vec<_> = s.iter().map(|p| p.index()).collect();
/// assert_eq!(ids, vec![1, 5]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PeerSet {
    universe: usize,
    words: Vec<u64>,
}

impl PeerSet {
    /// Creates an empty set over the universe `0..universe`.
    pub fn new(universe: usize) -> Self {
        PeerSet {
            universe,
            words: vec![0; universe.div_ceil(64)],
        }
    }

    /// Creates a full set containing every peer in `0..universe`.
    pub fn full(universe: usize) -> Self {
        PeerSet::from_fn(universe, |_| true)
    }

    /// Creates a set from a membership predicate on peer indices, filling
    /// one packed word at a time.
    pub fn from_fn(universe: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut s = PeerSet::new(universe);
        for (w, word) in s.words.iter_mut().enumerate() {
            let base = w * 64;
            let top = 64.min(universe - base);
            let mut v = 0u64;
            for b in 0..top {
                if f(base + b) {
                    v |= 1 << b;
                }
            }
            *word = v;
        }
        s
    }

    /// Size of the peer universe this set ranges over.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts a peer; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is outside the universe.
    pub fn insert(&mut self, peer: PeerId) -> bool {
        assert!(
            peer.0 < self.universe,
            "peer {peer} outside universe {}",
            self.universe
        );
        let (w, b) = (peer.0 / 64, peer.0 % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes a peer; returns `true` if it was present.
    pub fn remove(&mut self, peer: PeerId) -> bool {
        if peer.0 >= self.universe {
            return false;
        }
        let (w, b) = (peer.0 / 64, peer.0 % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Tests membership.
    #[inline]
    pub fn contains(&self, peer: PeerId) -> bool {
        peer.0 < self.universe && self.words[peer.0 / 64] & (1 << (peer.0 % 64)) != 0
    }

    /// Number of peers in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over members in increasing ID order.
    pub fn iter(&self) -> impl Iterator<Item = PeerId> + '_ {
        let universe = self.universe;
        (0..universe).map(PeerId).filter(move |&p| self.contains(p))
    }

    /// Complement of the set within its universe.
    pub fn complement(&self) -> PeerSet {
        let mut out = PeerSet::new(self.universe);
        for i in 0..self.universe {
            if !self.contains(PeerId(i)) {
                out.insert(PeerId(i));
            }
        }
        out
    }

    /// Set intersection. Both sets must share the same universe.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersection(&self, other: &PeerSet) -> PeerSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut out = self.clone();
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        out
    }

    /// Set union. Both sets must share the same universe.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&self, other: &PeerSet) -> PeerSet {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let mut out = self.clone();
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        out
    }
}

impl fmt::Debug for PeerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<PeerId> for PeerSet {
    /// Collects peer IDs into a set whose universe is one past the largest ID.
    fn from_iter<T: IntoIterator<Item = PeerId>>(iter: T) -> Self {
        let ids: Vec<PeerId> = iter.into_iter().collect();
        let universe = ids.iter().map(|p| p.0 + 1).max().unwrap_or(0);
        let mut s = PeerSet::new(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = PeerSet::new(100);
        assert!(s.insert(PeerId(0)));
        assert!(s.insert(PeerId(99)));
        assert!(!s.insert(PeerId(0)));
        assert!(s.contains(PeerId(0)));
        assert!(s.contains(PeerId(99)));
        assert!(!s.contains(PeerId(50)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_works() {
        let mut s = PeerSet::full(10);
        assert!(s.remove(PeerId(3)));
        assert!(!s.remove(PeerId(3)));
        assert_eq!(s.len(), 9);
        assert!(!s.contains(PeerId(3)));
    }

    #[test]
    fn complement_partitions_universe() {
        let mut s = PeerSet::new(7);
        s.insert(PeerId(2));
        s.insert(PeerId(4));
        let c = s.complement();
        assert_eq!(c.len(), 5);
        assert_eq!(s.intersection(&c).len(), 0);
        assert_eq!(s.union(&c).len(), 7);
    }

    #[test]
    fn full_set_has_all() {
        let s = PeerSet::full(65);
        assert_eq!(s.len(), 65);
        assert!(s.contains(PeerId(64)));
    }

    #[test]
    fn iter_is_sorted() {
        let mut s = PeerSet::new(128);
        for i in [5usize, 120, 64, 63, 0] {
            s.insert(PeerId(i));
        }
        let v: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(v, vec![0, 5, 63, 64, 120]);
    }

    #[test]
    fn empty_set() {
        let s = PeerSet::new(10);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut s = PeerSet::new(4);
        s.insert(PeerId(4));
    }

    #[test]
    fn overlap_lemma() {
        // Observation (Overlap Lemma): any two sets of size k - b peers
        // overlap in at least k - 2b peers; for b < k/2 they must intersect.
        let k = 11;
        let b = 5;
        let mut a = PeerSet::new(k);
        let mut c = PeerSet::new(k);
        for i in 0..(k - b) {
            a.insert(PeerId(i));
            c.insert(PeerId(k - 1 - i));
        }
        assert!(a.intersection(&c).len() >= k - 2 * b);
    }
}
