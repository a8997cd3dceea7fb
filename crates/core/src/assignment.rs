//! Assignment of query responsibility for input bits to peers.
//!
//! The crash-fault protocols (§2) maintain, at every peer, an assignment
//! function `A : bit -> peer` saying who is responsible for querying each
//! bit. Phase 1 starts from the balanced round-robin assignment; in later
//! phases each peer reassigns the bits of peers it did not hear from evenly
//! among all peers (Algorithm 2, stage 3). The protocol's correctness rests
//! on Claim 1: two honest peers either assign a bit to the same peer or at
//! least one of them already knows it — which holds because reassignment is
//! a deterministic function of the missing peer's bit set.

use crate::peer::PeerId;

/// An assignment of each input bit to the peer responsible for querying it.
///
/// # Examples
///
/// ```
/// use dr_core::{Assignment, PeerId};
///
/// let a = Assignment::round_robin(10, 3);
/// assert_eq!(a.peer_for(0), PeerId(0));
/// assert_eq!(a.peer_for(4), PeerId(1));
/// assert_eq!(a.bits_of(PeerId(0)), vec![0, 3, 6, 9]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    num_peers: usize,
    owner: Vec<u32>,
}

impl Assignment {
    /// The balanced initial assignment: bit `j` belongs to peer `j mod k`.
    ///
    /// # Panics
    ///
    /// Panics if `num_peers == 0`.
    pub fn round_robin(n: usize, num_peers: usize) -> Self {
        assert!(num_peers > 0, "need at least one peer");
        Assignment {
            num_peers,
            owner: (0..n).map(|j| (j % num_peers) as u32).collect(),
        }
    }

    /// Number of input bits covered.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether the assignment covers zero bits.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Number of peers in the universe.
    pub fn num_peers(&self) -> usize {
        self.num_peers
    }

    /// The peer responsible for bit `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn peer_for(&self, j: usize) -> PeerId {
        PeerId(self.owner[j] as usize)
    }

    /// All bits assigned to `peer`, in increasing order.
    pub fn bits_of(&self, peer: PeerId) -> Vec<usize> {
        self.owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o as usize == peer.index())
            .map(|(j, _)| j)
            .collect()
    }

    /// Reassigns the given bits evenly among all peers, in a deterministic
    /// order (bits sorted; bit `r`-th in the sorted list goes to peer
    /// `r mod k`). All honest peers reassigning the same missing peer's bit
    /// set therefore produce identical assignments — the property behind
    /// Claim 1 of the paper.
    pub fn reassign_evenly(&mut self, bits: &[usize]) {
        let mut sorted: Vec<usize> = bits.to_vec();
        sorted.sort_unstable();
        for (r, &j) in sorted.iter().enumerate() {
            self.owner[j] = (r % self.num_peers) as u32;
        }
    }

    /// Maximum number of bits assigned to any single peer (the per-phase
    /// query load).
    pub fn max_load(&self) -> usize {
        let mut load = vec![0usize; self.num_peers];
        for &o in &self.owner {
            load[o as usize] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_balanced() {
        let a = Assignment::round_robin(100, 7);
        assert!(a.max_load() <= 100usize.div_ceil(7));
        for j in 0..100 {
            assert_eq!(a.peer_for(j), PeerId(j % 7));
        }
    }

    #[test]
    fn bits_of_inverts_peer_for() {
        let a = Assignment::round_robin(20, 4);
        for p in 0..4 {
            for &j in &a.bits_of(PeerId(p)) {
                assert_eq!(a.peer_for(j), PeerId(p));
            }
        }
    }

    #[test]
    fn reassign_is_deterministic_and_balanced() {
        let mut a = Assignment::round_robin(30, 5);
        let mut b = a.clone();
        let missing: Vec<usize> = a.bits_of(PeerId(2));
        a.reassign_evenly(&missing);
        // Same bits in a different order must produce the same result.
        let mut shuffled = missing.clone();
        shuffled.reverse();
        b.reassign_evenly(&shuffled);
        assert_eq!(a, b);
        // Former owner's bits are now spread across peers 0..missing.len().
        for (r, &j) in missing.iter().enumerate() {
            assert_eq!(a.peer_for(j), PeerId(r % 5));
        }
    }

    #[test]
    fn reassign_leaves_other_bits_untouched() {
        let mut a = Assignment::round_robin(12, 3);
        let before: Vec<PeerId> = (0..12).map(|j| a.peer_for(j)).collect();
        a.reassign_evenly(&[1, 4]);
        for (j, &prev) in before.iter().enumerate() {
            if j != 1 && j != 4 {
                assert_eq!(a.peer_for(j), prev);
            }
        }
    }

    #[test]
    fn empty_assignment() {
        let a = Assignment::round_robin(0, 3);
        assert!(a.is_empty());
        assert_eq!(a.max_load(), 0);
    }
}
