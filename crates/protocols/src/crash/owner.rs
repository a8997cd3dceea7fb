//! The canonical per-phase bit-ownership function of Algorithm 2.
//!
//! Algorithm 2's correctness hinges on Claim 1: two honest peers either
//! assign a bit to the same peer, or one of them already knows it. The
//! paper achieves this with a deterministic even reassignment in stage 3.
//! We realize it with a *global* ownership function `owner(j, phase, k)`
//! — a pure function of the bit index, phase, and peer count — so that
//! agreement is structural: every peer's phase-`i` assignment of its
//! unknown bits is `owner(·, i)` regardless of execution history, making
//! the first disjunct of Claim 1 hold identically for all unknown bits.
//!
//! Phase 1 is the balanced round-robin `j mod k` of the paper, so a peer's
//! phase-1 set is the stride `p, p + k, …` ([`round_robin`]). Later
//! phases use a `splitmix64`-style hash of `(j, phase)`: each phase deals
//! any unknown set out in fresh, phase-independent proportions, so a bit
//! whose current owner has crashed lands on a live owner with probability
//! `1 − β` in the next phase — the geometric `β`-shrink of the unknown
//! set that Lemma 2.11's query bound rests on. (A fixed digit-based
//! rotation cannot do this: with only `log_k n` digit positions, an
//! adversary that crashes the right `k/2` peers can leave a quarter of
//! the input permanently assigned to dead owners.)

use dr_core::collections::DetMap;
use dr_core::sync::{Mutex, PoisonError};
use dr_core::{BitIndices, PeerId};
use std::sync::{Arc, OnceLock, Weak};

/// `splitmix64` finalizer: a high-quality 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The peer responsible for querying bit `j` in the given 1-based phase.
///
/// # Panics
///
/// Panics if `k == 0` or `phase == 0`.
pub fn owner(j: usize, phase: usize, k: usize) -> usize {
    assert!(k > 0, "k must be positive");
    assert!(phase > 0, "phases are 1-based");
    if phase == 1 {
        j % k
    } else {
        (splitmix64(j as u64 ^ (phase as u64).wrapping_mul(0xa076_1d64_78bd_642f)) % k as u64)
            as usize
    }
}

/// Peer `peer`'s bit set `{j : owner(j, 1, k) = peer}` in phase 1 over `n`
/// bits: the round-robin stride `peer, peer + k, …`, computed, never
/// tabulated.
pub(crate) fn round_robin(n: usize, k: usize, peer: PeerId) -> BitIndices<'static> {
    BitIndices::stride_below(n, peer.index(), k)
}

/// One hashed phase (≥ 2) of [`owner`], tabulated: every peer's bit set
/// `{j : owner(j, phase, k) = peer}` as a slice of one index array (CSR
/// layout). Phase 1 needs no table: its sets are [`round_robin`] strides.
///
/// `owner` is global, so the table is the same for every peer of every
/// execution with the same `(n, k, phase)`: [`Partition::shared`] hands
/// all of them one `Arc`. The registry behind it is a memo of a pure
/// function — which instance built the table, or whether it was built at
/// all, changes no bit of it — so sharing it across peers, simulations and
/// threads is invisible to determinism.
#[derive(Debug)]
pub(crate) struct Partition {
    key: PartitionKey,
    /// The `n` bit indices grouped by owner, ascending within a group.
    idx: Vec<u32>,
    /// Peer `p`'s group is `idx[start[p]..start[p + 1]]`.
    start: Vec<u32>,
}

/// `(n, k, phase)`.
type PartitionKey = (usize, usize, u32);

type Registry = Mutex<DetMap<PartitionKey, Weak<Partition>>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(DetMap::new()))
}

impl Partition {
    /// The partition of `n` bits over `k` peers in the given hashed
    /// phase, built by the first caller and shared with every later one
    /// for as long as any of them holds it.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `phase < 2` or `n` does not fit a `u32`.
    pub(crate) fn shared(n: usize, k: usize, phase: u32) -> Arc<Partition> {
        assert!(
            phase >= 2,
            "phase-1 owner sets are strides, never tabulated"
        );
        let key = (n, k, phase);
        // The map is valid between any two statements below, so a
        // panicking builder (bad arguments) must not wedge everyone else.
        let mut live = registry().lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(shared) = live.get(&key).and_then(Weak::upgrade) {
            return shared;
        }
        // Built under the lock: concurrent first callers wait for one
        // table instead of each building their own.
        let built = Arc::new(Partition::build(key));
        live.insert(key, Arc::downgrade(&built));
        built
    }

    /// Counting sort of `0..n` by owner.
    fn build(key: PartitionKey) -> Partition {
        let (n, k, phase) = key;
        assert!(u32::try_from(n).is_ok(), "n = {n} does not fit a u32 index");
        let owner_of = |j: usize| owner(j, phase as usize, k);
        let mut start = vec![0u32; k + 1];
        for j in 0..n {
            start[owner_of(j) + 1] += 1;
        }
        for p in 0..k {
            start[p + 1] += start[p];
        }
        let mut next = start.clone();
        let mut idx = vec![0u32; n];
        for j in 0..n {
            let slot = &mut next[owner_of(j)];
            idx[*slot as usize] = j as u32;
            *slot += 1;
        }
        Partition { key, idx, start }
    }

    /// The sorted bit indices `peer` owns in this phase.
    pub(crate) fn set(&self, peer: PeerId) -> &[u32] {
        let p = peer.index();
        &self.idx[self.start[p] as usize..self.start[p + 1] as usize]
    }
}

impl Drop for Partition {
    /// The last holder is gone: forget the entry, unless a newer table
    /// for the same key has already replaced it.
    fn drop(&mut self) {
        let mut live = registry().lock().unwrap_or_else(PoisonError::into_inner);
        if live
            .get(&self.key)
            .is_some_and(|entry| entry.strong_count() == 0)
        {
            live.remove(&self.key);
        }
    }
}

/// Number of `(n, k)` partitions (one per hashed phase) that instances of
/// [`CrashMultiDownload`](super::CrashMultiDownload) currently hold,
/// process-wide — for tests of the sharing.
#[doc(hidden)]
pub fn live_partitions(n: usize, k: usize) -> usize {
    let live = registry().lock().unwrap_or_else(PoisonError::into_inner);
    live.range((n, k, 0)..=(n, k, u32::MAX)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_one_is_round_robin() {
        for j in 0..100 {
            assert_eq!(owner(j, 1, 7), j % 7);
        }
    }

    #[test]
    fn later_phases_are_roughly_balanced() {
        let k = 8;
        let n = 8192;
        for phase in 2..8 {
            let mut load = vec![0usize; k];
            for j in 0..n {
                load[owner(j, phase, k)] += 1;
            }
            let expect = n / k;
            for (p, &l) in load.iter().enumerate() {
                assert!(
                    l > expect / 2 && l < expect * 2,
                    "phase {phase} peer {p} load {l} far from {expect}"
                );
            }
        }
    }

    #[test]
    fn dead_owner_sets_drain_geometrically() {
        // The scenario that breaks digit-based schemes: peers 0..k/2
        // crash; their phase-1 bits must not stay stuck on dead owners.
        let k = 32;
        let n = 8192;
        let dead = |p: usize| p < k / 2;
        let mut unknown: Vec<usize> = (0..n).filter(|&j| dead(owner(j, 1, k))).collect();
        for phase in 2..12 {
            let before = unknown.len();
            unknown.retain(|&j| dead(owner(j, phase, k)));
            // Expect roughly a β = 1/2 shrink; allow generous slack.
            assert!(
                unknown.len() < before * 3 / 4 + 8,
                "phase {phase}: {before} -> {} (stuck)",
                unknown.len()
            );
            if unknown.is_empty() {
                return;
            }
        }
        assert!(
            unknown.len() < n / k,
            "unknown set failed to drain: {} left",
            unknown.len()
        );
    }

    /// The indices of the ascending `set` of bits below `n`.
    fn listed(n: usize, set: BitIndices<'_>) -> Vec<usize> {
        dr_core::PartialArray::new(n)
            .unknown_among(set)
            .ones()
            .collect()
    }

    #[test]
    fn round_robin_is_phase_one_of_owner() {
        for (n, k) in [(1003, 7), (3, 5), (0, 4), (128, 64), (130, 64)] {
            let mut seen = 0;
            for p in 0..k {
                let expected: Vec<usize> = (0..n).filter(|&j| owner(j, 1, k) == p).collect();
                let set = round_robin(n, k, PeerId(p));
                assert_eq!(set.len(), expected.len(), "n {n} k {k} peer {p}");
                assert_eq!(listed(n, set), expected, "n {n} k {k} peer {p}");
                seen += expected.len();
            }
            assert_eq!(seen, n);
        }
    }

    #[test]
    #[should_panic(expected = "never tabulated")]
    fn phase_one_has_no_partition() {
        let _ = Partition::shared(1013, 7, 1);
    }

    #[test]
    fn partition_tabulates_owner() {
        // Sizes no other test uses: the registry is process-wide.
        let (n, k) = (1003, 7);
        for phase in [2, 5] {
            let partition = Partition::shared(n, k, phase);
            let mut seen = 0;
            for p in 0..k {
                let expected: Vec<u32> = (0..n)
                    .filter(|&j| owner(j, phase as usize, k) == p)
                    .map(|j| j as u32)
                    .collect();
                assert_eq!(partition.set(PeerId(p)), expected, "phase {phase} peer {p}");
                seen += expected.len();
            }
            assert_eq!(seen, n);
        }
        // More peers than bits: some peers own nothing.
        let sparse = Partition::shared(3, 5, 2);
        let owned: Vec<usize> = (0..5).map(|p| sparse.set(PeerId(p)).len()).collect();
        assert_eq!(owned.iter().sum::<usize>(), 3);
        assert!(owned.contains(&0));
    }

    #[test]
    fn partition_is_shared_while_held_and_forgotten_after() {
        let key = (1009, 11, 3);
        let held = |key: &PartitionKey| registry().lock().unwrap().contains_key(key);
        let first = Partition::shared(key.0, key.1, key.2);
        let second = Partition::shared(key.0, key.1, key.2);
        assert!(Arc::ptr_eq(&first, &second));
        assert!(!Arc::ptr_eq(&first, &Partition::shared(key.0, key.1, 4)));
        assert!(
            !held(&(key.0, key.1, 4)),
            "dropped at the end of its statement"
        );
        drop(first);
        assert!(held(&key), "one holder left");
        drop(second);
        assert!(!held(&key));
        // A later caller starts over.
        let again = Partition::shared(key.0, key.1, key.2);
        assert_eq!(Arc::strong_count(&again), 1);
    }

    #[test]
    fn owner_is_globally_consistent() {
        // Pure function of (j, phase, k) — the Claim 1 mechanism.
        for j in [0usize, 3, 17, 999] {
            for phase in 1..6 {
                assert_eq!(owner(j, phase, 8), owner(j, phase, 8));
            }
        }
    }

    #[test]
    fn different_phases_give_different_deals() {
        let k = 16;
        let same: usize = (0..1000)
            .filter(|&j| owner(j, 2, k) == owner(j, 3, k))
            .count();
        // Independent uniform deals agree on ~1/k of the bits.
        assert!(same < 1000 / 4, "phases 2 and 3 deal almost identically");
    }
}
