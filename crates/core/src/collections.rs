//! Deterministic collection aliases for protocol and simulator state.
//!
//! Everything the repo promises about reproducibility — bit-identical
//! schedule replay, seed-equivalent parallel trials, 1-minimal chaos
//! repros — rests on iteration order being a pure function of the data.
//! `std::collections::HashMap`/`HashSet` break that promise: their
//! iteration order depends on a per-instance random hash seed, so any
//! code that iterates one is one refactor away from silently breaking
//! replay. The workspace's root `clippy.toml` therefore lists both as
//! `disallowed-types`, so `cargo clippy -- -D warnings` rejects them in
//! every workspace crate, and this module provides the sanctioned
//! replacements:
//!
//! * [`DetMap`] — a `BTreeMap`: iteration in ascending key order.
//! * [`DetSet`] — a `BTreeSet`: iteration in ascending element order.
//!
//! The aliases carry intent ("this map is protocol state whose order can
//! leak into behaviour") and give the workspace a single seam should a
//! faster deterministic map (e.g. an insertion-ordered index map) ever be
//! vendored.
//!
//! # Examples
//!
//! ```
//! use dr_core::collections::{DetMap, DetSet};
//!
//! let mut votes: DetMap<u32, usize> = DetMap::new();
//! votes.insert(7, 1);
//! votes.insert(3, 2);
//! // Iteration order is the key order, not insertion or hash order.
//! assert_eq!(votes.keys().copied().collect::<Vec<_>>(), vec![3, 7]);
//!
//! let mut seen: DetSet<(u32, u32)> = DetSet::new();
//! assert!(seen.insert((1, 2)));
//! assert!(!seen.insert((1, 2)));
//! ```

/// Deterministic map: iterates in ascending key order regardless of
/// insertion order. Use for any keyed state (clippy rejects
/// `std::collections::HashMap`; see the root `clippy.toml`).
pub type DetMap<K, V> = std::collections::BTreeMap<K, V>;

/// Deterministic set: iterates in ascending element order regardless of
/// insertion order. Use for any set-shaped state (clippy rejects
/// `std::collections::HashSet`; see the root `clippy.toml`).
pub type DetSet<T> = std::collections::BTreeSet<T>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_order_is_insertion_independent() {
        let mut a: DetMap<u64, u64> = DetMap::new();
        let mut b: DetMap<u64, u64> = DetMap::new();
        for i in 0..64 {
            a.insert(i, i * i);
            b.insert(63 - i, (63 - i) * (63 - i));
        }
        assert!(a.iter().eq(b.iter()));

        let mut s: DetSet<u64> = DetSet::new();
        let mut t: DetSet<u64> = DetSet::new();
        for i in 0..64 {
            s.insert(i ^ 0x2a);
            t.insert((63 - i) ^ 0x2a);
        }
        assert!(s.iter().eq(t.iter()));
    }
}
