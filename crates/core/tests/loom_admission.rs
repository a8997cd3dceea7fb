//! Exhaustive model checks for the admission plane's single-flight path.
//!
//! Run with `cargo test -p dr-core --features loom-model --test
//! loom_admission`. Under the `loom-model` feature the `crate::sync`
//! facade swaps the per-shard mutex/condvar for the vendored loom
//! implementations, and `loom::model` explores every interleaving of the
//! claim/fetch/fill/notify protocol. Four properties are load-bearing:
//!
//! 1. **Exactly one upstream query per coalesced group** — concurrent
//!    misses on the same words must produce one upstream `bits` call, no
//!    matter how claim and wait steps interleave.
//! 2. **No lost wakeups** — a waiter parked on the shard condvar is
//!    always eventually released by the leader's fill (a lost wakeup
//!    shows up as a deadlock, which loom detects).
//! 3. **Leader panic does not deadlock followers** — a panicking
//!    upstream unwinds through the leader, un-claims its runs, and wakes
//!    waiters so they re-elect (and themselves observe the panic) rather
//!    than parking forever.
//! 4. **A page is shared, its words are not** — two readers whose ranges
//!    split one page claim disjoint word runs of it, coalesce only on the
//!    words the other already has in flight, and fill the same page
//!    without losing each other's presence bits.
#![cfg(feature = "loom-model")]

use dr_core::{ArraySource, BitArray, CachedSource, Source};
use loom::sync::Arc;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn concurrent_misses_coalesce_to_one_upstream_query() {
    loom::model(|| {
        let input = BitArray::from_fn(64, |i| i % 3 == 0);
        let cache = Arc::new(CachedSource::new(ArraySource::new(input.clone()), 1));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let input = input.clone();
                loom::thread::spawn(move || {
                    assert_eq!(Source::bits(&*cache, 0..64), input);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        // Whether the readers raced (one leads, one coalesces) or ran
        // sequentially (one leads, one hits), the word went upstream once.
        assert_eq!(stats.upstream_calls, 1);
        assert_eq!(stats.upstream_bits, 64);
        assert_eq!(stats.misses + stats.hits, 2);
    });
}

#[test]
fn overlapping_ranges_never_double_fetch_or_lose_waiters() {
    loom::model(|| {
        let input = BitArray::from_fn(128, |i| i % 5 == 0);
        let cache = Arc::new(CachedSource::new(ArraySource::new(input.clone()), 1));
        let a = {
            let cache = Arc::clone(&cache);
            let input = input.clone();
            loom::thread::spawn(move || {
                assert_eq!(Source::bits(&*cache, 0..128), input);
            })
        };
        let b = {
            let cache = Arc::clone(&cache);
            let input = input.clone();
            loom::thread::spawn(move || {
                assert_eq!(Source::bits(&*cache, 64..128), input.slice(64..128));
            })
        };
        // A lost wakeup would leave a reader parked on the shard condvar
        // with no leader left to notify — loom reports that as deadlock.
        a.join().unwrap();
        b.join().unwrap();
        // Word 1 overlaps both readers; it still went upstream once.
        assert_eq!(cache.stats().upstream_bits, 128);
    });
}

#[test]
fn readers_splitting_one_page_lead_disjoint_runs() {
    loom::model(|| {
        // One page: A asks words 0..32, B asks words 16..64.
        let input = BitArray::from_fn(64 * 64, |i| i % 7 < 3);
        let cache = Arc::new(CachedSource::new(ArraySource::new(input.clone()), 1));
        let reader = |words: std::ops::Range<usize>| {
            let cache = Arc::clone(&cache);
            let input = input.clone();
            loom::thread::spawn(move || {
                let bits = words.start * 64..words.end * 64;
                let mut fetched = Vec::new();
                let (got, receipt) = cache.read_range_with(bits.clone(), &mut |r| fetched.push(r));
                assert_eq!(got, input.slice(bits));
                (receipt, fetched)
            })
        };
        let a = reader(0..32);
        let b = reader(16..64);
        let (ra, fetched_a) = a.join().unwrap();
        let (rb, fetched_b) = b.join().unwrap();
        // Whoever saw words 16..32 second found them in flight or cached;
        // B always leads 32..64 itself, and in the racing schedule where A
        // claimed first it coalesces on exactly 16..32.
        assert_eq!(ra.hit_words + ra.coalesced_words + ra.fetched_words, 32);
        assert_eq!(rb.hit_words + rb.coalesced_words + rb.fetched_words, 48);
        assert_eq!(ra.fetched_words + rb.fetched_words, 64);
        assert!(rb.fetched_words >= 32 && rb.coalesced_words <= 16);
        if rb.coalesced_words == 16 {
            assert_eq!(fetched_a, vec![0..32 * 64]);
            assert_eq!(fetched_b, vec![32 * 64..64 * 64]);
        }
        // Each word went upstream once, and both fills landed in the page.
        let stats = cache.stats();
        assert_eq!(stats.upstream_bits, 64 * 64);
        assert_eq!(stats.upstream_calls, ra.upstream_calls + rb.upstream_calls);
        assert_eq!(stats.resident_words, 64);
        assert_eq!(Source::bits(&*cache, 0..64 * 64), input);
        assert_eq!(cache.stats().upstream_bits, 64 * 64);
    });
}

#[test]
fn leader_panic_unclaims_and_wakes_followers() {
    struct Grenade;
    impl Source for Grenade {
        fn len(&self) -> usize {
            64
        }
        fn bit(&self, _index: usize) -> bool {
            panic!("upstream exploded");
        }
    }
    loom::model(|| {
        let cache = Arc::new(CachedSource::new(Grenade, 1));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = Arc::clone(&cache);
                loom::thread::spawn(move || {
                    // Each reader either leads (and observes the upstream
                    // panic directly) or coalesces behind the leader, gets
                    // woken by the panic cleanup, re-elects itself, and
                    // then observes the panic. Parking forever is the bug
                    // class under check; loom flags it as deadlock.
                    catch_unwind(AssertUnwindSafe(|| {
                        let _ = Source::bits(&*cache, 0..64);
                    }))
                    .is_err()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "every reader must observe the panic");
        }
        // Nothing was ever successfully fetched or left claimed.
        let stats = cache.stats();
        assert_eq!(stats.upstream_bits, 0);
        assert_eq!(stats.resident_words, 0);
    });
}
