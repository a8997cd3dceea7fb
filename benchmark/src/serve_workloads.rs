//! The two front-door workloads.
//!
//! Both drive [`FrontDoor::serve`] in a **closed loop** from
//! [`ServeSizes::clients`] client threads (two: one per core of the box
//! the bounds were fixed on): a client sends its next request only when
//! the previous reply has arrived and been checked against the input.
//! All load is generated in-process; no delay is injected upstream — the
//! upstream is an in-memory `ArraySource`, and its cost is reported as
//! counts (`upstream_bits_per_req`, calls), not as sleep.
//!
//! * `serve_warm`: every slot is served once in set-up, then each round
//!   is a fixed batch of requests with the slot drawn log-uniform — the
//!   hit side of `core::cached` and the gate of `runtime::serve`.
//! * `serve_cold`: every round is one pass over a **fresh** door, the
//!   slots scanned disjointly (client `c` takes slots `≡ c` mod clients)
//!   — the miss / claim / insert side.

use crate::trace::{SourceCounters, TracedSource};
use dr_core::{ArraySource, BitArray, CacheStats, PeerId};
use dr_runtime::{FrontDoor, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A front-door workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeWorkload {
    /// Every request a cache hit.
    Warm,
    /// Every request a cache miss.
    Cold,
}

/// Base seed of the input array and the slot draws; `--seed` is added.
pub const BASE_SEED: u64 = 7;

/// Sizes of the front-door workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServeSizes {
    /// Bits in the source.
    pub n: usize,
    /// Bits per request: the source is `n / slot_bits` slots.
    pub slot_bits: usize,
    /// Fleet size of the door.
    pub fleet: usize,
    /// Admission bound of the door.
    pub max_in_flight: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// `serve_warm`: requests per client per round.
    pub warm_requests: usize,
}

/// The benchmark's sizes.
pub const FULL: ServeSizes = ServeSizes {
    n: 1 << 26,
    slot_bits: 1 << 16,
    fleet: 4,
    max_in_flight: 2,
    clients: 2,
    warm_requests: 15_000,
};

/// Tiny sizes for `--quick` and the tests.
pub const QUICK: ServeSizes = ServeSizes {
    n: 1 << 18,
    slot_bits: 1 << 12,
    fleet: 4,
    max_in_flight: 2,
    clients: 2,
    warm_requests: 500,
};

impl ServeSizes {
    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.n / self.slot_bits
    }

    fn config(&self) -> ServeConfig {
        ServeConfig::new(self.fleet).with_max_in_flight(self.max_in_flight)
    }
}

/// A door, the input it serves, and how to read its upstream counters.
pub struct Door {
    /// The door under test.
    pub door: FrontDoor,
    input: BitArray,
    /// Longest chain of sequential upstream calls any one request made.
    upstream_chain: u64,
}

/// What a door did over its whole life, set-up included. These repeat
/// exactly for a given workload, sizes and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoorFacts {
    /// Most bits any fleet peer was charged (the paper's Q, for the
    /// fleet).
    pub q_max: u64,
    /// Longest chain of sequential upstream calls in one request.
    pub upstream_chain: u64,
    /// Upstream calls.
    pub upstream_calls: u64,
    /// Upstream bits.
    pub upstream_bits: u64,
}

impl Door {
    /// Cache counters of the door.
    pub fn stats(&self) -> CacheStats {
        self.door.plane().cache().stats()
    }

    /// The door's life so far.
    pub fn facts(&self) -> DoorFacts {
        let stats = self.stats();
        DoorFacts {
            q_max: self
                .door
                .meter()
                .max_over((0..self.door.meter().counts().len()).map(PeerId)),
            upstream_chain: self.upstream_chain,
            upstream_calls: stats.upstream_calls,
            upstream_bits: stats.upstream_bits,
        }
    }
}

/// The input array for `seed`.
pub fn input(sizes: &ServeSizes, seed: u64) -> BitArray {
    let mut rng = StdRng::seed_from_u64(BASE_SEED.wrapping_add(seed));
    BitArray::random(sizes.n, &mut rng)
}

/// A fresh, empty door over `input`; with `counters`, its upstream is
/// wrapped in a [`TracedSource`].
pub fn open_door(
    sizes: &ServeSizes,
    input: &BitArray,
    counters: Option<&Arc<SourceCounters>>,
) -> Door {
    let upstream = ArraySource::new(input.clone());
    let door = match counters {
        Some(c) => FrontDoor::new(TracedSource::new(upstream, Arc::clone(c)), sizes.config()),
        None => FrontDoor::new(upstream, sizes.config()),
    };
    Door {
        door,
        input: input.clone(),
        upstream_chain: 0,
    }
}

/// What one round of requests measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Wall time from the clients' common start to the last reply.
    pub wall_s: f64,
    /// Per-request latency in nanoseconds, as each client timed it
    /// around `serve`.
    pub latencies_ns: Vec<u32>,
    /// Requests whose bits differed from the input.
    pub failed: u64,
    /// Sum of `RequestOutcome.queued`.
    pub gate_wait: Duration,
    /// Sum of `RequestOutcome.service`.
    pub service: Duration,
    /// Longest chain of sequential upstream calls in one request.
    pub upstream_chain: u64,
    /// Order-independent digest of what was served (slot and first word
    /// of every reply).
    pub digest: u64,
}

impl Round {
    /// Requests attempted.
    pub fn requests(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    fn absorb(&mut self, other: Round) {
        self.latencies_ns.extend(other.latencies_ns);
        self.failed += other.failed;
        self.gate_wait += other.gate_wait;
        self.service += other.service;
        self.upstream_chain = self.upstream_chain.max(other.upstream_chain);
        self.digest = self.digest.wrapping_add(other.digest);
    }
}

/// Serves `slot` and checks the reply word by word against the input
/// (slots are word-aligned, so no copy is needed to compare).
fn request(door: &Door, sizes: &ServeSizes, slot: usize, round: &mut Round) {
    let lo = slot * sizes.slot_bits;
    let started = Instant::now();
    let out = door.door.serve(lo..lo + sizes.slot_bits);
    let latency = started.elapsed();
    round
        .latencies_ns
        .push(latency.as_nanos().min(u32::MAX as u128) as u32);
    round.gate_wait += out.queued;
    round.service += out.service;
    round.upstream_chain = round.upstream_chain.max(out.receipt.upstream_calls);
    let base = lo / 64;
    let intact = out.bits.len() == sizes.slot_bits
        && (0..out.bits.word_count()).all(|w| out.bits.word(w) == door.input.word(base + w));
    if !intact {
        round.failed += 1;
    }
    round.digest = round
        .digest
        .wrapping_add((slot as u64 + 1).wrapping_mul(out.bits.word(0) | 1));
}

/// Runs one closed-loop round: every client thread serves the slots
/// `slots_of(client)` yields, all starting together.
fn run_round<I: Iterator<Item = usize>>(
    door: &mut Door,
    sizes: &ServeSizes,
    slots_of: impl Fn(usize) -> I + Sync,
) -> Round {
    let start = Barrier::new(sizes.clients + 1);
    let (parts, wall_s) = {
        let door = &*door;
        let start = &start;
        let slots_of = &slots_of;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sizes.clients)
                .map(|client| {
                    scope.spawn(move || {
                        let mut part = Round::default();
                        start.wait();
                        for slot in slots_of(client) {
                            request(door, sizes, slot, &mut part);
                        }
                        part
                    })
                })
                .collect();
            start.wait();
            let started = Instant::now();
            let parts: Vec<Round> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (parts, started.elapsed().as_secs_f64())
        })
    };
    let mut round = Round {
        wall_s,
        ..Round::default()
    };
    for part in parts {
        round.absorb(part);
    }
    door.upstream_chain = door.upstream_chain.max(round.upstream_chain);
    round
}

/// Serves every slot once, disjointly across the clients: `serve_warm`'s
/// pre-fill and the whole of a `serve_cold` pass. `rotate` shifts where
/// each client's scan begins.
pub fn scan_pass(door: &mut Door, sizes: &ServeSizes, rotate: u64) -> Round {
    let slots = sizes.slots();
    let clients = sizes.clients;
    let per_client = slots.div_ceil(clients);
    let shift = (rotate % per_client.max(1) as u64) as usize;
    run_round(door, sizes, |client| {
        (0..per_client)
            .map(move |i| ((i + shift) % per_client) * clients + client)
            .filter(move |&slot| slot < slots)
    })
}

/// One `serve_warm` round: each client draws `warm_requests` slots
/// log-uniformly (`slots^u`, u uniform), so low slots are hot and the
/// tail is long — every one of them already cached.
pub fn warm_round(door: &mut Door, sizes: &ServeSizes, seed: u64, round: u64) -> Round {
    let slots = sizes.slots();
    run_round(door, sizes, |client| {
        let mut rng = StdRng::seed_from_u64(
            BASE_SEED
                .wrapping_add(seed)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(round << 8 | client as u64),
        );
        (0..sizes.warm_requests).map(move |_| {
            let u: f64 = rng.gen();
            (((slots + 1) as f64).powf(u) as usize).clamp(1, slots) - 1
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scan_pass_touches_every_slot_once_whatever_the_rotation() {
        for rotate in [0, 3, 1000] {
            let input = input(&QUICK, 0);
            let mut door = open_door(&QUICK, &input, None);
            let round = scan_pass(&mut door, &QUICK, rotate);
            assert_eq!(round.requests(), QUICK.slots() as u64);
            assert_eq!(round.failed, 0);
            let facts = door.facts();
            assert_eq!(facts.upstream_bits, QUICK.n as u64, "each bit fetched once");
            assert_eq!(facts.q_max, (QUICK.n / QUICK.fleet) as u64);
            assert_eq!(facts.upstream_chain, QUICK.fleet as u64);
        }
    }

    #[test]
    fn warm_rounds_cost_nothing_upstream_and_repeat_for_a_seed() {
        let input = input(&QUICK, 1);
        let mut door = open_door(&QUICK, &input, None);
        scan_pass(&mut door, &QUICK, 0);
        let before = door.facts();
        let a = warm_round(&mut door, &QUICK, 1, 0);
        let b = warm_round(&mut door, &QUICK, 1, 0);
        let c = warm_round(&mut door, &QUICK, 1, 1);
        assert_eq!(a.requests(), (QUICK.clients * QUICK.warm_requests) as u64);
        assert_eq!((a.failed, a.upstream_chain), (0, 0));
        assert_eq!(a.digest, b.digest, "same seed and round, same draws");
        assert_ne!(a.digest, c.digest, "another round draws afresh");
        assert_eq!(door.facts(), before);
    }

    #[test]
    fn a_corrupted_reply_is_counted_as_failed() {
        let served = input(&QUICK, 2);
        let mut door = open_door(&QUICK, &served, None);
        // The client checks against a different array than the door serves.
        door.input = input(&QUICK, 3);
        let round = scan_pass(&mut door, &QUICK, 0);
        assert_eq!(round.failed, round.requests());
    }
}
