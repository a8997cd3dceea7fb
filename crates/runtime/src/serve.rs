//! Multi-client front door over one peer fleet.
//!
//! The paper's §4 deployment picture (oracle networks à la DORA) has many
//! clients pulling data through a single fleet of peers, with queries to
//! the external source as the expensive resource. [`FrontDoor`] is the
//! in-process version of that service:
//!
//! * it accepts **many concurrent download requests**
//!   ([`FrontDoor::try_serve`], or [`FrontDoor::serve`] for callers whose
//!   ranges are known good, from any number of client threads),
//! * admission is **bounded**: at most `max_in_flight` requests are served
//!   at once, the rest block at the gate (backpressure instead of
//!   unbounded queue growth); a range that ends past the source is
//!   refused with a [`ServeError`] before it takes a permit, and a request
//!   that unwinds (an upstream panic) gives its permit back,
//! * each admitted request is **fanned over the peer fleet**: its range is
//!   split into contiguous per-peer spans, each read through the shared
//!   [`AdmissionPlane`] so the peer that fetches is charged amortized `Q`,
//! * **overlap is served from the plane**: ranges already fetched (by this
//!   request or any earlier/concurrent one) cost no upstream queries;
//!   concurrent misses on the same words wait for one metered fetch.
//!
//! Each request gets a [`RequestOutcome`] with its bits, wall-clock
//! latency split into gate wait vs. service time, and the aggregated
//! [`ReadReceipt`] — `metered_bits` is the request's *attributed* share of
//! upstream `Q`: the full range on a cold read, zero on a warm one.

use dr_core::{AdmissionPlane, BitArray, PeerId, QueryMeter, ReadReceipt, Source};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Configuration of a [`FrontDoor`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Fleet size: requests are striped over this many metered peers.
    pub num_peers: usize,
    /// Maximum concurrently-served requests; further callers block at the
    /// admission gate until a slot frees.
    pub max_in_flight: usize,
}

impl ServeConfig {
    /// A front door over `num_peers` peers with an in-flight bound of
    /// `2 × num_peers`. Its admission plane keeps one cache shard per peer.
    pub fn new(num_peers: usize) -> Self {
        assert!(num_peers > 0, "front door needs at least one peer");
        ServeConfig {
            num_peers,
            max_in_flight: 2 * num_peers,
        }
    }

    /// Overrides the in-flight admission bound.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        assert!(max_in_flight > 0, "admission bound must be positive");
        self.max_in_flight = max_in_flight;
        self
    }
}

/// Counting semaphore for bounded admission: a permit count under a
/// mutex, and a condvar that wakes one waiter per returned permit.
struct Gate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new(permits: usize) -> Self {
        Gate {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a permit is free and takes it; dropping the returned
    /// guard gives it back, on unwind too.
    fn acquire(&self) -> Permit<'_> {
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *permits == 0 {
            permits = self
                .cv
                .wait(permits)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *permits -= 1;
        Permit(self)
    }
}

/// One admitted request's hold on the [`Gate`].
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        {
            let mut permits = self
                .0
                .permits
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *permits += 1;
        }
        self.0.cv.notify_one();
    }
}

/// Why [`FrontDoor::try_serve`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The requested range ends past the source.
    OutOfRange {
        /// The range asked for.
        range: Range<usize>,
        /// Bits in the source.
        len: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::OutOfRange { range, len } => {
                write!(f, "range {range:?} out of bounds for source of {len} bits")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Outcome of one served request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The requested bits.
    pub bits: BitArray,
    /// Aggregated per-word accounting across the fleet fan-out.
    pub receipt: ReadReceipt,
    /// Upstream bits this request was charged for (its amortized `Q`
    /// share). Equal to `receipt.fetched_bits`; hits cost nothing.
    pub metered_bits: u64,
    /// Time spent blocked at the admission gate.
    pub queued: Duration,
    /// Time spent being served (fan-out + plane reads) after admission.
    pub service: Duration,
}

/// An in-process multi-client download service: bounded admission in
/// front of an [`AdmissionPlane`]-backed peer fleet.
///
/// Cloning is cheap; clones share the fleet, cache, meter, and gate.
///
/// # Examples
///
/// ```
/// use dr_core::{ArraySource, BitArray};
/// use dr_runtime::{FrontDoor, ServeConfig};
///
/// let input = BitArray::from_fn(4096, |i| i % 3 == 0);
/// let door = FrontDoor::new(ArraySource::new(input.clone()), ServeConfig::new(4));
/// let cold = door.serve(0..2048);
/// assert_eq!(cold.bits, input.slice(0..2048));
/// assert!(cold.metered_bits > 0);
/// let warm = door.serve(0..2048); // fully cached: no upstream charge
/// assert_eq!(warm.metered_bits, 0);
/// ```
#[derive(Clone)]
pub struct FrontDoor {
    plane: AdmissionPlane,
    /// Fleet size: a request is split over peers `0..peers`.
    peers: usize,
    gate: Arc<Gate>,
}

impl FrontDoor {
    /// Builds a front door serving `source` through a fresh admission
    /// plane.
    pub fn new(source: impl Source + 'static, config: ServeConfig) -> Self {
        FrontDoor {
            plane: AdmissionPlane::new(source, config.num_peers, config.num_peers),
            peers: config.num_peers,
            gate: Arc::new(Gate::new(config.max_in_flight)),
        }
    }

    /// The shared admission plane (cache statistics, meter).
    pub fn plane(&self) -> &AdmissionPlane {
        &self.plane
    }

    /// The shared per-peer query meter.
    pub fn meter(&self) -> &Arc<QueryMeter> {
        self.plane.meter()
    }

    /// Bits in the underlying source.
    pub fn len(&self) -> usize {
        self.plane.len()
    }

    /// Whether the underlying source is empty.
    pub fn is_empty(&self) -> bool {
        self.plane.is_empty()
    }

    /// [`FrontDoor::try_serve`] for callers that know their range is in
    /// bounds.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > len()`.
    pub fn serve(&self, range: Range<usize>) -> RequestOutcome {
        self.try_serve(range).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Serves one download request, blocking at the admission gate if
    /// `max_in_flight` requests are already in service. A range that ends
    /// past the source is refused before it takes a place at the gate.
    ///
    /// The range is split into `num_peers` contiguous spans, each read
    /// through the plane on that peer's account: the peer whose read
    /// misses is charged for exactly the bits fetched upstream, while
    /// overlap with previously- or concurrently-served requests is free.
    ///
    /// # Panics
    ///
    /// Propagates a panic of the upstream source; the request's permit is
    /// returned to the gate first.
    pub fn try_serve(&self, range: Range<usize>) -> Result<RequestOutcome, ServeError> {
        if range.end > self.len() {
            return Err(ServeError::OutOfRange {
                range,
                len: self.len(),
            });
        }
        let arrived = Instant::now();
        let _permit = self.gate.acquire();
        let admitted = Instant::now();
        let total = range.len();
        let mut bits = BitArray::zeros(total);
        let mut receipt = ReadReceipt::default();
        // Contiguous per-peer spans, word-aligned at the seams so two
        // peers never split (and double-fetch) one cache word.
        let span = total.div_ceil(self.peers).div_ceil(64) * 64;
        for (p, offset) in (0..self.peers).zip((0..total).step_by(span.max(1))) {
            let end = (offset + span).min(total);
            let (chunk, r) = self
                .plane
                .query_range(PeerId(p), range.start + offset..range.start + end);
            bits.write_at(offset, &chunk);
            receipt.absorb(&r);
        }
        Ok(RequestOutcome {
            bits,
            metered_bits: receipt.fetched_bits,
            receipt,
            queued: admitted - arrived,
            service: admitted.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::ArraySource;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread;

    fn door(n: usize, peers: usize, seed: u64) -> (FrontDoor, BitArray) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = BitArray::random(n, &mut rng);
        (
            FrontDoor::new(ArraySource::new(input.clone()), ServeConfig::new(peers)),
            input,
        )
    }

    #[test]
    fn cold_then_warm() {
        let (door, input) = door(4096, 4, 1);
        let cold = door.serve(0..4096);
        assert_eq!(cold.bits, input);
        assert_eq!(cold.metered_bits, 4096);
        let warm = door.serve(0..4096);
        assert_eq!(warm.bits, input);
        assert_eq!(warm.metered_bits, 0);
        assert!(warm.receipt.is_free());
    }

    #[test]
    fn fan_out_attributes_q_across_the_fleet() {
        let (door, _) = door(4096, 4, 2);
        let outcome = door.serve(0..4096);
        assert_eq!(outcome.metered_bits, 4096);
        let counts = door.meter().counts();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts.iter().sum::<u64>(), 4096);
        // Even striping: no peer pays more than its word-aligned share.
        assert_eq!(door.meter().max_over((0..4).map(PeerId)), 1024);
    }

    #[test]
    fn partial_overlap_only_charges_the_gap() {
        let (door, input) = door(8192, 2, 3);
        let first = door.serve(0..4096);
        assert_eq!(first.metered_bits, 4096);
        let second = door.serve(2048..6144);
        assert_eq!(second.bits, input.slice(2048..6144));
        assert_eq!(second.metered_bits, 2048, "overlapping half is free");
        assert_eq!(second.receipt.hit_words, 32);
    }

    #[test]
    fn gate_bounds_concurrent_service() {
        // A source that tracks its own concurrent `bits` callers; with
        // max_in_flight = 1 the front door must fully serialize requests,
        // so the source never sees two overlapping calls.
        struct Tracking {
            inner: ArraySource,
            state: Mutex<(u32, u32)>, // (current, peak)
        }
        impl Source for Tracking {
            fn len(&self) -> usize {
                self.inner.len()
            }
            fn bit(&self, index: usize) -> bool {
                self.inner.bit(index)
            }
            fn bits(&self, range: Range<usize>) -> BitArray {
                {
                    let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                    s.0 += 1;
                    s.1 = s.1.max(s.0);
                }
                thread::sleep(Duration::from_micros(200));
                let out = Source::bits(&self.inner, range);
                self.state.lock().unwrap_or_else(PoisonError::into_inner).0 -= 1;
                out
            }
        }
        let mut rng = StdRng::seed_from_u64(4);
        let input = BitArray::random(2048, &mut rng);
        let tracking = Arc::new(Tracking {
            inner: ArraySource::new(input.clone()),
            state: Mutex::new((0, 0)),
        });
        let door = FrontDoor::new(
            Arc::clone(&tracking) as Arc<dyn Source>,
            ServeConfig::new(2).with_max_in_flight(1),
        );
        // dr-lint: allow(raw-thread-spawn): concurrent client threads in a test, joined by scope exit
        thread::scope(|scope| {
            for t in 0..4 {
                let door = door.clone();
                let input = &input;
                scope.spawn(move || {
                    let lo = t * 512;
                    let out = door.serve(lo..lo + 512);
                    assert_eq!(out.bits, input.slice(lo..lo + 512));
                });
            }
        });
        let peak = tracking
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .1;
        assert_eq!(peak, 1, "admission gate must serialize");
        // Disjoint ranges: every bit paid exactly once.
        assert_eq!(door.plane().cache().stats().upstream_bits, 2048);
    }

    /// An upstream that sleeps on every `bits` call, as a remote source
    /// would, so concurrent misses are still in flight when other clients
    /// reach the same words.
    struct Throttled(ArraySource);

    impl Source for Throttled {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn bit(&self, index: usize) -> bool {
            self.0.bit(index)
        }
        fn bits(&self, range: Range<usize>) -> BitArray {
            thread::sleep(Duration::from_micros(200));
            Source::bits(&self.0, range)
        }
    }

    #[test]
    fn concurrent_overlapping_requests_pay_once_total() {
        let (instant, input) = door(4096, 4, 5);
        let throttled = FrontDoor::new(
            Throttled(ArraySource::new(input.clone())),
            ServeConfig::new(4),
        );
        for door in [instant, throttled] {
            // dr-lint: allow(raw-thread-spawn): concurrent client threads in a test, joined by scope exit
            let outcomes: Vec<RequestOutcome> = thread::scope(|scope| {
                let clients: Vec<_> = (0..6)
                    .map(|_| {
                        let door = door.clone();
                        scope.spawn(move || door.serve(0..4096))
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("client thread panicked"))
                    .collect()
            });
            // Only what holds under every interleaving: whether a word is
            // a hit or fetched depends on timing.
            for out in &outcomes {
                assert_eq!(out.bits, input);
                let r = &out.receipt;
                assert_eq!(r.hit_words + r.fetched_words, 64);
            }
            // Six clients, one array: the plane pays n bits upstream, total.
            let fetched: u64 = outcomes.iter().map(|o| o.receipt.fetched_bits).sum();
            assert_eq!(fetched, 4096);
            assert_eq!(door.plane().cache().stats().upstream_bits, 4096);
            assert_eq!(door.meter().counts().iter().sum::<u64>(), 4096);
        }
    }

    #[test]
    fn unaligned_requests_are_bit_identical_to_the_input() {
        // Starts off a word boundary (the cache's shift path) and lengths
        // that do not divide into `64 * num_peers` (a short last span).
        for (n, peers) in [(5000, 3), (777, 4), (4096, 5)] {
            let (door, input) = door(n, peers, 7);
            for range in [
                1..n,
                63..65,
                65..n - 1,
                100..100 + 64 * peers + 5,
                n - 10..n,
            ] {
                let cold = door.serve(range.clone());
                assert_eq!(cold.bits, input.slice(range.clone()), "{range:?} of {n}");
                let warm = door.serve(range.clone());
                assert_eq!(
                    warm.bits,
                    input.slice(range.clone()),
                    "{range:?} of {n}, warm"
                );
                assert_eq!(warm.metered_bits, 0);
            }
        }
    }

    /// Runs `request` on a thread of its own and fails, instead of hanging
    /// the suite, if it is still blocked after ten seconds.
    fn unless_blocked<T: Send + 'static>(request: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, outcome) = mpsc::channel();
        // dr-lint: allow(raw-thread-spawn): a client thread in a test; joined below unless it is the wedged one the test reports
        let client = thread::spawn(move || {
            let _ = done.send(catch_unwind(AssertUnwindSafe(request)));
        });
        let outcome = outcome
            .recv_timeout(Duration::from_secs(10))
            .expect("request still blocked at the gate: a permit leaked");
        client.join().expect("client thread sends, never panics");
        outcome.unwrap_or_else(|panic| resume_unwind(panic))
    }

    /// An upstream whose first word explodes; the rest reads as `inner`.
    struct Mined(ArraySource);

    impl Source for Mined {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn bit(&self, index: usize) -> bool {
            assert!(index >= 64, "upstream exploded");
            self.0.bit(index)
        }
    }

    #[test]
    fn a_panicking_request_returns_its_permit() {
        let mut rng = StdRng::seed_from_u64(8);
        let input = BitArray::random(1024, &mut rng);
        let door = FrontDoor::new(
            Mined(ArraySource::new(input.clone())),
            ServeConfig::new(2).with_max_in_flight(1),
        );
        for _ in 0..2 {
            let mined = door.clone();
            let blown = unless_blocked(move || {
                catch_unwind(AssertUnwindSafe(|| mined.serve(0..256))).is_err()
            });
            assert!(blown, "the upstream panic reaches the client");
        }
        let healthy = door.clone();
        let out = unless_blocked(move || healthy.serve(512..1024));
        assert_eq!(out.bits, input.slice(512..1024));
    }

    #[test]
    fn a_bad_range_is_refused_before_the_gate() {
        let mut rng = StdRng::seed_from_u64(9);
        let input = BitArray::random(256, &mut rng);
        let door = FrontDoor::new(
            ArraySource::new(input.clone()),
            ServeConfig::new(2).with_max_in_flight(1),
        );
        let refused = door.try_serve(200..257).unwrap_err();
        assert_eq!(
            refused,
            ServeError::OutOfRange {
                range: 200..257,
                len: 256
            }
        );
        assert_eq!(
            refused.to_string(),
            "range 200..257 out of bounds for source of 256 bits"
        );
        let panicking = door.clone();
        assert!(catch_unwind(AssertUnwindSafe(move || panicking.serve(0..300))).is_err());
        // Neither refusal took the door's only permit with it.
        let out = unless_blocked(move || door.try_serve(0..256));
        assert_eq!(out.expect("in range").bits, input);
    }

    #[test]
    fn empty_request_is_free() {
        let (door, _) = door(128, 2, 6);
        let out = door.serve(64..64);
        assert_eq!(out.bits.len(), 0);
        assert_eq!(out.metered_bits, 0);
    }
}
