//! Thread-based executor for DR protocols.
//!
//! The discrete-event simulator (`dr-sim`) gives deterministic, adversary-
//! controlled executions; this crate gives the complementary evidence that
//! the same [`dr_core::Protocol`] state machines run unmodified under
//! *real* concurrency: one OS thread per peer, `std::sync::mpsc` channels
//! as the complete network, true nondeterministic interleavings from the OS
//! scheduler plus injected per-message latency jitter, and optional crash
//! injection (a peer thread that silently stops at its `i`-th event).
//!
//! Peer threads read one shared [`dr_core::Source`] and charge one atomic
//! [`dr_core::QueryMeter`], one bit per bit queried — the accounting the
//! simulator keeps in plain per-peer counters — so query complexity is
//! measured identically in both worlds.
//!
//! The [`serve`] module adds the multi-client face of the runtime: a
//! [`FrontDoor`] that admits many concurrent download requests (bounded,
//! with backpressure), fans each over one peer fleet, and serves overlap
//! from a shared [`dr_core::AdmissionPlane`] so overlapping clients do not
//! double-pay query cost.

#![warn(missing_docs)]

pub mod serve;

pub use serve::{FrontDoor, RequestOutcome, ServeConfig, ServeError};

use dr_core::{
    ArraySource, BitArray, Context, ModelParams, PeerId, Protocol, ProtocolMessage, QueryMeter,
    Source,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread;
#[expect(
    clippy::disallowed_types,
    reason = "the thread runtime runs OS threads over real channels, so its timeout is real time"
)]
use std::time::{Duration, Instant};

/// Crash injection: the peer stops processing permanently before its
/// `after_events`-th event (0 = before start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// The peer to crash.
    pub peer: PeerId,
    /// Events (start + deliveries) processed before the crash.
    pub after_events: u64,
}

/// Configuration of a threaded run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Model parameters (`n`, `k`, `b`, message size).
    pub params: ModelParams,
    /// Master seed for input generation and per-peer RNGs.
    pub seed: u64,
    /// Maximum per-message latency jitter.
    pub max_latency: Duration,
    /// Crash injections (must not exceed the fault budget).
    pub crashes: Vec<CrashSpec>,
    /// Wall-clock guard: the run fails if it exceeds this.
    pub timeout: Duration,
}

impl RuntimeConfig {
    /// A benign configuration with mild jitter and no crashes.
    pub fn new(params: ModelParams, seed: u64) -> Self {
        RuntimeConfig {
            params,
            seed,
            max_latency: Duration::from_micros(500),
            crashes: Vec::new(),
            timeout: Duration::from_secs(60),
        }
    }

    /// Adds a crash injection.
    pub fn with_crash(mut self, spec: CrashSpec) -> Self {
        self.crashes.push(spec);
        self
    }
}

/// Outcome of a threaded run.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Per-peer outputs (`None` for crashed peers).
    pub outputs: Vec<Option<BitArray>>,
    /// Per-peer query counts.
    pub query_counts: Vec<u64>,
    /// Max queries over non-crashed peers.
    pub max_honest_queries: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// The input that was downloaded.
    pub input: BitArray,
}

impl RuntimeReport {
    /// Checks that every non-crashed peer downloaded the input exactly.
    ///
    /// # Errors
    ///
    /// Returns the ID of the first violating peer.
    pub fn verify(&self, crashed: &[PeerId]) -> Result<(), PeerId> {
        for (i, out) in self.outputs.iter().enumerate() {
            if crashed.contains(&PeerId(i)) {
                continue;
            }
            match out {
                Some(bits) if bits == &self.input => {}
                _ => return Err(PeerId(i)),
            }
        }
        Ok(())
    }
}

/// Error from a threaded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The wall-clock timeout elapsed before every live peer terminated
    /// (deadlock or pathological scheduling).
    Timeout,
    /// A crash injection the run cannot honour: its peer is out of range,
    /// repeats an earlier spec's peer, or lies beyond the fault budget `b`.
    InvalidCrash {
        /// The offending spec.
        spec: CrashSpec,
        /// Which of the three it is.
        reason: &'static str,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Timeout => write!(f, "threaded run timed out"),
            RuntimeError::InvalidCrash { spec, reason } => {
                write!(f, "invalid crash spec {spec:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

struct ThreadCtx<'a, M> {
    me: PeerId,
    num_peers: usize,
    input_len: usize,
    source: &'a dyn Source,
    meter: &'a QueryMeter,
    senders: Vec<Sender<(PeerId, M)>>,
    rng: StdRng,
    jitter: StdRng,
    max_latency: Duration,
}

impl<M: ProtocolMessage> Context<M> for ThreadCtx<'_, M> {
    fn me(&self) -> PeerId {
        self.me
    }
    fn num_peers(&self) -> usize {
        self.num_peers
    }
    fn input_len(&self) -> usize {
        self.input_len
    }
    fn send(&mut self, to: PeerId, msg: M) {
        // Latency jitter before handing to the channel; receiver threads
        // add their own scheduling nondeterminism.
        let micros = self.max_latency.as_micros() as u64;
        if micros > 0 {
            let wait = self.jitter.gen_range(0..=micros);
            if wait > 50 {
                thread::sleep(Duration::from_micros(wait));
            }
        }
        // A send to a terminated (exited) peer fails harmlessly.
        let _ = self.senders[to.index()].send((self.me, msg));
    }
    fn query(&mut self, index: usize) -> bool {
        self.meter.record(self.me);
        self.source.bit(index)
    }
    fn query_range(&mut self, range: std::ops::Range<usize>) -> BitArray {
        // Bulk path: one meter update + word-level copy instead of the
        // default per-bit loop. Identical cost accounting and results.
        self.meter.record_range(self.me, range.clone());
        self.source.bits(range)
    }
    fn query_masked(&mut self, mask: &BitArray) -> BitArray {
        // Same bulk path for a strided query set.
        self.meter.record_masked(self.me, mask);
        self.source.bits_masked(mask)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// Runs one protocol instance per OS thread over `std::sync::mpsc` channels.
///
/// # Errors
///
/// Returns [`RuntimeError::InvalidCrash`] before any thread starts if a
/// crash spec names a peer `>= k`, repeats a peer, or exceeds the fault
/// budget `b`, and [`RuntimeError::Timeout`] if live peers fail to
/// terminate within the configured wall-clock budget.
///
/// # Panics
///
/// Panics if a peer thread panics.
///
/// # Examples
///
/// ```
/// use dr_core::ModelParams;
/// use dr_protocols::CrashMultiDownload;
/// use dr_runtime::{run_threaded, RuntimeConfig};
///
/// let params = ModelParams::builder(128, 4)
///     .faults(dr_core::FaultModel::Crash, 1)
///     .build()?;
/// let config = RuntimeConfig::new(params, 42);
/// let report = run_threaded(config, move |_| CrashMultiDownload::new(128, 4, 1)).unwrap();
/// report.verify(&[]).unwrap();
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
#[expect(
    clippy::disallowed_types,
    reason = "the thread runtime runs OS threads over real channels, so its timeout is real time"
)]
pub fn run_threaded<P, F>(config: RuntimeConfig, factory: F) -> Result<RuntimeReport, RuntimeError>
where
    P: Protocol + 'static,
    F: Fn(PeerId) -> P + Send + Sync,
{
    let k = config.params.k();
    let n = config.params.n();
    let mut crashed: Vec<PeerId> = Vec::with_capacity(config.crashes.len());
    for &spec in &config.crashes {
        let reason = if spec.peer.index() >= k {
            "peer out of range"
        } else if crashed.contains(&spec.peer) {
            "peer crashed twice"
        } else if crashed.len() == config.params.b() {
            "more crashes than the fault budget"
        } else {
            crashed.push(spec.peer);
            continue;
        };
        return Err(RuntimeError::InvalidCrash { spec, reason });
    }
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0051_7eed);
    let input = BitArray::random(n, &mut rng);
    let source = ArraySource::new(input.clone());
    let meter = QueryMeter::new(k);

    let mut senders: Vec<Sender<(PeerId, P::Msg)>> = Vec::with_capacity(k);
    let mut receivers: Vec<Receiver<(PeerId, P::Msg)>> = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }

    let started = Instant::now();
    let deadline = started + config.timeout;
    #[expect(
        clippy::disallowed_methods,
        reason = "one OS thread per peer is this runtime's point — peers are concurrent actors racing real channels, not pool work items"
    )]
    let outputs: Vec<Option<BitArray>> = thread::scope(|scope| {
        let mut joins = Vec::with_capacity(k);
        for (i, rx) in receivers.into_iter().enumerate() {
            let me = PeerId(i);
            let crash_at = config
                .crashes
                .iter()
                .find(|c| c.peer == me)
                .map(|c| c.after_events);
            let mut ctx = ThreadCtx {
                me,
                num_peers: k,
                input_len: n,
                source: &source,
                meter: &meter,
                senders: senders.clone(),
                rng: StdRng::seed_from_u64(config.seed.wrapping_mul(31).wrapping_add(i as u64)),
                jitter: StdRng::seed_from_u64(config.seed.wrapping_add(7777 + i as u64)),
                max_latency: config.max_latency,
            };
            let factory = &factory;
            joins.push(scope.spawn(move || {
                let mut protocol = factory(me);
                let mut events = 0u64;
                if crash_at == Some(0) {
                    return None;
                }
                protocol.on_start(&mut ctx);
                events += 1;
                while !protocol.is_terminated() {
                    if let Some(limit) = crash_at {
                        if events >= limit {
                            return None;
                        }
                    }
                    match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                        Ok((from, msg)) => {
                            protocol.on_message(from, msg, &mut ctx);
                            events += 1;
                        }
                        Err(RecvTimeoutError::Timeout) => return None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                protocol.output().cloned()
            }));
        }
        // Drop the main copy of the senders so channels close when all
        // peer threads exit.
        drop(senders);
        joins
            .into_iter()
            .map(|j| j.join().expect("peer thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    // A live (non-crashed) peer without output means the deadline hit.
    for (i, out) in outputs.iter().enumerate() {
        if out.is_none() && !crashed.contains(&PeerId(i)) {
            return Err(RuntimeError::Timeout);
        }
    }
    let query_counts = meter.counts();
    let max_honest_queries = (0..k)
        .filter(|i| !crashed.contains(&PeerId(*i)))
        .map(|i| query_counts[i])
        .max()
        .unwrap_or(0);
    Ok(RuntimeReport {
        outputs,
        query_counts,
        max_honest_queries,
        elapsed,
        input,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::FaultModel;
    use dr_protocols::{CrashMultiDownload, NaiveDownload, SingleCrashDownload};

    fn params(n: usize, k: usize, b: usize) -> ModelParams {
        ModelParams::builder(n, k)
            .faults(FaultModel::Crash, b)
            .build()
            .unwrap()
    }

    #[test]
    fn naive_under_threads() {
        let config = RuntimeConfig::new(params(64, 3, 0), 1);
        let report = run_threaded(config, |_| NaiveDownload::new()).unwrap();
        report.verify(&[]).unwrap();
        assert_eq!(report.max_honest_queries, 64);
    }

    #[test]
    fn crash_multi_under_threads() {
        let config = RuntimeConfig::new(params(256, 6, 2), 2);
        let report = run_threaded(config, move |_| CrashMultiDownload::new(256, 6, 2)).unwrap();
        report.verify(&[]).unwrap();
    }

    #[test]
    fn crash_multi_with_real_crashes() {
        let config = RuntimeConfig::new(params(200, 5, 2), 3)
            .with_crash(CrashSpec {
                peer: PeerId(0),
                after_events: 0,
            })
            .with_crash(CrashSpec {
                peer: PeerId(3),
                after_events: 2,
            });
        let report = run_threaded(config, move |_| CrashMultiDownload::new(200, 5, 2)).unwrap();
        report.verify(&[PeerId(0), PeerId(3)]).unwrap();
    }

    #[test]
    fn single_crash_protocol_with_crash() {
        let config = RuntimeConfig::new(params(120, 4, 1), 4).with_crash(CrashSpec {
            peer: PeerId(2),
            after_events: 1,
        });
        let report = run_threaded(config, move |_| SingleCrashDownload::new(120, 4)).unwrap();
        report.verify(&[PeerId(2)]).unwrap();
    }

    #[test]
    fn repeated_runs_all_verify() {
        // Real scheduling differs run to run; correctness must not.
        for seed in 0..5 {
            let config = RuntimeConfig::new(params(100, 4, 1), seed).with_crash(CrashSpec {
                peer: PeerId((seed % 4) as usize),
                after_events: seed % 3,
            });
            let crashed = vec![PeerId((seed % 4) as usize)];
            let report = run_threaded(config, move |_| CrashMultiDownload::new(100, 4, 1)).unwrap();
            report.verify(&crashed).unwrap();
        }
    }

    #[test]
    fn a_peer_that_never_terminates_times_out() {
        // Never terminates and sends nothing: every peer waits out the
        // deadline on an empty channel.
        #[derive(Debug, Clone)]
        struct Unit;
        impl ProtocolMessage for Unit {
            fn bit_len(&self) -> usize {
                1
            }
        }
        struct Silent;
        impl Protocol for Silent {
            type Msg = Unit;
            fn on_start(&mut self, _: &mut dyn Context<Unit>) {}
            fn on_message(&mut self, _: PeerId, _: Unit, _: &mut dyn Context<Unit>) {}
            fn output(&self) -> Option<&BitArray> {
                None
            }
        }
        let mut config = RuntimeConfig::new(params(64, 3, 0), 5);
        config.timeout = Duration::from_millis(50);
        #[expect(
            clippy::disallowed_types,
            reason = "the test bounds how long a real-time timeout takes"
        )]
        let started = Instant::now();
        let result = run_threaded(config, |_| Silent);
        assert_eq!(result.unwrap_err(), RuntimeError::Timeout);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn bad_crash_specs_are_errors_naming_the_spec() {
        let spec = |peer| CrashSpec {
            peer: PeerId(peer),
            after_events: 0,
        };
        for (b, specs, bad, reason) in [
            (
                0,
                vec![spec(0)],
                spec(0),
                "more crashes than the fault budget",
            ),
            (1, vec![spec(3)], spec(3), "peer out of range"),
            (2, vec![spec(1), spec(1)], spec(1), "peer crashed twice"),
        ] {
            let mut config = RuntimeConfig::new(params(10, 3, b), 0);
            config.crashes = specs;
            let err = run_threaded(config, |_| NaiveDownload::new()).unwrap_err();
            assert_eq!(err, RuntimeError::InvalidCrash { spec: bad, reason });
            assert!(err.to_string().contains(reason), "{err}");
        }
    }
}
