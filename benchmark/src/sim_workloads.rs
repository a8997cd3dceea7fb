//! The five simulator workloads.
//!
//! Each is built from the public API only — `SimBuilder`, the protocol
//! constructors, the stock adversaries — the way `dr-bench`'s runners
//! build theirs, so the default seed reproduces the executions recorded
//! in `BENCH_sim_scaling.json`. One *execution* is `build -> run ->
//! verify`; `link_faults` is four of them back to back, one per
//! adversary, with times and counters summed.
//!
//! With a [`Tracer`] every agent, the adversary and (on `stream`) the
//! source are wrapped; without one nothing of `crate::trace` is on the
//! path.

use crate::trace::{SpanName, Traced, TracedAdversary, TracedSource, Tracer};
use dr_core::{
    BitArray, ChunkStats, ChunkedSource, FaultModel, ModelParams, PeerId, ProtocolMessage,
    SegmentId, Segmentation, Source,
};
use dr_protocols::byz::strategies::{CollusionGroup, Equivocator, RandomNoise};
use dr_protocols::{
    CommitteeDownload, CrashMultiDownload, MultiCrashMsg, SegmentMsg, TwoCycleDownload,
    TwoCyclePlan, VoteBatch,
};
use dr_sim::{
    Adversary, Agent, ChaosAdversary, ChaosConfig, ChurnMixer, CrashPlan, LossyLinks,
    PartitionHealer, RunReport, SilentAgent, SimBuilder, Simulation, StandardAdversary,
    UniformDelay,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// A simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Deterministic committee protocol, silent Byzantine peers.
    Committee,
    /// Algorithm 2 under a crash plan.
    CrashMulti,
    /// 2-cycle protocol, wide network, mixed Byzantine set.
    TwoCycleWide,
    /// 2-cycle protocol under the four link-fault adversaries.
    LinkFaults,
    /// Algorithm 2 over a streaming source.
    Stream,
}

impl SimWorkload {
    /// The simulator seed of the workload: start offsets, message
    /// delays, every peer's and the adversary's random draws. It is part
    /// of what the workload *is*. `--seed` does not change it; `--seed`
    /// makes the input array (see [`seeded`]).
    pub fn base_seed(self) -> u64 {
        match self {
            SimWorkload::Committee => 11,
            SimWorkload::CrashMulti | SimWorkload::Stream => 13,
            SimWorkload::TwoCycleWide | SimWorkload::LinkFaults => 5,
        }
    }
}

/// `(n, k, b)` of a Byzantine or crash instance.
#[derive(Debug, Clone, Copy)]
pub struct Nkb {
    /// Input bits.
    pub n: usize,
    /// Peers.
    pub k: usize,
    /// Fault budget.
    pub b: usize,
}

/// Geometry of `stream`'s source.
#[derive(Debug, Clone, Copy)]
pub struct Chunking {
    /// 64-bit words per chunk.
    pub chunk_words: usize,
    /// Chunks the cache may hold.
    pub max_resident: usize,
}

/// Sizes of all five workloads.
#[derive(Debug, Clone, Copy)]
pub struct SimSizes {
    /// `committee`: b is the protocol's t, all t instantiated silent.
    pub committee: Nkb,
    /// `crash_multi`, with b peers crashed.
    pub crash_multi: Nkb,
    /// `crash_multi` message size a, in bits.
    pub crash_multi_msg_bits: usize,
    /// `two_cycle_wide`.
    pub two_cycle_wide: Nkb,
    /// `link_faults`.
    pub link_faults: Nkb,
    /// `stream`, with b peers crashed.
    pub stream: Nkb,
    /// `stream` message size a, in bits.
    pub stream_msg_bits: usize,
    /// `stream` source geometry.
    pub stream_chunking: Chunking,
}

/// The benchmark's sizes. Fixed: a result is comparable with another
/// only at the same sizes.
pub const FULL: SimSizes = SimSizes {
    committee: Nkb {
        n: 1 << 16,
        k: 32,
        b: 10,
    },
    crash_multi: Nkb {
        n: 1 << 18,
        k: 64,
        b: 16,
    },
    crash_multi_msg_bits: 1024,
    two_cycle_wide: Nkb {
        n: 1 << 17,
        k: 1024,
        b: 128,
    },
    link_faults: Nkb {
        n: 1 << 17,
        k: 512,
        b: 64,
    },
    stream: Nkb {
        n: 1 << 22,
        k: 8,
        b: 2,
    },
    stream_msg_bits: 1 << 16,
    // 64 chunks of 65536 bits, 16 resident: the working set is four
    // times the cache, the ratio of the recorded n = 2^24 row.
    stream_chunking: Chunking {
        chunk_words: 1024,
        max_resident: 16,
    },
};

/// Tiny sizes for `--quick` and the tests: every path of the full
/// workloads (sampled 2-cycle plan, all four link-fault adversaries,
/// chunk eviction) in well under a second each.
pub const QUICK: SimSizes = SimSizes {
    committee: Nkb {
        n: 1 << 10,
        k: 16,
        b: 5,
    },
    crash_multi: Nkb {
        n: 1 << 12,
        k: 16,
        b: 4,
    },
    crash_multi_msg_bits: 1024,
    two_cycle_wide: Nkb {
        n: 1 << 13,
        k: 256,
        b: 32,
    },
    link_faults: Nkb {
        n: 1 << 13,
        k: 256,
        b: 32,
    },
    stream: Nkb {
        n: 1 << 16,
        k: 8,
        b: 2,
    },
    stream_msg_bits: 1 << 12,
    stream_chunking: Chunking {
        chunk_words: 64,
        max_resident: 4,
    },
};

/// Source seed of `stream` at `--seed 0` (the one `fig_sim_scaling`
/// records with); `--seed` is added to it.
const STREAM_SOURCE_SEED: u64 = 0xD0_57_AE;

/// What an execution did, as far as it must repeat exactly: same
/// workload, sizes and seed give the same `Facts`, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// `RunReport::fingerprint`; on `link_faults` the four folded into
    /// one.
    pub fingerprint: u64,
    /// Events processed (summed).
    pub events: u64,
    /// Q: most bits a nonfaulty peer queried (summed).
    pub q_max: u64,
    /// T in ticks (summed).
    pub t_ticks: u64,
    /// M: packets sent by nonfaulty peers (summed).
    pub msgs: u64,
    /// Per-peer query counts (concatenated).
    pub query_counts: Vec<u64>,
    /// Messages parked at a partition cut (summed).
    pub parked: u64,
    /// Transmissions a lossy link dropped (summed).
    pub link_drops: u64,
    /// Resends scheduled (summed).
    pub retransmissions: u64,
    /// Deliveries deferred by churn (summed).
    pub deferred: u64,
    /// Compelled releases of held messages (summed).
    pub quiescence_releases: u64,
    /// Peers the adversary crashed (summed).
    pub crashed: u64,
    /// Peak event-queue occupancy (largest sub-run).
    pub peak_queue: u64,
    /// Peak live payloads (largest sub-run).
    pub peak_slab: u64,
}

impl Facts {
    /// T in the paper's units: the longest message delay is 1.
    pub fn t_units(&self) -> f64 {
        dr_sim::ticks_to_units(self.t_ticks)
    }

    fn empty() -> Self {
        Facts {
            fingerprint: 0xcbf2_9ce4_8422_2325,
            events: 0,
            q_max: 0,
            t_ticks: 0,
            msgs: 0,
            query_counts: Vec::new(),
            parked: 0,
            link_drops: 0,
            retransmissions: 0,
            deferred: 0,
            quiescence_releases: 0,
            crashed: 0,
            peak_queue: 0,
            peak_slab: 0,
        }
    }

    fn absorb(&mut self, report: &RunReport, first: bool) {
        let fp = report.fingerprint();
        self.fingerprint = if first {
            fp
        } else {
            // FNV-1a step over the next fingerprint's bytes.
            fp.to_le_bytes().iter().fold(self.fingerprint, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        self.events += report.events;
        self.q_max += report.max_nonfaulty_queries;
        self.t_ticks += report.virtual_time_ticks;
        self.msgs += report.messages_sent;
        self.query_counts.extend_from_slice(&report.query_counts);
        self.parked += report.parked_messages;
        self.link_drops += report.link_drops;
        self.retransmissions += report.retransmissions;
        self.deferred += report.deferred_deliveries;
        self.quiescence_releases += report.quiescence_releases;
        self.crashed += report.crashed.len() as u64;
        self.peak_queue = self.peak_queue.max(report.peak_queue_len);
        self.peak_slab = self.peak_slab.max(report.peak_slab_len);
    }
}

/// One verified execution: where its host time went, and what it did.
#[derive(Debug, Clone)]
pub struct Execution {
    /// `SimBuilder::build`, input generation and source construction
    /// included (summed over sub-runs).
    pub build_s: f64,
    /// `Simulation::run` (summed).
    pub run_s: f64,
    /// Verification against the input (summed).
    pub verify_s: f64,
    /// What must repeat exactly.
    pub facts: Facts,
    /// Chunk-cache counters of the run's own source (`stream` only).
    pub chunks: Option<ChunkStats>,
}

impl Execution {
    /// Host seconds of the whole execution.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.run_s + self.verify_s
    }
}

/// The tracer of a traced run; `None` keeps `crate::trace` off the path.
pub type Trace<'a> = Option<&'a Arc<Tracer>>;

fn agent<M: ProtocolMessage, A: Agent<M> + 'static>(trace: Trace<'_>, a: A) -> Box<dyn Agent<M>> {
    match trace {
        Some(t) => Box::new(Traced::new(a, Arc::clone(t))),
        None => Box::new(a),
    }
}

fn adversary<M: ProtocolMessage>(
    trace: Trace<'_>,
    a: impl Adversary<M> + 'static,
) -> Box<dyn Adversary<M>> {
    match trace {
        Some(t) => Box::new(TracedAdversary::new(a, Arc::clone(t))),
        None => Box::new(a),
    }
}

fn params(model: FaultModel, s: Nkb, msg_bits: Option<usize>) -> ModelParams {
    let mut builder = ModelParams::builder(s.n, s.k).faults(model, s.b);
    if let Some(a) = msg_bits {
        builder = builder.message_bits(a);
    }
    builder
        .build()
        .expect("benchmark sizes are valid parameters")
}

/// Seeds a builder: the schedule from the workload's base seed, the
/// input array from `--seed`.
///
/// Input seed 0 leaves the builder to derive the input from the base
/// seed itself, which is the execution earlier rounds recorded. Any
/// other seed is a fresh uniformly random array under the *same*
/// schedule. Were `--seed` to change the schedule too, the amount of
/// work would change with it — `crash_multi` takes 0.7 s or 1.15 s
/// depending on how the delays fall — and runs with different seeds
/// could not be told from runs of different code.
fn seeded<M: ProtocolMessage>(
    builder: SimBuilder<M>,
    workload: SimWorkload,
    n: usize,
    input_seed: u64,
) -> SimBuilder<M> {
    let builder = builder.seed(workload.base_seed());
    if input_seed == 0 {
        return builder;
    }
    let mut rng = StdRng::seed_from_u64(
        workload.base_seed() ^ input_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    builder.input(BitArray::random(n, &mut rng))
}

fn build_committee(s: Nkb, seed: u64, trace: Trace<'_>) -> Simulation<VoteBatch> {
    let tr = trace.cloned();
    let builder = SimBuilder::new(params(FaultModel::Byzantine, s, None))
        .protocol(move |_| agent(tr.as_ref(), CommitteeDownload::new(s.n, s.k, s.b)));
    let mut builder = seeded(builder, SimWorkload::Committee, s.n, seed);
    for i in 0..s.b {
        builder = builder.byzantine(PeerId(i), agent(trace, SilentAgent::new()));
    }
    if trace.is_some() {
        // The builder's default, named so that it can be wrapped.
        builder = builder.adversary(adversary(trace, StandardAdversary::benign()));
    }
    builder.build()
}

/// The first `crashes` peers die before the event the base seed picks,
/// as `dr-bench`'s runners pick it.
fn crash_plan(workload: SimWorkload, crashes: usize) -> CrashPlan {
    CrashPlan::before_event((0..crashes).map(PeerId), 1 + workload.base_seed() % 3)
}

fn build_crash_multi(
    s: Nkb,
    msg_bits: usize,
    seed: u64,
    trace: Trace<'_>,
) -> Simulation<MultiCrashMsg> {
    let tr = trace.cloned();
    let builder = SimBuilder::new(params(FaultModel::Crash, s, Some(msg_bits)))
        .protocol(move |_| agent(tr.as_ref(), CrashMultiDownload::new(s.n, s.k, s.b)))
        .adversary(adversary(
            trace,
            StandardAdversary::new(
                UniformDelay::new(),
                crash_plan(SimWorkload::CrashMulti, s.b),
            ),
        ));
    seeded(builder, SimWorkload::CrashMulti, s.n, seed).build()
}

/// The 2-cycle protocol with the first `byzantine` peers running the
/// mixed behaviours of `dr-bench`'s `ByzMix::Mixed`: `i % 3` picks an
/// equivocator, a colluder (groups of tau consecutive IDs share a target
/// segment and a fake string) or random noise.
fn two_cycle_builder(
    workload: SimWorkload,
    s: Nkb,
    byzantine: usize,
    seed: u64,
    trace: Trace<'_>,
) -> SimBuilder<SegmentMsg> {
    let tr = trace.cloned();
    let builder = SimBuilder::new(params(FaultModel::Byzantine, s, None))
        .protocol(move |_| agent(tr.as_ref(), TwoCycleDownload::new(s.n, s.k, s.b)));
    let mut builder = seeded(builder, workload, s.n, seed);
    let plan = TwoCyclePlan::choose(s.n, s.k, s.b);
    for i in 0..byzantine {
        let behaviour: Box<dyn Agent<SegmentMsg>> = match plan {
            TwoCyclePlan::Sampled {
                segments,
                threshold,
            } => {
                let seg = Segmentation::new(s.n, segments);
                match i % 3 {
                    0 => agent(trace, Equivocator::new(seg, SegmentId(i % seg.count()))),
                    1 => {
                        let group = i / threshold.max(1);
                        agent(
                            trace,
                            CollusionGroup::new(seg, SegmentId(group % seg.count()), group as u64),
                        )
                    }
                    _ => agent(trace, RandomNoise::new(seg)),
                }
            }
            TwoCyclePlan::Naive => agent(trace, SilentAgent::new()),
        };
        builder = builder.byzantine(PeerId(i), behaviour);
    }
    builder
}

fn build_two_cycle_wide(s: Nkb, seed: u64, trace: Trace<'_>) -> Simulation<SegmentMsg> {
    let mut builder = two_cycle_builder(SimWorkload::TwoCycleWide, s, s.b, seed, trace);
    if trace.is_some() {
        builder = builder.adversary(adversary(trace, StandardAdversary::benign()));
    }
    builder.build()
}

/// The four adversaries of `link_faults`, in the order they run.
pub const LINK_FAULT_ADVERSARIES: [&str; 4] = [
    "lossy_links",
    "partition_healer",
    "churn_mixer",
    "chaos_aggressive",
];

/// One `link_faults` sub-run. The first three adversaries are
/// crash-inert, so all `b` Byzantine peers are instantiated; the chaos
/// adversary crashes up to `b/2` peers itself, so only `b/2` are (the
/// fault budget is joint).
fn build_link_fault(s: Nkb, which: usize, seed: u64, trace: Trace<'_>) -> Simulation<SegmentMsg> {
    // The adversaries are schedule, so they draw from the base seed.
    let base = SimWorkload::LinkFaults.base_seed();
    let (byzantine, adv): (usize, Box<dyn Adversary<SegmentMsg>>) = match which {
        0 => (s.b, adversary(trace, LossyLinks::new(base, 150))),
        1 => (s.b, adversary(trace, PartitionHealer::new(s.k, base, 3))),
        2 => (s.b, adversary(trace, ChurnMixer::new(s.k, base, s.k / 8))),
        3 => (
            s.b / 2,
            adversary(
                trace,
                ChaosAdversary::new(base, ChaosConfig::aggressive(s.b / 2)),
            ),
        ),
        _ => unreachable!("four link-fault adversaries"),
    };
    two_cycle_builder(SimWorkload::LinkFaults, s, byzantine, seed, trace)
        .adversary(adv)
        .build()
}

/// `stream`'s source for `--seed`; the verifier rebuilds the same one.
fn stream_source(sizes: &SimSizes, seed: u64) -> ChunkedSource {
    ChunkedSource::with_geometry(
        sizes.stream.n,
        STREAM_SOURCE_SEED.wrapping_add(seed),
        sizes.stream_chunking.chunk_words,
        sizes.stream_chunking.max_resident,
    )
}

/// The run's own source on `stream`, kept to read its counters after
/// the run; wrapped when the run is traced.
enum StreamSource {
    Plain(Arc<ChunkedSource>),
    Traced(Arc<TracedSource<ChunkedSource>>),
}

impl StreamSource {
    fn open(sizes: &SimSizes, seed: u64, trace: Trace<'_>) -> Self {
        let chunked = stream_source(sizes, seed);
        match trace {
            Some(t) => {
                StreamSource::Traced(Arc::new(TracedSource::new(chunked, t.source_counters())))
            }
            None => StreamSource::Plain(Arc::new(chunked)),
        }
    }

    fn stats(&self) -> ChunkStats {
        match self {
            StreamSource::Plain(s) => s.stats(),
            StreamSource::Traced(s) => s.inner().stats(),
        }
    }
}

fn build_stream(
    sizes: &SimSizes,
    source: &StreamSource,
    trace: Trace<'_>,
) -> Simulation<MultiCrashMsg> {
    let s = sizes.stream;
    let tr = trace.cloned();
    let builder = SimBuilder::new(params(FaultModel::Crash, s, Some(sizes.stream_msg_bits)))
        .seed(SimWorkload::Stream.base_seed())
        .protocol(move |_| agent(tr.as_ref(), CrashMultiDownload::new(s.n, s.k, s.b)))
        .adversary(adversary(
            trace,
            StandardAdversary::new(UniformDelay::new(), crash_plan(SimWorkload::Stream, s.b)),
        ));
    match source {
        StreamSource::Plain(s) => builder.streaming_source(Arc::clone(s)),
        StreamSource::Traced(s) => builder.streaming_source(Arc::clone(s)),
    }
    .build()
}

fn timed<T>(trace: Trace<'_>, name: SpanName, f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = match trace {
        Some(t) => t.span(name, f),
        None => f(),
    };
    (out, started.elapsed().as_secs_f64())
}

/// What to verify a run's outputs against.
enum Reference<'a> {
    /// The simulation's resident input.
    Input,
    /// A source rebuilt by this closure (streaming runs keep no input).
    Rebuilt(&'a dyn Fn() -> Box<dyn Source>),
}

/// Builds, runs and verifies one simulation, adding its times and
/// report to `exec`.
fn run_one<M: ProtocolMessage>(
    trace: Trace<'_>,
    exec: &mut Execution,
    first: bool,
    reference: Reference<'_>,
    build: impl FnOnce() -> Simulation<M>,
) -> Result<(), String> {
    let (sim, build_s) = timed(trace, SpanName::SimBuild, build);
    let input = match reference {
        Reference::Input => Some(sim.input().clone()),
        Reference::Rebuilt(_) => None,
    };
    let (result, run_s) = timed(trace, SpanName::SimRun, || sim.run());
    let report = result.map_err(|e| format!("run failed: {e}"))?;
    let (verdict, verify_s) = timed(trace, SpanName::SimVerify, || match reference {
        Reference::Input => report.verify_downloads(input.as_ref().expect("cloned above")),
        Reference::Rebuilt(rebuild) => report.verify_downloads_source(rebuild().as_ref()),
    });
    verdict.map_err(|e| format!("download specification violated: {e}"))?;
    exec.build_s += build_s;
    exec.run_s += run_s;
    exec.verify_s += verify_s;
    exec.facts.absorb(&report, first);
    Ok(())
}

fn new_execution() -> Execution {
    Execution {
        build_s: 0.0,
        run_s: 0.0,
        verify_s: 0.0,
        facts: Facts::empty(),
        chunks: None,
    }
}

/// Runs the `link_faults` sub-run under adversary `which` (an index
/// into [`LINK_FAULT_ADVERSARIES`]) on its own.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_link_fault(
    sizes: &SimSizes,
    which: usize,
    seed: u64,
    trace: Trace<'_>,
) -> Result<Execution, String> {
    let mut exec = new_execution();
    run_one(trace, &mut exec, true, Reference::Input, || {
        build_link_fault(sizes.link_faults, which, seed, trace)
    })?;
    Ok(exec)
}

/// Runs one verified execution of `workload` at `sizes` on the input
/// that `seed` makes (see [`seeded`]).
///
/// # Errors
///
/// Returns why the execution failed: a `RunError`, a violated Download
/// specification, or (on `stream`) a resident set above its cap.
pub fn execute(
    workload: SimWorkload,
    sizes: &SimSizes,
    seed: u64,
    trace: Trace<'_>,
) -> Result<Execution, String> {
    let mut exec = new_execution();
    match workload {
        SimWorkload::Committee => run_one(trace, &mut exec, true, Reference::Input, || {
            build_committee(sizes.committee, seed, trace)
        })?,
        SimWorkload::CrashMulti => run_one(trace, &mut exec, true, Reference::Input, || {
            build_crash_multi(sizes.crash_multi, sizes.crash_multi_msg_bits, seed, trace)
        })?,
        SimWorkload::TwoCycleWide => run_one(trace, &mut exec, true, Reference::Input, || {
            build_two_cycle_wide(sizes.two_cycle_wide, seed, trace)
        })?,
        SimWorkload::LinkFaults => {
            for (which, name) in LINK_FAULT_ADVERSARIES.iter().enumerate() {
                run_one(trace, &mut exec, which == 0, Reference::Input, || {
                    build_link_fault(sizes.link_faults, which, seed, trace)
                })
                .map_err(|e| format!("{name}: {e}"))?;
            }
        }
        SimWorkload::Stream => {
            // Verified against a source rebuilt from (len, seed): the
            // verifier never touches the run's own cache.
            let rebuild = || Box::new(stream_source(sizes, seed)) as Box<dyn Source>;
            let source = StreamSource::open(sizes, seed, trace);
            run_one(trace, &mut exec, true, Reference::Rebuilt(&rebuild), || {
                build_stream(sizes, &source, trace)
            })?;
            let stats = source.stats();
            let cap = sizes.stream_chunking.max_resident;
            if stats.peak_resident > cap {
                return Err(format!(
                    "resident set exceeded its cap: {} > {cap}",
                    stats.peak_resident
                ));
            }
            exec.chunks = Some(stats);
        }
    }
    Ok(exec)
}
