//! One run of one workload: set up, measure for a while, check every
//! output, report.
//!
//! An untraced run yields the end-to-end metrics; a traced run wraps
//! what goes into the simulator and the door (see [`crate::trace`]),
//! adds the isolated probes, and yields the per-layer metrics. Both
//! check the same things, and a run that finds anything wrong says so in
//! [`Outcome::problems`] and counts the operation as failed.

use crate::json::Value;
use crate::probes;
use crate::serve_workloads::{self as serve, Door, DoorFacts, Round, ServeSizes, ServeWorkload};
use crate::sim_workloads::{self as sim, Execution, Facts, SimSizes, SimWorkload};
use crate::spec::{Kind, Metric, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile_sorted};
use crate::trace::{timer_pair_ns, SourceCounters, SpanName, Totals, Tracer};
use dr_core::{BitArray, CacheStats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Makes the input (the array; on serve workloads the slot draws
    /// too): 0 reproduces the recorded executions, anything else is a
    /// fresh input under the same schedule.
    pub seed: u64,
    /// How long to measure, in seconds. At least one round always runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Tiny sizes: same code paths and checks, a fraction of a second.
    pub quick: bool,
    /// Where a traced run writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
}

/// Metric values by catalogue name.
pub type Values = BTreeMap<&'static str, f64>;

/// What a run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted while measuring (sim: executions, serve:
    /// requests).
    pub attempted: u64,
    /// Operations that failed: a `RunError`, a violated specification,
    /// a reply differing from the input, an execution that did not
    /// repeat exactly.
    pub failed: u64,
    /// The metrics of this kind of run, by name.
    pub values: Values,
    /// What must repeat exactly for this workload, sizes and seed —
    /// across rounds, across runs, traced or not.
    pub exact: Value,
    /// Host seconds of each measured round, in the order they ran: the
    /// sample the medians were taken over, kept so that a wide result
    /// can be told apart as one slow round or a slow minute of the host.
    pub rounds_s: Vec<f64>,
    /// Everything that was wrong, in words. Empty on a correct run.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Whether every output was right and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The catalogue this run's values answer to.
    pub fn catalogue(trace: bool) -> &'static [Metric] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result object the benchmark contract asks for on the last
    /// line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self, trace: bool) -> Value {
        let mut metrics = Value::obj();
        for m in Self::catalogue(trace) {
            let value = self.values.get(m.name).copied().unwrap_or(0.0);
            metrics.push(
                m.name,
                Value::obj().with("value", value).with("unit", m.unit),
            );
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

/// Exact values of the default seed at full size, as earlier rounds
/// recorded them (`BENCH_sim_scaling.json` labels and the issue that
/// defined this benchmark). A run that disagrees is wrong, not slow.
struct Recorded {
    workload: &'static str,
    events: u64,
    q_max: u64,
    msgs: Option<u64>,
    fingerprint: Option<u64>,
}

const RECORDED: &[Recorded] = &[
    Recorded {
        workload: "committee",
        events: 703,
        q_max: 43_008,
        msgs: Some(28_644),
        fingerprint: Some(0x7b1e_1450_afda_c7f7),
    },
    Recorded {
        workload: "crash_multi",
        events: 27_911,
        q_max: 5_913,
        msgs: Some(840_352),
        fingerprint: Some(0x581e_9215_1df1_51cc),
    },
    Recorded {
        workload: "two_cycle_wide",
        events: 920_896,
        q_max: 6_554,
        msgs: Some(6_416_256),
        fingerprint: None,
    },
    Recorded {
        workload: "stream",
        events: 143,
        q_max: 1_048_576,
        msgs: None,
        fingerprint: None,
    },
];

/// `VmHWM` of this process in megabytes (10^6 bytes); 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Runs `once` `times` times and returns each repetition's seconds.
/// What `once` returns is dropped off the clock: tearing a set-up down
/// is not part of setting it up.
fn repeat_timed<T>(times: usize, mut once: impl FnMut() -> T) -> Vec<f64> {
    (0..times)
        .map(|_| {
            let started = Instant::now();
            let built = once();
            let seconds = started.elapsed().as_secs_f64();
            drop(built);
            seconds
        })
        .collect()
}

/// Whether to start another round: only if, at the pace of the last
/// one, it would end nearer the deadline than stopping now does. A
/// traced run keeps one round's time back for the untraced round it
/// ends with.
fn another_round(cfg: &RunConfig, began: Instant, last_round_s: f64) -> bool {
    let held_back = if cfg.trace { last_round_s } else { 0.0 };
    began.elapsed().as_secs_f64() + held_back + last_round_s / 2.0 < cfg.seconds
}

/// The `p`-th percentile, in microseconds, of the rounds' pooled
/// per-request latencies.
fn pooled_latency_us(rounds: &[Round], p: f64) -> f64 {
    let mut pooled: Vec<u32> = rounds
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    percentile_sorted(&pooled, p) as f64 / 1e3
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Per-key median over the rounds' values (every round of a run has
/// the same keys).
fn median_by_key(rounds: &[Values]) -> Values {
    let keys = rounds.first().into_iter().flat_map(|r| r.keys());
    keys.map(|key| {
        let samples: Vec<f64> = rounds.iter().filter_map(|r| r.get(key).copied()).collect();
        (*key, median(&samples))
    })
    .collect()
}

/// Runs `cfg` to completion.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = match cfg.workload.kind {
        Kind::Sim(workload) => run_sim(cfg, workload),
        Kind::Serve(which) => run_serve(cfg, which),
    };
    if cfg.trace {
        let scale = if cfg.quick {
            &probes::QUICK
        } else {
            &probes::FULL
        };
        outcome.values.extend(probes::run_all(scale));
        outcome.values.insert("trace.timer_ns", timer_pair_ns());
    } else {
        outcome.values.insert("peak_rss_mb", peak_rss_mb());
    }
    if !cfg.trace {
        // Per-layer metrics a workload does not have read 0; an
        // end-to-end metric must always be there and never be 0.
        for m in END_TO_END {
            if outcome.values.get(m.name).is_none_or(|v| *v <= 0.0) {
                outcome
                    .problems
                    .push(format!("end-to-end metric {} is missing or zero", m.name));
            }
        }
    }
    for name in outcome.values.keys() {
        assert!(
            Outcome::catalogue(cfg.trace)
                .iter()
                .any(|m| m.name == *name),
            "metric {name} is not in the catalogue"
        );
    }
    outcome
}

// ---------------------------------------------------------------- sim

fn sim_exact(facts: &Facts) -> Value {
    Value::obj()
        .with("fingerprint", hex(facts.fingerprint))
        .with("events", facts.events)
        .with("q_max", facts.q_max)
        .with("t_ticks", facts.t_ticks)
        .with("msgs", facts.msgs)
        .with("parked", facts.parked)
        .with("link_drops", facts.link_drops)
        .with("retransmissions", facts.retransmissions)
        .with("deferred", facts.deferred)
        .with("quiescence_releases", facts.quiescence_releases)
        .with("crashed", facts.crashed)
}

fn check_sim_facts(
    cfg: &RunConfig,
    workload: SimWorkload,
    facts: &Facts,
    problems: &mut Vec<String>,
) {
    if workload == SimWorkload::LinkFaults {
        for (name, value) in [
            ("parked", facts.parked),
            ("retransmissions", facts.retransmissions),
            ("deferred", facts.deferred),
            ("quiescence_releases", facts.quiescence_releases),
            ("crashed", facts.crashed),
        ] {
            if value == 0 {
                problems.push(format!("link_faults never exercised {name}"));
            }
        }
    }
    if cfg.seed != 0 || cfg.quick {
        return;
    }
    let Some(rec) = RECORDED.iter().find(|r| r.workload == cfg.workload.name) else {
        return;
    };
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            problems.push(format!(
                "{} {what} = {got:#x} ({got}), recorded {want:#x} ({want})",
                rec.workload
            ));
        }
    };
    expect("events", facts.events, rec.events);
    expect("q_max", facts.q_max, rec.q_max);
    if let Some(msgs) = rec.msgs {
        expect("msgs", facts.msgs, msgs);
    }
    if let Some(fp) = rec.fingerprint {
        expect("fingerprint", facts.fingerprint, fp);
    }
}

/// The layer times and counts of one traced execution.
fn sim_layer_values(exec: &Execution, totals: &Totals, problems: &mut Vec<String>) -> Values {
    let s = |ns: u64| ns as f64 / 1e9;
    let (handler_calls, handler_ns) = totals.of(SpanName::Handler);
    let (adversary_calls, adversary_ns) = totals.adversary();
    let (_, run_ns) = totals.of(SpanName::SimRun);
    let fold = &totals.fold;
    let handler_self = handler_ns.saturating_sub(fold.query_ns + fold.send_ns);
    let query_self = fold.query_ns.saturating_sub(fold.source_ns);
    if handler_ns + adversary_ns > run_ns {
        problems.push(format!(
            "handler ({handler_ns} ns) and adversary ({adversary_ns} ns) spans exceed sim.run ({run_ns} ns)"
        ));
    }
    let pump_ns = run_ns.saturating_sub(handler_ns + adversary_ns);
    let facts = &exec.facts;
    let mut v = Values::new();
    v.insert("protocols.handler_s", s(handler_self));
    v.insert("protocols.handler_calls", handler_calls as f64);
    v.insert("sim.ctx_query_s", s(query_self));
    v.insert("sim.ctx_query_calls", fold.query_calls as f64);
    v.insert("sim.ctx_send_s", s(fold.send_ns));
    v.insert("sim.ctx_send_calls", fold.send_calls as f64);
    v.insert("sim.adversary_s", s(adversary_ns));
    v.insert("sim.adversary_calls", adversary_calls as f64);
    v.insert("sim.pump_s", s(pump_ns));
    v.insert("sim.events", facts.events as f64);
    v.insert(
        "sim.pump_ns_per_event",
        pump_ns as f64 / facts.events.max(1) as f64,
    );
    v.insert("sim.peak_queue", facts.peak_queue as f64);
    v.insert("sim.peak_slab", facts.peak_slab as f64);
    v.insert("sim.parked", facts.parked as f64);
    v.insert("sim.link_drops", facts.link_drops as f64);
    v.insert("sim.retransmissions", facts.retransmissions as f64);
    v.insert("sim.deferred", facts.deferred as f64);
    v.insert("sim.quiescence_releases", facts.quiescence_releases as f64);
    v.insert("sim.crashed", facts.crashed as f64);
    v.insert("sim.build_s", s(totals.of(SpanName::SimBuild).1));
    v.insert("sim.run_s", s(run_ns));
    v.insert("sim.verify_s", s(totals.of(SpanName::SimVerify).1));
    v.insert("core.source_s", s(fold.source_ns));
    v.insert("core.source_calls", fold.source_calls as f64);
    if let Some(chunks) = &exec.chunks {
        v.insert("core.chunk_generated", chunks.generated as f64);
        v.insert("core.chunk_evicted", chunks.evicted as f64);
        v.insert(
            "core.chunk_hit_rate",
            chunks.hits as f64 / (chunks.hits + chunks.misses).max(1) as f64,
        );
    }
    // The named layers and the pump's remainder are the run, exactly.
    let parts = handler_self + query_self + fold.source_ns + fold.send_ns + adversary_ns + pump_ns;
    if parts != run_ns && handler_ns + adversary_ns <= run_ns {
        problems.push(format!("layers sum to {parts} ns, sim.run is {run_ns} ns"));
    }
    v
}

fn run_sim(cfg: &RunConfig, workload: SimWorkload) -> Outcome {
    let sizes: &SimSizes = if cfg.quick { &sim::QUICK } else { &sim::FULL };
    let mut problems = Vec::new();
    let mut values = Values::new();
    let tracer = cfg.trace.then(|| Arc::new(Tracer::new()));

    // Every execution of the run must do what the first did.
    let mut reference: Option<Facts> = None;
    let mut attempted = 0;
    let mut failed = 0;
    let mut admit = |result: Result<Execution, String>, problems: &mut Vec<String>| {
        attempted += 1;
        let exec = match result {
            Ok(exec) => exec,
            Err(why) => {
                failed += 1;
                problems.push(why);
                return None;
            }
        };
        match &reference {
            None => reference = Some(exec.facts.clone()),
            Some(first) if *first != exec.facts => {
                failed += 1;
                problems.push(format!(
                    "execution did not repeat: fingerprint {} after {}",
                    hex(exec.facts.fingerprint),
                    hex(first.fingerprint)
                ));
                return None;
            }
            Some(_) => {}
        }
        Some(exec)
    };
    // One execution before the clock starts. The first execution of a
    // process pays its first-touch page faults (15-20 % of a `committee`
    // execution, whose tally takes 390 MB); left in, it would be one of
    // the four samples a run has time for, and a traced round would be
    // compared with a warm untraced one. It is verified and held to the
    // same facts as the rest, and it is the set-up a sim workload has:
    // `SimBuilder::build` alone is microseconds of allocator noise (its
    // spread over ten runs was 20-40 %), the cold execution is what a
    // one-shot run pays.
    if let Some(exec) = admit(sim::execute(workload, sizes, cfg.seed, None), &mut problems) {
        if !cfg.trace {
            values.insert("setup_s", exec.total_s());
        }
    }

    let began = Instant::now();
    let mut totals_s: Vec<f64> = Vec::new();
    let mut layer_rounds: Vec<Values> = Vec::new();
    let mut measure = || loop {
        let mark = tracer.as_ref().map_or(0, |t| t.len());
        let round_began = Instant::now();
        let result = match &tracer {
            Some(t) => t.span(SpanName::Round, || {
                sim::execute(workload, sizes, cfg.seed, Some(t))
            }),
            None => sim::execute(workload, sizes, cfg.seed, None),
        };
        let round_s = round_began.elapsed().as_secs_f64();
        if let Some(exec) = admit(result, &mut problems) {
            totals_s.push(exec.total_s());
            if let Some(t) = &tracer {
                let totals = t.totals_since(mark);
                layer_rounds.push(sim_layer_values(&exec, &totals, &mut problems));
            }
        }
        if !another_round(cfg, began, round_s) {
            break;
        }
    };
    match &tracer {
        Some(t) => t.span(SpanName::Workload, &mut measure),
        None => measure(),
    }
    // A traced run ends with one untraced execution: held to the same
    // fingerprint, and the base of the tracing overhead.
    if cfg.trace {
        if let Some(exec) = admit(sim::execute(workload, sizes, cfg.seed, None), &mut problems) {
            if !totals_s.is_empty() {
                let share = median(&totals_s) / exec.total_s() - 1.0;
                values.insert("trace.overhead_share", share);
            }
        }
    }

    let exact = match &reference {
        Some(facts) => {
            check_sim_facts(cfg, workload, facts, &mut problems);
            sim_exact(facts)
        }
        None => Value::obj(),
    };
    if !totals_s.is_empty() {
        if cfg.trace {
            values.extend(median_by_key(&layer_rounds));
        } else {
            let facts = reference.as_ref().expect("a round succeeded");
            let mut sorted = totals_s.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("a time"));
            values.insert("run_s", median(&totals_s));
            let rates: Vec<f64> = totals_s.iter().map(|s| 1.0 / s).collect();
            values.insert("req_per_s", median(&rates));
            values.insert("lat_p50_us", percentile_sorted(&sorted, 50.0) * 1e6);
            values.insert("q_max", facts.q_max as f64);
            values.insert("t_units", facts.t_units());
            values.insert("msgs", facts.msgs as f64);
        }
    }
    if let Some(t) = &tracer {
        write_trace(cfg, t, &mut problems);
    }
    Outcome {
        attempted,
        failed,
        values,
        exact,
        rounds_s: totals_s,
        problems,
    }
}

fn write_trace(cfg: &RunConfig, tracer: &Tracer, problems: &mut Vec<String>) {
    /// Spans written in full; the totals above them cover all.
    const MAX_SPANS: usize = 50_000;
    let path = cfg
        .out_dir
        .join(format!("trace_{}.json", cfg.workload.name));
    let doc = Value::obj()
        .with("workload", cfg.workload.name)
        .with("seed", cfg.seed)
        .with("trace", tracer.to_json(MAX_SPANS));
    let written =
        std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&path, doc.to_line()));
    if let Err(e) = written {
        problems.push(format!("could not write {}: {e}", path.display()));
    }
}

// -------------------------------------------------------------- serve

fn serve_exact(facts: &DoorFacts, digest: u64) -> Value {
    Value::obj()
        .with("q_max", facts.q_max)
        .with("upstream_chain", facts.upstream_chain)
        .with("upstream_calls", facts.upstream_calls)
        .with("upstream_bits", facts.upstream_bits)
        .with("first_round_digest", hex(digest))
}

/// Opens a door for a measured round. Warm: pre-filled by one scan.
fn ready_door(
    which: ServeWorkload,
    sizes: &ServeSizes,
    input: &BitArray,
    counters: Option<&Arc<SourceCounters>>,
    problems: &mut Vec<String>,
) -> Door {
    let mut door = serve::open_door(sizes, input, counters);
    if which == ServeWorkload::Warm {
        let fill = serve::scan_pass(&mut door, sizes, 0);
        if fill.failed > 0 {
            problems.push(format!("{} pre-fill replies were wrong", fill.failed));
        }
    }
    door
}

/// One measured round: a batch of warm requests, or a cold pass.
fn serve_round(
    which: ServeWorkload,
    door: &mut Door,
    sizes: &ServeSizes,
    seed: u64,
    index: u64,
) -> Round {
    match which {
        ServeWorkload::Warm => serve::warm_round(door, sizes, seed, index),
        ServeWorkload::Cold => serve::scan_pass(door, sizes, seed),
    }
}

/// The layer counters of one traced round, from the deltas around it:
/// the cache's own statistics, and the traced upstream's calls and
/// nanoseconds.
fn serve_layer_values(
    round: &Round,
    before: &CacheStats,
    after: &CacheStats,
    (upstream_calls, upstream_ns): (u64, u64),
) -> Values {
    let words = ((after.hits - before.hits) + (after.misses - before.misses)).max(1) as f64;
    let bits = (after.upstream_bits - before.upstream_bits) as f64;
    let mut v = Values::new();
    v.insert("runtime.gate_wait_s", round.gate_wait.as_secs_f64());
    v.insert("runtime.service_s", round.service.as_secs_f64());
    v.insert("core.upstream_s", upstream_ns as f64 / 1e9);
    v.insert("core.upstream_calls", upstream_calls as f64);
    v.insert(
        "core.upstream_bits_per_req",
        bits / round.requests().max(1) as f64,
    );
    v.insert("core.cache_upstream_bits", bits);
    v.insert(
        "core.cache_hit_rate",
        (after.hits - before.hits) as f64 / words,
    );
    v.insert(
        "core.cache_coalesce_rate",
        (after.coalesced - before.coalesced) as f64 / words,
    );
    v
}

fn run_serve(cfg: &RunConfig, which: ServeWorkload) -> Outcome {
    let sizes: &ServeSizes = if cfg.quick {
        &serve::QUICK
    } else {
        &serve::FULL
    };
    let mut problems = Vec::new();
    let mut values = Values::new();
    let tracer = cfg.trace.then(|| Arc::new(Tracer::new()));
    let counters = tracer.as_ref().map(|t| t.source_counters());
    // What one request must cost upstream, exactly.
    let bits_per_req = match which {
        ServeWorkload::Warm => 0,
        ServeWorkload::Cold => sizes.slot_bits as u64,
    };

    let input = serve::input(sizes, cfg.seed);
    if !cfg.trace {
        // Set-up, five times over; each door is dropped before the next
        // is built so the peak stays one door's.
        let setups = repeat_timed(5, || {
            let input = serve::input(sizes, cfg.seed);
            let mut door = ready_door(which, sizes, &input, None, &mut problems);
            if which == ServeWorkload::Cold {
                // The discarded warm-up pass.
                serve::scan_pass(&mut door, sizes, cfg.seed);
            }
            door
        });
        values.insert("setup_s", median(&setups));
    }

    let mut warm_door = (which == ServeWorkload::Warm)
        .then(|| ready_door(which, sizes, &input, counters.as_ref(), &mut problems));
    let began = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut layer_rounds: Vec<Values> = Vec::new();
    let mut life: Option<DoorFacts> = None;
    let mut first_digest = None;
    let mut measure = || loop {
        let mut fresh;
        let door = match &mut warm_door {
            Some(door) => door,
            None => {
                fresh = ready_door(which, sizes, &input, counters.as_ref(), &mut problems);
                &mut fresh
            }
        };
        let upstream = || counters.as_ref().map_or((0, 0), |c| c.snapshot());
        let before = door.stats();
        let (calls_before, ns_before) = upstream();
        let index = rounds.len() as u64;
        let round = match &tracer {
            Some(t) => t.span(SpanName::Round, || {
                serve_round(which, door, sizes, cfg.seed, index)
            }),
            None => serve_round(which, door, sizes, cfg.seed, index),
        };
        let after = door.stats();
        let (calls_after, ns_after) = upstream();
        let fetched = after.upstream_bits - before.upstream_bits;
        if fetched != bits_per_req * round.requests() {
            problems.push(format!(
                "{} requests fetched {fetched} bits upstream, not {bits_per_req} each",
                round.requests()
            ));
        }
        // Over its life a door fetches every bit exactly once.
        let facts = door.facts();
        if *life.get_or_insert(facts) != facts || facts.upstream_bits != sizes.n as u64 {
            problems.push(format!("door facts changed: {facts:?} after {life:?}"));
        }
        first_digest.get_or_insert(round.digest);
        if tracer.is_some() {
            layer_rounds.push(serve_layer_values(
                &round,
                &before,
                &after,
                (calls_after - calls_before, ns_after - ns_before),
            ));
        }
        let wall_s = round.wall_s;
        rounds.push(round);
        if !another_round(cfg, began, wall_s) {
            break;
        }
    };
    match &tracer {
        Some(t) => t.span(SpanName::Workload, &mut measure),
        None => measure(),
    }
    drop(warm_door);

    let attempted: u64 = rounds.iter().map(Round::requests).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let life = life.expect("at least one round ran");
    if cfg.trace {
        values.extend(median_by_key(&layer_rounds));
        values.insert("runtime.lat_p99_us", pooled_latency_us(&rounds, 99.0));
        // The base of the tracing overhead: one round, nothing wrapped.
        let mut door = ready_door(which, sizes, &input, None, &mut problems);
        let untraced = serve_round(which, &mut door, sizes, cfg.seed, 0);
        values.insert(
            "trace.overhead_share",
            median(&walls) / untraced.wall_s - 1.0,
        );
    } else {
        let rates: Vec<f64> = rounds
            .iter()
            .map(|r| r.requests() as f64 / r.wall_s)
            .collect();
        values.insert("run_s", median(&walls));
        values.insert("req_per_s", median(&rates));
        values.insert("lat_p50_us", pooled_latency_us(&rounds, 50.0));
        values.insert("q_max", life.q_max as f64);
        values.insert("t_units", life.upstream_chain as f64);
        values.insert("msgs", life.upstream_calls as f64);
    }
    if let Some(t) = &tracer {
        write_trace(cfg, t, &mut problems);
    }
    Outcome {
        attempted,
        failed,
        values,
        exact: serve_exact(&life, first_digest.unwrap_or(0)),
        rounds_s: walls,
        problems,
    }
}
