//! The catalogue: workloads, end-to-end metrics, per-layer metrics.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; `tests/catalogue.rs` fails when the two drift
//! apart. What the JSON cannot hold — which end-to-end metric a layer
//! metric should move, and on which workload — lives here in `moves` and
//! is printed beside every per-layer number.

use crate::json::Value;
use crate::serve_workloads::ServeWorkload;
use crate::sim_workloads::SimWorkload;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// What kind of system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A simulated Download execution, one thread.
    Sim(SimWorkload),
    /// Requests through `FrontDoor::serve`, closed loop, two clients.
    Serve(ServeWorkload),
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// Simulator or front door.
    pub kind: Kind,
    /// Why this workload exists: which layer it stresses, which it
    /// bypasses.
    pub why: &'static str,
}

/// The seven workloads, in the order a round runs them.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "committee",
        kind: Kind::Sim(SimWorkload::Committee),
        why: "CommitteeDownload n=65536 k=32 t=10: the protocol handler (per-bit tally, 946176 one-bit queries) is >=90% of the run and the event pump almost none; handler work shows here and nowhere else",
    },
    Workload {
        name: "crash_multi",
        kind: Kind::Sim(SimWorkload::CrashMulti),
        why: "CrashMultiDownload n=2^18 k=64 b=16 under a 16-peer crash plan: handler-bound too, but through PartialArray merges and phase logic, on the serial dispatch path; the bypass of stream's chunk cache",
    },
    Workload {
        name: "two_cycle_wide",
        kind: Kind::Sim(SimWorkload::TwoCycleWide),
        why: "TwoCycleDownload n=2^17 k=1024 b=128 with a mixed Byzantine set: 920896 events, the one workload where the simulator's event pump is about half the time",
    },
    Workload {
        name: "link_faults",
        kind: Kind::Sim(SimWorkload::LinkFaults),
        why: "the same protocol at k=512 under lossy links, healing partitions, churn and an aggressive chaos adversary: parks, retransmits, deferrals, holds and mid-run crashes, the pump's fault paths",
    },
    Workload {
        name: "stream",
        kind: Kind::Sim(SimWorkload::Stream),
        why: "CrashMultiDownload n=2^22 k=8 over a ChunkedSource whose chunk cache holds a quarter of the working set: the only workload where the source and the query path are a large share",
    },
    Workload {
        name: "serve_warm",
        kind: Kind::Serve(ServeWorkload::Warm),
        why: "FrontDoor over 2^26 bits with every 65536-bit slot already cached, slots drawn log-uniform: the read/hit side of the admission cache, zero upstream bits per request",
    },
    Workload {
        name: "serve_cold",
        kind: Kind::Serve(ServeWorkload::Cold),
        why: "a fresh FrontDoor per pass, its 1024 slots scanned disjointly: the miss/claim/insert side of the same cache, exactly 65536 upstream bits per request",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in every result.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end: the share of the parent's median by which it may get
    /// worse. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// End-to-end: what the number is on each kind of workload.
    /// Per-layer: the end-to-end metric it should move, and where.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// The bound of a metric that must not move at all. Q, T and M are the
/// same for every `--seed` (the schedule is fixed and the protocols'
/// paths do not depend on the bits), so their spread is zero and any
/// bound would pass; a thousandth is less than one unit of the smallest
/// of them (4), which makes it "exact" while staying a positive share.
pub const EXACT: f64 = 0.001;

/// End-to-end metrics. Every workload reports every one of them, so each
/// is defined on both kinds of workload: an *operation* is one verified
/// execution (`build -> run -> verify`) on a sim workload and one
/// request on a serve workload; a *round* is one execution, or a fixed
/// batch of requests (30000 warm, one 1024-slot pass cold).
pub const END_TO_END: &[Metric] = &[
    e2e(
        "run_s",
        "s",
        Lower,
        0.25,
        "host seconds per verified round, median over the rounds of the run",
    ),
    e2e(
        "req_per_s",
        "1/s",
        Higher,
        0.25,
        "operations completed per wall second of a round, median over rounds (sim: executions, serve: requests)",
    ),
    e2e(
        "lat_p50_us",
        "us",
        Lower,
        0.25,
        "median latency of one operation as its caller times it, pooled over the run",
    ),
    e2e(
        "q_max",
        "bits",
        Lower,
        EXACT,
        "the paper's Q: most bits any nonfaulty peer queried (sim, summed over link_faults' four sub-runs); most bits any fleet peer was charged over the door's life, pre-fill included (serve)",
    ),
    e2e(
        "t_units",
        "units",
        Lower,
        EXACT,
        "the paper's T: virtual completion time in units of the longest message delay (sim, summed on link_faults); longest chain of sequential upstream calls in one request over the door's life (serve)",
    ),
    e2e(
        "msgs",
        "count",
        Lower,
        EXACT,
        "the paper's M: packets sent by nonfaulty peers (sim, summed on link_faults); upstream calls over the door's life (serve)",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Lower,
        0.10,
        "VmHWM of the workload's process",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "what a run pays before its first timed round (sim: the process's first execution, cold, discarded from run_s; serve_warm: input, door and pre-fill of every slot; serve_cold: input, door and one discarded pass; serve set-ups repeat five times, median)",
    ),
];

/// Per-layer metrics, from one traced run. Every workload prints every
/// one; a metric that does not exist on a workload (chunk counters off
/// `stream`, pump counters on a serve workload) reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // protocols
    layer("protocols.handler_s", "s", Lower, "run_s on committee and crash_multi (>=85%), half of two_cycle_wide and link_faults, about half of stream; self time, context calls excluded"),
    layer("protocols.handler_calls", "count", Lower, "run_s; equals sim.events plus starts, so it moves only when the protocol sends fewer messages"),
    // sim: context
    layer("sim.ctx_query_s", "s", Lower, "run_s on stream; self time, source excluded"),
    layer("sim.ctx_query_calls", "count", Lower, "run_s on committee (946176 one-bit calls, what a masked bulk query removes) and stream"),
    layer("sim.ctx_send_s", "s", Lower, "run_s on two_cycle_wide"),
    layer("sim.ctx_send_calls", "count", Lower, "run_s on two_cycle_wide; a broadcast is one call"),
    // sim: adversary and pump
    layer("sim.adversary_s", "s", Lower, "run_s on link_faults and two_cycle_wide (a few percent)"),
    layer("sim.adversary_calls", "count", Lower, "run_s on link_faults and two_cycle_wide"),
    layer("sim.pump_s", "s", Lower, "run_s and peak_rss_mb on two_cycle_wide and link_faults (about half); sim.run minus handlers and hooks"),
    layer("sim.events", "count", Lower, "run_s; exact for a seed"),
    layer("sim.pump_ns_per_event", "ns", Lower, "run_s on two_cycle_wide and link_faults"),
    layer("sim.peak_queue", "count", Lower, "peak_rss_mb on two_cycle_wide"),
    layer("sim.peak_slab", "count", Lower, "peak_rss_mb on two_cycle_wide"),
    layer("sim.parked", "count", Lower, "t_units and run_s on link_faults; exact for a seed"),
    layer("sim.link_drops", "count", Lower, "t_units and run_s on link_faults; exact for a seed"),
    layer("sim.retransmissions", "count", Lower, "t_units and run_s on link_faults; exact for a seed"),
    layer("sim.deferred", "count", Lower, "t_units and run_s on link_faults; exact for a seed"),
    layer("sim.quiescence_releases", "count", Lower, "t_units and run_s on link_faults; exact for a seed"),
    layer("sim.crashed", "count", Lower, "none: says the crash paths ran (crash_multi, link_faults, stream); exact for a seed"),
    layer("sim.build_s", "s", Lower, "setup_s and run_s on every sim workload; catches work moved into build"),
    layer("sim.run_s", "s", Lower, "run_s; the traced sim.run span, which the layer times above sum to"),
    layer("sim.verify_s", "s", Lower, "run_s on every sim workload"),
    // core: streaming source
    layer("core.source_s", "s", Lower, "run_s on stream only (not recorded elsewhere)"),
    layer("core.source_calls", "count", Lower, "run_s on stream only"),
    layer("core.chunk_generated", "count", Lower, "run_s on stream only"),
    layer("core.chunk_evicted", "count", Lower, "run_s on stream only"),
    layer("core.chunk_hit_rate", "ratio", Higher, "run_s on stream only"),
    // runtime + core: front door
    layer("runtime.gate_wait_s", "s", Lower, "runtime.lat_p99_us and req_per_s on serve_*; sum of RequestOutcome.queued"),
    layer("runtime.service_s", "s", Lower, "lat_p50_us and req_per_s on serve_*; sum of RequestOutcome.service"),
    layer("runtime.lat_p99_us", "us", Lower, "none: the tail of the pooled per-request latency on serve_*; not end-to-end because its spread over ten runs (9-18%) is beyond what a bound can hold"),
    layer("core.upstream_s", "s", Lower, "lat_p50_us on serve_cold; must stay 0 on serve_warm"),
    layer("core.upstream_calls", "count", Lower, "msgs on serve_cold; must stay 0 in serve_warm's timed rounds"),
    layer("core.upstream_bits_per_req", "bits", Lower, "q_max on serve_*; exactly 0 on serve_warm and 65536 on serve_cold, checked on every run"),
    layer("core.cache_upstream_bits", "bits", Lower, "q_max on serve_cold"),
    layer("core.cache_hit_rate", "ratio", Higher, "lat_p50_us on serve_warm (1.0) against serve_cold (0.0)"),
    layer("core.cache_coalesce_rate", "ratio", Higher, "runtime.lat_p99_us on serve_*; 0 while clients read disjoint slots"),
    // trace
    layer("trace.overhead_share", "ratio", Lower, "none: traced over untraced run_s, minus one; read it before trusting a layer time"),
    layer("trace.timer_ns", "ns", Lower, "none: cost of one Instant::now pair on this host"),
    // isolated probes: one layer, called from outside, one thread
    layer("core.bits_or_assign_ns_per_word", "ns", Lower, "run_s on crash_multi (merges)"),
    layer("core.bits_slice_ns_per_word", "ns", Lower, "run_s on two_cycle_wide and serve_* (payload and range copies)"),
    layer("core.partial_merge_ns_per_word", "ns", Lower, "run_s on crash_multi"),
    layer("core.partial_learn_slice_ns_per_word", "ns", Lower, "run_s on crash_multi and two_cycle_wide"),
    layer("core.array_source_bits_ns_per_word", "ns", Lower, "lat_p50_us on serve_cold; sim.ctx_query_s everywhere but stream"),
    layer("core.meter_record_range_ns", "ns", Lower, "sim.ctx_query_s"),
    layer("core.chunked_hit_ns_per_word", "ns", Lower, "run_s on stream"),
    layer("core.chunked_miss_ns_per_word", "ns", Lower, "run_s on stream"),
    layer("core.cached_hit_ns_per_word", "ns", Lower, "lat_p50_us on serve_warm; path cost without the two-client lock wait"),
    layer("core.cached_miss_ns_per_word", "ns", Lower, "lat_p50_us on serve_cold"),
    layer("protocols.committee_on_message_ms", "ms", Lower, "run_s on committee; one full VoteBatch into a fresh instance"),
    layer("sim.pump_null_ns_per_event_k64", "ns", Lower, "run_s on two_cycle_wide; the real pump with handlers at zero"),
    layer("sim.pump_null_ns_per_event_k1024", "ns", Lower, "run_s on two_cycle_wide and link_faults"),
];

/// How long one run of the benchmark measures, in seconds.
pub const RUN_SECONDS: u64 = 14;

/// The command `BENCHMARK.json` names; the driver appends `--workload
/// <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from this catalogue.
pub fn manifest() -> Value {
    let text = |items: &[&str]| Value::Arr(items.iter().map(|&s| Value::from(s)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::obj().with("name", w.name).with("why", w.why))
        .collect::<Vec<_>>();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.bound.expect("end-to-end metrics have a bound"))
        })
        .collect::<Vec<_>>();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect::<Vec<_>>();
    Value::obj()
        .with("command", text(&COMMAND))
        .with("paths", text(&["benchmark"]))
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_manifest_rules_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name))
        {
            assert!(legal_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(legal_unit(m.unit), "{} unit {}", m.name, m.unit);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn bounds_are_within_the_cap_and_setup_has_the_widest() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            assert!(["q_max", "t_units", "msgs"].contains(&m.name) == (b == EXACT));
            assert!(b <= setup.bound.unwrap(), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
