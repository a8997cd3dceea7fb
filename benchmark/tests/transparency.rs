//! The three wrappers are transparent: with them and without them an
//! execution has the same fingerprint, the same per-peer query counts
//! and the same number of events — on every workload, at tiny sizes,
//! and under each of the four `link_faults` adversaries on its own.

use dr_benchmark::sim_workloads::{
    execute, execute_link_fault, Execution, SimWorkload, LINK_FAULT_ADVERSARIES, QUICK,
};
use dr_benchmark::trace::{SpanName, Tracer};
use std::sync::Arc;

const WORKLOADS: [SimWorkload; 5] = [
    SimWorkload::Committee,
    SimWorkload::CrashMulti,
    SimWorkload::TwoCycleWide,
    SimWorkload::LinkFaults,
    SimWorkload::Stream,
];

fn assert_same(what: &str, plain: &Execution, traced: &Execution, tracer: &Tracer) {
    assert_eq!(plain.facts.fingerprint, traced.facts.fingerprint, "{what}");
    assert_eq!(
        plain.facts.query_counts, traced.facts.query_counts,
        "{what}"
    );
    assert_eq!(plain.facts.events, traced.facts.events, "{what}");
    // Everything else that must repeat, link-fault counters included.
    assert_eq!(plain.facts, traced.facts, "{what}");
    assert_eq!(plain.chunks, traced.chunks, "{what}");
    // And the wrappers were really there: a span per handler call and
    // per hook, under one sim.run span per simulation.
    let totals = tracer.totals_since(0);
    assert!(
        totals.of(SpanName::Handler).0 >= plain.facts.events,
        "{what}"
    );
    assert!(totals.adversary().0 > 0, "{what}");
    assert!(totals.of(SpanName::SimRun).0 >= 1, "{what}");
}

#[test]
fn every_workload_runs_the_same_traced_and_untraced() {
    for workload in WORKLOADS {
        for seed in [0, 1] {
            let what = format!("{workload:?} seed {seed}");
            let plain = execute(workload, &QUICK, seed, None).expect(&what);
            let tracer = Arc::new(Tracer::new());
            let traced = execute(workload, &QUICK, seed, Some(&tracer)).expect(&what);
            assert_same(&what, &plain, &traced, &tracer);
        }
    }
}

#[test]
fn each_link_fault_adversary_runs_the_same_traced_and_untraced() {
    for (which, name) in LINK_FAULT_ADVERSARIES.iter().enumerate() {
        let plain = execute_link_fault(&QUICK, which, 0, None).expect(name);
        let tracer = Arc::new(Tracer::new());
        let traced = execute_link_fault(&QUICK, which, 0, Some(&tracer)).expect(name);
        assert_same(name, &plain, &traced, &tracer);
        // Each adversary exercises the path it is there for, and the
        // wrapper passed its declarations (plan, lossiness) through.
        let f = &traced.facts;
        let exercised = match *name {
            "lossy_links" => f.link_drops > 0 && f.retransmissions > 0,
            "partition_healer" => f.parked > 0,
            "churn_mixer" => f.deferred > 0,
            "chaos_aggressive" => f.quiescence_releases > 0 && f.crashed > 0,
            other => panic!("unknown adversary {other}"),
        };
        assert!(exercised, "{name} left its counters at zero: {f:?}");
    }
}

#[test]
fn the_stream_source_is_wrapped_only_when_traced() {
    let tracer = Arc::new(Tracer::new());
    execute(SimWorkload::CrashMulti, &QUICK, 0, Some(&tracer)).unwrap();
    assert_eq!(tracer.source_counters().snapshot().0, 0, "built-in source");
    let traced = execute(SimWorkload::Stream, &QUICK, 0, Some(&tracer)).unwrap();
    let (calls, _) = tracer.source_counters().snapshot();
    let chunks = traced.chunks.expect("stream reports its chunk cache");
    assert!(calls > 0);
    assert_eq!(tracer.totals_since(0).fold.source_calls, calls);
    assert!(chunks.evicted > 0, "the working set exceeds the cache");
}
