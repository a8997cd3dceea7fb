//! Simulator scaling benchmarks: the real simulator end to end at two
//! grid points per workload, so regressions in the pump and the
//! machinery around it (adversary hooks, metering, trace plumbing) show
//! up here.

use criterion::{criterion_group, criterion_main, Criterion};
use dr_bench::runners::{run_committee, run_crash_multi};

fn bench_full_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_scaling_full_run");
    group.sample_size(10);
    group.bench_function("committee_n16384_k16_t5", |b| {
        b.iter(|| run_committee(1 << 14, 16, 5, 5, 11));
    });
    group.bench_function("committee_n65536_k32_t10", |b| {
        b.iter(|| run_committee(1 << 16, 32, 10, 10, 11));
    });
    group.bench_function("crash_multi_n16384_k8_b3", |b| {
        b.iter(|| run_crash_multi(1 << 14, 8, 3, 3, 1024, false, 13));
    });
    group.bench_function("crash_multi_n65536_k32_b8", |b| {
        b.iter(|| run_crash_multi(1 << 16, 32, 8, 8, 1024, false, 13));
    });
    group.finish();
}

criterion_group!(sim_scaling, bench_full_runs);
criterion_main!(sim_scaling);
