//! E-scale — simulator hot-loop scaling (events/sec and memory proxy).
//!
//! Two families of rows, recorded as `BENCH_sim_scaling.json`:
//!
//! * **Workload rows** run the real simulator end to end (committee,
//!   crash-multi and two-cycle) across a (k, n) grid, reporting
//!   events/sec and the peak-RSS proxy `peak_queue · sizeof(event) +
//!   peak_slab · (sizeof(slot) + payload bytes)` from the run's peak
//!   queue/slab occupancy. A slot is one stored payload however many
//!   recipients wait for it, so each is priced once. The two-cycle rows
//!   (`k²` deliveries, a handful of queries) are the ones the event pump
//!   itself bounds.
//! * **Streaming rows** run crash-multi against a generate-on-demand
//!   [`ChunkedSource`](dr_core::ChunkedSource) at `n` up to 2²⁷ bits
//!   (≥ 10⁸) with a fixed 512 KiB resident budget, verifying outputs
//!   blockwise against an independently rebuilt source.
//!
//! Timing lives exclusively in `wall_clock_secs`; everything else in a
//! record (including the event counts and peak occupancies baked into
//! labels) is a pure function of the seed, preserving the harness
//! invariant that `--json` output is bit-identical across runs once
//! `wall_clock_secs` is stripped.
//!
//! Set `DR_SIM_SCALING_SMOKE=1` (the CI smoke job does) to drop the
//! largest grid point of each family.

use crate::metrics::{ExperimentParams, ExperimentRecord, Measured, MetricsSink};
use crate::runners::{
    run_committee, run_crash_multi, run_crash_multi_streaming, run_two_cycle,
    two_cycle_segmentation, ByzMix,
};
use crate::table::{f, Table};
use dr_core::SegmentId;
use dr_sim::RunReport;
use std::time::Instant;

const EXPERIMENT: &str = "sim_scaling";

/// Streaming-source geometry: 1024-word (8 KiB) chunks, at most 64
/// resident — a 512 KiB budget regardless of `n`.
const CHUNK_WORDS: usize = 1024;

/// See [`CHUNK_WORDS`].
const MAX_RESIDENT: usize = 64;

fn smoke() -> bool {
    std::env::var("DR_SIM_SCALING_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Times `op` once after one warmup run, returning (result, seconds).
fn timed<T>(mut op: impl FnMut() -> T) -> (T, f64) {
    std::hint::black_box(op());
    let started = Instant::now();
    let out = op();
    (out, started.elapsed().as_secs_f64())
}

/// Runs the scaling experiment, discarding metrics records.
pub fn run() -> Vec<Table> {
    run_metered(&mut MetricsSink::new())
}

/// Runs the scaling experiment, recording per-row metrics.
pub fn run_metered(sink: &mut MetricsSink) -> Vec<Table> {
    let mut workloads = Table::new(
        "E-scale-a — end-to-end simulator scaling",
        &[
            "workload",
            "n",
            "k",
            "events",
            "ev/s",
            "peak queue",
            "peak slab",
            "rss proxy MiB",
        ],
    );
    let mut workload_row = |sink: &mut MetricsSink,
                            workload: &str,
                            n: usize,
                            k: usize,
                            b: usize,
                            a: usize,
                            payload_bits: usize,
                            (report, secs): (RunReport, f64)| {
        let rate = report.events as f64 / secs;
        // Resident size is dominated by queued events plus occupied slab
        // slots. Every slot holds a distinct payload: its cell in the
        // slab and its buffer, once.
        let proxy_bytes = report.peak_queue_len * report.event_bytes
            + report.peak_slab_len * (report.slab_slot_bytes + payload_bits as u64 / 8);
        workloads.row(vec![
            workload.to_string(),
            n.to_string(),
            k.to_string(),
            report.events.to_string(),
            f(rate),
            report.peak_queue_len.to_string(),
            report.peak_slab_len.to_string(),
            f(proxy_bytes as f64 / (1024.0 * 1024.0)),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!(
                "{workload} n={n} k={k} events={} peak_queue={} peak_slab={} fingerprint={:016x} (events/wall_clock_secs = ev/s)",
                report.events,
                report.peak_queue_len,
                report.peak_slab_len,
                report.fingerprint()
            ),
            ExperimentParams::nkb(n, k, b).with_a(a),
            Measured::one(&report, secs),
        ));
    };

    let mut committee_grid = vec![(1 << 14, 16usize, 5usize), (1 << 16, 32, 10)];
    if !smoke() {
        committee_grid.push((1 << 18, 64, 21));
    }
    for &(n, k, t) in &committee_grid {
        let m = timed(|| run_committee(n, k, t, t, 11));
        workload_row(sink, "committee", n, k, t, 0, n, m);
    }

    let mut crash_grid = vec![(1 << 14, 8usize, 3usize), (1 << 16, 32, 8)];
    if !smoke() {
        crash_grid.push((1 << 18, 64, 16));
    }
    for &(n, k, b) in &crash_grid {
        let m = timed(|| run_crash_multi(n, k, b, b, 1024, false, 13));
        workload_row(sink, "crash_multi", n, k, b, 1024, n, m);
    }

    // Two-cycle at a fixed n: every peer broadcasts one claim and waits
    // for k − b, so events grow as k² while queries stay near n/p.
    let mut two_cycle_grid = vec![256usize, 512];
    if !smoke() {
        two_cycle_grid.push(1024);
    }
    for &k in &two_cycle_grid {
        let (n, b) = (1 << 17, k / 8);
        let (seg, _) = two_cycle_segmentation(n, k, b).expect("sampled plan at this size");
        let m = timed(|| run_two_cycle(n, k, b, ByzMix::Mixed, 17));
        workload_row(sink, "two_cycle", n, k, b, 0, seg.len_of(SegmentId(0)), m);
    }

    let mut streaming = Table::new(
        "E-scale-b — streaming source, bounded resident set (crash_multi)",
        &[
            "n bits",
            "k",
            "b",
            "events",
            "ev/s",
            "cache cap",
            "peak resident",
            "chunks generated",
            "resident KiB",
        ],
    );
    // One grid point at n ≥ 10⁸ bits: far beyond what the workload rows
    // materialize, held to a fixed resident budget. Smoke runs keep the
    // path exercised at a size CI can afford.
    let streaming_grid: Vec<(usize, usize, usize)> = if smoke() {
        vec![(1 << 20, 8, 2)]
    } else {
        vec![(1 << 24, 8, 2), (1 << 27, 8, 2)]
    };
    for &(n, k, b) in &streaming_grid {
        let ((report, stats), secs) = timed(|| {
            run_crash_multi_streaming(
                n,
                k,
                b,
                b,
                1 << 16,
                13,
                0xD0_57_AE,
                CHUNK_WORDS,
                MAX_RESIDENT,
            )
        });
        let resident_bytes = stats.peak_resident as u64 * (CHUNK_WORDS as u64) * 8;
        streaming.row(vec![
            n.to_string(),
            k.to_string(),
            b.to_string(),
            report.events.to_string(),
            f(report.events as f64 / secs),
            MAX_RESIDENT.to_string(),
            stats.peak_resident.to_string(),
            stats.generated.to_string(),
            f(resident_bytes as f64 / 1024.0),
        ]);
        sink.push(ExperimentRecord::new(
            EXPERIMENT,
            format!(
                "streaming crash_multi n={n} k={k} events={} chunks_generated={} peak_resident={} cap={MAX_RESIDENT} (events/wall_clock_secs = ev/s)",
                report.events, stats.generated, stats.peak_resident
            ),
            ExperimentParams::nkb(n, k, b).with_a(1 << 16),
            Measured::one(&report, secs),
        ));
    }

    vec![workloads, streaming]
}
