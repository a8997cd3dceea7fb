//! E-serve — multi-client front-door load experiment (`dr serve-bench`).
//!
//! Drives the `dr-runtime` [`FrontDoor`] with concurrent client threads
//! over three workloads and records the serving-plane metrics the
//! admission plane exists to improve:
//!
//! * **cold-disjoint** — every request asks a distinct range: no overlap,
//!   so amortized Q per request equals the uncached cost. This is the
//!   baseline row.
//! * **overlap-hot** — all clients walk the same rotation over a small
//!   hot set of ranges: cross-client overlap is total, so after first
//!   touch the plane serves requests from cache, and concurrent first
//!   touches coalesce into single-flight fetches.
//! * **warm-repeat** — the overlap workload replayed on the same door:
//!   everything is cached, amortized Q per request is exactly 0.
//!
//! The upstream source is throttled (a fixed sleep per upstream `bits`
//! call) to model a remote data source; that is what makes latency and
//! coalescing observable rather than a function of memcpy speed.
//!
//! Results go to `BENCH_serve.json` with a serving-specific schema
//! (requests/s, p50/p99 latency, amortized Q, coalesce rate) rather than
//! the Q/T/M `ExperimentRecord` schema of the protocol experiments.
//! [`gate`] holds the CI assertions: warm amortized Q strictly below
//! cold, coalescing observed on the overlap workload, bit-identical
//! responses everywhere (checked inside the workers).

use crate::table::{f, Table};
use dr_core::{ArraySource, BitArray, Source};
use dr_runtime::{FrontDoor, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const EXPERIMENT: &str = "serve";

/// Grid for one serve run.
#[derive(Debug, Clone, Copy)]
pub struct ServeGrid {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues per workload.
    pub requests_per_client: usize,
    /// Bits per request.
    pub range_bits: usize,
    /// Hot-set size for the overlap workload.
    pub hot_ranges: usize,
    /// Peer fleet size.
    pub peers: usize,
    /// Upstream sleep per `bits` call, in microseconds.
    pub throttle_us: u64,
}

impl ServeGrid {
    /// The full grid used for the committed `BENCH_serve.json`.
    pub fn full() -> Self {
        ServeGrid {
            clients: 8,
            requests_per_client: 24,
            range_bits: 16_384,
            hot_ranges: 8,
            peers: 4,
            throttle_us: 200,
        }
    }

    /// Reduced grid for the CI smoke job.
    pub fn smoke() -> Self {
        ServeGrid {
            clients: 4,
            requests_per_client: 8,
            range_bits: 4_096,
            hot_ranges: 4,
            peers: 2,
            throttle_us: 200,
        }
    }

    /// Input size: the cold workload partitions the array exactly.
    pub fn n_bits(&self) -> usize {
        self.clients * self.requests_per_client * self.range_bits
    }
}

/// One `BENCH_serve.json` row: a workload under a grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeRecord {
    /// Workload name: `cold-disjoint`, `overlap-hot`, or `warm-repeat`.
    pub workload: String,
    /// Input size in bits.
    pub n_bits: usize,
    /// Peer fleet size.
    pub peers: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total requests served.
    pub requests: usize,
    /// Bits per request.
    pub range_bits: usize,
    /// Upstream sleep per `bits` call, in microseconds.
    pub throttle_us: u64,
    /// Served requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Median request latency (queue + service), microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_latency_us: f64,
    /// Mean upstream bits charged per request (amortized Q).
    pub amortized_q_per_request: f64,
    /// Upstream bits a request would pay with no plane (= range_bits).
    pub uncached_q_per_request: f64,
    /// Coalesced words / words missed (0 when nothing overlapped in
    /// flight).
    pub coalesce_rate: f64,
    /// Cache hits / words requested.
    pub hit_rate: f64,
    /// Total bits pulled from the upstream source by this workload.
    pub upstream_bits: u64,
    /// Wall-clock duration of the workload.
    pub wall_clock_secs: f64,
}

/// A source that sleeps on every `bits` call, modelling a remote
/// upstream whose reads are the expensive resource.
struct ThrottledSource {
    inner: ArraySource,
    sleep: Duration,
}

impl Source for ThrottledSource {
    fn len(&self) -> usize {
        Source::len(&self.inner)
    }
    fn bit(&self, index: usize) -> bool {
        self.inner.bit(index)
    }
    fn bits(&self, range: Range<usize>) -> BitArray {
        if !self.sleep.is_zero() {
            std::thread::sleep(self.sleep);
        }
        Source::bits(&self.inner, range)
    }
}

/// Request ranges for client `c` under a workload.
fn client_ranges(grid: &ServeGrid, workload: &str, c: usize) -> Vec<Range<usize>> {
    let n = grid.n_bits();
    (0..grid.requests_per_client)
        .map(|r| {
            let lo = match workload {
                // Partition: every request a distinct slice.
                "cold-disjoint" => (c * grid.requests_per_client + r) * grid.range_bits,
                // All clients walk the same hot-set rotation, so first
                // touches race (coalescing) and the rest hit cache.
                _ => (r % grid.hot_ranges) * grid.range_bits,
            };
            debug_assert!(lo + grid.range_bits <= n);
            lo..lo + grid.range_bits
        })
        .collect()
}

/// Runs one workload over `door`, returning its record.
fn run_workload(
    grid: &ServeGrid,
    workload: &str,
    door: &FrontDoor,
    input: &BitArray,
) -> ServeRecord {
    let stats_before = door.plane().cache().stats();
    let barrier = Arc::new(Barrier::new(grid.clients));
    let started = Instant::now();
    // dr-lint: allow(raw-thread-spawn): real client threads are the workload under measurement — pooling them would serialize the very contention the benchmark exists to exercise
    let per_client: Vec<(Vec<Duration>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..grid.clients)
            .map(|c| {
                let door = door.clone();
                let barrier = Arc::clone(&barrier);
                let ranges = client_ranges(grid, workload, c);
                scope.spawn(move || {
                    barrier.wait();
                    let mut latencies = Vec::with_capacity(ranges.len());
                    let mut metered = 0u64;
                    for range in ranges {
                        let outcome = door.serve(range.clone());
                        assert_eq!(
                            outcome.bits,
                            input.slice(range.clone()),
                            "served bits diverged from the source on {range:?}"
                        );
                        latencies.push(outcome.latency());
                        metered += outcome.metered_bits;
                    }
                    (latencies, metered)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let stats_after = door.plane().cache().stats();

    let mut latencies: Vec<Duration> = per_client.iter().flat_map(|(l, _)| l.clone()).collect();
    latencies.sort_unstable();
    let requests = latencies.len();
    let metered_total: u64 = per_client.iter().map(|(_, m)| m).sum();
    let pct = |p: f64| -> f64 {
        let idx = ((requests as f64 - 1.0) * p).round() as usize;
        latencies[idx].as_secs_f64() * 1e6
    };
    let fetched = stats_after.misses - stats_before.misses;
    let coalesced = stats_after.coalesced - stats_before.coalesced;
    let hits = stats_after.hits - stats_before.hits;
    let words_requested = hits + fetched;
    ServeRecord {
        workload: workload.to_string(),
        n_bits: grid.n_bits(),
        peers: grid.peers,
        clients: grid.clients,
        requests,
        range_bits: grid.range_bits,
        throttle_us: grid.throttle_us,
        requests_per_sec: requests as f64 / wall.as_secs_f64(),
        p50_latency_us: pct(0.50),
        p99_latency_us: pct(0.99),
        amortized_q_per_request: metered_total as f64 / requests as f64,
        uncached_q_per_request: grid.range_bits as f64,
        coalesce_rate: if fetched == 0 {
            0.0
        } else {
            coalesced as f64 / fetched as f64
        },
        hit_rate: if words_requested == 0 {
            0.0
        } else {
            hits as f64 / words_requested as f64
        },
        upstream_bits: stats_after.upstream_bits - stats_before.upstream_bits,
        wall_clock_secs: wall.as_secs_f64(),
    }
}

/// Runs the three workloads under `grid` and returns their records.
pub fn run_grid(grid: &ServeGrid) -> Vec<ServeRecord> {
    let n = grid.n_bits();
    let mut rng = StdRng::seed_from_u64(0x005e_124e);
    let input = BitArray::random(n, &mut rng);
    let make_door = || {
        FrontDoor::new(
            ThrottledSource {
                inner: ArraySource::new(input.clone()),
                sleep: Duration::from_micros(grid.throttle_us),
            },
            ServeConfig::new(grid.peers).with_max_in_flight(grid.clients),
        )
    };

    let cold_door = make_door();
    let cold = run_workload(grid, "cold-disjoint", &cold_door, &input);

    let overlap_door = make_door();
    let overlap = run_workload(grid, "overlap-hot", &overlap_door, &input);
    // Same door, everything cached.
    let warm = run_workload(grid, "warm-repeat", &overlap_door, &input);

    vec![cold, overlap, warm]
}

/// The CI gate over one grid's records. Panics with a diagnostic when
/// the admission plane fails to amortize.
///
/// # Panics
///
/// Panics if warm amortized Q is not strictly below cold, if the overlap
/// workload shows no coalescing, or if the warm replay still paid
/// upstream bits.
pub fn gate(records: &[ServeRecord]) {
    let by = |name: &str| {
        records
            .iter()
            .find(|r| r.workload == name)
            .unwrap_or_else(|| panic!("missing workload {name}"))
    };
    let cold = by("cold-disjoint");
    let overlap = by("overlap-hot");
    let warm = by("warm-repeat");
    assert!(
        overlap.amortized_q_per_request < cold.amortized_q_per_request,
        "overlap amortized Q/request ({}) must be strictly below cold ({})",
        overlap.amortized_q_per_request,
        cold.amortized_q_per_request
    );
    assert!(
        warm.amortized_q_per_request == 0.0 && warm.upstream_bits == 0,
        "warm replay must be fully served from cache (got {} bits/request, {} upstream)",
        warm.amortized_q_per_request,
        warm.upstream_bits
    );
    assert!(
        overlap.coalesce_rate > 0.0,
        "overlap workload must observe single-flight coalescing"
    );
    assert!(
        cold.amortized_q_per_request <= cold.uncached_q_per_request,
        "the plane must never charge more than the uncached cost"
    );
}

/// Renders records as the experiment table.
pub fn tables(records: &[ServeRecord]) -> Vec<Table> {
    let mut t = Table::new(
        "E-serve — front-door load: amortized Q, latency, coalescing",
        &[
            "workload", "req", "req/s", "p50 µs", "p99 µs", "Q/req", "uncached", "coalesce",
            "hit rate",
        ],
    );
    for r in records {
        t.row(vec![
            r.workload.clone(),
            r.requests.to_string(),
            f(r.requests_per_sec),
            f(r.p50_latency_us),
            f(r.p99_latency_us),
            f(r.amortized_q_per_request),
            f(r.uncached_q_per_request),
            f(r.coalesce_rate),
            f(r.hit_rate),
        ]);
    }
    vec![t]
}

/// Writes `BENCH_serve.json` into `dir` (created if missing).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json(dir: &Path, records: &[ServeRecord]) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{EXPERIMENT}.json"));
    // The vendored serde implements `Serialize` for `Vec`, not slices.
    let mut text = serde::json::to_string_pretty(&records.to_vec());
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Runs the full grid, gates, and returns the table (the `dr experiments
/// --only serve` path).
pub fn run() -> Vec<Table> {
    let records = run_grid(&ServeGrid::full());
    gate(&records);
    tables(&records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_amortizes_and_gates() {
        let records = run_grid(&ServeGrid::smoke());
        assert_eq!(records.len(), 3);
        gate(&records);
        let cold = &records[0];
        // Disjoint requests pay full price.
        assert_eq!(cold.amortized_q_per_request, cold.uncached_q_per_request);
        assert_eq!(cold.upstream_bits as usize, cold.n_bits);
    }

    #[test]
    fn json_round_trips() {
        let grid = ServeGrid {
            clients: 2,
            requests_per_client: 2,
            range_bits: 512,
            hot_ranges: 2,
            peers: 2,
            throttle_us: 0,
        };
        let records = run_grid(&grid);
        let dir = std::env::temp_dir().join(format!("dr_serve_json_{}", std::process::id()));
        let path = write_json(&dir, &records).expect("write json");
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<ServeRecord> = serde::json::from_str(&text).expect("parse");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[1].workload, "overlap-hot");
        std::fs::remove_dir_all(&dir).ok();
    }
}
