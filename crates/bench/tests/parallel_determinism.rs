//! The parallel trial runner must be bit-identical to the serial one:
//! trial `t` always runs with seed `base_seed + t`, and results are
//! merged back in index order before aggregation, so thread count and
//! scheduling cannot leak into the statistics.
//!
//! The thread count is process-wide, so this binary has one test, and it
//! is the only code here that sets the count.

use dr_bench::runners::{average, average_par};
use dr_bench::{par, Stats};
use dr_core::sync::Mutex;

/// A deterministic, seed-sensitive stand-in for a simulation run.
fn fake_trial(seed: u64) -> f64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    x ^= x >> 33;
    (x % 10_000) as f64 / 7.0
}

#[test]
fn parallel_runners_match_serial_at_1_2_and_8_threads() {
    let serial = Stats::sample(64, 123, fake_trial);
    let serial_mean = average(17, 9, fake_trial);
    for threads in [1, 2, 8] {
        par::set_threads(threads);
        assert_eq!(par::thread_count(), threads);

        let par_stats = Stats::sample_par(64, 123, fake_trial);
        assert_eq!(serial.count, par_stats.count, "threads={threads}");
        // Bit-identity, not approximate equality: the merged sample
        // order must match the serial order exactly.
        assert!(
            serial.mean.to_bits() == par_stats.mean.to_bits()
                && serial.std.to_bits() == par_stats.std.to_bits()
                && serial.min.to_bits() == par_stats.min.to_bits()
                && serial.max.to_bits() == par_stats.max.to_bits(),
            "threads={threads}: serial {serial:?} != parallel {par_stats:?}"
        );
        let par_mean = average_par(17, 9, fake_trial);
        assert_eq!(
            serial_mean.to_bits(),
            par_mean.to_bits(),
            "threads={threads}"
        );

        // Every index runs exactly once, and results come back in order.
        let calls = Mutex::new(vec![0u32; 37]);
        let got = par::run_indexed(37, |i| {
            calls.lock().unwrap()[i] += 1;
            i * i
        });
        assert_eq!(got, (0..37).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(*calls.lock().unwrap(), vec![1; 37], "threads={threads}");
    }
    par::set_threads(0);
}
