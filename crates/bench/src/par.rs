//! Trial fan-out: independent trials spread over scoped threads.
//!
//! [`run_indexed`] runs `f(0..count)` on [`thread_count`] threads, the
//! calling thread among them. Workers claim indices from one shared
//! counter, and the results are put back in index order, so the thread
//! count never reaches a result (`tests/parallel_determinism.rs`).
//!
//! The threads are scoped, so the closure may borrow the caller's locals,
//! and they are joined before [`run_indexed`] returns. A trial's panic is
//! resumed on the caller with its original payload.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide override set by [`set_threads`]; 0 means "not set".
// dr-lint: allow(sync-primitive-outside-facade): process-global config cell; statics cannot hold loom primitives (each model execution needs fresh objects)
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the thread count for the whole process (from `dr`'s
/// `--threads` flag). Passing 0 clears the override.
pub fn set_threads(n: usize) {
    // dr-lint: allow(atomic-ordering): lone config cell, no other memory depends on it
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Threads a fan-out uses: the [`set_threads`] override, else the
/// machine's available parallelism.
pub fn thread_count() -> usize {
    // dr-lint: allow(atomic-ordering): lone config cell, no other memory depends on it
    let explicit = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0..count)` on `thread_count().min(count)` threads and returns
/// the results **in index order**, bit-identical to a serial loop for any
/// thread count. Runs inline when that is a single thread.
pub fn run_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fan_out(thread_count().min(count), count, f)
}

/// [`run_indexed`] on exactly `workers` threads (the caller included).
fn fan_out<T, F>(workers: usize, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    // dr-lint: allow(sync-primitive-outside-facade): a claim counter local to one fan-out; it guards no data for a loom model to see
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // dr-lint: allow(atomic-ordering): the RMW alone makes each index unique; results are published by the join
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut results: Vec<(usize, T)> = Vec::with_capacity(count);
    // dr-lint: allow(raw-thread-spawn): the trial fan-out itself; its threads are joined before it returns
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        results.extend(work());
        for helper in helpers {
            match helper.join() {
                Ok(done) => results.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn results_are_in_index_order() {
        // Two workers meeting at a barrier in every trial take turns, so
        // each ends up holding indices from across the whole range (and
        // the caller must be one of them, or the barrier never opens).
        let turns = Barrier::new(2);
        let got = fan_out(2, 8, |i| {
            turns.wait();
            i * i
        });
        assert_eq!(got, (0..8).map(|i| i * i).collect::<Vec<_>>());
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [2, 8, 64] {
            assert_eq!(fan_out(workers, 37, |i| i * i), want, "{workers} workers");
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = thread::current().id();
        let got = fan_out(1, 5, |i| (i + 1, thread::current().id()));
        assert_eq!(got.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 2, 3, 4, 5]);
        assert!(got.iter().all(|r| r.1 == caller));
    }

    #[test]
    fn empty_count_yields_empty() {
        assert_eq!(fan_out(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(0, |i| i), Vec::<usize>::new());
    }

    /// Two trials, one per worker (a barrier holds each worker to one);
    /// the one on the caller's thread or the helper's panics.
    fn boom_on(caller_panics: bool) {
        let caller = thread::current().id();
        let turns = Barrier::new(2);
        let out = catch_unwind(AssertUnwindSafe(|| {
            fan_out(2, 2, |i| {
                turns.wait();
                if (thread::current().id() == caller) == caller_panics {
                    panic!("job boom");
                }
                i
            })
        }));
        let payload = out.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job boom"));
        assert_eq!(fan_out(2, 6, |i| i * 10), [0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn a_trial_panic_reaches_the_caller_and_the_next_fan_out_still_works() {
        boom_on(false);
        boom_on(true);
    }

    #[test]
    fn trials_borrow_the_callers_locals() {
        let rows: Vec<String> = (0..20).map(|i| format!("row {i}")).collect();
        let got: Vec<&str> = run_indexed(rows.len(), |i| rows[i].as_str());
        assert_eq!(got, rows);
    }
}
