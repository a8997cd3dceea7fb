//! The work-stealing execution plane.
//!
//! One process-wide pool schedules the bench's **trial jobs** — whole
//! simulation runs fanned out by [`run_indexed`] (experiment trials,
//! chaos campaign runs) — through a single FIFO deque.
//!
//! # Blocking discipline (deadlock freedom)
//!
//! A [`run_indexed`] caller never parks while work sits in the queue —
//! it *helps*, popping anything. It parks (on its batch's completion
//! queue) only when the queue is empty, which means every unfinished job
//! is *running* on some other thread and will signal completion; hence no
//! lost wakeups and no cycles. Jobs themselves never block on other jobs.
//!
//! These claims are not just argued here: the protocol lives in
//! [`core::PlaneCore`], built on the [`dr_core::sync`] facade, and
//! `tests/loom_plane.rs` model-checks them exhaustively under the
//! `loom-model` feature (every interleaving of push/pop/park/wakeup/
//! panic-forwarding on small batches).
//!
//! Workers are spawned lazily and grow-only: the pool keeps the largest
//! worker count any submission has asked for. Idle workers park on a
//! condvar and cost nothing. Panics inside jobs are caught, forwarded
//! through the completion queue, and resumed on the submitting thread.
//!
//! # Determinism
//!
//! The plane schedules; it never reorders results. [`run_indexed`]
//! returns results in index order regardless of completion order, so
//! thread count (including 1, which runs everything inline) never
//! changes any reported value.

// Model tests need to instantiate fresh cores; normal builds keep the
// synchronization internals private to the plane.
#[cfg(feature = "loom-model")]
pub mod core;
#[cfg(not(feature = "loom-model"))]
pub(crate) mod core;

// The process-global knobs below stay on raw std atomics deliberately:
// loom primitives cannot live in statics (each model execution must create
// its own instrumented objects), and these atomics carry no cross-thread
// data — they are monotonic config/bookkeeping cells (DESIGN.md §4).
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use self::core::PlaneCore;

/// Name of the environment variable consulted by [`thread_count`].
pub const THREADS_ENV: &str = "DR_BENCH_THREADS";

/// Process-wide override set by [`set_threads`]; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for the whole process (e.g. from a
/// `--threads` CLI flag). Passing 0 clears the override. Already-spawned
/// workers are never torn down (they park when idle); lowering the count
/// only limits how much new submissions fan out.
pub fn set_threads(n: usize) {
    // dr-lint: allow(atomic-ordering): lone config cell, no other memory depends on it
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Worker threads submissions fan out over: the [`set_threads`] override,
/// else `DR_BENCH_THREADS`, else the machine's available parallelism.
pub fn thread_count() -> usize {
    // dr-lint: allow(atomic-ordering): lone config cell, no other memory depends on it
    let explicit = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide plane: the model-checked core plus the grow-only
/// worker accounting that only makes sense as a singleton.
struct Plane {
    core: PlaneCore,
    /// Workers spawned so far (grow-only).
    workers: AtomicUsize,
}

fn plane() -> &'static Plane {
    static PLANE: OnceLock<Plane> = OnceLock::new();
    PLANE.get_or_init(|| Plane {
        core: PlaneCore::new(),
        workers: AtomicUsize::new(0),
    })
}

impl Plane {
    /// Grows the pool to at least `want` workers.
    fn ensure_workers(&self, want: usize) {
        loop {
            // dr-lint: allow(atomic-ordering): spawn-count gate only; the spawn itself synchronizes
            let cur = self.workers.load(Ordering::Relaxed);
            if cur >= want {
                return;
            }
            if self
                .workers
                // dr-lint: allow(atomic-ordering): CAS decides which thread spawns worker `cur`; no data is published through it
                .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                std::thread::Builder::new()
                    .name(format!("dr-plane-{cur}"))
                    .spawn(|| plane().core.worker_loop())
                    .expect("spawn plane worker");
            }
        }
    }
}

/// Runs `f(0..count)` across the plane and returns the results **in
/// index order** (bit-identical to a serial loop for any thread count).
/// Runs inline when the plane would use a single thread.
///
/// The closure must be `'static`: jobs outlive the submitting stack
/// frame on persistent workers, so captures are moved (clone or
/// `Arc`-wrap shared data at the call site).
pub fn run_indexed<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    run_indexed_streaming(count, f, |_, _| ())
}

/// [`run_indexed`], additionally invoking `on_done(index, &result)` on
/// the submitting thread **in completion order** as each job finishes —
/// the hook for streaming progress while the index-ordered aggregate
/// stays bit-identical. The callback must not submit plane work.
pub fn run_indexed_streaming<T, F, C>(count: usize, f: F, mut on_done: C) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
    C: FnMut(usize, &T),
{
    let workers = thread_count().min(count);
    if workers <= 1 {
        return (0..count)
            .map(|i| {
                let v = f(i);
                on_done(i, &v);
                v
            })
            .collect();
    }
    let p = plane();
    p.ensure_workers(workers - 1);

    let f = Arc::new(f);
    let jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>> = (0..count)
        .map(|i| {
            let f = Arc::clone(&f);
            let job: Box<dyn FnOnce() -> T + Send + 'static> = Box::new(move || f(i));
            job
        })
        .collect();
    p.core.run_batch(jobs, on_done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        set_threads(4);
        let got = run_indexed(37, |i| i * i);
        set_threads(0);
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn single_thread_runs_inline() {
        set_threads(1);
        let got = run_indexed(5, |i| i + 1);
        set_threads(0);
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_count_yields_empty() {
        assert_eq!(run_indexed(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn streaming_sees_every_index_once() {
        set_threads(3);
        let mut seen = vec![0u32; 20];
        let got = run_indexed_streaming(
            20,
            |i| i,
            |i, &v| {
                assert_eq!(i, v);
                seen[i] += 1;
            },
        );
        set_threads(0);
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        assert_eq!(seen, vec![1; 20]);
    }

    #[test]
    fn job_panics_propagate_to_the_submitter() {
        set_threads(2);
        let out = std::panic::catch_unwind(|| {
            run_indexed(6, |i| {
                if i == 3 {
                    panic!("boom in trial 3");
                }
                i
            })
        });
        set_threads(0);
        assert!(out.is_err());
    }
}
