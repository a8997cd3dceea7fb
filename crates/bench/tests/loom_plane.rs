//! Exhaustive model checks for the execution plane's synchronization core.
//!
//! Run with `cargo test -p dr-bench --features loom-model --test loom_plane`.
//! Each test wraps a small `PlaneCore` protocol in `loom::model`, which
//! re-executes the closure under **every** schedule of its lock, condvar,
//! and atomic operations. The properties the plane's docs promise are
//! verified here rather than argued:
//!
//! * no lost wakeups — a parked worker or submitter always wakes when work
//!   or a completion arrives, on every schedule (a lost notify would show
//!   up as a deadlock, which the checker reports);
//! * no double-pop / lost jobs — every submitted job runs exactly once and
//!   results land in index order;
//! * a panicking job is forwarded to its submitter and never deadlocks
//!   waiters or workers.
//!
//! Models are deliberately tiny (≤ 2 threads, ≤ 3 jobs): loom explores the
//! full interleaving space, so size shows up as execution count, not
//! coverage.
#![cfg(feature = "loom-model")]

use dr_bench::plane::core::PlaneCore;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use std::panic::{catch_unwind, AssertUnwindSafe};

type TrialJob = Box<dyn FnOnce() -> usize + Send + 'static>;

#[test]
fn worker_and_submitter_run_every_job_exactly_once() {
    loom::model(|| {
        let core = Arc::new(PlaneCore::new());
        let ran = Arc::new(AtomicUsize::new(0));
        let worker = {
            let core = Arc::clone(&core);
            loom::thread::spawn(move || core.worker_loop())
        };
        let jobs: Vec<TrialJob> = (0..2)
            .map(|i| {
                let ran = Arc::clone(&ran);
                let job: TrialJob = Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    i
                });
                job
            })
            .collect();
        let out = core.run_batch(jobs, |_, _| ());
        // Index order regardless of which thread ran which job; a lost or
        // double-popped job would break one of these on some schedule.
        assert_eq!(out, vec![0, 1]);
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        core.shutdown();
        worker.join().unwrap();
    });
}

#[test]
fn submitter_alone_helps_its_batch_to_completion() {
    // No workers at all: the help loop must drain the whole batch without
    // ever parking (parking with nothing running would deadlock, which the
    // checker would report).
    loom::model(|| {
        let core = PlaneCore::new();
        let jobs: Vec<TrialJob> = (0..3)
            .map(|i| {
                let job: TrialJob = Box::new(move || i * i);
                job
            })
            .collect();
        let mut completion_order = Vec::new();
        let out = core.run_batch(jobs, |i, _| completion_order.push(i));
        assert_eq!(out, vec![0, 1, 4]);
        assert_eq!(completion_order, vec![0, 1, 2]);
    });
}

#[test]
fn panicking_job_reaches_the_submitter_and_never_deadlocks() {
    // One good job, one that panics. On every schedule the submitter must
    // observe the panic (resumed on its own stack), and afterwards the
    // worker must still respond to shutdown — i.e. a panicking job leaves
    // no waiter parked forever and no lock poisoned in a way that hangs
    // the plane.
    loom::model(|| {
        let core = Arc::new(PlaneCore::new());
        let worker = {
            let core = Arc::clone(&core);
            loom::thread::spawn(move || core.worker_loop())
        };
        let jobs: Vec<TrialJob> = vec![Box::new(|| 7), Box::new(|| panic!("job boom"))];
        let result = catch_unwind(AssertUnwindSafe(|| core.run_batch(jobs, |_, _| ())));
        let payload = result.expect_err("the panic must be forwarded");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert_eq!(msg, "job boom");
        core.shutdown();
        worker.join().unwrap();
    });
}
