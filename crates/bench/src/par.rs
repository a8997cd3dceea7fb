//! Back-compat facade over the unified execution plane.
//!
//! Historically this module owned its own scoped-thread pool for trial
//! fan-out. That pool is gone: trial jobs run on the work-stealing pool
//! in [`crate::plane`], and this module just re-exports its surface so
//! existing callers (and the `DR_BENCH_THREADS` contract) keep working
//! unchanged.

pub use crate::plane::{run_indexed, set_threads, thread_count, THREADS_ENV};
