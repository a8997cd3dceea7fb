//! The workspace's synchronization facade.
//!
//! The workspace has one blocking cross-thread protocol, and one loom
//! model checks it: the single-flight coalescing protocol in `cached.rs`
//! (concurrent cache misses elect a leader that fetches from the upstream
//! source while followers park on a condvar), interleaved exhaustively —
//! leader panics included — by `tests/loom_admission.rs`. It constructs
//! its primitives through this module: `std::sync` by default, the
//! vendored `loom` model checker under the `loom-model` feature
//! (std-equivalent outside `loom::model`).
//!
//! The `sync-primitive-outside-facade` lint keys off this file: raw
//! primitive construction elsewhere needs a justified allow.

#[cfg(feature = "loom-model")]
pub use loom::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

#[cfg(not(feature = "loom-model"))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
