//! Fixture: `sync-primitive-outside-facade` — raw primitive construction
//! fires; use (not construction) of a primitive is silent; a justified
//! allow suppresses. The file-scoped exemptions (the facade,
//! facade-routed importers, loom-driving model code) are exercised inline
//! by the tests, since they key off the file path or the import set.

use std::sync::atomic::AtomicU64;
use std::sync::{Condvar, Mutex};

fn raw_construction_fires() -> (Mutex<u32>, Condvar, AtomicU64) {
    (Mutex::new(0), Condvar::new(), AtomicU64::new(0))
}

fn justified_construction() -> Mutex<u32> {
    // dr-lint: allow(sync-primitive-outside-facade): fixture primitive that genuinely cannot swap to loom
    Mutex::new(0)
}

fn mere_use_is_clean(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}
