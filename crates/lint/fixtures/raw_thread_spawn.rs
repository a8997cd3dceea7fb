//! Fixture: ad-hoc OS threads that bypass the trial fan-out.
//! Three violations (`thread::spawn`, `thread::scope`, `thread::Builder`),
//! one justified allow, and look-alikes that must stay silent.

use std::thread;

fn fans_out_by_hand(jobs: Vec<Box<dyn FnOnce() + Send>>) {
    // VIOLATION: a raw spawn per job is an ad-hoc pool.
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|job| std::thread::spawn(job))
        .collect();
    for h in handles {
        let _ = h.join();
    }
}

fn scoped_pool(xs: &mut [u64]) {
    // VIOLATION: a scoped pool ignores the thread-count knobs.
    thread::scope(|s| {
        for x in xs.iter_mut() {
            s.spawn(|| *x += 1);
        }
    });
}

fn named_worker() {
    // VIOLATION: Builder is just spawn with a name.
    let _ = thread::Builder::new().name("side-pool".into());
}

fn sanctioned_watchdog() {
    // dr-lint: allow(raw-thread-spawn): watchdog must outlive the pool it monitors
    let _ = thread::Builder::new().name("watchdog".into());
}

fn not_violations() {
    // A subprocess spawn is not a thread.
    let _ = std::process::Command::new("true").spawn();
    // Sleeping the current thread spawns nothing.
    thread::sleep(std::time::Duration::from_millis(1));
}
