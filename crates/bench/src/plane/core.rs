//! The synchronization core of the execution plane, factored out of the
//! public module so it can be model-checked.
//!
//! Everything in here speaks only through the [`dr_core::sync`] facade —
//! under the `loom-model` feature the mutex, condvar, and completion-queue
//! operations become loom scheduling points, and `tests/loom_plane.rs`
//! exhaustively verifies the protocol properties the public docs promise:
//! no lost wakeups, no double-pop, and a panicking job never deadlocks its
//! submitter.
//!
//! The public `plane` module owns everything process-global (worker
//! threads, thread-count policy, the `OnceLock` singleton); this core is
//! deliberately instantiable so each model execution gets a fresh one.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use dr_core::sync::{Arc, Condvar, Mutex};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Injector state guarded by the core's mutex.
struct Injector {
    jobs: VecDeque<Job>,
    /// Once set, workers exit instead of parking (queued jobs still drain
    /// first). Only models and tests shut a core down; the process-global
    /// plane lives forever.
    shutdown: bool,
}

/// Injector deque + worker parking + batch submission: the part of the
/// plane whose correctness is argued by model checking rather than review.
pub struct PlaneCore {
    queue: Mutex<Injector>,
    /// Signalled when jobs are pushed (and on shutdown); workers park here.
    work: Condvar,
}

impl Default for PlaneCore {
    fn default() -> Self {
        Self::new()
    }
}

impl PlaneCore {
    /// A fresh, empty core.
    pub fn new() -> Self {
        PlaneCore {
            queue: Mutex::new(Injector {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        }
    }

    /// Enqueues a batch at the back, in order.
    fn push(&self, jobs: Vec<Job>) {
        let mut q = self.queue.lock().unwrap();
        q.jobs.extend(jobs);
        drop(q);
        self.work.notify_all();
    }

    /// Pops the next job.
    fn pop(&self) -> Option<Job> {
        self.queue.lock().unwrap().jobs.pop_front()
    }

    /// Body of a worker thread: run jobs, park when the queue is empty,
    /// exit once [`PlaneCore::shutdown`] is called and the queue is
    /// drained.
    pub fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if q.shutdown {
                        return;
                    }
                    q = self.work.wait(q).unwrap();
                }
            };
            job();
        }
    }

    /// Lets parked workers exit after draining the queue. The process-wide
    /// plane never calls this; models and tests use it so every worker
    /// thread can be joined.
    #[cfg_attr(not(feature = "loom-model"), allow(dead_code))]
    pub fn shutdown(&self) {
        self.queue.lock().unwrap().shutdown = true;
        self.work.notify_all();
    }

    /// Submits `jobs` as one batch and helps until all of them finished,
    /// returning results in index order. This is the submitter side of the
    /// blocking discipline: the submitter helps with anything poppable and
    /// parks on the completion queue only when the queue is empty, which
    /// means every unfinished job is running on some other thread and will
    /// push its completion: no lost wakeups, no cycles. A panic inside a
    /// job is caught, forwarded as a completion, and resumed here on the
    /// submitting thread.
    ///
    /// `on_done(index, &result)` fires on the submitting thread in
    /// completion order as each result is collected (the streaming hook).
    pub fn run_batch<T, C>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
        mut on_done: C,
    ) -> Vec<T>
    where
        T: Send + 'static,
        C: FnMut(usize, &T),
    {
        let count = jobs.len();
        let done: Arc<CompletionQueue<T>> = Arc::new(CompletionQueue::new());
        let wrapped = jobs
            .into_iter()
            .enumerate()
            .map(|(i, job)| -> Job {
                let done = Arc::clone(&done);
                Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(job));
                    done.push(i, out);
                })
            })
            .collect();
        self.push(wrapped);

        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let mut received = 0usize;
        while received < count {
            // Help while anything is poppable.
            while let Some(job) = self.pop() {
                job();
                while let Some((i, out)) = done.try_pop() {
                    received += 1;
                    let v = unwrap_completion(out);
                    on_done(i, &v);
                    slots[i] = Some(v);
                }
                if received == count {
                    break;
                }
            }
            if received == count {
                break;
            }
            // Nothing poppable: every unfinished job is running on another
            // thread and will push its completion.
            let (i, out) = done.pop_wait();
            received += 1;
            let v = unwrap_completion(out);
            on_done(i, &v);
            slots[i] = Some(v);
        }
        slots
            .into_iter()
            .map(|s| s.expect("plane job completed without a result"))
            .collect()
    }
}

/// Outcome of one job: its index and either its value or the payload of
/// the panic that killed it.
type Completion<T> = (usize, std::thread::Result<T>);

/// Per-batch completion mailbox: workers push `(index, result)` as jobs
/// finish; the submitter drains opportunistically while helping and parks
/// here when no helpable work remains. Built on the facade so the
/// park/notify pair is part of the model-checked protocol (it replaced a
/// channel dependency precisely so the model sees the blocking edge).
struct CompletionQueue<T> {
    q: Mutex<VecDeque<Completion<T>>>,
    ready: Condvar,
}

impl<T> CompletionQueue<T> {
    fn new() -> Self {
        CompletionQueue {
            q: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, index: usize, out: std::thread::Result<T>) {
        let mut q = self.q.lock().unwrap();
        q.push_back((index, out));
        drop(q);
        self.ready.notify_all();
    }

    fn try_pop(&self) -> Option<Completion<T>> {
        self.q.lock().unwrap().pop_front()
    }

    fn pop_wait(&self) -> Completion<T> {
        let mut q = self.q.lock().unwrap();
        loop {
            if let Some(c) = q.pop_front() {
                return c;
            }
            q = self.ready.wait(q).unwrap();
        }
    }
}

/// Unwraps a completion, resuming a forwarded panic on this thread.
pub fn unwrap_completion<T>(out: std::thread::Result<T>) -> T {
    match out {
        Ok(v) => v,
        Err(payload) => resume_unwind(payload),
    }
}
