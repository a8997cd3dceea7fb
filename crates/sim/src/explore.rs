//! Exhaustive schedule exploration: bounded model checking of message
//! orderings.
//!
//! The discrete-event simulator samples one adversarial schedule per
//! seed. For *small* instances this module goes further: it enumerates
//! **every** order in which concurrently pending events can be delivered
//! (up to a schedule budget), re-executing the protocol from scratch
//! along each branch, and checks the Download specification on every
//! complete schedule. A protocol that passes an exhaustive exploration is
//! correct under *every* asynchronous schedule of that instance — the
//! strongest evidence short of a proof, and exactly the quantifier
//! ("for every execution") the paper's theorems use.
//!
//! Crash choices are part of the input (fixed per exploration); the
//! explored nondeterminism is the delivery order. Because schedules are
//! enumerated depth-first with re-execution, the cost is
//! `O(schedules × events)`; use tiny instances (`k ≤ 4`, `n ≤ 32`) and
//! the [`ExploreConfig::max_schedules`] budget.

use crate::agent::Agent;
use dr_core::{ArraySource, BitArray, Context, PeerId, ProtocolMessage, SharedSource};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Configuration of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Number of peers.
    pub k: usize,
    /// The input array to download.
    pub input: BitArray,
    /// Peers crashed from the start (they never execute; the harshest
    /// crash pattern, per the paper equivalent to crashing before the
    /// first cycle).
    pub crashed: Vec<PeerId>,
    /// Stop after this many complete schedules (0 = unlimited).
    pub max_schedules: u64,
    /// Abort any single schedule after this many deliveries (livelock
    /// guard).
    pub max_events_per_schedule: u64,
    /// Seed for the per-peer RNGs (randomized protocols explore one coin
    /// sequence per seed).
    pub seed: u64,
}

impl ExploreConfig {
    /// A default exploration for `k` peers over `input`.
    pub fn new(k: usize, input: BitArray) -> Self {
        ExploreConfig {
            k,
            input,
            crashed: Vec::new(),
            max_schedules: 100_000,
            max_events_per_schedule: 100_000,
            seed: 0,
        }
    }

    /// Sets the crashed-from-start peers.
    pub fn with_crashed(mut self, crashed: Vec<PeerId>) -> Self {
        self.crashed = crashed;
        self
    }
}

/// Outcome of an exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Complete schedules checked.
    pub schedules: u64,
    /// Whether the enumeration covered every schedule (false if the
    /// budget was exhausted first).
    pub exhaustive: bool,
    /// The first counterexample found, if any.
    pub counterexample: Option<Counterexample>,
}

/// A schedule on which the Download specification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Indices (into the pending set at each step) of the chosen events.
    pub choices: Vec<usize>,
    /// What went wrong.
    pub violation: String,
}

struct PendingEvent<M> {
    from: PeerId,
    to: PeerId,
    msg: M,
}

struct ExploreCtx<'a, M> {
    me: PeerId,
    k: usize,
    n: usize,
    handle: dr_core::SourceHandle,
    rng: &'a mut StdRng,
    outbox: Vec<(PeerId, M)>,
}

impl<M: ProtocolMessage> Context<M> for ExploreCtx<'_, M> {
    fn me(&self) -> PeerId {
        self.me
    }
    fn num_peers(&self) -> usize {
        self.k
    }
    fn input_len(&self) -> usize {
        self.n
    }
    fn send(&mut self, to: PeerId, msg: M) {
        self.outbox.push((to, msg));
    }
    fn query(&mut self, index: usize) -> bool {
        self.handle.query(index)
    }
    fn query_range(&mut self, range: std::ops::Range<usize>) -> BitArray {
        // Bulk path: one meter update + word-level copy instead of the
        // default per-bit loop. Identical cost accounting and results.
        self.handle.query_range(range)
    }
    fn query_masked(&mut self, mask: &BitArray) -> BitArray {
        // Same bulk path for a strided query set.
        self.handle.query_masked(mask)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}

/// Explores every delivery order of the instance, re-running the factory-
/// built protocol along each branch.
///
/// Returns a report with the first counterexample, if any. Protocols
/// must be deterministic given their per-peer RNG stream (all `Protocol`
/// implementations in this workspace are).
pub fn explore<M, P, F>(config: &ExploreConfig, factory: F) -> ExploreReport
where
    M: ProtocolMessage,
    P: Agent<M> + 'static,
    F: Fn(PeerId) -> P,
{
    let mut state = Search {
        config,
        factory: &factory,
        schedules: 0,
        budget_hit: false,
        counterexample: None,
        _msg: std::marker::PhantomData,
    };
    state.dfs(&mut Vec::new());
    ExploreReport {
        schedules: state.schedules,
        exhaustive: !state.budget_hit,
        counterexample: state.counterexample,
    }
}

struct Search<'a, M, P, F>
where
    M: ProtocolMessage,
    P: Agent<M>,
    F: Fn(PeerId) -> P,
{
    config: &'a ExploreConfig,
    factory: &'a F,
    schedules: u64,
    budget_hit: bool,
    counterexample: Option<Counterexample>,
    _msg: std::marker::PhantomData<M>,
}

impl<M, P, F> Search<'_, M, P, F>
where
    M: ProtocolMessage,
    P: Agent<M>,
    F: Fn(PeerId) -> P,
{
    /// Replays `prefix` and returns the number of then-pending events,
    /// or records a terminal outcome. `None` means the schedule ended
    /// (success or failure recorded); `Some(p)` means `p` pending events
    /// need further branching.
    fn replay(&mut self, prefix: &[usize]) -> Option<usize> {
        let cfg = self.config;
        let k = cfg.k;
        let n = cfg.input.len();
        let source = SharedSource::new(ArraySource::new(cfg.input.clone()), k);
        let mut rngs: Vec<StdRng> = (0..k)
            .map(|p| StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37).wrapping_add(p as u64)))
            .collect();
        let mut agents: Vec<P> = (0..k).map(|p| (self.factory)(PeerId(p))).collect();
        let alive = |p: PeerId| !cfg.crashed.contains(&p);
        let mut pending: Vec<PendingEvent<M>> = Vec::new();

        // Start every live peer (in ID order: starts are also events we
        // could explore, but protocols here are start-order independent;
        // message order is the interesting nondeterminism).
        for p in 0..k {
            if !alive(PeerId(p)) {
                continue;
            }
            let mut ctx = ExploreCtx {
                me: PeerId(p),
                k,
                n,
                handle: source.handle(PeerId(p)),
                rng: &mut rngs[p],
                outbox: Vec::new(),
            };
            agents[p].on_start(&mut ctx);
            for (to, msg) in ctx.outbox {
                pending.push(PendingEvent {
                    from: PeerId(p),
                    to,
                    msg,
                });
            }
        }

        // Invariant: before every choice, the pending set is pruned of
        // undeliverable events (to crashed or terminated peers), so the
        // indices seen by the DFS and by this replay always agree.
        let prune = |pending: &mut Vec<PendingEvent<M>>, agents: &[P]| {
            pending.retain(|ev| alive(ev.to) && !agents[ev.to.index()].is_terminated());
        };
        prune(&mut pending, &agents);

        let mut events = 0u64;
        for (depth, &choice) in prefix.iter().enumerate() {
            if choice >= pending.len() {
                // Stale branch (shorter pending set than when scheduled);
                // treat as schedule end without verdict.
                debug_assert!(false, "invalid replay choice at depth {depth}");
                return None;
            }
            let ev = pending.swap_remove(choice);
            events += 1;
            if events > cfg.max_events_per_schedule {
                self.counterexample = Some(Counterexample {
                    choices: prefix[..=depth].to_vec(),
                    violation: "event budget exceeded (livelock?)".into(),
                });
                return None;
            }
            debug_assert!(alive(ev.to) && !agents[ev.to.index()].is_terminated());
            let mut ctx = ExploreCtx {
                me: ev.to,
                k,
                n,
                handle: source.handle(ev.to),
                rng: &mut rngs[ev.to.index()],
                outbox: Vec::new(),
            };
            agents[ev.to.index()].on_message(ev.from, ev.msg, &mut ctx);
            for (to, msg) in ctx.outbox {
                pending.push(PendingEvent {
                    from: ev.to,
                    to,
                    msg,
                });
            }
            prune(&mut pending, &agents);
        }

        if pending.is_empty() {
            // Schedule complete: verify.
            self.schedules += 1;
            for (p, agent) in agents.iter().enumerate().take(k) {
                if !alive(PeerId(p)) {
                    continue;
                }
                match agent.output() {
                    None => {
                        self.counterexample.get_or_insert(Counterexample {
                            choices: prefix.to_vec(),
                            violation: format!("peer p{p} deadlocked (no output)"),
                        });
                        return None;
                    }
                    Some(out) if out != &cfg.input => {
                        self.counterexample.get_or_insert(Counterexample {
                            choices: prefix.to_vec(),
                            violation: format!("peer p{p} output a wrong array"),
                        });
                        return None;
                    }
                    Some(_) => {}
                }
            }
            return None;
        }
        Some(pending.len())
    }

    fn dfs(&mut self, prefix: &mut Vec<usize>) {
        if self.counterexample.is_some() || self.budget_hit {
            return;
        }
        if self.config.max_schedules != 0 && self.schedules >= self.config.max_schedules {
            self.budget_hit = true;
            return;
        }
        let Some(branches) = self.replay(prefix) else {
            return;
        };
        for choice in 0..branches {
            prefix.push(choice);
            self.dfs(prefix);
            prefix.pop();
            if self.counterexample.is_some() || self.budget_hit {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::{PartialArray, Protocol};

    #[derive(Debug, Clone)]
    struct Chunk {
        offset: usize,
        bits: BitArray,
    }
    impl ProtocolMessage for Chunk {
        fn bit_len(&self) -> usize {
            64 + self.bits.len()
        }
    }

    /// Fault-free balanced download (known-correct without faults,
    /// known-broken with them).
    struct Balanced {
        acc: PartialArray,
        out: Option<BitArray>,
    }
    impl Balanced {
        fn new(n: usize) -> Self {
            Balanced {
                acc: PartialArray::new(n),
                out: None,
            }
        }
        fn check(&mut self) {
            if self.out.is_none() && self.acc.is_complete() {
                self.out = Some(self.acc.clone().into_complete());
            }
        }
    }
    impl Protocol for Balanced {
        type Msg = Chunk;
        fn on_start(&mut self, ctx: &mut dyn Context<Chunk>) {
            let n = ctx.input_len();
            let k = ctx.num_peers();
            let per = n.div_ceil(k);
            let me = ctx.me().index();
            let range = (me * per).min(n)..((me + 1) * per).min(n);
            let bits = ctx.query_range(range.clone());
            self.acc.learn_slice(range.start, &bits);
            ctx.broadcast(Chunk {
                offset: range.start,
                bits,
            });
            self.check();
        }
        fn on_message(&mut self, _f: PeerId, m: Chunk, _c: &mut dyn Context<Chunk>) {
            self.acc.learn_slice(m.offset, &m.bits);
            self.check();
        }
        fn output(&self) -> Option<&BitArray> {
            self.out.as_ref()
        }
    }

    #[test]
    fn balanced_passes_exhaustively_without_faults() {
        let input = BitArray::from_fn(6, |i| i % 2 == 0);
        let config = ExploreConfig::new(3, input);
        let report = explore(&config, |_| Balanced::new(6));
        assert!(report.exhaustive);
        assert!(report.counterexample.is_none(), "{report:?}");
        assert!(report.schedules > 0);
    }

    #[test]
    fn balanced_fails_exhaustively_with_a_crash() {
        // With one peer crashed from the start, *every* schedule
        // deadlocks — the explorer finds the counterexample immediately.
        let input = BitArray::zeros(6);
        let config = ExploreConfig::new(3, input).with_crashed(vec![PeerId(2)]);
        let report = explore(&config, |_| Balanced::new(6));
        let ce = report.counterexample.expect("must find a deadlock");
        assert!(ce.violation.contains("deadlock"));
    }
}
