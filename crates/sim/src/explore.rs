//! Exhaustive schedule exploration: bounded model checking of message
//! orderings.
//!
//! The discrete-event simulator samples one adversarial schedule per
//! seed. For *small* instances this module goes further: it enumerates
//! **every** order in which held messages can be delivered (up to a
//! schedule budget) and checks the Download specification on every
//! complete schedule. A protocol that passes an exhaustive exploration is
//! correct under *every* asynchronous schedule of that instance — the
//! strongest evidence short of a proof, and exactly the quantifier
//! ("for every execution") the paper's theorems use.
//!
//! The explorer is an [`Adversary`] on the one simulator, not a second
//! executor: every peer starts at tick 0, every message is held, and each
//! quiescence releases exactly one held message. A branch is the list of
//! those choices, each an index into the *deliverable* held messages
//! (recipient neither crashed nor terminated) at that quiescence, in held
//! order; [`Counterexample::choices`] is such a list. The depth-first
//! search replays every branch from scratch through [`SimBuilder`] and
//! [`Simulation::run`](crate::Simulation::run), taking choice 0 past the
//! branch's prefix, so it runs the simulator once per leaf of the
//! schedule tree.
//!
//! Crash choices are part of the input (fixed per exploration, from the
//! start); the explored nondeterminism is the delivery order. The cost is
//! `O(schedules × events)`; use tiny instances (`k ≤ 4`, `n ≤ 32`) and
//! the [`ExploreConfig::max_schedules`] budget.

use crate::adversary::{Adversary, Delivery, HeldInfo, Release};
use crate::agent::Agent;
use crate::builder::SimBuilder;
use crate::report::{DownloadViolation, RunError, RunReport};
use crate::time::Ticks;
use crate::view::View;
use dr_core::{BitArray, FaultModel, InvalidParamsError, ModelParams, PeerId, ProtocolMessage};
use rand::rngs::StdRng;
use std::sync::{Arc, Mutex, PoisonError};

/// Simulator events after which a single schedule counts as a livelock.
const MAX_EVENTS_PER_SCHEDULE: u64 = 100_000;

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
    /// Seed of every replayed simulation (randomized protocols explore
    /// one coin sequence per seed).
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
            seed: 0,
        }
    }

    /// Sets the crashed-from-start peers.
    pub fn with_crashed(mut self, crashed: Vec<PeerId>) -> Self {
        self.crashed = crashed;
        self
    }

    /// The instance's model parameters: `n` is the input length and the
    /// crashed peers are the whole fault budget.
    fn params(&self) -> Result<ModelParams, InvalidParamsError> {
        let params = ModelParams::builder(self.input.len(), self.k)
            .faults(FaultModel::Crash, self.crashed.len())
            .build()?;
        for (i, peer) in self.crashed.iter().enumerate() {
            let p = peer.index();
            if p >= self.k {
                return Err(InvalidParamsError::new(format!(
                    "crashed peer {p} is not a peer: k={0} numbers them 0..{0}",
                    self.k
                )));
            }
            if self.crashed[..i].contains(peer) {
                return Err(InvalidParamsError::new(format!(
                    "crashed peer {p} is listed twice"
                )));
            }
        }
        Ok(params)
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
    /// The message released at each quiescence, as an index into the
    /// deliverable held messages at that point.
    pub choices: Vec<usize>,
    /// What went wrong.
    pub violation: String,
}

/// One quiescence of a replay: the choice taken and how many there were.
type Branch = (usize, usize);

/// The explorer's adversary: holds every message and releases one per
/// quiescence, following `prefix` and then choice 0. Every decision
/// leaves the run through `path`.
struct Chooser {
    prefix: Vec<usize>,
    crashed: Vec<PeerId>,
    path: Arc<Mutex<Vec<Branch>>>,
}

impl<M: ProtocolMessage> Adversary<M> for Chooser {
    fn start_offset(&mut self, _peer: PeerId, _rng: &mut StdRng) -> Ticks {
        0
    }

    fn on_send(
        &mut self,
        _view: &View<'_>,
        _from: PeerId,
        _to: PeerId,
        _msg: &M,
        _rng: &mut StdRng,
    ) -> Delivery {
        Delivery::Hold
    }

    fn on_quiescence(&mut self, view: &View<'_>, held: &[HeldInfo]) -> Release {
        let deliverable: Vec<usize> = (0..held.len())
            .filter(|&i| {
                let to = view.status(held[i].to);
                !to.crashed && !to.terminated
            })
            .collect();
        if deliverable.is_empty() {
            // Every held message is dead: letting them all go ends the
            // run (as a deadlock, since some peer is still waiting).
            return Release::All;
        }
        let mut path = self.path.lock().unwrap_or_else(PoisonError::into_inner);
        let choice = self.prefix.get(path.len()).copied().unwrap_or(0);
        path.push((choice, deliverable.len()));
        Release::Some(vec![deliverable[choice]])
    }

    fn planned_crashes(&self) -> Option<usize> {
        Some(self.crashed.len())
    }

    fn crash_before_event(&mut self, _view: &View<'_>, peer: PeerId) -> bool {
        self.crashed.contains(&peer)
    }
}

/// Explores every delivery order of the instance, re-running the factory-
/// built protocol along each branch.
///
/// Returns a report with the first counterexample, if any. Protocols
/// must be deterministic given their per-peer RNG stream (all `Protocol`
/// implementations in this workspace are).
///
/// # Errors
///
/// Returns [`InvalidParamsError`] for an instance that does not exist:
/// `n = 0`, `k = 0`, no peer left uncrashed, or a crashed id that is out
/// of range or listed twice.
pub fn explore<M, P, F>(
    config: &ExploreConfig,
    factory: F,
) -> Result<ExploreReport, InvalidParamsError>
where
    M: ProtocolMessage,
    P: Agent<M> + 'static,
    F: Fn(PeerId) -> P,
{
    let params = config.params()?;
    let mut report = ExploreReport {
        schedules: 0,
        exhaustive: true,
        counterexample: None,
    };
    let mut prefix = Vec::new();
    loop {
        if config.max_schedules != 0 && report.schedules >= config.max_schedules {
            report.exhaustive = false;
            return Ok(report);
        }
        let (path, outcome) = replay(config, params, &factory, prefix);
        // A livelocked run never finishes, so it is no complete schedule.
        if !matches!(outcome, Err(RunError::EventLimitExceeded { .. })) {
            report.schedules += 1;
        }
        let choices = |upto: usize| path[..upto].iter().map(|&(choice, _)| choice).collect();
        if let Some(violation) = violation(outcome, &config.input) {
            report.counterexample = Some(Counterexample {
                choices: choices(path.len()),
                violation,
            });
            return Ok(report);
        }
        // The next leaf: bump the deepest choice that still has a sibling.
        let Some(depth) = path.iter().rposition(|&(choice, width)| choice + 1 < width) else {
            return Ok(report);
        };
        prefix = choices(depth);
        prefix.push(path[depth].0 + 1);
    }
}

/// What went wrong in one replay, if anything.
fn violation(outcome: Result<RunReport, RunError>, input: &BitArray) -> Option<String> {
    let deadlocked = |peer: PeerId| format!("peer p{} deadlocked (no output)", peer.index());
    match outcome {
        Ok(run) => match run.verify_downloads(input) {
            Ok(()) => None,
            Err(DownloadViolation::MissingOutput { peer }) => Some(deadlocked(peer)),
            Err(DownloadViolation::WrongOutput { peer, .. }) => {
                Some(format!("peer p{} output a wrong array", peer.index()))
            }
        },
        Err(RunError::Deadlock { stuck }) => Some(deadlocked(stuck[0])),
        Err(RunError::EventLimitExceeded { .. }) => {
            Some("event budget exceeded (livelock?)".into())
        }
        Err(other) => Some(other.to_string()),
    }
}

/// Runs one schedule to its end: `prefix`, then choice 0 at every later
/// quiescence. Returns the quiescences the run went through and its
/// outcome.
fn replay<M, P, F>(
    config: &ExploreConfig,
    params: ModelParams,
    factory: &F,
    prefix: Vec<usize>,
) -> (Vec<Branch>, Result<RunReport, RunError>)
where
    M: ProtocolMessage,
    P: Agent<M> + 'static,
    F: Fn(PeerId) -> P,
{
    let path = Arc::new(Mutex::new(Vec::new()));
    let chooser = Chooser {
        prefix,
        crashed: config.crashed.clone(),
        path: Arc::clone(&path),
    };
    let mut agents: Vec<Option<P>> = (0..config.k).map(|p| Some(factory(PeerId(p)))).collect();
    let outcome = SimBuilder::new(params)
        .seed(config.seed)
        .input(config.input.clone())
        .protocol(move |id| agents[id.index()].take().expect("one agent per peer"))
        .adversary(chooser)
        .max_events(MAX_EVENTS_PER_SCHEDULE)
        .build()
        .run();
    let path = std::mem::take(&mut *path.lock().unwrap_or_else(PoisonError::into_inner));
    (path, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::{Context, PartialArray, Protocol};

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
        let report = explore(&config, |_| Balanced::new(6)).unwrap();
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
        let report = explore(&config, |_| Balanced::new(6)).unwrap();
        let ce = report.counterexample.expect("must find a deadlock");
        assert!(ce.violation.contains("deadlock"));
    }

    /// Bounces every chunk back to its sender forever.
    struct PingPong(Balanced);
    impl Protocol for PingPong {
        type Msg = Chunk;
        fn on_start(&mut self, ctx: &mut dyn Context<Chunk>) {
            Protocol::on_start(&mut self.0, ctx);
        }
        fn on_message(&mut self, from: PeerId, m: Chunk, ctx: &mut dyn Context<Chunk>) {
            ctx.send(from, m);
        }
        fn output(&self) -> Option<&BitArray> {
            None
        }
    }

    #[test]
    fn a_protocol_that_never_terminates_is_a_livelock() {
        let config = ExploreConfig::new(2, BitArray::zeros(4));
        let report = explore(&config, |_| PingPong(Balanced::new(4))).unwrap();
        let ce = report.counterexample.expect("must find the livelock");
        assert!(ce.violation.contains("livelock"), "{ce:?}");
        assert_eq!(report.schedules, 0, "a livelock is no complete schedule");
    }

    /// Runs the balanced download but answers all zeros.
    struct Zeros(Balanced, BitArray);
    impl Protocol for Zeros {
        type Msg = Chunk;
        fn on_start(&mut self, ctx: &mut dyn Context<Chunk>) {
            Protocol::on_start(&mut self.0, ctx);
        }
        fn on_message(&mut self, from: PeerId, m: Chunk, ctx: &mut dyn Context<Chunk>) {
            Protocol::on_message(&mut self.0, from, m, ctx);
        }
        fn output(&self) -> Option<&BitArray> {
            Protocol::output(&self.0).map(|_| &self.1)
        }
    }

    #[test]
    fn a_wrong_output_is_a_counterexample() {
        let input = BitArray::from_fn(6, |i| i % 3 == 0);
        let config = ExploreConfig::new(3, input);
        let report = explore(&config, |_| Zeros(Balanced::new(6), BitArray::zeros(6))).unwrap();
        let ce = report.counterexample.expect("must catch the wrong array");
        assert!(ce.violation.contains("wrong array"), "{ce:?}");
        assert_eq!(report.schedules, 1);
    }

    #[test]
    fn instances_that_do_not_exist_are_errors() {
        let cases: [(usize, usize, &[usize], &str); 6] = [
            (6, 0, &[], "peer count k must be positive"),
            (0, 3, &[], "input length n must be positive"),
            (6, 3, &[0, 1, 2], "at least one nonfaulty peer"),
            (6, 2, &[0, 1], "at least one nonfaulty peer"),
            (6, 3, &[3], "crashed peer 3 is not a peer"),
            (6, 4, &[1, 1], "crashed peer 1 is listed twice"),
        ];
        for (n, k, crashed, expected) in cases {
            let config = ExploreConfig::new(k, BitArray::zeros(n))
                .with_crashed(crashed.iter().map(|&p| PeerId(p)).collect());
            let err = explore(&config, |_| Balanced::new(n)).unwrap_err();
            assert!(
                err.to_string().contains(expected),
                "n={n} k={k} crashed={crashed:?}: {err}"
            );
        }
    }
}
