//! Chaos campaigns: randomized fault-injection sweeps with invariant
//! checks, deterministic reproduction, and failing-run minimization.
//!
//! A campaign sweeps seeds × adversary configurations × protocols. Every
//! run records the adversary's full decision schedule (via
//! [`RecordingAdversary`]) and checks four invariants afterwards:
//!
//! 1. **termination** — the run completed (no deadlock, no event-limit);
//! 2. **download** — [`RunReport::verify_downloads`](dr_sim::RunReport::verify_downloads) holds for every
//!    nonfaulty peer;
//! 3. **fault budget** — `|crashed| + |byzantine| ≤ b`;
//! 4. **cost envelope** — `Q` and `T` stay inside the protocol's
//!    paper-bound [`CostEnvelope`].
//!
//! On a violation the schedule is shrunk — delta-debugging the crash
//! directives, mid-send cuts, held sends, partial releases, partition
//! and churn directives, and dropped transmissions down to a
//! 1-minimal failing [`ScheduleTrace`] — and written to
//! `chaos_repro_<hash>.json`, which [`replay_repro`] plays back
//! bit-identically.
//!
//! [`FragileDownload`] is an intentionally broken protocol (an
//! "impatient" zero-filling fallback) used to exercise the
//! violation → shrink → replay pipeline in tests and CI.

use crate::par;
use dr_core::{json::ToJson, json_enum, json_struct};
use dr_core::{
    BitArray, Context, FaultModel, ModelParams, PartialArray, PeerId, Protocol, ProtocolMessage,
};
use dr_protocols::{
    CommitteeDownload, CostEnvelope, CrashMultiDownload, MultiCycleDownload, SingleCrashDownload,
    TwoCycleDownload,
};
use dr_sim::{AdaptiveCrasher, ChaosAdversary, ChaosConfig, HoldUntilQuiescence};
use dr_sim::{
    Agent, ChurnMixer, LossyLinks, PartitionHealer, RecordingAdversary, ReplayAdversary,
    ScheduleTrace, SilentAgent, SimBuilder, TraceHandle,
};
use std::fmt;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Protocol under test in a chaos case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Algorithm 1 (`crash::single`), crash model.
    CrashSingle,
    /// Algorithm 2 (`crash::multi`), crash model.
    CrashMulti,
    /// Deterministic committee protocol, Byzantine model.
    Committee,
    /// Randomized 2-cycle protocol, Byzantine model.
    TwoCycle,
    /// Randomized multi-cycle protocol, Byzantine model.
    MultiCycle,
    /// Intentionally broken fixture ([`FragileDownload`]) — not part of
    /// [`default_cases`], used to exercise the shrink/replay pipeline.
    Fragile,
}

json_enum!(ToJson, FromJson for ProtocolKind {
    CrashSingle, CrashMulti, Committee, TwoCycle, MultiCycle, Fragile
});

impl ProtocolKind {
    /// Short stable label used in reports and filenames.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::CrashSingle => "crash_single",
            ProtocolKind::CrashMulti => "crash_multi",
            ProtocolKind::Committee => "committee",
            ProtocolKind::TwoCycle => "two_cycle",
            ProtocolKind::MultiCycle => "multi_cycle",
            ProtocolKind::Fragile => "fragile",
        }
    }

    fn fault_model(self) -> FaultModel {
        match self {
            ProtocolKind::CrashSingle | ProtocolKind::CrashMulti | ProtocolKind::Fragile => {
                FaultModel::Crash
            }
            _ => FaultModel::Byzantine,
        }
    }

    /// The preconditions this protocol's constructor asserts beyond what
    /// [`ModelParams`] checks, at `k` peers with Byzantine budget `t`.
    /// `dr`'s flag checks and [`load_repro`] both call it, so a bad
    /// instance is an error before it can be a constructor's panic.
    ///
    /// # Errors
    ///
    /// The [`ProtocolLimit`] the instance breaks.
    pub fn check_limits(self, k: usize, t: usize) -> Result<(), ProtocolLimit> {
        match self {
            ProtocolKind::CrashSingle if k < 3 => Err(ProtocolLimit::TooFewPeers { k }),
            ProtocolKind::Committee if 2 * t >= k => Err(ProtocolLimit::ByzantineHalf { k, t }),
            _ => Ok(()),
        }
    }
}

/// A protocol precondition an instance breaks (see
/// [`ProtocolKind::check_limits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolLimit {
    /// Algorithm 1 needs `k >= 3`: its Overlap Lemma intersects two
    /// `(k−1)`-subsets of the peers.
    TooFewPeers {
        /// The peer count asked for.
        k: usize,
    },
    /// The committee protocol needs `2t < k`: with half or more of the
    /// peers Byzantine, Thm 3.1 forces `Q = n` on every deterministic
    /// protocol.
    ByzantineHalf {
        /// The peer count asked for.
        k: usize,
        /// The Byzantine budget asked for.
        t: usize,
    },
}

impl fmt::Display for ProtocolLimit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ProtocolLimit::TooFewPeers { k } => {
                write!(f, "Algorithm 1 needs k >= 3 peers, got k={k}")
            }
            ProtocolLimit::ByzantineHalf { k, t } => write!(
                f,
                "the committee protocol needs 2·t < k, got t={t}, k={k}: with half or more \
                 of the peers Byzantine, Thm 3.1 forces Q = n on every deterministic protocol"
            ),
        }
    }
}

/// Adversary configuration of a chaos case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// [`AdaptiveCrasher`] targeting the most advanced peers.
    AdaptiveCrash,
    /// [`HoldUntilQuiescence`] with heavy holds and stingy releases.
    HoldHeavy,
    /// [`ChaosAdversary`] with [`ChaosConfig::mild`].
    ChaosMild,
    /// [`ChaosAdversary`] with [`ChaosConfig::aggressive`].
    ChaosAggressive,
    /// [`PartitionHealer`]: two successive seed-derived cuts that heal on
    /// schedule, parking (not losing) every message across them.
    PartitionHealer,
    /// [`LossyLinks`]: seeded per-link drop rates; every dropped attempt
    /// is resent after a backoff until it gets through.
    LossyLinks,
    /// [`ChurnMixer`]: peers leave and rejoin; deliveries addressed to an
    /// absent peer defer to its rejoin tick.
    ChurnMixer,
}

json_enum!(ToJson, FromJson for AdversaryKind {
    AdaptiveCrash, HoldHeavy, ChaosMild, ChaosAggressive, PartitionHealer, LossyLinks, ChurnMixer
});

impl AdversaryKind {
    /// Short stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AdversaryKind::AdaptiveCrash => "adaptive_crash",
            AdversaryKind::HoldHeavy => "hold_heavy",
            AdversaryKind::ChaosMild => "chaos_mild",
            AdversaryKind::ChaosAggressive => "chaos_aggressive",
            AdversaryKind::PartitionHealer => "partition_healer",
            AdversaryKind::LossyLinks => "lossy_links",
            AdversaryKind::ChurnMixer => "churn_mixer",
        }
    }
}

/// One (protocol, adversary, size) combination of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Adversary configuration.
    pub adversary: AdversaryKind,
    /// Input length.
    pub n: usize,
    /// Number of peers.
    pub k: usize,
    /// Fault budget.
    pub b: usize,
    /// Nominal per-link drop rate in permille for [`LossyLinks`] cases;
    /// `0` means the campaign default (150‰). Ignored by other
    /// adversaries.
    pub drop_permille: u16,
}

json_struct!(ToJson, FromJson for CaseConfig { protocol, adversary, n, k, b, drop_permille });

impl CaseConfig {
    /// Heal horizon (time units) of [`PartitionHealer`] cases.
    const HEAL_UNITS: u64 = 3;

    /// The effective [`LossyLinks`] drop rate: the field, or the campaign
    /// default of 150‰ when unset.
    pub fn effective_drop_permille(&self) -> u16 {
        if self.drop_permille == 0 {
            150
        } else {
            self.drop_permille
        }
    }

    /// Churners of a [`ChurnMixer`] case: one per eight peers, at least
    /// one.
    pub fn churner_count(&self) -> usize {
        (self.k / 8).max(1)
    }
    /// Byzantine peers actually instantiated (silent): for
    /// Byzantine-model protocols, half the budget rounded up; the rest of
    /// `b` is left to the adversary as crash budget, exercising the joint
    /// fault budget. Crash-model protocols corrupt no one.
    pub fn byz_count(&self) -> usize {
        match self.protocol.fault_model() {
            FaultModel::Byzantine => self.b.div_ceil(2),
            _ => 0,
        }
    }

    /// Crash budget handed to the adversary (`b − byz_count`).
    pub fn crash_budget(&self) -> usize {
        self.b - self.byz_count()
    }

    fn params(&self) -> Result<ModelParams, dr_core::InvalidParamsError> {
        ModelParams::builder(self.n, self.k)
            .faults(self.protocol.fault_model(), self.b)
            .build()
    }

    fn envelope(&self) -> CostEnvelope {
        let mut env = self.base_envelope();
        // Link faults stretch T through no fault of the protocol; widen
        // the envelope by the adversary's worst-case link delay. Q is
        // untouched — parking, resending, and deferring never change what
        // a peer queries.
        match self.adversary {
            // Every delivery can park until the last heal
            // (`HEAL_UNITS`); one extra unit of margin for the in-flight
            // latency added on top of the heal tick.
            AdversaryKind::PartitionHealer => env.t_link_slack += Self::HEAL_UNITS as f64 + 1.0,
            // A resend adds at most one backoff clamp (2 units) plus one
            // latency unit to the critical path.
            AdversaryKind::LossyLinks => env.t_per_retry += 3.0,
            // Deliveries defer until the last rejoin tick: leave windows
            // stagger by half a unit per churner, plus a rejoin span of
            // up to two units and margin.
            AdversaryKind::ChurnMixer => {
                env.t_link_slack += 0.5 * self.churner_count() as f64 + 3.0;
            }
            _ => {}
        }
        env
    }

    fn base_envelope(&self) -> CostEnvelope {
        match self.protocol {
            ProtocolKind::CrashSingle => SingleCrashDownload::cost_envelope(self.n, self.k),
            ProtocolKind::CrashMulti => CrashMultiDownload::cost_envelope(self.n, self.k, self.b),
            ProtocolKind::Committee => CommitteeDownload::cost_envelope(self.n, self.k, self.b),
            ProtocolKind::TwoCycle => TwoCycleDownload::cost_envelope(self.n, self.k, self.b),
            ProtocolKind::MultiCycle => MultiCycleDownload::cost_envelope(self.n, self.k, self.b),
            // The fixture is judged on download correctness only; keep
            // its envelope out of the way.
            ProtocolKind::Fragile => CostEnvelope {
                q_max: 4 * self.n as u64 + 64,
                t_base: 1e9,
                t_per_release: 8.0,
                t_per_retry: 0.0,
                t_link_slack: 0.0,
            },
        }
    }
}

impl fmt::Display for CaseConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} n={} k={} b={}",
            self.protocol.label(),
            self.adversary.label(),
            self.n,
            self.k,
            self.b
        )
    }
}

/// Where a run's adversary decisions come from.
pub enum AdvSource<'a> {
    /// The case's own [`AdversaryKind`], seeded by the run seed.
    Fresh,
    /// Replay of a recorded (possibly shrink-edited) schedule.
    Replay(&'a ScheduleTrace),
}

/// Outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// First invariant violated, if any (human-readable).
    pub violation: Option<String>,
    /// The schedule actually executed (re-recorded on replay, so it is
    /// normalized to the trajectory that really happened).
    pub trace: ScheduleTrace,
    /// [`dr_sim::RunReport::fingerprint`] of the completed run; `None`
    /// when the run ended in a [`dr_sim::RunError`].
    pub fingerprint: Option<u64>,
}

fn make_recorded<M: ProtocolMessage>(
    case: &CaseConfig,
    seed: u64,
    adv: &AdvSource<'_>,
) -> (RecordingAdversary<M>, TraceHandle) {
    let budget = case.crash_budget();
    match adv {
        AdvSource::Replay(trace) => {
            RecordingAdversary::new(ReplayAdversary::new((*trace).clone()).with_fault_cap(case.b))
        }
        AdvSource::Fresh => match case.adversary {
            AdversaryKind::AdaptiveCrash => {
                RecordingAdversary::new(AdaptiveCrasher::new(budget, 1))
            }
            AdversaryKind::HoldHeavy => RecordingAdversary::new(HoldUntilQuiescence::new(0.3, 2)),
            AdversaryKind::ChaosMild => {
                RecordingAdversary::new(ChaosAdversary::new(seed, ChaosConfig::mild(budget)))
            }
            AdversaryKind::ChaosAggressive => {
                RecordingAdversary::new(ChaosAdversary::new(seed, ChaosConfig::aggressive(budget)))
            }
            AdversaryKind::PartitionHealer => {
                RecordingAdversary::new(PartitionHealer::new(case.k, seed, CaseConfig::HEAL_UNITS))
            }
            AdversaryKind::LossyLinks => {
                RecordingAdversary::new(LossyLinks::new(seed, case.effective_drop_permille()))
            }
            AdversaryKind::ChurnMixer => {
                RecordingAdversary::new(ChurnMixer::new(case.k, seed, case.churner_count()))
            }
        },
    }
}

fn execute<M, P, F>(case: &CaseConfig, seed: u64, adv: AdvSource<'_>, factory: F) -> RunOutcome
where
    M: ProtocolMessage,
    P: Agent<M> + 'static,
    F: FnMut(PeerId) -> P + Send + 'static,
{
    let (recorder, handle) = make_recorded::<M>(case, seed, &adv);
    let mut builder = SimBuilder::new(case.params().expect("valid chaos case params"))
        .seed(seed)
        .protocol(factory)
        .adversary(recorder);
    for i in 0..case.byz_count() {
        builder = builder.byzantine(PeerId(i), SilentAgent::new());
    }
    let sim = builder.build();
    let input = sim.input().clone();
    let violation;
    let fingerprint;
    match sim.run() {
        Ok(report) => {
            fingerprint = Some(report.fingerprint());
            let faults = report.crashed.len() + report.byzantine.len();
            violation = if let Err(v) = report.verify_downloads(&input) {
                Some(format!("download: {v}"))
            } else if faults > case.b {
                Some(format!("fault budget: {faults} faults exceed b={}", case.b))
            } else if let Err(v) = case.envelope().check(&report) {
                Some(format!("envelope: {v}"))
            } else {
                None
            };
        }
        Err(e) => {
            fingerprint = None;
            violation = Some(format!("termination: {e}"));
        }
    }
    RunOutcome {
        violation,
        trace: handle.take(),
        fingerprint,
    }
}

/// Runs one chaos case with the given seed and adversary source,
/// recording the schedule and checking all invariants.
pub fn run_case(case: &CaseConfig, seed: u64, adv: AdvSource<'_>) -> RunOutcome {
    let (n, k, b) = (case.n, case.k, case.b);
    match case.protocol {
        ProtocolKind::CrashSingle => {
            execute(case, seed, adv, move |_| SingleCrashDownload::new(n, k))
        }
        ProtocolKind::CrashMulti => {
            execute(case, seed, adv, move |_| CrashMultiDownload::new(n, k, b))
        }
        ProtocolKind::Committee => {
            execute(case, seed, adv, move |_| CommitteeDownload::new(n, k, b))
        }
        ProtocolKind::TwoCycle => execute(case, seed, adv, move |_| TwoCycleDownload::new(n, k, b)),
        ProtocolKind::MultiCycle => {
            execute(case, seed, adv, move |_| MultiCycleDownload::new(n, k, b))
        }
        ProtocolKind::Fragile => execute(case, seed, adv, move |_| FragileDownload::new(n, k)),
    }
}

/// The standard campaign matrix: every real protocol (crash single/multi,
/// committee, 2-cycle and multi-cycle — the latter two in both naive-plan
/// and sampled-plan sizes) crossed with every adversary kind.
pub fn default_cases() -> Vec<CaseConfig> {
    let mut cases = Vec::new();
    let sizes: &[(ProtocolKind, usize, usize, usize)] = &[
        (ProtocolKind::CrashSingle, 96, 6, 1),
        (ProtocolKind::CrashMulti, 128, 8, 3),
        // A wider crash-multi row so churn (one churner per eight peers)
        // and the seeded partition splits see a second peer-count regime.
        (ProtocolKind::CrashMulti, 192, 12, 2),
        (ProtocolKind::Committee, 64, 7, 2),
        // Small sizes collapse the cycle protocols to the naive plan…
        (ProtocolKind::TwoCycle, 64, 8, 1),
        (ProtocolKind::MultiCycle, 64, 8, 1),
        // …so also include sampled-plan sizes (k − 2b ≥ 4τ).
        (ProtocolKind::TwoCycle, 512, 64, 2),
        (ProtocolKind::MultiCycle, 512, 64, 2),
    ];
    let advs = [
        AdversaryKind::AdaptiveCrash,
        AdversaryKind::HoldHeavy,
        AdversaryKind::ChaosMild,
        AdversaryKind::ChaosAggressive,
        AdversaryKind::PartitionHealer,
        AdversaryKind::LossyLinks,
        AdversaryKind::ChurnMixer,
    ];
    for &(protocol, n, k, b) in sizes {
        for &adversary in &advs {
            cases.push(CaseConfig {
                protocol,
                adversary,
                n,
                k,
                b,
                drop_permille: 0,
            });
        }
    }
    cases
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Cases to sweep (see [`default_cases`]).
    pub cases: Vec<CaseConfig>,
    /// Seeded runs per case.
    pub runs_per_case: u64,
    /// Base seed; run `i` of the flattened sweep uses `base_seed + i`.
    pub base_seed: u64,
    /// Shrink failing schedules to minimal reproducers.
    pub shrink: bool,
    /// Directory for `chaos_repro_<hash>.json` files (written only for
    /// violations; created if missing). `None` disables writing.
    pub out_dir: Option<PathBuf>,
}

impl Campaign {
    /// The default campaign: [`default_cases`] with `runs_per_case` seeds
    /// each, shrinking enabled, no repro files.
    pub fn new(runs_per_case: u64, base_seed: u64) -> Self {
        Campaign {
            cases: default_cases(),
            runs_per_case,
            base_seed,
            shrink: true,
            out_dir: None,
        }
    }
}

/// A campaign violation with its (shrunk) reproducer.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The reproducer (case, seed, violation, minimal schedule).
    pub repro: ChaosRepro,
    /// Where the reproducer was written, if an output dir was set.
    pub path: Option<PathBuf>,
}

/// Result of a campaign sweep.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Total runs executed.
    pub total_runs: usize,
    /// All invariant violations found (with shrunk reproducers).
    pub violations: Vec<Violation>,
}

/// Runs the campaign: all `cases × runs_per_case` runs fan out over the
/// worker pool (bit-identical results for any thread count), then failing
/// runs are shrunk serially and written as reproducers.
pub fn run_campaign(campaign: &Campaign) -> CampaignReport {
    let rpc = campaign.runs_per_case as usize;
    let total = campaign.cases.len() * rpc;
    let failures: Vec<Option<(usize, u64, String)>> = par::run_indexed(total, |i| {
        let case = &campaign.cases[i / rpc];
        let seed = campaign.base_seed + i as u64;
        let outcome = run_case(case, seed, AdvSource::Fresh);
        outcome.violation.map(|v| (i / rpc, seed, v))
    });
    let mut violations = Vec::new();
    for (case_idx, seed, first_violation) in failures.into_iter().flatten() {
        let case = campaign.cases[case_idx];
        let repro = if campaign.shrink {
            shrink_failing(&case, seed)
                .expect("run failed in sweep but not when re-run — nondeterminism bug")
        } else {
            ChaosRepro::from_outcome(&case, seed, run_case(&case, seed, AdvSource::Fresh))
                .unwrap_or_else(|| panic!("unreproducible violation: {first_violation}"))
        };
        let path = campaign
            .out_dir
            .as_deref()
            .map(|dir| write_repro(dir, &repro).expect("write chaos repro"));
        violations.push(Violation { repro, path });
    }
    CampaignReport {
        total_runs: total,
        violations,
    }
}

/// A serializable failing-run reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRepro {
    /// The failing case.
    pub case: CaseConfig,
    /// The failing seed.
    pub seed: u64,
    /// The invariant violated.
    pub violation: String,
    /// Fingerprint of the failing run's report (`None` when the run died
    /// in a termination error instead of completing wrongly).
    pub fingerprint: Option<u64>,
    /// The minimal failing schedule.
    pub trace: ScheduleTrace,
}

json_struct!(ToJson, FromJson for ChaosRepro { case, seed, violation, fingerprint, trace });

impl ChaosRepro {
    fn from_outcome(case: &CaseConfig, seed: u64, outcome: RunOutcome) -> Option<Self> {
        outcome.violation.map(|violation| ChaosRepro {
            case: *case,
            seed,
            violation,
            fingerprint: outcome.fingerprint,
            trace: outcome.trace,
        })
    }

    /// The filename this reproducer is written under.
    pub fn filename(&self) -> String {
        format!("chaos_repro_{:016x}.json", self.trace.content_hash())
    }
}

/// Replays a reproducer's schedule and re-checks all invariants. A valid
/// reproducer yields the same violation and fingerprint again.
pub fn replay_repro(repro: &ChaosRepro) -> RunOutcome {
    run_case(&repro.case, repro.seed, AdvSource::Replay(&repro.trace))
}

/// Writes a reproducer into `dir` (created if missing), named by the
/// schedule's content hash.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_repro(dir: &Path, repro: &ChaosRepro) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(repro.filename());
    std::fs::write(&path, repro.to_json().pretty())?;
    Ok(path)
}

/// Largest input length [`load_repro`] accepts, far above the chaos
/// grid's largest case (`n = 512`): a replay allocates the input and
/// per-peer state of this many bits.
pub const MAX_REPRO_N: usize = 1 << 16;

/// Largest peer count [`load_repro`] accepts, far above the chaos grid's
/// largest case (`k = 64`).
pub const MAX_REPRO_K: usize = 1 << 10;

/// Largest reproducer file [`load_repro`] reads, in bytes: 80 times the
/// largest file the default grid records (about 100 kB, a lossy
/// multi-cycle run at n = 512, k = 64), so a hostile file cannot make the
/// loader read and parse gigabytes.
pub const MAX_REPRO_BYTES: u64 = 8 << 20;

/// Loads a reproducer previously written by [`write_repro`] and checks
/// that [`replay_repro`] can run it: at most [`MAX_REPRO_BYTES`] long,
/// `n` and `k` within [`MAX_REPRO_N`]
/// and [`MAX_REPRO_K`], valid [`ModelParams`], the protocol's
/// [`ProtocolKind::check_limits`], and a
/// [`LinkFaultPlan::check`](dr_sim::LinkFaultPlan::check)-clean schedule.
///
/// # Errors
///
/// Fails on unreadable files, JSON not shaped like a [`ChaosRepro`], or a
/// failed check; the message names the offending field.
pub fn load_repro(path: &Path) -> Result<ChaosRepro, String> {
    let too_long = |len: u64| {
        format!("{path:?}: {len} bytes exceed the replay cap MAX_REPRO_BYTES = {MAX_REPRO_BYTES}")
    };
    let read_err = |e: std::io::Error| format!("read {path:?}: {e}");
    let file = std::fs::File::open(path).map_err(read_err)?;
    let len = file.metadata().map_err(read_err)?.len();
    if len > MAX_REPRO_BYTES {
        return Err(too_long(len));
    }
    // The file may grow after the length check: read one byte past the
    // cap at most, and refuse what got that far.
    let mut text = String::new();
    file.take(MAX_REPRO_BYTES + 1)
        .read_to_string(&mut text)
        .map_err(read_err)?;
    if text.len() as u64 > MAX_REPRO_BYTES {
        return Err(too_long(text.len() as u64));
    }
    let repro: ChaosRepro =
        dr_core::json::from_str(&text).map_err(|e| format!("parse {path:?}: {e}"))?;
    let case = &repro.case;
    if case.n > MAX_REPRO_N {
        return Err(format!(
            "{path:?}: case.n: {} exceeds the replay cap MAX_REPRO_N = {MAX_REPRO_N}",
            case.n
        ));
    }
    if case.k > MAX_REPRO_K {
        return Err(format!(
            "{path:?}: case.k: {} exceeds the replay cap MAX_REPRO_K = {MAX_REPRO_K}",
            case.k
        ));
    }
    case.params().map_err(|e| format!("{path:?}: case: {e}"))?;
    case.protocol
        .check_limits(case.k, case.b)
        .map_err(|e| format!("{path:?}: case: {e}"))?;
    repro
        .trace
        .link_fault_plan()
        .check(repro.case.k)
        .map_err(|e| format!("{path:?}: trace.{e}"))?;
    Ok(repro)
}

/// A shrink pass: the length of the list it walks, and its edit of
/// element `i` — the edited copy of the trace, or `None` when element `i`
/// is gone (an earlier kept edit re-recorded a shorter list) or already
/// reduced.
type ShrinkPass = (
    fn(&ScheduleTrace) -> usize,
    fn(&ScheduleTrace, usize) -> Option<ScheduleTrace>,
);

/// `trace` with `edit` applied, when `applies`.
fn edited(
    trace: &ScheduleTrace,
    applies: bool,
    edit: impl FnOnce(&mut ScheduleTrace),
) -> Option<ScheduleTrace> {
    applies.then(|| {
        let mut cand = trace.clone();
        edit(&mut cand);
        cand
    })
}

/// [`shrink_failing`]'s passes, in the order each round tries them.
const SHRINK_PASSES: [ShrinkPass; 7] = [
    // Drop crash directives.
    (
        |t| t.crashes.len(),
        |t, i| edited(t, i < t.crashes.len(), |c| _ = c.crashes.remove(i)),
    ),
    // Drop mid-send cuts.
    (
        |t| t.cuts.len(),
        |t, i| edited(t, i < t.cuts.len(), |c| _ = c.cuts.remove(i)),
    ),
    // Turn held sends into ordinary deliveries.
    (
        |t| t.sends.len(),
        |t, i| edited(t, t.sends.get(i) == Some(&None), |c| c.sends[i] = Some(512)),
    ),
    // Widen partial releases to release-all.
    (
        |t| t.releases.len(),
        |t, i| {
            let partial = t.releases.get(i).is_some_and(Option::is_some);
            edited(t, partial, |c| c.releases[i] = None)
        },
    ),
    // Drop partition directives (heal the cut entirely).
    (
        |t| t.partitions.len(),
        |t, i| edited(t, i < t.partitions.len(), |c| _ = c.partitions.remove(i)),
    ),
    // Drop churn directives (keep the peer present throughout).
    (
        |t| t.churn.len(),
        |t, i| edited(t, i < t.churn.len(), |c| _ = c.churn.remove(i)),
    ),
    // Heal dropped transmissions (flip recorded drops to transmits). The
    // trace stays lossy — `transmits` keeps its length — so the replay's
    // consult positions still align.
    (
        |t| t.transmits.len(),
        |t, i| {
            edited(t, t.transmits.get(i) == Some(&false), |c| {
                c.transmits[i] = true
            })
        },
    ),
];

/// Shrinks the failing run `(case, seed)` to a 1-minimal failing
/// schedule: repeatedly tries dropping crash directives and mid-send
/// cuts, delivering held sends, widening partial releases to
/// release-all, healing partition and churn directives, and flipping
/// dropped transmissions back to delivered; an edit is kept whenever
/// the replay still violates an
/// invariant. Each kept candidate is replaced by its *re-recorded* trace,
/// so the final schedule is a fixed point of replay (bit-identical
/// reproduction). Returns `None` if the run does not fail.
pub fn shrink_failing(case: &CaseConfig, seed: u64) -> Option<ChaosRepro> {
    let original = run_case(case, seed, AdvSource::Fresh);
    original.violation.as_ref()?;
    let mut best = original;
    // Each round tries every pass's single-edit reductions once; rounds
    // repeat until a fixed point. The cap bounds pathological oscillation.
    for _round in 0..32 {
        let mut improved = false;
        for (len, edit) in SHRINK_PASSES {
            let mut i = len(&best.trace);
            while i > 0 {
                i -= 1;
                let Some(cand) = edit(&best.trace, i) else {
                    continue;
                };
                let outcome = run_case(case, seed, AdvSource::Replay(&cand));
                if outcome.violation.is_some() {
                    best = outcome;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    // Normalize once more so the stored trace is exactly what replay
    // re-records.
    let outcome = run_case(case, seed, AdvSource::Replay(&best.trace.clone()));
    debug_assert!(outcome.violation.is_some());
    ChaosRepro::from_outcome(case, seed, outcome)
}

/// Message of the [`FragileDownload`] fixture: a balanced-download chunk
/// or a gossip tick.
#[derive(Debug, Clone)]
pub enum FragileMsg {
    /// One peer's share of the input.
    Chunk {
        /// First bit index of the share.
        offset: usize,
        /// The share's bits.
        bits: BitArray,
    },
    /// Branching gossip heartbeat keeping events flowing while chunks
    /// are held: each tick spawns two children with halved budget.
    Tick {
        /// Remaining forwarding budget (halved per generation).
        round: u32,
    },
}

impl ProtocolMessage for FragileMsg {
    fn bit_len(&self) -> usize {
        match self {
            FragileMsg::Chunk { bits, .. } => 64 + bits.len(),
            FragileMsg::Tick { .. } => 32,
        }
    }
}

/// An intentionally broken balanced download: peers gossip heartbeat
/// ticks (a branching tree, so traffic persists even when an adversary
/// holds parts of it) and, after processing `patience` messages without
/// completing, "impatiently" zero-fill whatever bits they are still
/// missing and terminate. Correct under benign schedules (all chunks
/// arrive within one latency unit, long before patience runs out); wrong
/// the moment an adversary holds a chunk while gossip keeps the peer
/// busy — exactly the bug class the chaos campaign exists to catch.
/// Deterministic, so every failure replays bit-identically.
pub struct FragileDownload {
    k: usize,
    acc: PartialArray,
    out: Option<BitArray>,
    msgs_processed: u32,
    patience: u32,
}

impl FragileDownload {
    /// Gossip budget of the tick tree each peer starts (total ticks per
    /// tree is `O(budget)` since the budget halves per generation).
    const GOSSIP_ROUNDS: u32 = 400;
    /// Messages processed before the buggy zero-fill fires.
    const PATIENCE: u32 = 64;

    /// Creates the fixture for `n` bits and `k` peers.
    pub fn new(n: usize, k: usize) -> Self {
        FragileDownload {
            k,
            acc: PartialArray::new(n),
            out: None,
            msgs_processed: 0,
            patience: Self::PATIENCE,
        }
    }

    fn check_done(&mut self) {
        if self.out.is_none() && self.acc.is_complete() {
            self.out = Some(self.acc.clone().into_complete());
        }
    }

    fn impatient_fallback(&mut self) {
        if self.out.is_some() || self.msgs_processed < self.patience {
            return;
        }
        // BUG (intentional): assumes unheard shares are all zero.
        let missing: Vec<usize> = self.acc.unknown_iter().collect();
        for j in missing {
            self.acc.learn(j, false);
        }
        self.check_done();
    }
}

impl Protocol for FragileDownload {
    type Msg = FragileMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<FragileMsg>) {
        let n = ctx.input_len();
        let per = n.div_ceil(self.k);
        let me = ctx.me().index();
        let range = (me * per).min(n)..((me + 1) * per).min(n);
        let bits = ctx.query_range(range.clone());
        self.acc.learn_slice(range.start, &bits);
        ctx.broadcast(FragileMsg::Chunk {
            offset: range.start,
            bits,
        });
        ctx.send(
            PeerId((me + 1) % self.k),
            FragileMsg::Tick {
                round: Self::GOSSIP_ROUNDS,
            },
        );
        self.check_done();
    }

    fn on_message(&mut self, _from: PeerId, msg: FragileMsg, ctx: &mut dyn Context<FragileMsg>) {
        self.msgs_processed += 1;
        match msg {
            FragileMsg::Chunk { offset, bits } => {
                self.acc.learn_slice(offset, &bits);
                self.check_done();
            }
            FragileMsg::Tick { round } => {
                if round > 0 {
                    // Two children with halved budget: the tree is
                    // supercritical under moderate hold rates (expected
                    // 2 × P(delivered) > 1 surviving children), so gossip
                    // keeps peers busy across quiescences while a held
                    // chunk starves them.
                    let me = ctx.me().index();
                    for hop in [1, 2] {
                        ctx.send(
                            PeerId((me + hop) % self.k),
                            FragileMsg::Tick { round: round / 2 },
                        );
                    }
                }
            }
        }
        self.impatient_fallback();
    }

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_roundtrips_through_json() {
        let repro = ChaosRepro {
            case: CaseConfig {
                protocol: ProtocolKind::Fragile,
                adversary: AdversaryKind::ChaosAggressive,
                n: 64,
                k: 4,
                b: 0,
                drop_permille: 0,
            },
            seed: 17,
            violation: "download: wrong bit".into(),
            fingerprint: Some(0xdead_beef),
            trace: ScheduleTrace {
                start_offsets: vec![3, 1],
                sends: vec![Some(9), None],
                releases: vec![None],
                crashes: vec![],
                cuts: vec![],
                ..Default::default()
            },
        };
        let text = repro.to_json().pretty();
        let back: ChaosRepro = dr_core::json::from_str(&text).unwrap();
        assert_eq!(back, repro);
    }

    #[test]
    fn fragile_download_is_correct_when_benign() {
        // Without an adversary the fixture behaves like balanced
        // download: every chunk lands well before patience runs out.
        for seed in 0..8 {
            let case = CaseConfig {
                protocol: ProtocolKind::Fragile,
                adversary: AdversaryKind::AdaptiveCrash,
                n: 64,
                k: 4,
                b: 0,
                drop_permille: 0,
            };
            let outcome = run_case(&case, seed, AdvSource::Fresh);
            assert_eq!(outcome.violation, None, "seed {seed}");
        }
    }

    #[test]
    fn fault_budget_split_respects_joint_budget() {
        let case = CaseConfig {
            protocol: ProtocolKind::TwoCycle,
            adversary: AdversaryKind::ChaosMild,
            n: 64,
            k: 8,
            b: 2,
            drop_permille: 0,
        };
        assert_eq!(case.byz_count(), 1);
        assert_eq!(case.crash_budget(), 1);
        assert_eq!(case.byz_count() + case.crash_budget(), case.b);
    }
}
