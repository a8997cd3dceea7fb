//! Differential test for the word-parallel Algorithm 2.
//!
//! `CrashMultiDownload` computes its phase-1 owner sets as strides, shares
//! one owner partition per `(n, k, phase)` of the hashed phases between
//! all its instances, packs its own answer once per phase, learns and
//! packs bitmaps through `PartialArray::{learn_scattered, gather}` and
//! queries through `Context::query_masked`. The version it replaced —
//! every peer tabulating `owner` for itself, one `learn`/`get`/`query` per
//! bit — lives on here, verbatim, as the reference: over random sizes,
//! seeds, crash plans and both release rules, whole simulated executions
//! of the two must be indistinguishable — outputs, per-peer Q and query
//! logs, T, M, message bits, event count and fingerprint.

use dr_core::collections::DetMap;
use dr_core::{BitArray, Context, FaultModel, ModelParams, PartialArray, PeerId, Protocol};
use dr_protocols::crash::live_partitions;
use dr_protocols::{owner, CrashMultiDownload, MultiCrashMsg};
use dr_sim::{
    CrashDirective, CrashPlan, CrashTrigger, RunReport, SimBuilder, StandardAdversary, UniformDelay,
};
use proptest::prelude::*;
use std::sync::{Arc, Barrier, Mutex};

// ---------------------------------------------------------------------
// The pre-rewrite `CrashMultiDownload`, unchanged but for its name.
// ---------------------------------------------------------------------

/// Local position within the phase/stage lattice, used for deferral.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Position {
    phase: u32,
    stage: u8,
}

#[derive(Debug)]
struct Reference {
    n: usize,
    k: usize,
    b: usize,
    early_release: bool,
    acc: PartialArray,
    out: Option<BitArray>,
    phase: u32,
    stage: u8,
    /// Cached structural sets per phase: `sets[phase][peer]` = sorted bit
    /// indices owned by `peer` in that phase. Ordered map: the cache is
    /// pruned with `retain`, which must visit phases deterministically.
    sets: DetMap<u32, Vec<Vec<u32>>>,
    /// Peers counted as heard-from this phase (self, vacuous, full answers).
    correct: Vec<bool>,
    /// Missing peers computed on entering stage 3.
    missing: Vec<PeerId>,
    /// Stage-2 answer senders this phase (includes self).
    resp2_senders: Vec<bool>,
    /// Deferred requests waiting for this peer to advance.
    pending: Vec<(PeerId, MultiCrashMsg)>,
    /// Termination threshold: remaining unknown bits a peer just queries.
    threshold: usize,
    /// Hard cap on phases before falling back to direct queries.
    max_phases: u32,
    /// Phases fully executed (for tests and experiments).
    phases_run: u32,
    /// Peers whose own Final we already received (they have terminated;
    /// sending them ours would be wasted).
    finished: Vec<bool>,
}

impl Reference {
    /// Creates an instance for `n` bits, `k` peers, and up to `b < k`
    /// crashes.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `b >= k`.
    fn new(n: usize, k: usize, b: usize) -> Self {
        assert!(k > 0, "need at least one peer");
        assert!(b < k, "fault budget must leave one nonfaulty peer");
        let beta = b as f64 / k as f64;
        // Expected phases until β^i·n ≤ n/k is log_{1/β}(k); the hashed
        // owner function shrinks in expectation, so leave generous slack
        // (termination at the n/k threshold caps the cost regardless).
        let max_phases = if b == 0 {
            2
        } else {
            (3.0 * (k as f64).ln() / (1.0 / beta).ln()).ceil() as u32 + 8
        }
        .min(64);
        Reference {
            n,
            k,
            b,
            early_release: false,
            acc: PartialArray::new(n),
            out: None,
            phase: 0,
            stage: 1,
            sets: DetMap::new(),
            correct: vec![false; k],
            missing: Vec::new(),
            resp2_senders: vec![false; k],
            pending: Vec::new(),
            threshold: n.div_ceil(k),
            max_phases,
            phases_run: 0,
            finished: vec![false; k],
        }
    }

    /// Enables the Theorem 2.13 modification: stage 3 completes as soon as
    /// every missing peer is resolved by late answers, even before `k − b`
    /// stage-2 responses arrive.
    fn with_early_release(mut self) -> Self {
        self.early_release = true;
        self
    }

    fn position(&self) -> Position {
        Position {
            phase: self.phase,
            stage: self.stage,
        }
    }

    /// The sorted bit set owned by `peer` in `phase` (computed once per
    /// phase, then cached).
    fn owner_set(&mut self, phase: u32, peer: PeerId) -> &[u32] {
        let k = self.k;
        let n = self.n;
        let per_phase = self.sets.entry(phase).or_insert_with(|| {
            let mut sets = vec![Vec::new(); k];
            for j in 0..n {
                sets[owner(j, phase as usize, k)].push(j as u32);
            }
            sets
        });
        &per_phase[peer.index()]
    }

    /// Learns a packed bitmap over `peer`'s phase set. Returns `false` if
    /// the bitmap length does not match the set (malformed).
    fn learn_set_values(&mut self, phase: u32, peer: PeerId, values: &BitArray) -> bool {
        let set: Vec<u32> = self.owner_set(phase, peer).to_vec();
        if values.len() != set.len() {
            return false;
        }
        for (r, &j) in set.iter().enumerate() {
            self.acc.learn(j as usize, values.get(r));
        }
        true
    }

    /// Packs the values of `peer`'s phase set, if all of them are known.
    fn pack_set_values(&mut self, phase: u32, peer: PeerId) -> Option<BitArray> {
        let set: Vec<u32> = self.owner_set(phase, peer).to_vec();
        let mut out = BitArray::zeros(set.len());
        for (r, &j) in set.iter().enumerate() {
            match self.acc.get(j as usize) {
                Some(true) => out.set(r, true),
                Some(false) => {}
                None => return None,
            }
        }
        Some(out)
    }

    /// Whether any bit of `peer`'s phase set is still unknown to us.
    fn lacks_bits_of(&mut self, phase: u32, peer: PeerId) -> bool {
        let set: Vec<u32> = self.owner_set(phase, peer).to_vec();
        set.iter().any(|&j| !self.acc.is_known(j as usize))
    }

    /// Terminates: query whatever is still unknown, broadcast the full
    /// array (Claim 2), output, halt.
    fn terminate(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        let unknown: Vec<usize> = self.acc.unknown_iter().collect();
        for j in unknown {
            let v = ctx.query(j);
            self.acc.learn(j, v);
        }
        let bits = self.acc.clone().into_complete();
        self.out = Some(bits.clone());
        // Claim 2: send everything to every peer that might still be
        // waiting; peers whose Final we already hold have terminated.
        // One message value, cloned per recipient — each clone shares the
        // payload buffer, so the fan-out is O(k), not O(k·n).
        let msg = MultiCrashMsg::Final { bits };
        for p in 0..self.k {
            if p != ctx.me().index() && !self.finished[p] {
                ctx.send(PeerId(p), msg.clone());
            }
        }
        self.stage = 4; // past every deferral condition
    }

    /// Enters the next phase (or terminates if few enough bits remain).
    fn start_phase(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        loop {
            if self.out.is_some() {
                return;
            }
            let unknown = self.acc.unknown_count();
            // Degenerate regimes where cooperation cannot help: alone
            // (b = k − 1 leaves no one to rely on), few bits left, or the
            // phase cap. The Lemma 2.11 bound n/(k(1−β)) + n/k covers the
            // direct cost in each.
            if unknown <= self.threshold || self.phase >= self.max_phases || self.b + 1 == self.k {
                self.terminate(ctx);
                return;
            }
            self.phase += 1;
            self.stage = 1;
            self.correct = vec![false; self.k];
            self.missing.clear();
            self.resp2_senders = vec![false; self.k];
            // Drop set caches for phases nobody will ask about again
            // (keep a window for stragglers).
            let current = self.phase;
            self.sets.retain(|&p, _| p + 8 >= current);

            // Stage 1: query our own unknown share, request everyone
            // else's.
            let me = ctx.me();
            let my_set: Vec<u32> = self.owner_set(self.phase, me).to_vec();
            for j in my_set {
                if !self.acc.is_known(j as usize) {
                    let v = ctx.query(j as usize);
                    self.acc.learn(j as usize, v);
                }
            }
            self.correct[me.index()] = true;
            for w in 0..self.k {
                if w == me.index() {
                    continue;
                }
                if self.lacks_bits_of(self.phase, PeerId(w)) {
                    ctx.send(PeerId(w), MultiCrashMsg::Request1 { phase: self.phase });
                } else {
                    // Nothing wanted from w: vacuously heard.
                    self.correct[w] = true;
                }
            }
            self.stage = 2;
            self.replay_pending(ctx);
            if !self.try_finish_stage2(ctx) {
                return;
            }
            // Stage 3 finished synchronously (e.g. no missing peers):
            // loop into the next phase.
        }
    }

    /// Checks the stage-2 condition; returns `true` if the whole phase
    /// completed synchronously and the caller should advance phases.
    fn try_finish_stage2(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) -> bool {
        if self.stage != 2 || self.out.is_some() {
            return false;
        }
        let heard = self.correct.iter().filter(|&&c| c).count();
        if heard < self.k - self.b {
            return false;
        }
        self.stage = 3;
        self.replay_pending(ctx);
        let phase = self.phase;
        let unheard: Vec<PeerId> = (0..self.k)
            .filter(|&w| !self.correct[w])
            .map(PeerId)
            .collect();
        let mut missing = Vec::new();
        for w in unheard {
            if self.lacks_bits_of(phase, w) {
                missing.push(w);
            }
        }
        if missing.is_empty() {
            // Nothing actually lacking: phase over.
            self.phases_run = self.phase;
            return true;
        }
        self.missing = missing.clone();
        ctx.broadcast(MultiCrashMsg::Request2 {
            phase: self.phase,
            missing,
        });
        // Our own answer is "me neither" for every missing peer — it
        // contributes nothing but counts as a response (self is a valid
        // responder in the k − b count).
        self.resp2_senders[ctx.me().index()] = true;
        self.try_finish_stage3(ctx)
    }

    /// Checks the stage-3 condition; returns `true` if the phase completed
    /// synchronously.
    fn try_finish_stage3(&mut self, _ctx: &mut dyn Context<MultiCrashMsg>) -> bool {
        if self.stage != 3 || self.out.is_some() {
            return false;
        }
        let responses = self.resp2_senders.iter().filter(|&&r| r).count();
        let done = if responses >= self.k - self.b {
            true
        } else if self.early_release {
            // Thm 2.13: late stage-1 answers may have resolved every
            // missing peer already, making further waiting pointless.
            let phase = self.phase;
            let missing = self.missing.clone();
            missing.iter().all(|&u| !self.lacks_bits_of(phase, u))
        } else {
            false
        };
        if !done {
            return false;
        }
        // Unresolved bits stay unknown and fall to their phase-(i+1)
        // owners; nothing to compute — the owner function is global.
        self.phases_run = self.phase;
        true
    }

    /// Whether a message with the given phase/stage requirement can be
    /// processed now.
    fn ready_for(&self, phase: u32, stage: u8) -> bool {
        self.out.is_some() || self.position() >= Position { phase, stage }
    }

    fn replay_pending(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        let mut pending = std::mem::take(&mut self.pending);
        let mut still = Vec::new();
        for (from, msg) in pending.drain(..) {
            let ready = match &msg {
                MultiCrashMsg::Request1 { phase } => self.ready_for(*phase, 2),
                MultiCrashMsg::Request2 { phase, .. } => self.ready_for(*phase, 3),
                _ => true,
            };
            if ready {
                self.answer_request(from, msg, ctx);
            } else {
                still.push((from, msg));
            }
        }
        self.pending.extend(still);
    }

    fn answer_request(
        &mut self,
        from: PeerId,
        msg: MultiCrashMsg,
        ctx: &mut dyn Context<MultiCrashMsg>,
    ) {
        match msg {
            MultiCrashMsg::Request1 { phase } => {
                let me = ctx.me();
                let values = self
                    .pack_set_values(phase, me)
                    .expect("past stage 1 of the phase, our own set is fully known");
                ctx.send(from, MultiCrashMsg::Response1 { phase, values });
            }
            MultiCrashMsg::Request2 { phase, missing } => {
                let answers: Vec<(PeerId, Option<BitArray>)> = missing
                    .into_iter()
                    .map(|u| {
                        let packed = if u.index() < self.k {
                            self.pack_set_values(phase, u)
                        } else {
                            None
                        };
                        (u, packed)
                    })
                    .collect();
                ctx.send(from, MultiCrashMsg::Response2 { phase, answers });
            }
            _ => unreachable!("only requests are deferred"),
        }
    }

    /// Advances through any synchronously-completable stages/phases.
    fn pump(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        loop {
            if self.out.is_some() {
                return;
            }
            let advanced = match self.stage {
                2 => self.try_finish_stage2(ctx),
                3 => self.try_finish_stage3(ctx),
                _ => false,
            };
            if advanced {
                self.start_phase(ctx);
            } else {
                return;
            }
        }
    }
}

impl Protocol for Reference {
    type Msg = MultiCrashMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        self.start_phase(ctx);
        self.pump(ctx);
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: MultiCrashMsg,
        ctx: &mut dyn Context<MultiCrashMsg>,
    ) {
        if self.out.is_some() {
            return;
        }
        match msg {
            MultiCrashMsg::Request1 { phase } => {
                if self.ready_for(phase, 2) {
                    self.answer_request(from, MultiCrashMsg::Request1 { phase }, ctx);
                } else {
                    self.pending.push((from, MultiCrashMsg::Request1 { phase }));
                }
            }
            MultiCrashMsg::Request2 { phase, missing } => {
                let msg = MultiCrashMsg::Request2 { phase, missing };
                if self.ready_for(phase, 3) {
                    self.answer_request(from, msg, ctx);
                } else {
                    self.pending.push((from, msg));
                }
            }
            MultiCrashMsg::Response1 { phase, values } => {
                if phase <= self.phase && self.learn_set_values(phase, from, &values) {
                    // A full answer for the *current* phase marks the
                    // sender heard; answers for earlier phases only
                    // contribute their bits (useful to early release).
                    if phase == self.phase {
                        self.correct[from.index()] = true;
                    }
                }
                self.pump(ctx);
            }
            MultiCrashMsg::Response2 { phase, answers } => {
                for (u, answer) in &answers {
                    if let Some(values) = answer {
                        self.learn_set_values(phase, *u, values);
                    }
                }
                if phase == self.phase && self.stage == 3 {
                    self.resp2_senders[from.index()] = true;
                }
                self.pump(ctx);
            }
            MultiCrashMsg::Final { bits } => {
                self.finished[from.index()] = true;
                if bits.len() == self.n {
                    self.acc.learn_slice(0, &bits);
                }
                self.terminate(ctx);
            }
        }
        // Our own state may now satisfy deferred requests.
        if self.out.is_none() {
            self.replay_pending(ctx);
        }
    }

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    k: usize,
    b: usize,
    seed: u64,
    plan: CrashPlan,
    early_release: bool,
}

/// Everything a run is observed by.
type Observed = (
    Vec<Option<BitArray>>,
    Vec<u64>,
    Vec<Vec<usize>>,
    (u64, u64, u64, u64),
    u64,
);

fn observe(report: &RunReport) -> Observed {
    (
        report.outputs.clone(),
        report.query_counts.clone(),
        report
            .query_indices
            .clone()
            .expect("index tracking enabled"),
        (
            report.virtual_time_ticks,
            report.messages_sent,
            report.message_bits,
            report.events,
        ),
        report.fingerprint(),
    )
}

fn run<P, F>(case: &Case, make: F) -> RunReport
where
    P: Protocol<Msg = MultiCrashMsg> + 'static,
    F: Fn(usize, usize, usize) -> P + Send + Clone + 'static,
{
    let Case { n, k, b, .. } = *case;
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Crash, b)
        .build()
        .unwrap();
    let sim = SimBuilder::new(params)
        .seed(case.seed)
        .protocol(move |_| make(n, k, b))
        .adversary(StandardAdversary::new(
            UniformDelay::new(),
            case.plan.clone(),
        ))
        .track_query_indices()
        .build();
    let input = sim.input().clone();
    let report = sim.run().expect("must not deadlock");
    report.verify_downloads(&input).expect("exact download");
    report
}

fn run_new(case: &Case) -> RunReport {
    let early = case.early_release;
    run(case, move |n, k, b| {
        let p = CrashMultiDownload::new(n, k, b);
        if early {
            p.with_early_release()
        } else {
            p
        }
    })
}

fn run_reference(case: &Case) -> RunReport {
    let early = case.early_release;
    run(case, move |n, k, b| {
        let p = Reference::new(n, k, b);
        if early {
            p.with_early_release()
        } else {
            p
        }
    })
}

/// A crash plan felling peers `0..b`, each before an event or in the
/// middle of a send, as `tests/proptest_protocols.rs` draws them.
fn plan(b: usize, crash_event: u64, mid_send: bool) -> CrashPlan {
    let mut plan = CrashPlan::none();
    for v in 0..b {
        let trigger = if mid_send && v % 2 == 0 {
            CrashTrigger::DuringSend {
                event: crash_event,
                keep: v % 3,
            }
        } else {
            CrashTrigger::BeforeEvent(crash_event + (v % 2) as u64)
        };
        plan.push(CrashDirective {
            peer: PeerId(v),
            trigger,
        });
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn whole_executions_match_the_per_bit_reference(
        // Sub-word, word-straddling and multi-word inputs; fewer bits
        // than peers; peer counts on both sides of a word.
        n in (0usize..3, 0usize..300).prop_map(|(band, off)| match band {
            0 => 1 + off % 70,
            1 => 120 + off % 16,
            _ => 190 + off * 3,
        }),
        k in (0usize..4, 0usize..14).prop_map(|(band, off)| match band {
            0 => 62 + off % 6,
            _ => 2 + off,
        }),
        crash_fraction in 0.0f64..1.0,
        seed in any::<u64>(),
        crash_event in 0u64..6,
        mid_send in any::<bool>(),
        early_release in any::<bool>(),
    ) {
        let b = ((crash_fraction * k as f64) as usize).min(k - 1);
        let case = Case { n, k, b, seed, plan: plan(b, crash_event, mid_send), early_release };
        prop_assert_eq!(observe(&run_new(&case)), observe(&run_reference(&case)));
    }
}

/// `CrashMultiDownload`, noting after each of its handler calls the most
/// owner tables of its size that were live at once.
struct Watched {
    inner: CrashMultiDownload,
    n: usize,
    k: usize,
    peak: Arc<Mutex<usize>>,
}

impl Watched {
    fn watch(&self) {
        let live = live_partitions(self.n, self.k);
        let mut peak = self
            .peak
            .lock()
            .expect("no watcher panics holding the peak");
        *peak = live.max(*peak);
    }
}

impl Protocol for Watched {
    type Msg = MultiCrashMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<MultiCrashMsg>) {
        self.inner.on_start(ctx);
        self.watch();
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: MultiCrashMsg,
        ctx: &mut dyn Context<MultiCrashMsg>,
    ) {
        self.inner.on_message(from, msg, ctx);
        self.watch();
    }

    fn output(&self) -> Option<&BitArray> {
        self.inner.output()
    }
}

/// [`run_new`], returning the most owner tables live at once as well.
fn run_watched(case: &Case) -> (RunReport, usize) {
    let early = case.early_release;
    let peak = Arc::new(Mutex::new(0));
    let watching = Arc::clone(&peak);
    let report = run(case, move |n, k, b| {
        let p = CrashMultiDownload::new(n, k, b);
        Watched {
            inner: if early { p.with_early_release() } else { p },
            n,
            k,
            peak: Arc::clone(&watching),
        }
    });
    let peak = *peak.lock().expect("no watcher panics holding the peak");
    (report, peak)
}

#[test]
fn a_fault_free_run_registers_no_table() {
    // Phase 1 deals round-robin strides, and with nobody crashed or
    // late (b = 0 waits for everyone) phase 1 is the whole run. Sizes no
    // other test draws: the registry is process-wide.
    for (n, k) in [(5000, 9), (4099, 64)] {
        for seed in 0..3 {
            let case = Case {
                n,
                k,
                b: 0,
                seed,
                plan: CrashPlan::none(),
                early_release: false,
            };
            let (report, peak) = run_watched(&case);
            assert_eq!(peak, 0, "n {n} k {k} seed {seed}");
            assert_eq!(observe(&report), observe(&run_reference(&case)));
        }
    }
}

#[test]
fn concurrent_simulations_share_the_registry_and_leave_it_empty() {
    // Sizes the proptest above cannot draw: it runs on another thread of
    // this process, against the same registry.
    let (n, k, b) = (3000, 12, 5);
    assert_eq!(live_partitions(n, k), 0, "nothing is running yet");
    // Different seeds, crash plans and release rules: the two simulations
    // are in different phases at the same time, fetching and releasing
    // the same partitions. Phase 1 needs none, so in both some crashed
    // peer answers no request: its bits fall to the hashed phases.
    let cases = [
        Case {
            n,
            k,
            b,
            seed: 3,
            plan: plan(b, 1, false),
            early_release: false,
        },
        Case {
            n,
            k,
            b,
            seed: 4,
            plan: plan(b, 0, true),
            early_release: true,
        },
    ];
    let expected: Vec<Observed> = cases.iter().map(|c| observe(&run_reference(c))).collect();
    assert_eq!(live_partitions(n, k), 0, "the reference never touches it");
    let together = Barrier::new(cases.len());
    // dr-lint: allow(raw-thread-spawn): the subject is two simulations racing on the process-wide registry, so the test needs its own two OS threads started off one barrier
    std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .zip(&expected)
            .map(|(case, expected)| {
                let together = &together;
                scope.spawn(move || {
                    (0..8)
                        .map(|_| {
                            together.wait();
                            let (report, peak) = run_watched(case);
                            (observe(&report) == *expected, peak)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (case, handle) in cases.iter().zip(handles) {
            for (same, peak) in handle.join().expect("simulation thread panicked") {
                assert!(same, "{case:?}");
                // The crashes leave bits to the hashed phases, whose
                // tables the registry hands out.
                assert!(peak > 0, "never left phase 1: {case:?}");
            }
        }
    });
    assert_eq!(live_partitions(n, k), 0, "freed with the last instance");
}
