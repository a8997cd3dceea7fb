//! Equivalence regression for the word-level bulk query path.
//!
//! `Context::query_range` on a context over a real source charges its
//! meter in one batched update — the simulator's plain per-peer counters,
//! the threaded runtime's atomic `QueryMeter` — and reads bits through
//! `Source::bits` (word-aligned for `ArraySource`). This must be
//! observationally identical to the bit-at-a-time path: same
//! outputs, same per-peer query counts (Q), same message totals (M), and
//! the same per-peer query index logs. We run the same seeded executions
//! twice — once against the standard `ArraySource` (bulk word-level reads)
//! and once against a reference `Source` with no `bits` override, so every
//! range read falls back to the per-bit default — and demand identical
//! reports. The second half does the same for `Context::query_masked`,
//! the strided sibling the committee protocol queries through.

use dr_download::core::{
    ArraySource, BitArray, Context, FaultModel, ModelParams, PeerId, Protocol, ProtocolMessage,
    QueryMeter, Source,
};
use dr_download::protocols::{
    CrashMultiDownload, FakeSourceAgent, SingleCrashDownload, TwoCycleDownload,
};
use dr_download::runtime::{run_threaded, RuntimeConfig};
use dr_download::sim::explore::{explore, ExploreConfig};
use dr_download::sim::{CrashPlan, RunReport, SimBuilder, StandardAdversary, UniformDelay};
use std::ops::Range;

/// Reference bit-at-a-time source: no `bits` override, so the provided
/// per-bit default (one dynamically dispatched `bit` call per index) is
/// used for every range read.
struct PerBitSource(BitArray);

impl Source for PerBitSource {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn bit(&self, index: usize) -> bool {
        self.0.get(index)
    }
}

/// Deterministic pseudo-random input that straddles word boundaries
/// (length deliberately not a multiple of 64 where callers choose so).
fn test_input(n: usize) -> BitArray {
    BitArray::from_fn(n, |i| (i.wrapping_mul(2654435761) >> 7) % 5 < 2)
}

/// (outputs, per-peer Q, M, message bits, per-peer query index logs).
type Fingerprint = (Vec<Option<BitArray>>, Vec<u64>, u64, u64, Vec<Vec<usize>>);

fn fingerprint(r: &RunReport) -> Fingerprint {
    (
        r.outputs.clone(),
        r.query_counts.clone(),
        r.messages_sent,
        r.message_bits,
        r.query_indices.clone().expect("index tracking enabled"),
    )
}

/// Runs the same seeded simulation with the bulk `ArraySource` and with the
/// per-bit reference source, returning both fingerprints.
fn run_both<P, F>(
    params: ModelParams,
    seed: u64,
    crashes: Range<usize>,
    factory: F,
) -> (Fingerprint, Fingerprint)
where
    P: dr_download::core::Protocol + 'static,
    F: Fn(PeerId) -> P + Send + Clone + 'static,
{
    let input = test_input(params.n());
    let build = |use_reference_source: bool| {
        let mut b = SimBuilder::new(params)
            .seed(seed)
            .protocol(factory.clone())
            .track_query_indices();
        b = if use_reference_source {
            b.source(PerBitSource(input.clone()), input.clone())
        } else {
            b.input(input.clone())
        };
        if !crashes.is_empty() {
            b = b.adversary(StandardAdversary::new(
                UniformDelay::new(),
                CrashPlan::before_event(crashes.clone().map(PeerId), 1),
            ));
        }
        b.build()
    };
    let bulk = build(false).run().unwrap();
    let reference = build(true).run().unwrap();
    (fingerprint(&bulk), fingerprint(&reference))
}

#[test]
fn crash_multi_bulk_path_matches_per_bit_reference() {
    let (n, k, b) = (3 * 64 + 5, 6, 2);
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Crash, b)
        .build()
        .unwrap();
    let (bulk, reference) = run_both(params, 9, 0..b, move |_| CrashMultiDownload::new(n, k, b));
    assert_eq!(bulk, reference);
}

#[test]
fn two_cycle_bulk_path_matches_per_bit_reference() {
    let (n, k, b) = (1024, 64, 8);
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Byzantine, b)
        .build()
        .unwrap();
    let (bulk, reference) = run_both(params, 13, 0..0, move |_| TwoCycleDownload::new(n, k, b));
    assert_eq!(bulk, reference);
}

// ---------------------------------------------------------------------
// The crash protocols ask for their shares through `query_masked` where
// they used to loop over `ctx.query`. The loop is still there — it is
// the provided default of `query_masked` — so a context that forwards
// only the per-bit `query` runs each protocol the way it ran before.
// ---------------------------------------------------------------------

/// Hands the wrapped protocol a context with `query` but neither bulk
/// override.
struct PerBitQueries<P>(P);

struct PerBitCtx<'a, M>(&'a mut dyn Context<M>);

impl<M: ProtocolMessage> Context<M> for PerBitCtx<'_, M> {
    fn me(&self) -> PeerId {
        self.0.me()
    }
    fn num_peers(&self) -> usize {
        self.0.num_peers()
    }
    fn input_len(&self) -> usize {
        self.0.input_len()
    }
    fn send(&mut self, to: PeerId, msg: M) {
        self.0.send(to, msg)
    }
    fn query(&mut self, index: usize) -> bool {
        self.0.query(index)
    }
    fn rng(&mut self) -> &mut dyn rand::RngCore {
        self.0.rng()
    }
}

impl<P: Protocol> Protocol for PerBitQueries<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut dyn Context<P::Msg>) {
        self.0.on_start(&mut PerBitCtx(ctx))
    }
    fn on_message(&mut self, from: PeerId, msg: P::Msg, ctx: &mut dyn Context<P::Msg>) {
        self.0.on_message(from, msg, &mut PerBitCtx(ctx))
    }
    fn output(&self) -> Option<&BitArray> {
        self.0.output()
    }
}

/// Masked or per-bit queries, word-level or per-bit source: four runs of
/// one seeded execution, one fingerprint.
fn assert_query_paths_agree<P, F>(params: ModelParams, seed: u64, crashes: Range<usize>, make: F)
where
    P: Protocol + 'static,
    F: Fn() -> P + Send + Clone + 'static,
{
    let masked = {
        let make = make.clone();
        run_both(params, seed, crashes.clone(), move |_| make())
    };
    let per_bit = run_both(params, seed, crashes, move |_| PerBitQueries(make()));
    assert_eq!(
        masked.0, masked.1,
        "masked queries: ArraySource vs default Source"
    );
    assert_eq!(
        per_bit.0, per_bit.1,
        "per-bit queries: ArraySource vs default Source"
    );
    assert_eq!(masked.0, per_bit.0, "masked vs per-bit queries");
    assert!(masked.0 .1.iter().any(|&q| q > 0), "somebody queried");
}

#[test]
fn crash_protocols_meter_masked_queries_like_their_per_bit_loops() {
    let crash = |n: usize, k: usize, b: usize| {
        ModelParams::builder(n, k)
            .faults(FaultModel::Crash, b)
            .build()
            .unwrap()
    };
    // Word-straddling lengths; with and without the crash that sends
    // Algorithm 1 into its phase-2 reassignment queries.
    for (seed, crashes) in [(3, 0..0), (4, 0..1), (5, 0..1)] {
        let (n, k) = (5 * 64 + 9, 5);
        assert_query_paths_agree(crash(n, k, 1), seed, crashes, move || {
            SingleCrashDownload::new(n, k)
        });
    }
    // Stage-1 shares over several phases, then the terminal remainder.
    for (seed, b) in [(6, 0), (7, 3), (8, 6)] {
        let (n, k) = (9 * 64 + 17, 8);
        assert_query_paths_agree(crash(n, k, b), seed, 0..b, move || {
            CrashMultiDownload::new(n, k, b)
        });
    }
}

// ---------------------------------------------------------------------
// `Context::query_masked`: the strided sibling of `query_range`.
//
// The contexts that sit on a real source (the simulator's lane, which
// the explorer drives too, and the threaded runtime) answer it with one
// batched meter update and the source's masked read; everything else —
// and `FakeCtx` in particular — keeps the provided per-set-bit default.
// All of them must charge, log and answer exactly like a loop of one-bit
// queries in ascending order.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Never;

impl ProtocolMessage for Never {
    fn bit_len(&self) -> usize {
        0
    }
}

/// The masks a probe asks for: all ones, empty, one bit, a run
/// straddling a word boundary, and a committee-like stride — shifted per
/// peer so the per-peer logs differ.
fn probe_masks(n: usize, peer: PeerId) -> Vec<BitArray> {
    let p = peer.index();
    vec![
        BitArray::from_fn(n, |_| true),
        BitArray::zeros(n),
        BitArray::from_fn(n, |i| i == (p * 37 + 63) % n),
        BitArray::from_fn(n, |i| (60 + p..70 + p).contains(&i)),
        BitArray::from_fn(n, |i| (i + p).is_multiple_of(3)),
    ]
}

/// Queries [`probe_masks`] on start, then one bit range — through
/// `query_masked` and `query_range`, or through the loops of one-bit
/// queries they must be indistinguishable from — and outputs the all-ones
/// answer, which the executor checks against the input. Every other
/// answer must be that array under its mask.
struct MaskProbe {
    bulk: bool,
    /// What the all-ones answer must be, for a probe whose output nobody
    /// checks (a Byzantine one).
    expect: Option<BitArray>,
    out: Option<BitArray>,
}

impl MaskProbe {
    fn new(bulk: bool) -> Self {
        MaskProbe {
            bulk,
            expect: None,
            out: None,
        }
    }
}

impl Protocol for MaskProbe {
    type Msg = Never;

    fn on_start(&mut self, ctx: &mut dyn Context<Never>) {
        let n = ctx.input_len();
        for mask in probe_masks(n, ctx.me()) {
            let answer = if self.bulk {
                ctx.query_masked(&mask)
            } else {
                let mut out = BitArray::zeros(n);
                for i in mask.ones() {
                    out.set(i, ctx.query(i));
                }
                out
            };
            let world = self.out.get_or_insert_with(|| answer.clone());
            let expected = BitArray::from_fn(n, |i| mask.get(i) && world.get(i));
            assert_eq!(answer, expected, "peer {} mask {mask:?}", ctx.me());
        }
        // One contiguous read too, so the probe charges every query path.
        let run = 60..70;
        let answer = if self.bulk {
            ctx.query_range(run.clone())
        } else {
            BitArray::from_fn(run.len(), |i| ctx.query(run.start + i))
        };
        let world = self.out.as_ref().expect("the first mask is all ones");
        assert_eq!(answer, world.slice(run), "peer {} range", ctx.me());
        if let Some(expect) = &self.expect {
            assert_eq!(self.out.as_ref(), Some(expect));
        }
    }

    fn on_message(&mut self, _from: PeerId, _msg: Never, _ctx: &mut dyn Context<Never>) {}

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

#[test]
fn query_meter_and_sources_answer_masked_reads_like_the_per_bit_loop() {
    let n = 3 * 64 + 5;
    let input = test_input(n);
    let (bulk, default) = (ArraySource::new(input.clone()), PerBitSource(input.clone()));
    let per_bit = PerBitSource(input);
    let (masked, looped) = (QueryMeter::new(3), QueryMeter::new(3));
    for p in (0..3).map(PeerId) {
        for mask in probe_masks(n, p) {
            masked.record_masked(p, &mask);
            let mut c = BitArray::zeros(n);
            for i in mask.ones() {
                looped.record(p);
                c.set(i, per_bit.bit(i));
            }
            assert_eq!(bulk.bits_masked(&mask), c, "{mask:?}");
            assert_eq!(default.bits_masked(&mask), c, "{mask:?}");
        }
        assert_eq!(masked.count(p), looped.count(p));
    }
}

#[test]
fn simulator_query_masked_matches_per_bit_reference() {
    let (n, k) = (3 * 64 + 5, 5);
    let params = ModelParams::builder(n, k).build().unwrap();
    let input = test_input(n);
    let run = |bulk: bool, reference_source: bool| {
        let b = SimBuilder::new(params)
            .seed(3)
            .protocol(move |_| MaskProbe::new(bulk))
            .track_query_indices();
        let b = if reference_source {
            b.source(PerBitSource(input.clone()), input.clone())
        } else {
            b.input(input.clone())
        };
        let report = b.build().run().unwrap();
        report.verify_downloads(&input).unwrap();
        fingerprint(&report)
    };
    let per_bit = run(false, false);
    assert_eq!(run(true, false), per_bit, "ArraySource word-AND read");
    assert_eq!(run(true, true), per_bit, "Source::bits_masked default");
    // Five masks per peer: n + 0 + 1 + 10 + every third bit.
    assert!(per_bit.1.iter().all(|&q| q >= (n + 11 + n / 3) as u64));
}

#[test]
fn fake_context_answers_query_masked_from_the_fabricated_array() {
    let (n, k) = (3 * 64 + 5, 4);
    let params = ModelParams::builder(n, k)
        .faults(FaultModel::Byzantine, 1)
        .build()
        .unwrap();
    let input = test_input(n);
    let fake = BitArray::from_fn(n, |i| !input.get(i));
    let fooled = MaskProbe {
        expect: Some(fake.clone()),
        ..MaskProbe::new(true)
    };
    let report = SimBuilder::new(params)
        .seed(4)
        .input(input.clone())
        .protocol(move |_| MaskProbe::new(true))
        .byzantine(PeerId(2), FakeSourceAgent::new(fooled, fake))
        .build()
        .run()
        .unwrap();
    report.verify_downloads(&input).unwrap();
    // The per-bit default never reached the real source or its meter.
    assert_eq!(report.query_counts[2], 0);
    assert!(report.query_counts[0] > 0);
}

#[test]
fn explorer_and_threads_answer_query_masked_like_the_per_bit_loop() {
    let (n, k) = (2 * 64 + 9, 3);
    let input = test_input(n);
    for bulk in [true, false] {
        // The probe checks its answers against each other, the explorer
        // checks its output against the input.
        let report = explore(&ExploreConfig::new(k, input.clone()), move |_| {
            MaskProbe::new(bulk)
        })
        .unwrap();
        assert!(
            report.exhaustive && report.counterexample.is_none(),
            "{report:?}"
        );
    }
    let params = ModelParams::builder(n, k).build().unwrap();
    let counts = |bulk: bool| {
        let report =
            run_threaded(RuntimeConfig::new(params, 8), move |_| MaskProbe::new(bulk)).unwrap();
        report.verify(&[]).unwrap();
        report.query_counts
    };
    assert_eq!(counts(true), counts(false));
}

#[test]
fn simulator_and_threads_charge_the_mask_probe_the_same_q() {
    // The probe's queries depend only on its peer id, so its per-peer Q
    // is the same under every schedule: the simulator's plain counters
    // and the runtime's atomic meter must agree on it exactly.
    let (n, k) = (2 * 64 + 9, 3);
    let params = ModelParams::builder(n, k).build().unwrap();
    for bulk in [true, false] {
        let threads =
            run_threaded(RuntimeConfig::new(params, 8), move |_| MaskProbe::new(bulk)).unwrap();
        threads.verify(&[]).unwrap();
        let sim = SimBuilder::new(params)
            .seed(8)
            .input(threads.input.clone())
            .protocol(move |_| MaskProbe::new(bulk))
            .build()
            .run()
            .unwrap();
        sim.verify_downloads(&threads.input).unwrap();
        assert_eq!(sim.query_counts, threads.query_counts, "bulk={bulk}");
    }
}
