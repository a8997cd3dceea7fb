//! Serial-vs-sharded pump equivalence: same seed, same configuration,
//! any shard count ⇒ bit-identical execution.
//!
//! The sharded pump (per-shard lanes and slabs under a time-window
//! barrier) claims to reproduce the serial pump's global `(at, seq)`
//! event order exactly — so every observable, down to the run
//! fingerprint, must match. These tests check that claim across random
//! parameter/adversary mixes (proptest) and through the recorded-schedule
//! replay path.

use dr_core::{BitArray, Context, ModelParams, PeerId, Protocol, ProtocolMessage};
use dr_sim::{
    Adversary, ChaosAdversary, ChaosConfig, CrashPlan, HoldUntilQuiescence, RecordingAdversary,
    ReplayAdversary, RunError, RunReport, SimBuilder, StandardAdversary, UniformDelay,
};

/// Message carrying a chunk of bits (offset + payload).
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

/// Fault-free balanced download: query your share, broadcast it, wait
/// for everyone else's share. Small and chatty — every peer talks to
/// every peer, so cross-shard traffic is dense.
struct Balanced {
    out: dr_core::PartialArray,
    done: Option<BitArray>,
}

impl Balanced {
    fn new(n: usize) -> Self {
        Balanced {
            out: dr_core::PartialArray::new(n),
            done: None,
        }
    }
    fn check_done(&mut self) {
        if self.done.is_none() && self.out.is_complete() {
            self.done = Some(self.out.clone().into_complete());
        }
    }
}

impl Protocol for Balanced {
    type Msg = Chunk;
    fn on_start(&mut self, ctx: &mut dyn Context<Chunk>) {
        let n = ctx.input_len();
        let k = ctx.num_peers();
        let me = ctx.me().index();
        let per = n.div_ceil(k);
        let range = (me * per).min(n)..((me + 1) * per).min(n);
        let bits = ctx.query_range(range.clone());
        self.out.learn_slice(range.start, &bits);
        ctx.broadcast(Chunk {
            offset: range.start,
            bits,
        });
        self.check_done();
    }
    fn on_message(&mut self, _from: PeerId, msg: Chunk, _ctx: &mut dyn Context<Chunk>) {
        self.out.learn_slice(msg.offset, &msg.bits);
        self.check_done();
    }
    fn output(&self) -> Option<&BitArray> {
        self.done.as_ref()
    }
}

/// The adversary mixes the property sweeps over. Crashing mixes can
/// legitimately deadlock `Balanced`; equivalence then means the *same*
/// error from both pumps.
fn adversary_for(mix: usize, k: usize) -> Box<dyn Adversary<Chunk>> {
    match mix % 4 {
        0 => Box::new(StandardAdversary::benign()),
        1 => Box::new(StandardAdversary::new(
            UniformDelay::new(),
            CrashPlan::before_event([PeerId(k - 1)], 1),
        )),
        2 => Box::new(HoldUntilQuiescence::new(0.4, 1)),
        _ => Box::new(ChaosAdversary::new(mix as u64, ChaosConfig::aggressive(1))),
    }
}

fn run(
    seed: u64,
    n: usize,
    k: usize,
    b: usize,
    mix: usize,
    shards: usize,
) -> Result<u64, RunError> {
    let params = if b == 0 {
        ModelParams::fault_free(n, k).unwrap()
    } else {
        ModelParams::builder(n, k)
            .faults(dr_core::FaultModel::Crash, b)
            .build()
            .unwrap()
    };
    let sim = SimBuilder::new(params)
        .seed(seed)
        .shards(shards)
        .protocol(move |_| Balanced::new(n))
        .adversary(adversary_for(mix, k))
        .build();
    sim.run().map(|r| r.fingerprint())
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any (seed, n, k, shard-count, adversary-mix) combination runs
    /// bit-identically on the serial and sharded pumps: equal
    /// fingerprints on success, the very same error otherwise.
    #[test]
    fn serial_and_sharded_runs_are_bit_identical(
        seed in any::<u64>(),
        n in 16usize..512,
        k in 2usize..12,
        shards in 2usize..9,
        mix in 0usize..4,
    ) {
        let b = if mix == 0 || mix == 2 { 0 } else { 1 };
        let serial = run(seed, n, k, b, mix, 1);
        let sharded = run(seed, n, k, b, mix, shards);
        prop_assert_eq!(serial, sharded, "n={} k={} shards={} mix={}", n, k, shards, mix);
    }

    /// More shards than peers (some shards empty) is still identical.
    #[test]
    fn oversharding_is_identical(seed in any::<u64>(), k in 2usize..6) {
        let serial = run(seed, 64, k, 0, 0, 1);
        let oversharded = run(seed, 64, k, 0, 0, k * 3);
        prop_assert_eq!(serial, oversharded);
    }
}

/// A schedule recorded against the serial pump replays bit-identically
/// through the sharded pump: positional decision alignment holds because
/// the sharded pump consults the adversary in the identical sequence.
#[test]
fn recorded_schedule_replays_through_sharded_pump() {
    let (n, k) = (96, 6);
    for seed in [3u64, 1719, 0xBEEF] {
        let (recorder, handle) = RecordingAdversary::new(HoldUntilQuiescence::new(0.5, 2));
        let params = ModelParams::fault_free(n, k).unwrap();
        let sim = SimBuilder::new(params)
            .seed(seed)
            .protocol(move |_| Balanced::new(n))
            .adversary(recorder)
            .build();
        let recorded: RunReport = sim.run().expect("fault-free run terminates");
        let trace = handle.take();
        for shards in [2, 5] {
            let sim = SimBuilder::new(params)
                .seed(seed)
                .shards(shards)
                .protocol(move |_| Balanced::new(n))
                .adversary(ReplayAdversary::new(trace.clone()))
                .build();
            let replayed = sim.run().expect("replay terminates");
            assert_eq!(
                recorded.fingerprint(),
                replayed.fingerprint(),
                "seed={seed} shards={shards}: sharded replay diverged"
            );
        }
    }
}

/// The held-at-start + adaptive-crash regression mix from the chaos
/// campaign, swept across shard counts against the serial fingerprint.
#[test]
fn chaos_mix_matches_across_shard_counts() {
    for seed in [7u64, 42] {
        let serial = run(seed, 256, 8, 2, 3, 1);
        for shards in [2, 3, 4, 7, 8, 16] {
            assert_eq!(
                serial,
                run(seed, 256, 8, 2, 3, shards),
                "seed={seed} shards={shards}"
            );
        }
    }
}
