//! Isolated layer probes: one layer at a time, called from outside
//! through public functions only, on one thread, at fixed sizes.
//!
//! A traced run says how much of a workload a layer takes; a probe says
//! what one unit of that layer's work costs with nothing else running —
//! so a change to `BitArray::or_assign` shows here even where the
//! workloads dilute it, and the two-client lock wait of `serve_warm` can
//! be told from the cache's own path cost.
//!
//! Every probe repeats its operation, times each repetition on its own
//! and reports the median, divided by the number of 64-bit words (or
//! events) one repetition handles.

use crate::stats::median;
use dr_core::{
    ArraySource, BitArray, CachedSource, ChunkedSource, Context, ModelParams, PartialArray, PeerId,
    Protocol, ProtocolMessage, QueryMeter, Source,
};
use dr_protocols::{in_committee, CommitteeDownload, VoteBatch};
use dr_sim::SimBuilder;
use rand::rngs::mock::StepRng;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// How much one repetition of each probe handles.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Bits in the arrays the `core` probes work on.
    pub bits: usize,
    /// `(n, k, t)` of the `CommitteeDownload` probe.
    pub committee: (usize, usize, usize),
    /// Events, roughly, of one null-protocol run.
    pub pump_events: usize,
}

/// The fixed sizes a per-layer number is comparable at.
pub const FULL: Scale = Scale {
    bits: 1 << 20,
    committee: (1 << 16, 32, 10),
    pump_events: 200_000,
};

/// Tiny sizes for `--quick` and the tests: the same calls, numbers that
/// mean nothing.
pub const QUICK: Scale = Scale {
    bits: 1 << 14,
    committee: (1 << 10, 16, 5),
    pump_events: 5_000,
};

/// Runs `op` on a fresh `setup()` value `reps` times and returns the
/// median nanoseconds of one `op`. Set-up and drop are not timed.
fn median_ns<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S) -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut state = setup();
            let started = Instant::now();
            let out = op(black_box(&mut state));
            let ns = started.elapsed().as_nanos() as f64;
            black_box(out);
            ns
        })
        .collect();
    median(&samples)
}

fn random_bits(bits: usize, seed: u64) -> BitArray {
    BitArray::random(bits, &mut StdRng::seed_from_u64(seed))
}

/// A `Context` that answers nothing and sends nowhere: what
/// `CommitteeDownload::on_message` needs to run alone.
struct StubCtx {
    me: PeerId,
    k: usize,
    n: usize,
    rng: StepRng,
}

impl<M: ProtocolMessage> Context<M> for StubCtx {
    fn me(&self) -> PeerId {
        self.me
    }
    fn num_peers(&self) -> usize {
        self.k
    }
    fn input_len(&self) -> usize {
        self.n
    }
    fn send(&mut self, _to: PeerId, _msg: M) {}
    fn query(&mut self, _index: usize) -> bool {
        false
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// One full `VoteBatch` from peer 1 into a fresh `CommitteeDownload` of
/// peer 0 (at [`FULL`], the `committee` workload's size). Milliseconds.
fn committee_on_message_ms((n, k, t): (usize, usize, usize)) -> f64 {
    let sender = PeerId(1);
    let votes = (0..n)
        .filter(|&j| in_committee(j, k, 2 * t + 1, sender))
        .count();
    let batch = VoteBatch {
        values: BitArray::from_fn(votes, |r| r % 3 == 0),
    };
    let ns = median_ns(
        5,
        || {
            let ctx = StubCtx {
                me: PeerId(0),
                k,
                n,
                rng: StepRng::new(0, 1),
            };
            (CommitteeDownload::new(n, k, t), ctx, batch.clone())
        },
        |(protocol, ctx, batch)| {
            let batch = std::mem::replace(
                batch,
                VoteBatch {
                    values: BitArray::zeros(0),
                },
            );
            protocol.on_message(sender, batch, ctx);
        },
    );
    ns / 1e6
}

/// One-word message of the null protocol.
#[derive(Debug, Clone)]
struct Word(u32);

impl ProtocolMessage for Word {
    fn bit_len(&self) -> usize {
        64
    }
}

/// A protocol whose handlers do nothing but keep the pump busy: the
/// first `senders` peers broadcast a one-word message, and each
/// re-broadcasts when its predecessor's message of the round arrives,
/// for `rounds` rounds. A peer halts when it has heard everything, so
/// the run ends exactly when the traffic does.
struct NullPump {
    senders: usize,
    rounds: u32,
    heard: usize,
    expect: usize,
    done: Option<BitArray>,
    out: BitArray,
}

impl NullPump {
    fn new(me: PeerId, n: usize, senders: usize, rounds: u32) -> Self {
        let others = senders - usize::from(me.index() < senders);
        NullPump {
            senders,
            rounds,
            heard: 0,
            expect: others * rounds as usize,
            done: None,
            out: BitArray::zeros(n),
        }
    }
}

impl Protocol for NullPump {
    type Msg = Word;

    fn on_start(&mut self, ctx: &mut dyn Context<Word>) {
        if ctx.me().index() < self.senders {
            ctx.broadcast(Word(0));
        }
    }

    fn on_message(&mut self, from: PeerId, msg: Word, ctx: &mut dyn Context<Word>) {
        self.heard += 1;
        let me = ctx.me().index();
        if me < self.senders && (from.index() + 1) % self.senders == me && msg.0 + 1 < self.rounds {
            ctx.broadcast(Word(msg.0 + 1));
        }
        if self.heard == self.expect {
            self.done = Some(self.out.clone());
        }
    }

    fn output(&self) -> Option<&BitArray> {
        self.done.as_ref()
    }
}

/// Host nanoseconds per event of the real `Simulation` running
/// [`NullPump`] on `k` peers: the pump's unit cost with handlers at
/// zero. About `events` events per run, median of three runs.
///
/// # Panics
///
/// Panics if the run fails or processes another number of events than
/// the protocol sends.
pub fn pump_null_ns_per_event(k: usize, events: usize) -> f64 {
    let n = 64;
    let senders = k.min(64);
    let rounds = (events / (senders * (k - 1))).max(1) as u32;
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let sim = SimBuilder::new(ModelParams::fault_free(n, k).expect("valid parameters"))
                .seed(1)
                .protocol(move |me| NullPump::new(me, n, senders, rounds))
                .build();
            let started = Instant::now();
            let report = sim.run().expect("the null protocol terminates");
            let ns = started.elapsed().as_nanos() as f64;
            let deliveries = senders * (k - 1) * rounds as usize;
            assert_eq!(report.events as usize, k + deliveries, "k={k}");
            ns / report.events as f64
        })
        .collect();
    median(&samples)
}

/// Runs every probe; `(metric name, value)` pairs, named as in
/// [`crate::spec::PER_LAYER`].
pub fn run_all(scale: &Scale) -> Vec<(&'static str, f64)> {
    let n = scale.bits;
    let words = (n / 64) as f64;
    let a = random_bits(n, 1);
    let b = random_bits(n, 2);
    let mut out = Vec::new();

    out.push((
        "core.bits_or_assign_ns_per_word",
        median_ns(31, || a.deep_clone(), |x| x.or_assign(&b)) / words,
    ));
    // An unaligned range, so the shift-across-words path is what runs.
    out.push((
        "core.bits_slice_ns_per_word",
        median_ns(31, || (), |_| a.slice(7..n - 57)) / words,
    ));

    let half_known = {
        let mut p = PartialArray::new(n);
        p.learn_slice(0, &a.slice(0..n / 2));
        p.learn_slice(n / 2 + n / 4, &a.slice(n / 2 + n / 4..n));
        p
    };
    out.push((
        "core.partial_merge_ns_per_word",
        median_ns(31, || PartialArray::new(n), |p| p.merge(&half_known)) / words,
    ));
    let payload = a.slice(0..n - 64);
    out.push((
        "core.partial_learn_slice_ns_per_word",
        median_ns(31, || PartialArray::new(n), |p| p.learn_slice(13, &payload)) / words,
    ));

    let array = ArraySource::new(a.clone());
    out.push((
        "core.array_source_bits_ns_per_word",
        median_ns(31, || (), |_| Source::bits(&array, 7..n - 57)) / words,
    ));

    let meter = QueryMeter::new(64);
    const RECORDS: usize = 10_000;
    out.push((
        "core.meter_record_range_ns",
        median_ns(
            11,
            || (),
            |_| {
                for i in 0..RECORDS {
                    meter.record_range(PeerId(i % 64), black_box(i..i + 64));
                }
            },
        ) / RECORDS as f64,
    ));

    // 16 chunks hold all of n: after one pass every word read is a hit.
    let chunk_words = n / 64 / 16;
    let resident = ChunkedSource::with_geometry(n, 9, chunk_words, 16);
    black_box(resident.bits(0..n));
    out.push((
        "core.chunked_hit_ns_per_word",
        median_ns(15, || (), |_| resident.bits(0..n)) / words,
    ));
    // One resident chunk: a sequential pass generates every chunk anew.
    out.push((
        "core.chunked_miss_ns_per_word",
        median_ns(
            15,
            || ChunkedSource::with_geometry(n, 9, chunk_words, 1),
            |s| s.bits(0..n),
        ) / words,
    ));

    // `read_range_with` in slot-sized reads, one thread: no contention.
    let slot = n / 16;
    let read_all = |cache: &CachedSource| {
        for lo in (0..n).step_by(slot) {
            black_box(cache.read_range_with(lo..lo + slot, &mut |_| {}));
        }
    };
    out.push((
        "core.cached_miss_ns_per_word",
        median_ns(
            7,
            || CachedSource::new(ArraySource::new(a.clone()), 4),
            |cache| read_all(cache),
        ) / words,
    ));
    let filled = CachedSource::new(ArraySource::new(a.clone()), 4);
    read_all(&filled);
    out.push((
        "core.cached_hit_ns_per_word",
        median_ns(15, || (), |_| read_all(&filled)) / words,
    ));

    out.push((
        "protocols.committee_on_message_ms",
        committee_on_message_ms(scale.committee),
    ));
    out.push((
        "sim.pump_null_ns_per_event_k64",
        pump_null_ns_per_event(64, scale.pump_events),
    ));
    out.push((
        "sim.pump_null_ns_per_event_k1024",
        pump_null_ns_per_event(1024, scale.pump_events),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_null_protocol_sends_exactly_what_it_promises() {
        // The event-count assert inside is the test; the value is a time.
        assert!(pump_null_ns_per_event(8, 2_000) > 0.0);
        assert!(pump_null_ns_per_event(100, 20_000) > 0.0);
    }

    #[test]
    fn the_stub_context_lets_a_vote_batch_through() {
        assert!(committee_on_message_ms(QUICK.committee) > 0.0);
    }

    #[test]
    fn every_probe_reports_under_a_catalogue_name() {
        for (name, value) in run_all(&QUICK) {
            assert!(
                crate::spec::PER_LAYER.iter().any(|m| m.name == name),
                "{name}"
            );
            assert!(value > 0.0, "{name}");
        }
    }
}
