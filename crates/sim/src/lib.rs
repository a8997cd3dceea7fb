//! Deterministic discrete-event simulator for the asynchronous DR model.
//!
//! This crate realizes the adversarial environment of the paper (§1.2): a
//! complete peer-to-peer network with adversary-chosen finite message
//! latencies, staggered starts, crash faults that strike only between local
//! steps (possibly cutting an outgoing batch short), Byzantine peers driven
//! by arbitrary behaviours, and the quiescence rule of §3.1 under which
//! held messages must eventually be released.
//!
//! The central types are [`SimBuilder`] → [`Simulation`] → [`RunReport`].
//! Protocols implement [`dr_core::Protocol`] and are driven unchanged by
//! either this simulator or the thread-based `dr-runtime`. The exhaustive
//! schedule explorer ([`explore`]) is an adversary on this simulator, not
//! a separate executor.
//!
//! # Examples
//!
//! See [`SimBuilder`] for a complete end-to-end run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod agent;
mod builder;
pub mod chaos;
mod ctx;
pub mod explore;
mod linkfault;
mod report;
mod schedule;
mod shard;
mod sim;
mod time;
mod trace;
mod view;

pub use adversary::{
    Adversary, CrashDirective, CrashPlan, CrashTrigger, DelayStrategy, Delivery, FixedDelay,
    HeldInfo, Release, StandardAdversary, TargetedSlowdown, UniformDelay,
};
pub use agent::{Agent, SilentAgent};
pub use builder::SimBuilder;
pub use chaos::{AdaptiveCrasher, ChaosAdversary, ChaosConfig, HoldUntilQuiescence};
pub use linkfault::{
    ChurnDirective, ChurnMixer, LinkDecision, LinkFaultPlan, LossyLinks, PartitionDirective,
    PartitionHealer, RetransmitPolicy,
};
pub use report::{DownloadViolation, RunError, RunReport};
pub use schedule::{CutDecision, RecordingAdversary, ReplayAdversary, ScheduleTrace, TraceHandle};
pub use sim::Simulation;
pub use time::{ticks_to_units, Ticks, TICKS_PER_UNIT};
pub use trace::{render_trace, TraceEntry};
pub use view::{PeerRole, PeerStatus, View};

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::{BitArray, Context, ModelParams, PeerId, Protocol, ProtocolMessage};

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
    /// for everyone else's share.
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

    fn run_balanced(seed: u64, n: usize, k: usize) -> (RunReport, BitArray) {
        let params = ModelParams::fault_free(n, k).unwrap();
        let sim = SimBuilder::new(params)
            .seed(seed)
            .protocol(move |_| Balanced::new(n))
            .build();
        let input = sim.input().clone();
        (sim.run().unwrap(), input)
    }

    #[test]
    fn balanced_download_fault_free() {
        let (report, input) = run_balanced(42, 256, 8);
        report.verify_downloads(&input).unwrap();
        // Each peer queries exactly its ⌈n/k⌉ share.
        assert_eq!(report.max_nonfaulty_queries, 32);
        // k*(k-1) chunk messages.
        assert_eq!(report.messages_sent, 8 * 7);
        assert!(report.virtual_time_units > 0.0);
    }

    #[test]
    fn bulk_query_meter_matches_bitwise_reference() {
        // Before the bulk fast path, SimCtx::query_range looped over
        // query(), metering each index one at a time. The bulk path must
        // charge identically: with Balanced at n=256, k=8 every peer is
        // charged its 32-bit share and the index log is that peer's
        // contiguous range in ascending order — the exact pre-change values.
        let n = 256;
        let k = 8;
        let params = ModelParams::fault_free(n, k).unwrap();
        let sim = SimBuilder::new(params)
            .seed(42)
            .protocol(move |_| Balanced::new(n))
            .track_query_indices()
            .build();
        let report = sim.run().unwrap();
        assert_eq!(report.query_counts, vec![32; 8]);
        let logs = report.query_indices.as_ref().expect("tracking enabled");
        for (p, log) in logs.iter().enumerate() {
            let expect: Vec<usize> = (p * 32..(p + 1) * 32).collect();
            assert_eq!(log, &expect, "peer {p} index log");
        }
    }

    #[test]
    fn same_seed_same_execution() {
        let (r1, _) = run_balanced(7, 128, 4);
        let (r2, _) = run_balanced(7, 128, 4);
        assert_eq!(r1.query_counts, r2.query_counts);
        assert_eq!(r1.messages_sent, r2.messages_sent);
        assert_eq!(r1.virtual_time_ticks, r2.virtual_time_ticks);
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn different_seeds_differ() {
        let (r1, _) = run_balanced(1, 128, 4);
        let (r2, _) = run_balanced(2, 128, 4);
        // Virtual time depends on random latencies; astronomically unlikely
        // to collide exactly.
        assert_ne!(r1.virtual_time_ticks, r2.virtual_time_ticks);
    }

    #[test]
    fn crash_makes_balanced_deadlock() {
        // Balanced download waits for every peer, so one crash before
        // start must deadlock it — the motivating failure of §2.
        let n = 64;
        let params = ModelParams::builder(n, 4)
            .faults(dr_core::FaultModel::Crash, 1)
            .build()
            .unwrap();
        let sim = SimBuilder::new(params)
            .seed(3)
            .protocol(move |_| Balanced::new(n))
            .adversary(StandardAdversary::new(
                UniformDelay::new(),
                CrashPlan::before_event([PeerId(2)], 0),
            ))
            .build();
        match sim.run() {
            Err(RunError::Deadlock { stuck }) => {
                assert!(!stuck.is_empty());
                assert!(!stuck.contains(&PeerId(2)));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn mid_send_crash_cuts_batch() {
        // Crash peer 0 during its start batch keeping 1 message: exactly
        // one other peer receives its chunk; the rest deadlock.
        let n = 30;
        let params = ModelParams::builder(n, 3)
            .faults(dr_core::FaultModel::Crash, 1)
            .build()
            .unwrap();
        let mut plan = CrashPlan::none();
        plan.push(CrashDirective {
            peer: PeerId(0),
            trigger: CrashTrigger::DuringSend { event: 0, keep: 1 },
        });
        let sim = SimBuilder::new(params)
            .seed(11)
            .protocol(move |_| Balanced::new(n))
            .adversary(StandardAdversary::new(UniformDelay::new(), plan))
            .build();
        match sim.run() {
            Err(RunError::Deadlock { stuck }) => {
                // The kept message goes to peer 1 (first in broadcast
                // order), so peer 1 completes and only peer 2 is stuck.
                assert_eq!(stuck, vec![PeerId(2)]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_guards_livelock() {
        // A protocol that ping-pongs forever trips the guard.
        #[derive(Debug, Clone)]
        struct Ping;
        impl ProtocolMessage for Ping {
            fn bit_len(&self) -> usize {
                1
            }
        }
        struct Pinger;
        impl Protocol for Pinger {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut dyn Context<Ping>) {
                ctx.broadcast(Ping);
            }
            fn on_message(&mut self, from: PeerId, _m: Ping, ctx: &mut dyn Context<Ping>) {
                ctx.send(from, Ping);
            }
            fn output(&self) -> Option<&BitArray> {
                None
            }
        }
        let params = ModelParams::fault_free(8, 2).unwrap();
        let sim = SimBuilder::new(params)
            .seed(0)
            .protocol(|_| Pinger)
            .max_events(1000)
            .build();
        assert!(matches!(
            sim.run(),
            Err(RunError::EventLimitExceeded { limit: 1000 })
        ));
    }

    #[test]
    fn long_messages_charged_as_packets() {
        // With a = 64 bits, each 128-bit chunk + 64-bit header is 3 packets.
        let n = 256;
        let params = ModelParams::builder(n, 2).message_bits(64).build().unwrap();
        let sim = SimBuilder::new(params)
            .seed(5)
            .protocol(move |_| Balanced::new(n))
            .build();
        let report = sim.run().unwrap();
        assert_eq!(report.messages_sent, 2 * 3);
    }

    #[test]
    fn held_messages_released_at_quiescence() {
        // An adversary that holds every message: balanced download can
        // only finish via quiescence releases.
        struct HoldAll;
        impl Adversary<Chunk> for HoldAll {
            fn on_send(
                &mut self,
                _view: &View<'_>,
                _from: PeerId,
                _to: PeerId,
                _msg: &Chunk,
                _rng: &mut rand::rngs::StdRng,
            ) -> Delivery {
                Delivery::Hold
            }
        }
        let n = 64;
        let params = ModelParams::fault_free(n, 4).unwrap();
        let sim = SimBuilder::new(params)
            .seed(9)
            .protocol(move |_| Balanced::new(n))
            .adversary(HoldAll)
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
        assert!(report.quiescence_releases >= 1);
    }

    #[test]
    fn byzantine_silent_peer_consumes_budget() {
        let n = 60;
        let params = ModelParams::builder(n, 3)
            .faults(dr_core::FaultModel::Byzantine, 1)
            .build()
            .unwrap();
        // Balanced download with a silent Byzantine peer deadlocks: the
        // honest peers wait for its chunk forever.
        let sim = SimBuilder::new(params)
            .seed(2)
            .protocol(move |_| Balanced::new(n))
            .byzantine(PeerId(1), SilentAgent::new())
            .build();
        match sim.run() {
            Err(RunError::Deadlock { stuck }) => assert_eq!(stuck.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "exceed fault budget")]
    fn too_many_byzantine_panics() {
        let params = ModelParams::builder(8, 3)
            .faults(dr_core::FaultModel::Byzantine, 1)
            .build()
            .unwrap();
        let _ = SimBuilder::new(params)
            .protocol(move |_| Balanced::new(8))
            .byzantine(PeerId(0), SilentAgent::new())
            .byzantine(PeerId(1), SilentAgent::new())
            .build();
    }
}
