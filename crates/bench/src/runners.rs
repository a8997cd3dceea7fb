//! Standardized experiment runs: one function per (protocol, scenario),
//! all verifying the Download specification before returning metrics.

use dr_core::{FaultModel, ModelParams, PeerId, SegmentId, Segmentation};
use dr_protocols::byz::strategies::{CollusionGroup, Equivocator, RandomNoise};
use dr_protocols::{
    CommitteeDownload, CrashMultiDownload, MultiCycleDownload, NaiveDownload, SingleCrashDownload,
    TwoCycleDownload, TwoCyclePlan,
};
use dr_sim::{CrashPlan, RunReport, SilentAgent, SimBuilder, StandardAdversary, UniformDelay};

use crate::stats::Stats;

/// Mix of Byzantine behaviours injected in the randomized-protocol runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzMix {
    /// No Byzantine peers actually instantiated (budget reserved only).
    None,
    /// All Byzantine peers silent.
    Silent,
    /// Equal parts equivocators, colluders, and random noise.
    Mixed,
    /// All Byzantine peers collude on fake strings in groups.
    Colluders,
}

/// Builds crash-fault parameters.
pub fn crash_params(n: usize, k: usize, b: usize, msg_bits: usize) -> ModelParams {
    ModelParams::builder(n, k)
        .faults(FaultModel::Crash, b)
        .message_bits(msg_bits)
        .build()
        .expect("valid crash params")
}

/// Builds Byzantine-fault parameters.
pub fn byz_params(n: usize, k: usize, b: usize) -> ModelParams {
    ModelParams::builder(n, k)
        .faults(FaultModel::Byzantine, b)
        .build()
        .expect("valid byz params")
}

fn verified(sim: dr_sim::Simulation<impl dr_core::ProtocolMessage>) -> RunReport {
    let input = sim.input().clone();
    let report = sim.run().expect("run must terminate");
    report
        .verify_downloads(&input)
        .expect("download specification violated");
    report
}

/// Naive protocol run (works under any fault pattern).
pub fn run_naive(n: usize, k: usize, seed: u64) -> RunReport {
    let sim = SimBuilder::new(crash_params(n, k, 0, 1024))
        .seed(seed)
        .protocol(|_| NaiveDownload::new())
        .build();
    verified(sim)
}

/// Algorithm 1 with one adversarial crash (`victim` dies mid-run).
pub fn run_single_crash(n: usize, k: usize, seed: u64, victim: Option<PeerId>) -> RunReport {
    let plan = match victim {
        Some(v) => CrashPlan::before_event([v], seed % 4),
        None => CrashPlan::none(),
    };
    let sim = SimBuilder::new(crash_params(n, k, 1, 1024))
        .seed(seed)
        .protocol(move |_| SingleCrashDownload::new(n, k))
        .adversary(StandardAdversary::new(UniformDelay::new(), plan))
        .build();
    verified(sim)
}

/// Algorithm 2 with `crashes` peers crashed adversarially (budget `b`).
pub fn run_crash_multi(
    n: usize,
    k: usize,
    b: usize,
    crashes: usize,
    msg_bits: usize,
    early_release: bool,
    seed: u64,
) -> RunReport {
    assert!(crashes <= b);
    let victims: Vec<PeerId> = (0..crashes).map(PeerId).collect();
    let plan = CrashPlan::before_event(victims, 1 + seed % 3);
    let sim = SimBuilder::new(crash_params(n, k, b, msg_bits))
        .seed(seed)
        .protocol(move |_| {
            let p = CrashMultiDownload::new(n, k, b);
            if early_release {
                p.with_early_release()
            } else {
                p
            }
        })
        .adversary(StandardAdversary::new(UniformDelay::new(), plan))
        .build();
    verified(sim)
}

/// Deterministic committee protocol with `silent` of the `t` Byzantine
/// peers instantiated as silent.
pub fn run_committee(n: usize, k: usize, t: usize, silent: usize, seed: u64) -> RunReport {
    assert!(silent <= t);
    let mut builder = SimBuilder::new(byz_params(n, k, t))
        .seed(seed)
        .protocol(move |_| CommitteeDownload::new(n, k, t));
    for i in 0..silent {
        builder = builder.byzantine(PeerId(i), SilentAgent::new());
    }
    verified(builder.build())
}

fn apply_mix<M, FEq, FCol, FNoise>(
    mut builder: SimBuilder<M>,
    b: usize,
    mix: ByzMix,
    eq: FEq,
    col: FCol,
    noise: FNoise,
) -> SimBuilder<M>
where
    M: dr_core::ProtocolMessage,
    FEq: Fn(usize) -> Box<dyn dr_sim::Agent<M>>,
    FCol: Fn(usize) -> Box<dyn dr_sim::Agent<M>>,
    FNoise: Fn(usize) -> Box<dyn dr_sim::Agent<M>>,
{
    match mix {
        ByzMix::None => builder,
        ByzMix::Silent => {
            for i in 0..b {
                builder = builder.byzantine(PeerId(i), SilentAgent::new());
            }
            builder
        }
        ByzMix::Mixed => {
            for i in 0..b {
                builder = match i % 3 {
                    0 => builder.byzantine(PeerId(i), eq(i)),
                    1 => builder.byzantine(PeerId(i), col(i)),
                    _ => builder.byzantine(PeerId(i), noise(i)),
                };
            }
            builder
        }
        ByzMix::Colluders => {
            for i in 0..b {
                builder = builder.byzantine(PeerId(i), col(i));
            }
            builder
        }
    }
}

/// Returns the segmentation the 2-cycle protocol will use, if sampled.
pub fn two_cycle_segmentation(n: usize, k: usize, b: usize) -> Option<(Segmentation, usize)> {
    match TwoCyclePlan::choose(n, k, b) {
        TwoCyclePlan::Sampled {
            segments,
            threshold,
        } => Some((Segmentation::new(n, segments), threshold)),
        TwoCyclePlan::Naive => None,
    }
}

/// 2-cycle randomized protocol run under a Byzantine mix.
pub fn run_two_cycle(n: usize, k: usize, b: usize, mix: ByzMix, seed: u64) -> RunReport {
    let builder = SimBuilder::new(byz_params(n, k, b))
        .seed(seed)
        .protocol(move |_| TwoCycleDownload::new(n, k, b));
    let builder = match two_cycle_segmentation(n, k, b) {
        // Colluders form groups of τ consecutive IDs sharing one target
        // segment and one fake string, so each group crosses the
        // frequency threshold (the only strategy that can).
        Some((seg, tau)) => apply_mix(
            builder,
            b,
            mix,
            |i| Box::new(Equivocator::new(seg, SegmentId(i % seg.count()))),
            move |i| {
                let group = i / tau.max(1);
                Box::new(CollusionGroup::new(
                    seg,
                    SegmentId(group % seg.count()),
                    group as u64,
                ))
            },
            |_| Box::new(RandomNoise::new(seg)),
        ),
        None => apply_mix(
            builder,
            b,
            mix,
            |_| Box::new(SilentAgent::new()),
            |_| Box::new(SilentAgent::new()),
            |_| Box::new(SilentAgent::new()),
        ),
    };
    verified(builder.build())
}

/// Multi-cycle randomized protocol run under a Byzantine mix (colluders
/// and noise target the cycle-1 segmentation).
pub fn run_multi_cycle(n: usize, k: usize, b: usize, mix: ByzMix, seed: u64) -> RunReport {
    use dr_protocols::MultiCyclePlan;
    let builder = SimBuilder::new(byz_params(n, k, b))
        .seed(seed)
        .protocol(move |_| MultiCycleDownload::new(n, k, b));
    let builder = match MultiCyclePlan::choose(n, k, b) {
        MultiCyclePlan::Sampled {
            initial_segments,
            threshold,
            ..
        } => {
            let seg = Segmentation::new(n, initial_segments);
            apply_mix(
                builder,
                b,
                mix,
                |i| Box::new(Equivocator::new(seg, SegmentId(i % seg.count()))),
                move |i| {
                    let group = i / threshold.max(1);
                    Box::new(CollusionGroup::new(
                        seg,
                        SegmentId(group % seg.count()),
                        group as u64,
                    ))
                },
                |_| Box::new(RandomNoise::new(seg)),
            )
        }
        MultiCyclePlan::Naive => apply_mix(
            builder,
            b,
            mix,
            |_| Box::new(SilentAgent::new()),
            |_| Box::new(SilentAgent::new()),
            |_| Box::new(SilentAgent::new()),
        ),
    };
    verified(builder.build())
}

/// Convenience: repeats a run over `trials` seeds and averages a metric
/// (delegates to [`Stats::sample`]).
pub fn average<R: FnMut(u64) -> f64>(trials: u64, base_seed: u64, run: R) -> f64 {
    Stats::sample(trials, base_seed, run).mean
}

/// Parallel [`average`]: fans trials out via [`Stats::sample_par`].
/// Seeds and aggregation order match the serial path, so the result is
/// bit-identical for any thread count.
pub fn average_par<R>(trials: u64, base_seed: u64, run: R) -> f64
where
    R: Fn(u64) -> f64 + Sync,
{
    Stats::sample_par(trials, base_seed, run).mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::{BitArray, ChunkedSource, Context};
    use dr_protocols::MultiCrashMsg;
    use std::sync::{Arc, Mutex};

    #[test]
    fn all_runners_produce_verified_reports() {
        run_naive(64, 4, 1);
        run_single_crash(60, 4, 2, Some(PeerId(1)));
        run_crash_multi(128, 8, 4, 3, 1024, false, 3);
        run_committee(48, 7, 2, 2, 4);
        run_two_cycle(4096, 96, 12, ByzMix::Mixed, 5);
        run_multi_cycle(4096, 96, 8, ByzMix::Silent, 6);
    }

    /// `CrashMultiDownload`, noting after each of its handler calls the
    /// most owner tables of its size that were live at once.
    struct Watched {
        inner: CrashMultiDownload,
        n: usize,
        k: usize,
        peak: Arc<Mutex<usize>>,
    }

    impl Watched {
        fn watch(&self) {
            let live = dr_protocols::crash::live_partitions(self.n, self.k);
            let mut peak = self
                .peak
                .lock()
                .expect("no watcher panics holding the peak");
            *peak = live.max(*peak);
        }
    }

    impl dr_core::Protocol for Watched {
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

    /// The most owner tables live at once in a verified streaming run of
    /// `stream`'s shape (k = 8, b = 2, sim seed 13), with both crashed
    /// peers falling before their `crash_event`-th event. The source's
    /// 17 chunks share a 4-chunk cache, which must stay within its cap
    /// and actually cycle.
    fn peak_owner_tables(crash_event: u64) -> usize {
        // An n no other test uses: the registry is process-wide.
        let (n, k, b) = (16411, 8, 2);
        let geometry = || ChunkedSource::with_geometry(n, 99, 16, 4);
        let source = Arc::new(geometry());
        let peak = Arc::new(Mutex::new(0));
        let watching = Arc::clone(&peak);
        let sim = SimBuilder::new(crash_params(n, k, b, 1 << 12))
            .seed(13)
            .streaming_source(Arc::clone(&source))
            .protocol(move |_| Watched {
                inner: CrashMultiDownload::new(n, k, b),
                n,
                k,
                peak: Arc::clone(&watching),
            })
            .adversary(StandardAdversary::new(
                UniformDelay::new(),
                CrashPlan::before_event([PeerId(0), PeerId(1)], crash_event),
            ))
            .build();
        let report = sim.run().expect("run must terminate");
        report.verify_downloads_source(&geometry()).unwrap();
        let stats = source.stats();
        assert!(stats.peak_resident <= 4, "cache over its cap: {stats:?}");
        assert!(stats.evicted > 0, "cache never cycled: {stats:?}");
        let peak = *peak.lock().expect("no watcher panics holding the peak");
        peak
    }

    #[test]
    fn phase_one_streaming_run_holds_no_owner_table() {
        // Crashing before their third event, the two victims have each
        // answered a request: stage 3 recovers their bits and phase 1 is
        // the whole run. Its owner sets are strides, so no table is live.
        assert_eq!(peak_owner_tables(2), 0);
        // Crashing right after they start, they answer nobody: their bits
        // fall to the hashed phase 2, which does hold a table.
        assert!(peak_owner_tables(1) > 0);
    }

    #[test]
    fn average_averages() {
        assert_eq!(average(4, 0, |s| s as f64), 1.5);
    }
}
