//! The multi-cycle randomized Byzantine Download protocol (§3.4.3,
//! Theorem 3.12): the plan of the [cycle engine](super::cycles) that
//! merges `log₂ p₁` times, with fan-in 2.
//!
//! Cycle 1 is the 2-cycle protocol's sampling step over `p₁` segments
//! (`p₁` a power of two). In every later cycle `c`, the segment size
//! doubles (`p_c = p₁ / 2^{c−1}`): each peer samples one cycle-`c` segment
//! uniformly, *determines* its two cycle-`(c−1)` halves by decision trees
//! over the τ-frequent cycle-`(c−1)` claims (Lemma 3.10: those halves were
//! each sampled by ≥ τ heard honest peers w.h.p., so the true strings are
//! leaves), joins them, and broadcasts the result. After `log₂ p₁ + 1`
//! cycles the sampled segment is the entire input and the peer outputs
//! it. The expected per-peer query cost is
//! `ℓ₁ + O(Σ_c received_c / p_c)` — `Õ(n/k + k)` for the paper's
//! parameters.

use super::cycles::CycleDownload;

/// Parameter selection for the multi-cycle protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MultiCyclePlan {
    /// Sampled mode.
    Sampled {
        /// Cycle-1 segment count (a power of two ≥ 2).
        initial_segments: usize,
        /// Frequency threshold τ.
        threshold: usize,
        /// Total number of cycles (`log₂ initial_segments + 1`).
        cycles: u32,
    },
    /// Degenerate regime: query everything directly.
    Naive,
}

impl MultiCyclePlan {
    /// Chooses parameters for `n` bits, `k` peers, `b` Byzantine peers,
    /// falling back to naive when sampling cannot work (`β ≥ 1/2` or too
    /// few honest peers per segment).
    pub fn choose(n: usize, k: usize, b: usize) -> Self {
        if 2 * b >= k {
            return MultiCyclePlan::Naive;
        }
        let h = k - 2 * b;
        let tau = super::two_cycle::TwoCyclePlan::default_threshold(n, k);
        let p_max = (h / (2 * tau)).min(n);
        if p_max < 2 {
            return MultiCyclePlan::Naive;
        }
        // Largest power of two ≤ p_max.
        let p1 = 1usize << (usize::BITS - 1 - p_max.leading_zeros());
        MultiCyclePlan::Sampled {
            initial_segments: p1,
            threshold: tau,
            cycles: p1.trailing_zeros() + 1,
        }
    }
}

/// The multi-cycle randomized protocol of Theorem 3.12 (`β < 1/2`):
/// [`CycleDownload`] with segment counts `[p₁, p₁/2, …, 1]`.
///
/// # Examples
///
/// ```
/// use dr_core::{FaultModel, ModelParams};
/// use dr_protocols::MultiCycleDownload;
/// use dr_sim::SimBuilder;
///
/// let (n, k, b) = (4096, 96, 8);
/// let params = ModelParams::builder(n, k)
///     .faults(FaultModel::Byzantine, b)
///     .build()?;
/// let sim = SimBuilder::new(params)
///     .seed(2)
///     .protocol(move |_| MultiCycleDownload::new(n, k, b))
///     .build();
/// let input = sim.input().clone();
/// let report = sim.run().unwrap();
/// report.verify_downloads(&input).unwrap();
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
pub type MultiCycleDownload = CycleDownload<MultiCyclePlan>;

impl CycleDownload<MultiCyclePlan> {
    /// Creates an instance with automatically chosen parameters.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `b >= k`.
    pub fn new(n: usize, k: usize, b: usize) -> Self {
        Self::with_plan(n, k, b, MultiCyclePlan::choose(n, k, b))
    }

    /// Creates an instance with an explicit plan (for experiments).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent plans (non-power-of-two segment count, more
    /// segments than bits, or a cycle count that does not match).
    pub fn with_plan(n: usize, k: usize, b: usize, plan: MultiCyclePlan) -> Self {
        match plan {
            MultiCyclePlan::Sampled {
                initial_segments,
                threshold,
                cycles,
            } => {
                assert!(initial_segments.is_power_of_two() && initial_segments >= 2);
                assert!(initial_segments <= n, "more segments than bits");
                assert_eq!(cycles, initial_segments.trailing_zeros() + 1);
                let segments: Vec<usize> = (0..cycles).map(|c| initial_segments >> c).collect();
                Self::with_segments(n, k, b, plan, &segments, threshold)
            }
            MultiCyclePlan::Naive => Self::with_segments(n, k, b, plan, &[1], 1),
        }
    }

    /// Chaos-campaign invariant envelope, aware of the plan
    /// [`MultiCyclePlan::choose`] selects. Sampled cycles halve the
    /// segment count, so the worst-case sampled total is
    /// `Σ_c n/p_c < 2n·(1/p₁)·p₁ = 2n` plus fallback slack; time grows
    /// with the cycle count.
    pub fn cost_envelope(n: usize, k: usize, b: usize) -> crate::CostEnvelope {
        match MultiCyclePlan::choose(n, k, b) {
            MultiCyclePlan::Naive => crate::CostEnvelope {
                q_max: n as u64 + 8,
                t_base: 24.0,
                t_per_release: 4.0,
                t_per_retry: 0.0,
                t_link_slack: 0.0,
            },
            MultiCyclePlan::Sampled { cycles, .. } => crate::CostEnvelope {
                q_max: 2 * n as u64 + 16,
                t_base: 16.0 + 8.0 * cycles as f64,
                t_per_release: 4.0,
                t_per_retry: 0.0,
                t_link_slack: 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byz::strategies::{CollusionGroup, RandomNoise};
    use dr_core::{BitArray, FaultModel, ModelParams, PeerId, SegmentId, Segmentation};
    use dr_sim::{RunReport, SilentAgent, SimBuilder};

    fn params(n: usize, k: usize, b: usize) -> ModelParams {
        ModelParams::builder(n, k)
            .faults(FaultModel::Byzantine, b)
            .build()
            .unwrap()
    }

    fn run_benign(seed: u64, n: usize, k: usize, b: usize) -> (RunReport, BitArray) {
        let sim = SimBuilder::new(params(n, k, b))
            .seed(seed)
            .protocol(move |_| MultiCycleDownload::new(n, k, b))
            .build();
        let input = sim.input().clone();
        (sim.run().unwrap(), input)
    }

    #[test]
    fn plan_initial_segments_is_power_of_two() {
        match MultiCyclePlan::choose(1 << 16, 512, 64) {
            MultiCyclePlan::Sampled {
                initial_segments,
                cycles,
                ..
            } => {
                assert!(initial_segments.is_power_of_two());
                assert_eq!(cycles, initial_segments.trailing_zeros() + 1);
            }
            MultiCyclePlan::Naive => panic!("expected sampled plan"),
        }
    }

    #[test]
    fn plan_majority_faults_degrades_to_naive() {
        assert_eq!(
            MultiCyclePlan::choose(1 << 16, 64, 32),
            MultiCyclePlan::Naive
        );
    }

    #[test]
    fn all_honest_run_completes_correctly() {
        let (n, k) = (1 << 14, 160);
        let (report, input) = run_benign(1, n, k, 0);
        report.verify_downloads(&input).unwrap();
        assert!(
            report.max_nonfaulty_queries < (n / 2) as u64,
            "Q = {}",
            report.max_nonfaulty_queries
        );
    }

    #[test]
    fn byzantine_mix_is_tolerated() {
        let (n, k, b) = (1 << 13, 128, 16);
        let plan = MultiCyclePlan::choose(n, k, b);
        let p1 = match plan {
            MultiCyclePlan::Sampled {
                initial_segments, ..
            } => initial_segments,
            MultiCyclePlan::Naive => panic!("expected sampled"),
        };
        let seg = Segmentation::new(n, p1);
        let mut builder = SimBuilder::new(params(n, k, b))
            .seed(2)
            .protocol(move |_| MultiCycleDownload::new(n, k, b));
        for i in 0..6 {
            builder = builder.byzantine(PeerId(i), SilentAgent::new());
        }
        for i in 6..11 {
            builder = builder.byzantine(PeerId(i), CollusionGroup::new(seg, SegmentId(0), 3));
        }
        for i in 11..16 {
            builder = builder.byzantine(PeerId(i), RandomNoise::new(seg));
        }
        let sim = builder.build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
    }

    #[test]
    fn reproducible_under_same_seed() {
        let (r1, _) = run_benign(7, 1 << 12, 96, 8);
        let (r2, _) = run_benign(7, 1 << 12, 96, 8);
        assert_eq!(r1.query_counts, r2.query_counts);
        assert_eq!(r1.virtual_time_ticks, r2.virtual_time_ticks);
    }

    #[test]
    fn naive_fallback_for_small_networks() {
        let (report, input) = run_benign(3, 512, 8, 2);
        report.verify_downloads(&input).unwrap();
        assert_eq!(report.max_nonfaulty_queries, 512);
    }
}
