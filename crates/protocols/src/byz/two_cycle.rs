//! The 2-cycle randomized Byzantine Download protocol (Protocol 4, §3.4.2,
//! Theorem 3.7): the plan of the [cycle engine](super::cycles) that
//! merges once, with fan-in `p`.
//!
//! The input is split into `p` segments of length `ℓ ≈ n/p`. Each peer
//! samples one segment uniformly at random, queries it completely, and
//! broadcasts `⟨1, segment, string⟩`. After hearing claims from `k − b`
//! peers it resolves every other segment by a decision tree over the
//! τ-frequent strings and outputs the whole input.
//!
//! Parameters are chosen so that, w.h.p., every segment was sampled by at
//! least `τ` of the honest peers each receiver heard: with
//! `h = k − 2b` guaranteed honest claims and `p ≤ h/(2τ)` segments, the
//! expected per-segment honest count is at least `2τ` and Chernoff gives
//! the high-probability bound (Claim 5). Byzantine claims only add
//! `O(received/τ)` extra queries.
//!
//! Per-peer cost: `Q = ℓ + O(k)` which for the paper's parameter choices is
//! `Õ(n/(γk) + k)`; when the fallback regime applies (tiny `k`, huge `β`,
//! or `n` too small) the protocol degrades to the naive `Q = n`, mirroring
//! the paper's case analysis.

use super::cycles::CycleDownload;

/// Parameter selection for the 2-cycle protocol (the paper's three-case
/// analysis, reconstructed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TwoCyclePlan {
    /// Sampled mode: `p` segments, threshold `τ`.
    Sampled {
        /// Number of segments.
        segments: usize,
        /// Frequency threshold τ.
        threshold: usize,
    },
    /// Degenerate regime: query the whole input directly (Case 3).
    Naive,
}

impl TwoCyclePlan {
    /// Chooses parameters for `n` bits, `k` peers, `b` Byzantine peers.
    ///
    /// `h = k − 2b` honest claims are guaranteed among any `k − b` heard;
    /// τ is logarithmic in the instance size and `p = h/(2τ)` segments
    /// keep every segment τ-covered w.h.p. Falls back to naive when the
    /// arithmetic leaves fewer than two segments (or `β ≥ 1/2`).
    pub fn choose(n: usize, k: usize, b: usize) -> Self {
        if 2 * b >= k {
            return TwoCyclePlan::Naive;
        }
        let h = k - 2 * b;
        let tau = Self::default_threshold(n, k);
        let p = (h / (2 * tau)).min(n);
        if p < 2 {
            TwoCyclePlan::Naive
        } else {
            TwoCyclePlan::Sampled {
                segments: p,
                threshold: tau,
            }
        }
    }

    /// The default frequency threshold `τ = max(2, ⌈ln(nk)⌉)`.
    pub fn default_threshold(n: usize, k: usize) -> usize {
        (((n.max(2) * k.max(2)) as f64).ln().ceil() as usize).max(2)
    }
}

/// The 2-cycle randomized protocol of Theorem 3.7 (`β < 1/2`):
/// [`CycleDownload`] with segment counts `[p, 1]`.
///
/// # Examples
///
/// ```
/// use dr_core::{FaultModel, ModelParams};
/// use dr_protocols::TwoCycleDownload;
/// use dr_sim::SimBuilder;
///
/// let (n, k, b) = (4096, 256, 32);
/// let params = ModelParams::builder(n, k)
///     .faults(FaultModel::Byzantine, b)
///     .build()?;
/// let sim = SimBuilder::new(params)
///     .seed(1)
///     .protocol(move |_| TwoCycleDownload::new(n, k, b))
///     .build();
/// let input = sim.input().clone();
/// let report = sim.run().unwrap();
/// report.verify_downloads(&input).unwrap();
/// // Far below the naive n queries.
/// assert!(report.max_nonfaulty_queries < n as u64 / 2);
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
pub type TwoCycleDownload = CycleDownload<TwoCyclePlan>;

impl CycleDownload<TwoCyclePlan> {
    /// Creates an instance with automatically chosen parameters.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `b >= k`.
    pub fn new(n: usize, k: usize, b: usize) -> Self {
        Self::with_plan(n, k, b, TwoCyclePlan::choose(n, k, b))
    }

    /// Creates an instance with an explicit parameter plan (used by the
    /// experiment harness to sweep `p` and `τ`).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `b >= k`, or a sampled plan has fewer than two
    /// segments or more segments than bits.
    pub fn with_plan(n: usize, k: usize, b: usize, plan: TwoCyclePlan) -> Self {
        match plan {
            TwoCyclePlan::Sampled {
                segments,
                threshold,
            } => {
                assert!(segments >= 2 && segments <= n, "invalid segment count");
                Self::with_segments(n, k, b, plan, &[segments, 1], threshold)
            }
            TwoCyclePlan::Naive => Self::with_segments(n, k, b, plan, &[1], 1),
        }
    }

    /// Chaos-campaign invariant envelope, aware of the plan
    /// [`TwoCyclePlan::choose`] selects for `(n, k, b)`. Under the naive
    /// plan every peer queries exactly `n` bits. Under a sampled plan the
    /// per-peer cost is `2ℓ` sampled bits plus, for each unresolved
    /// segment, an `ℓ`-bit direct fallback — zero w.h.p. but legal, so the
    /// sound cap is `2ℓ + n`; it still catches runaway re-querying.
    pub fn cost_envelope(n: usize, k: usize, b: usize) -> crate::CostEnvelope {
        let q_max = match TwoCyclePlan::choose(n, k, b) {
            TwoCyclePlan::Naive => n as u64 + 8,
            TwoCyclePlan::Sampled { segments, .. } => {
                let ell = n.div_ceil(segments) as u64;
                2 * ell + n as u64 + 16
            }
        };
        crate::CostEnvelope {
            q_max,
            t_base: 24.0,
            t_per_release: 4.0,
            t_per_retry: 0.0,
            t_link_slack: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byz::strategies::{CollusionGroup, Equivocator, RandomNoise};
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
            .protocol(move |_| TwoCycleDownload::new(n, k, b))
            .build();
        let input = sim.input().clone();
        (sim.run().unwrap(), input)
    }

    #[test]
    fn plan_picks_naive_for_majority_faults() {
        assert_eq!(TwoCyclePlan::choose(1000, 10, 5), TwoCyclePlan::Naive);
        assert_eq!(TwoCyclePlan::choose(1000, 4, 1), TwoCyclePlan::Naive);
    }

    #[test]
    fn plan_samples_for_large_networks() {
        match TwoCyclePlan::choose(1 << 16, 512, 64) {
            TwoCyclePlan::Sampled {
                segments,
                threshold,
            } => {
                assert!(segments >= 2);
                assert!(threshold >= 2);
                // p ≤ h / (2τ)
                assert!(segments <= (512 - 128) / (2 * threshold));
            }
            TwoCyclePlan::Naive => panic!("expected sampled plan"),
        }
    }

    #[test]
    fn all_honest_run_is_cheap_and_correct() {
        let (n, k) = (1 << 14, 128);
        let plan = TwoCyclePlan::choose(n, k, 0);
        let p = match plan {
            TwoCyclePlan::Sampled { segments, .. } => segments,
            TwoCyclePlan::Naive => panic!("expected sampled"),
        };
        let (report, input) = run_benign(1, n, k, 0);
        report.verify_downloads(&input).unwrap();
        // Structural bound of Theorem 3.7: Q ≤ ℓ + O(k).
        let bound = (n / p + 4 * k) as u64;
        assert!(
            report.max_nonfaulty_queries <= bound,
            "Q = {} exceeds ℓ + O(k) = {bound}",
            report.max_nonfaulty_queries
        );
        assert!(report.max_nonfaulty_queries < n as u64 / 2);
    }

    #[test]
    fn silent_byzantine_minority_is_tolerated() {
        let (n, k, b) = (1 << 13, 96, 12);
        let mut builder = SimBuilder::new(params(n, k, b))
            .seed(2)
            .protocol(move |_| TwoCycleDownload::new(n, k, b));
        for i in 0..b {
            builder = builder.byzantine(PeerId(i), SilentAgent::new());
        }
        let sim = builder.build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
    }

    #[test]
    fn equivocators_and_colluders_never_corrupt() {
        let (n, k, b) = (1 << 13, 96, 12);
        let plan = TwoCyclePlan::choose(n, k, b);
        let seg = match plan {
            TwoCyclePlan::Sampled { segments, .. } => Segmentation::new(n, segments),
            TwoCyclePlan::Naive => panic!("expected sampled"),
        };
        let mut builder = SimBuilder::new(params(n, k, b))
            .seed(3)
            .protocol(move |_| TwoCycleDownload::new(n, k, b));
        // 4 equivocators, 4 colluders on one fake string, 4 noise makers.
        for i in 0..4 {
            builder = builder.byzantine(PeerId(i), Equivocator::new(seg, SegmentId(0)));
        }
        for i in 4..8 {
            builder = builder.byzantine(PeerId(i), CollusionGroup::new(seg, SegmentId(1), 99));
        }
        for i in 8..12 {
            builder = builder.byzantine(PeerId(i), RandomNoise::new(seg));
        }
        let sim = builder.build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
    }

    #[test]
    fn colluders_above_threshold_only_cost_queries() {
        // A collusion group of size ≥ τ injects a τ-frequent fake string;
        // output must still be correct.
        let (n, k, b) = (1 << 13, 128, 24);
        let plan = TwoCyclePlan::choose(n, k, b);
        let (seg, tau) = match plan {
            TwoCyclePlan::Sampled {
                segments,
                threshold,
            } => (Segmentation::new(n, segments), threshold),
            TwoCyclePlan::Naive => panic!("expected sampled"),
        };
        assert!(b >= tau, "test needs enough colluders to cross τ");
        let mut builder = SimBuilder::new(params(n, k, b))
            .seed(4)
            .protocol(move |_| TwoCycleDownload::new(n, k, b));
        for i in 0..b {
            builder = builder.byzantine(PeerId(i), CollusionGroup::new(seg, SegmentId(0), 5));
        }
        let sim = builder.build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
    }

    #[test]
    fn naive_plan_matches_naive_cost() {
        let (report, input) = run_benign(5, 256, 6, 2);
        report.verify_downloads(&input).unwrap();
        assert_eq!(report.max_nonfaulty_queries, 256);
    }

    #[test]
    fn seeds_are_reproducible() {
        let (r1, _) = run_benign(9, 4096, 64, 8);
        let (r2, _) = run_benign(9, 4096, 64, 8);
        assert_eq!(r1.query_counts, r2.query_counts);
    }
}
