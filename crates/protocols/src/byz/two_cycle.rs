//! The 2-cycle randomized Byzantine Download protocol (Protocol 4, §3.4.2,
//! Theorem 3.7).
//!
//! The input is split into `p` segments of length `ℓ ≈ n/p`. Each peer
//! samples one segment uniformly at random, queries it completely, and
//! broadcasts `⟨segment, string⟩`. After hearing claims from `k − b` peers
//! (waiting for more risks deadlock; at least `k − 2b` of them are honest,
//! which is why the protocol needs `β < 1/2`), the peer resolves every
//! other segment by building a decision tree over the claims received from
//! at least `τ` distinct senders (τ-frequent strings) and walking it with
//! direct source queries.
//!
//! Parameters are chosen so that, w.h.p., every segment was sampled by at
//! least `τ` of the honest peers each receiver heard: with
//! `h = k − 2b` guaranteed honest claims and `p ≤ h/(2τ)` segments, the
//! expected per-segment honest count is at least `2τ` and Chernoff gives
//! the high-probability bound (Claim 5). Byzantine claims never corrupt the
//! output — a wrong leaf is eliminated by the separating-index queries —
//! they only add `O(received/τ)` extra queries.
//!
//! Per-peer cost: `Q = ℓ + O(k)` which for the paper's parameter choices is
//! `Õ(n/(γk) + k)`; when the fallback regime applies (tiny `k`, huge `β`,
//! or `n` too small) the protocol degrades to the naive `Q = n`, mirroring
//! the paper's case analysis.

use super::decision_tree::DecisionTree;
use super::frequent::CycleClaims;
use super::segment_msg::SegmentMsg;
use dr_core::{BitArray, Context, PartialArray, PeerId, Protocol, SegmentId, Segmentation};
use rand::Rng;

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

/// The 2-cycle randomized protocol of Theorem 3.7 (`β < 1/2`).
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
#[derive(Debug)]
pub struct TwoCycleDownload {
    n: usize,
    k: usize,
    b: usize,
    plan: TwoCyclePlan,
    seg: Option<Segmentation>,
    my_pick: Option<SegmentId>,
    my_bits: Option<BitArray>,
    /// Cycle-1 claims, counted when the `k − b` wait ends.
    claims: CycleClaims,
    out: Option<BitArray>,
    /// Segments with no τ-frequent string, resolved by direct queries
    /// (should be empty w.h.p.; exposed for experiments).
    fallback_segments: usize,
}

impl TwoCycleDownload {
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
        assert!(k > 0, "need at least one peer");
        assert!(b < k, "fault budget must leave one nonfaulty peer");
        let seg = match plan {
            TwoCyclePlan::Sampled { segments, .. } => {
                assert!(segments >= 2 && segments <= n, "invalid segment count");
                Some(Segmentation::new(n, segments))
            }
            TwoCyclePlan::Naive => None,
        };
        TwoCycleDownload {
            n,
            k,
            b,
            plan,
            seg,
            my_pick: None,
            my_bits: None,
            claims: CycleClaims::new(k, 1),
            out: None,
            fallback_segments: 0,
        }
    }

    /// The plan in force (naive fallback or sampled parameters).
    pub fn plan(&self) -> TwoCyclePlan {
        self.plan
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

    /// Number of segments resolved by the direct-query fallback (0 w.h.p.).
    pub fn fallback_segments(&self) -> usize {
        self.fallback_segments
    }

    fn threshold(&self) -> usize {
        match self.plan {
            TwoCyclePlan::Sampled { threshold, .. } => threshold,
            TwoCyclePlan::Naive => 1,
        }
    }

    /// Cycle 2: resolve every segment via decision trees and terminate.
    fn determine_all(&mut self, ctx: &mut dyn Context<SegmentMsg>) {
        let seg = self.seg.expect("sampled mode");
        let tau = self.threshold();
        let table = self.claims.tally(0..seg.count());
        let mut acc = PartialArray::new(self.n);
        for id in seg.ids() {
            let range = seg.range(id);
            if Some(id) == self.my_pick {
                acc.learn_slice(
                    range.start,
                    self.my_bits.as_ref().expect("queried own pick"),
                );
                continue;
            }
            let frequent = table.frequent(id, tau);
            let tree = DecisionTree::build(&frequent);
            let resolved = tree.determine(range.clone(), &mut |j| ctx.query(j));
            match resolved {
                Some(bits) if bits.len() == range.len() => {
                    acc.learn_slice(range.start, &bits);
                }
                _ => {
                    // No τ-frequent string (low-probability event): fall
                    // back to querying the segment directly.
                    self.fallback_segments += 1;
                    let bits = ctx.query_range(range.clone());
                    acc.learn_slice(range.start, &bits);
                }
            }
        }
        self.out = Some(acc.into_complete());
    }

    fn maybe_advance(&mut self, ctx: &mut dyn Context<SegmentMsg>) {
        if self.out.is_none() && self.claims.heard() >= self.k - self.b {
            self.determine_all(ctx);
        }
    }
}

impl Protocol for TwoCycleDownload {
    type Msg = SegmentMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<SegmentMsg>) {
        match self.plan {
            TwoCyclePlan::Naive => {
                self.out = Some(ctx.query_range(0..self.n));
            }
            TwoCyclePlan::Sampled { segments, .. } => {
                let pick = SegmentId(ctx.rng().gen_range(0..segments));
                let seg = self.seg.expect("sampled mode");
                let bits = ctx.query_range(seg.range(pick));
                self.my_pick = Some(pick);
                self.my_bits = Some(bits.clone());
                let claim = SegmentMsg {
                    cycle: 1,
                    segment: pick,
                    bits,
                };
                self.claims.hear(ctx.me(), claim.clone(), &seg);
                ctx.broadcast(claim);
                self.maybe_advance(ctx);
            }
        }
    }

    fn on_message(&mut self, from: PeerId, msg: SegmentMsg, ctx: &mut dyn Context<SegmentMsg>) {
        if self.out.is_some() || self.seg.is_none() {
            return;
        }
        let seg = self.seg.expect("sampled mode");
        // Any first message from a sender counts toward progress; only
        // well-formed cycle-1 claims are logged for the tally.
        self.claims.hear(from, msg, &seg);
        self.maybe_advance(ctx);
    }

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byz::strategies::{CollusionGroup, Equivocator, RandomNoise};
    use dr_core::{FaultModel, ModelParams};
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
