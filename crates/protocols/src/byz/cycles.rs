//! The cycle engine of the randomized Byzantine protocols (§3.4.2–3.4.3).
//!
//! A plan is a threshold `τ` and a fan-in sequence `(f₁, …, f_C)`, kept as
//! nested segment counts `(p₁, p₁/f₁, …, 1)`: segment `i` of cycle `c + 1`
//! is segments `i·f_c .. (i+1)·f_c` of cycle `c` (see
//! [`Segmentation::range`]), and the last cycle's one segment is the input.
//!
//! In cycle 1 a peer picks a segment uniformly at random, queries it and
//! broadcasts `⟨1, segment, bits⟩`. Each cycle waits for claims from
//! `k − b` distinct peers, `k − 2b ≥ 1` of them honest since `β < 1/2`;
//! a message for a cycle nobody waits on (0, `C`, or beyond) is not heard.
//! When cycle `c`'s wait ends, the peer picks a cycle-`c + 1` segment,
//! determines each of its `f_c` children by a [`DecisionTree`] over the
//! τ-frequent cycle-`c` claims (or directly, if none is τ-frequent), and
//! broadcasts the join, or outputs it in the last cycle. A wrong leaf
//! costs queries, never correctness.
//!
//! Thm 3.7 is one merge of fan-in `p`
//! ([`TwoCycleDownload`](super::TwoCycleDownload), counts `[p, 1]`) and
//! Thm 3.12 is `log₂ p₁` merges of fan-in 2
//! ([`MultiCycleDownload`](super::MultiCycleDownload),
//! `[p₁, p₁/2, …, 1]`). Either naive plan is `[1]`: query the whole input.

use super::decision_tree::DecisionTree;
use super::frequent::CycleClaims;
use super::segment_msg::SegmentMsg;
use dr_core::{BitArray, Context, PeerId, Protocol, SegmentId, Segmentation};
use rand::Rng;

/// The randomized Byzantine protocol run as nested cycles (`β < 1/2`),
/// built from a plan `P` through [`TwoCycleDownload`](super::TwoCycleDownload)
/// or [`MultiCycleDownload`](super::MultiCycleDownload).
#[derive(Debug)]
pub struct CycleDownload<P> {
    plan: P,
    /// The frequency threshold τ.
    tau: usize,
    /// Distinct senders each waiting cycle needs: `k − b`.
    wait: usize,
    /// Each cycle's segmentation, cycle 1 first.
    segs: Vec<Segmentation>,
    /// The inbox of every cycle that is waited on (all but the last).
    claims: Vec<CycleClaims>,
    /// The current cycle, 0-based.
    level: usize,
    /// The peer's own pick in the current cycle, with its bits.
    mine: Option<(SegmentId, BitArray)>,
    out: Option<BitArray>,
    fallback_segments: usize,
}

impl<P> CycleDownload<P> {
    /// An instance for `k` peers, `b` of them Byzantine, whose cycles split
    /// the input into `segments`: cycle 1's count first, each count
    /// dividing the one before, the last `1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `b >= k`, or `segments` is not such a list for
    /// `n` bits.
    pub(crate) fn with_segments(
        n: usize,
        k: usize,
        b: usize,
        plan: P,
        segments: &[usize],
        threshold: usize,
    ) -> Self {
        assert!(k > 0, "need at least one peer");
        assert!(b < k, "fault budget must leave one nonfaulty peer");
        assert!(
            segments.last() == Some(&1)
                && segments.windows(2).all(|w| w[1] < w[0] && w[0] % w[1] == 0),
            "segment counts must each divide the one before, down to 1: {segments:?}"
        );
        let segs: Vec<Segmentation> = segments.iter().map(|&p| Segmentation::new(n, p)).collect();
        let claims = (1..segs.len()).map(|_| CycleClaims::new(k)).collect();
        CycleDownload {
            plan,
            tau: threshold,
            wait: k - b,
            segs,
            claims,
            level: 0,
            mine: None,
            out: None,
            fallback_segments: 0,
        }
    }

    /// The plan in force.
    pub fn plan(&self) -> P
    where
        P: Copy,
    {
        self.plan
    }

    /// Number of segments resolved by direct queries because none of
    /// their strings was τ-frequent (0 w.h.p.).
    pub fn fallback_segments(&self) -> usize {
        self.fallback_segments
    }

    /// Picks a segment of cycle `level` (0-based) and learns its bits: by
    /// querying it in cycle 1, by resolving its children from the previous
    /// cycle's claims after that. Then broadcasts the claim, or outputs
    /// the bits in the last cycle.
    fn claim_next(&mut self, level: usize, ctx: &mut dyn Context<SegmentMsg>) {
        let seg = self.segs[level];
        let pick = SegmentId(ctx.rng().gen_range(0..seg.count()));
        let bits = match level {
            0 => ctx.query_range(seg.range(pick)),
            _ => self.resolve_children(level, pick, ctx),
        };
        if level + 1 == self.segs.len() {
            // No one waits on the last cycle: output without a claim.
            self.out = Some(bits);
            return;
        }
        self.mine = Some((pick, bits.clone()));
        let claim = SegmentMsg {
            cycle: level as u32 + 1,
            segment: pick,
            bits,
        };
        self.claims[level].hear(ctx.me(), claim.clone(), &seg);
        ctx.broadcast(claim);
    }

    /// The bits of segment `pick` of cycle `level`, joined from its
    /// children in cycle `level − 1`: the peer's own pick as it learned
    /// it, every other child by a decision tree over its τ-frequent
    /// claims, or by direct queries if that fails.
    fn resolve_children(
        &mut self,
        level: usize,
        pick: SegmentId,
        ctx: &mut dyn Context<SegmentMsg>,
    ) -> BitArray {
        let (seg, parent) = (self.segs[level - 1], self.segs[level]);
        let fan_in = seg.count() / parent.count();
        let children = pick.index() * fan_in..(pick.index() + 1) * fan_in;
        // Only the pick's children are ever looked up.
        let table = self.claims[level - 1].tally(children.clone());
        let start = parent.range(pick).start;
        let mut joined = BitArray::zeros(parent.len_of(pick));
        for child in children.map(SegmentId) {
            let range = seg.range(child);
            let bits = match &self.mine {
                Some((mine, bits)) if *mine == child => bits.clone(),
                _ => {
                    let tree = DecisionTree::build(&table.frequent(child, self.tau));
                    match tree.determine(range.clone(), &mut |j| ctx.query(j)) {
                        Some(bits) if bits.len() == range.len() => bits,
                        _ => {
                            self.fallback_segments += 1;
                            ctx.query_range(range.clone())
                        }
                    }
                }
            };
            joined.write_at(range.start - start, &bits);
        }
        joined
    }

    /// Ends every cycle whose wait is over.
    fn advance(&mut self, ctx: &mut dyn Context<SegmentMsg>) {
        while self.out.is_none() && self.claims[self.level].heard() >= self.wait {
            self.level += 1;
            self.claim_next(self.level, ctx);
        }
    }
}

impl<P: Send> Protocol for CycleDownload<P> {
    type Msg = SegmentMsg;

    fn on_start(&mut self, ctx: &mut dyn Context<SegmentMsg>) {
        self.claim_next(0, ctx);
        self.advance(ctx);
    }

    fn on_message(&mut self, from: PeerId, msg: SegmentMsg, ctx: &mut dyn Context<SegmentMsg>) {
        if self.out.is_some() {
            return;
        }
        // Claims of a later or an earlier waited-on cycle go to that
        // cycle's inbox; any other message is not heard at all.
        let c = msg.cycle as usize;
        if (1..self.segs.len()).contains(&c) {
            self.claims[c - 1].hear(from, msg, &self.segs[c - 1]);
            self.advance(ctx);
        }
    }

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byz::strategies::{CollusionGroup, RandomNoise};
    use dr_core::{FaultModel, ModelParams};
    use dr_sim::{RunReport, SimBuilder};

    /// A run of the plan `[8, 2, 1]` (fan-ins 4 then 2), which neither
    /// theorem's protocol uses, with colluders and noise aimed at its
    /// cycle-1 segmentation. τ = 3, so the four colluders' fake string is
    /// τ-frequent and costs decision-tree queries.
    fn run_fan_in_4_then_2(seed: u64) -> RunReport {
        let (n, k, b, tau) = (1 << 12, 96, 8, 3);
        let seg = Segmentation::new(n, 8);
        let params = ModelParams::builder(n, k)
            .faults(FaultModel::Byzantine, b)
            .build()
            .unwrap();
        let mut builder = SimBuilder::new(params)
            .seed(seed)
            .protocol(move |_| CycleDownload::with_segments(n, k, b, (), &[8, 2, 1], tau));
        for i in 0..b / 2 {
            builder = builder.byzantine(PeerId(i), CollusionGroup::new(seg, SegmentId(1), 7));
        }
        for i in b / 2..b {
            builder = builder.byzantine(PeerId(i), RandomNoise::new(seg));
        }
        let sim = builder.build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
        report
    }

    #[test]
    fn a_plan_of_neither_theorem_downloads_and_replays() {
        for seed in [1, 2, 3] {
            let report = run_fan_in_4_then_2(seed);
            // A cycle-1 segment is 512 bits and a cycle-2 one 2048: no
            // peer fell back on more than two segments of cycle 1, and
            // none on a segment of cycle 2.
            assert!(report.max_nonfaulty_queries < 2048);
            assert_eq!(
                report.fingerprint(),
                run_fan_in_4_then_2(seed).fingerprint()
            );
        }
    }

    #[test]
    #[should_panic(expected = "must each divide")]
    fn segment_counts_must_nest() {
        CycleDownload::with_segments(64, 4, 1, (), &[6, 4, 1], 2);
    }
}
