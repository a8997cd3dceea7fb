//! The fault-free balanced Download protocol.
//!
//! With no failures, the Download problem splits evenly: peer `v` queries
//! the `v`-th slice of `⌈n/k⌉` bits, broadcasts it, and assembles the rest
//! from the other peers' broadcasts (§1.2). `Q = ⌈n/k⌉`, `M = O(k²)`
//! chunk messages, and `T = O(n/(ak))` once slices exceed the message size.
//!
//! This protocol is **not fault tolerant**: a single crashed or silent peer
//! deadlocks every other peer (the observation motivating §2), which the
//! tests — and the `lower_bound` experiment — demonstrate.

use dr_core::{BitArray, Context, PartialArray, PeerId, Protocol, ProtocolMessage};

/// A contiguous chunk of input bits, as broadcast by its owner.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// First bit index covered by this chunk.
    pub offset: usize,
    /// The chunk's bits.
    pub bits: BitArray,
}

impl ProtocolMessage for Chunk {
    fn bit_len(&self) -> usize {
        64 + self.bits.len()
    }
}

/// Balanced work-sharing download for the fault-free setting.
///
/// # Examples
///
/// ```
/// use dr_core::ModelParams;
/// use dr_protocols::BalancedDownload;
/// use dr_sim::SimBuilder;
///
/// let params = ModelParams::fault_free(96, 4)?;
/// let sim = SimBuilder::new(params)
///     .protocol(|_| BalancedDownload::new(96, 4))
///     .build();
/// let input = sim.input().clone();
/// let report = sim.run().unwrap();
/// report.verify_downloads(&input).unwrap();
/// assert_eq!(report.max_nonfaulty_queries, 24);
/// # Ok::<(), dr_core::InvalidParamsError>(())
/// ```
#[derive(Debug)]
pub struct BalancedDownload {
    acc: PartialArray,
    out: Option<BitArray>,
}

impl BalancedDownload {
    /// Creates an instance for `n` input bits and `k` peers.
    pub fn new(n: usize, _k: usize) -> Self {
        BalancedDownload {
            acc: PartialArray::new(n),
            out: None,
        }
    }

    fn slice_of(n: usize, k: usize, peer: usize) -> std::ops::Range<usize> {
        let per = n.div_ceil(k);
        (peer * per).min(n)..((peer + 1) * per).min(n)
    }

    fn check_done(&mut self) {
        if self.out.is_none() && self.acc.is_complete() {
            self.out = Some(self.acc.clone().into_complete());
        }
    }
}

impl Protocol for BalancedDownload {
    type Msg = Chunk;

    fn on_start(&mut self, ctx: &mut dyn Context<Chunk>) {
        let range = Self::slice_of(ctx.input_len(), ctx.num_peers(), ctx.me().index());
        let bits = ctx.query_range(range.clone());
        self.acc.learn_slice(range.start, &bits);
        ctx.broadcast(Chunk {
            offset: range.start,
            bits,
        });
        self.check_done();
    }

    fn on_message(&mut self, _from: PeerId, msg: Chunk, _ctx: &mut dyn Context<Chunk>) {
        if msg.offset + msg.bits.len() <= self.acc.len() {
            self.acc.learn_slice(msg.offset, &msg.bits);
        }
        self.check_done();
    }

    fn output(&self) -> Option<&BitArray> {
        self.out.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::{FaultModel, ModelParams};
    use dr_sim::{RunError, SilentAgent, SimBuilder};

    #[test]
    fn balanced_shares_work_evenly() {
        let params = ModelParams::fault_free(1000, 10).unwrap();
        let sim = SimBuilder::new(params)
            .seed(3)
            .protocol(|_| BalancedDownload::new(1000, 10))
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
        assert_eq!(report.max_nonfaulty_queries, 100);
        assert_eq!(report.messages_sent, 90);
    }

    #[test]
    fn uneven_split_still_works() {
        // n not divisible by k: the last slice is shorter (possibly empty).
        let params = ModelParams::fault_free(10, 3).unwrap();
        let sim = SimBuilder::new(params)
            .seed(4)
            .protocol(|_| BalancedDownload::new(10, 3))
            .build();
        let input = sim.input().clone();
        let report = sim.run().unwrap();
        report.verify_downloads(&input).unwrap();
    }

    #[test]
    fn one_silent_peer_deadlocks_balanced() {
        let params = ModelParams::builder(40, 4)
            .faults(FaultModel::Byzantine, 1)
            .build()
            .unwrap();
        let sim = SimBuilder::new(params)
            .seed(5)
            .protocol(|_| BalancedDownload::new(40, 4))
            .byzantine(dr_core::PeerId(0), SilentAgent::new())
            .build();
        assert!(matches!(sim.run(), Err(RunError::Deadlock { .. })));
    }
}
