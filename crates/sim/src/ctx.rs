//! The simulator's [`Context`]: what an agent's handler sees during one
//! step, and the outbox that step fills.

use dr_core::{BitArray, Context, MeterDelta, PeerId, ProtocolMessage, Source};
use rand::rngs::StdRng;
use rand::RngCore;

/// One entry of a step's outbox, in send order.
pub(crate) enum Outgoing<M> {
    /// `Context::send`: one message to one peer (the sender included).
    To(PeerId, M),
    /// `Context::broadcast`: the same message to every peer other than
    /// the sender, in ascending id order.
    Broadcast(M),
}

impl<M> Outgoing<M> {
    /// Point-to-point messages this entry stands for among `k` peers.
    pub(crate) fn fan_out(&self, k: usize) -> usize {
        match self {
            Outgoing::To(..) => 1,
            Outgoing::Broadcast(_) => k - 1,
        }
    }
}

/// The [`Context`] the simulator hands its agents: queries go straight to
/// the raw source with accounting buffered in the run's [`MeterDelta`] —
/// no atomics, no locks — and sends and broadcasts accumulate in the step
/// outbox for the run loop to dispatch.
pub(crate) struct LaneCtx<'a, M> {
    pub(crate) me: PeerId,
    pub(crate) num_peers: usize,
    pub(crate) input_len: usize,
    pub(crate) source: &'a dyn Source,
    pub(crate) delta: &'a mut MeterDelta,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) outbox: &'a mut Vec<Outgoing<M>>,
}

impl<M: ProtocolMessage> Context<M> for LaneCtx<'_, M> {
    fn me(&self) -> PeerId {
        self.me
    }
    fn num_peers(&self) -> usize {
        self.num_peers
    }
    fn input_len(&self) -> usize {
        self.input_len
    }
    fn send(&mut self, to: PeerId, msg: M) {
        self.outbox.push(Outgoing::To(to, msg));
    }
    fn broadcast(&mut self, msg: M) {
        // One outbox entry and one payload slot for the k − 1 messages:
        // the dispatch loop expands it recipient by recipient exactly as
        // the provided loop over `send` would.
        self.outbox.push(Outgoing::Broadcast(msg));
    }
    fn query(&mut self, index: usize) -> bool {
        self.delta.record(self.me, index);
        self.source.bit(index)
    }
    fn query_range(&mut self, range: std::ops::Range<usize>) -> BitArray {
        // Bulk path: one buffered meter update + word-level copy instead
        // of the default per-bit loop. Identical accounting and results.
        self.delta.record_range(self.me, range.clone());
        self.source.bits(range)
    }
    fn query_masked(&mut self, mask: &BitArray) -> BitArray {
        // Same bulk path for a strided query set: one buffered meter
        // update + the source's masked read.
        self.delta.record_masked(self.me, mask);
        self.source.bits_masked(mask)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}
