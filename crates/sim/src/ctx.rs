//! The simulator's [`Context`]: what an agent's handler sees during one
//! step, the outbox that step fills, and the meter its queries charge.

use dr_core::collections::DetMap;
use dr_core::{BitArray, Context, PeerId, ProtocolMessage, Source};
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

/// The simulator's query meter. One thread runs every step, so the
/// counters are plain integers the run owns; under
/// `SimBuilder::track_query_indices` each peer's log also records every
/// queried index in issue order, for the lower-bound adversaries.
pub(crate) struct Meter {
    pub(crate) counts: Vec<u64>,
    pub(crate) logs: Option<Vec<Vec<usize>>>,
}

impl Meter {
    pub(crate) fn new(num_peers: usize, track_indices: bool) -> Self {
        Meter {
            counts: vec![0; num_peers],
            logs: track_indices.then(|| vec![Vec::new(); num_peers]),
        }
    }

    fn record(&mut self, peer: PeerId, index: usize) {
        self.counts[peer.index()] += 1;
        if let Some(logs) = &mut self.logs {
            logs[peer.index()].push(index);
        }
    }

    /// One bit charged per bit of `range`, logged in ascending order —
    /// exactly a [`Meter::record`] per index.
    fn record_range(&mut self, peer: PeerId, range: std::ops::Range<usize>) {
        self.counts[peer.index()] += range.len() as u64;
        if let Some(logs) = &mut self.logs {
            logs[peer.index()].extend(range);
        }
    }

    /// One bit charged per set bit of `mask`, logged in ascending order —
    /// exactly a [`Meter::record`] per set index.
    fn record_masked(&mut self, peer: PeerId, mask: &BitArray) {
        self.counts[peer.index()] += mask.count_ones() as u64;
        if let Some(logs) = &mut self.logs {
            logs[peer.index()].extend(mask.ones());
        }
    }
}

/// Every range a peer of the run has read with `query_range`, keyed by
/// `(start, end)`, holding the first read's array. The source is static
/// (§4, [`Source`]'s contract), so a later reader of the same range gets
/// that array again: honest peers that query one range hold one buffer,
/// and comparing their answers is a pointer check. The map holds one
/// array per distinct range queried: for the in-tree protocols, one per
/// segment of the segmentations they read, or one `0..n` array for the
/// naive protocol where there were `k` copies.
pub(crate) type RangeReads = DetMap<(usize, usize), BitArray>;

/// The [`Context`] the simulator hands its agents: queries read the
/// source (a repeated range from [`RangeReads`]) and charge the run's
/// [`Meter`], and sends and broadcasts accumulate in the step outbox for
/// the run loop to dispatch.
pub(crate) struct LaneCtx<'a, M> {
    pub(crate) me: PeerId,
    pub(crate) num_peers: usize,
    pub(crate) input_len: usize,
    pub(crate) source: &'a dyn Source,
    pub(crate) reads: &'a mut RangeReads,
    pub(crate) meter: &'a mut Meter,
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
        self.meter.record(self.me, index);
        self.source.bit(index)
    }
    fn query_range(&mut self, range: std::ops::Range<usize>) -> BitArray {
        // Bulk path: one meter update instead of the default per-bit loop,
        // and the source read once per distinct range; every reader is
        // charged the full range all the same. A reader that mutates its
        // answer un-shares it (copy-on-write), leaving the stored read
        // intact for the next one.
        self.meter.record_range(self.me, range.clone());
        let source = self.source;
        self.reads
            .entry((range.start, range.end))
            .or_insert_with(|| source.bits(range))
            .clone()
    }
    fn query_masked(&mut self, mask: &BitArray) -> BitArray {
        // Same bulk path for a strided query set: one meter update + the
        // source's masked read.
        self.meter.record_masked(self.me, mask);
        self.source.bits_masked(mask)
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_records_match_per_bit_records_in_counts_and_log_order() {
        let n = 2 * 64 + 5;
        let mask = BitArray::from_fn(n, |i| i % 3 == 0 || (60..70).contains(&i));
        for track in [true, false] {
            let (mut bulk, mut per_bit) = (Meter::new(3, track), Meter::new(3, track));
            // Interleaved peers, an empty range and a repeated index: each
            // log must keep its own peer's issue order.
            bulk.record(PeerId(1), 7);
            bulk.record_range(PeerId(0), 3..9);
            bulk.record_range(PeerId(0), 9..9);
            bulk.record_masked(PeerId(1), &mask);
            bulk.record_range(PeerId(1), 2..6);
            bulk.record(PeerId(0), 4);
            per_bit.record(PeerId(1), 7);
            (3..9).for_each(|i| per_bit.record(PeerId(0), i));
            mask.ones().for_each(|i| per_bit.record(PeerId(1), i));
            (2..6).for_each(|i| per_bit.record(PeerId(1), i));
            per_bit.record(PeerId(0), 4);
            assert_eq!(bulk.counts, per_bit.counts);
            assert_eq!(bulk.counts, [7, 1 + mask.count_ones() as u64 + 4, 0]);
            assert_eq!(bulk.logs, per_bit.logs);
            match bulk.logs {
                Some(logs) => {
                    assert_eq!(logs[0], [3, 4, 5, 6, 7, 8, 4]);
                    assert!(logs[2].is_empty());
                }
                None => assert!(!track, "tracking on keeps a log"),
            }
        }
    }
}
