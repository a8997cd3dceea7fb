//! Shard lanes: the per-shard mutable state a worker thread owns while a
//! window batch executes, plus the executor abstraction that runs the
//! batches.
//!
//! # The two-pass window execution
//!
//! Under the time-window barrier (see `shard.rs`), all events of one
//! window share a tick, and message latencies ≥ 1 tick guarantee no event
//! in the window can schedule another event into it (the only same-tick
//! append, the pre-start flush, is made by the coordinator between
//! passes). Events with different subject peers therefore touch disjoint
//! mutable state inside a window: agent, RNG and pre-start buffer belong
//! to the subject, a payload slot is shared only among recipients of one
//! shard (a broadcast stores its payload once per destination shard), and
//! peers are partitioned across shards. That makes a window embarrassingly
//! parallel *per shard* — provided everything shared is either read-only
//! (the source, the model parameters) or deferred to a serial pass
//! (adversary hooks, global `seq` stamping, the query meter's atomics).
//!
//! **Pass 1 (parallel).** Each shard's [`Lane`] plus its message slab is
//! moved into a job that processes the shard's honest-subject window
//! events in global sequence order: drop/park decisions from the lane's
//! [`LaneFlags`] mirror, payload takes from the shard slab, handler
//! invocations metering queries into the lane's [`MeterDelta`], and the
//! step's outbox captured per event as a [`Pass1Outcome`]. Nothing
//! global is touched; the lane and slab come back through a result slot.
//!
//! **Pass 2 (serial).** The coordinator walks the window in global
//! sequence order, replaying exactly the serial loop's bookkeeping per
//! event — livelock-guard check, status transitions, pre-start flush
//! pushes (allocating the same `seq` stamps the serial pump would),
//! termination accounting, and the full outbox dispatch with its
//! adversary `on_send` calls against the shared adversary RNG. Byzantine
//! -subject events are not given to lanes at all; the coordinator runs
//! them inline in pass 2, because the serial loop may stop mid-window
//! the moment the last pending honest peer terminates, and a Byzantine
//! handler that the serial pump would never have run must not run here
//! either. (Honest-subject events after that stop point are provably
//! side-effect-free: their subjects have all terminated by then, in lane
//! order, so pass 1 dropped them without running a handler.)
//!
//! Every adversary decision, RNG draw, `seq` stamp, meter count, and
//! agent step therefore happens in exactly the serial order — which is
//! why `RunReport::fingerprint()` is bit-identical for every
//! (shards × threads) combination, and why parallel windows are gated on
//! [`Adversary::parallel_safe`](crate::Adversary::parallel_safe):
//! adversaries whose crash hooks can fire (or that record a trace) fall
//! back to the serial pump, where those hooks interleave exactly.

use crate::agent::Agent;
use crate::shard::{EventKind, MsgSlab, QueuedEvent};
use crate::view::LaneFlags;
use dr_core::{BitArray, Context, MeterDelta, ModelParams, PeerId, ProtocolMessage, Source};
use rand::rngs::StdRng;
use rand::RngCore;
use std::sync::Arc;

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

/// What pass 1 decided (and already did, lane-locally) for one event.
pub(crate) enum Pass1Outcome<M> {
    /// Subject was crashed or terminated; any payload slot was freed.
    Dropped,
    /// Subject had not started; the payload was parked in the lane's
    /// pre-start buffer, keeping its slot.
    Parked,
    /// The handler ran. The coordinator applies the global bookkeeping.
    Stepped {
        /// Whether this was the subject's start event.
        is_start: bool,
        /// Messages the step emitted, in send order.
        outbox: Vec<Outgoing<M>>,
        /// Pre-start buffer drained by a start step (`(from, slot)` in
        /// arrival order), for the coordinator to re-enqueue.
        flush: Vec<(PeerId, u32)>,
        /// `agent.is_terminated()` after the step.
        terminated_after: bool,
    },
}

/// The mutable per-shard half of the simulator state: everything a
/// window batch for this shard's peers needs to own on a worker thread.
/// Peer `p` lives in lane `p % num_shards`, slot `p / num_shards`.
pub(crate) struct Lane<M: ProtocolMessage> {
    pub(crate) shard: usize,
    pub(crate) num_shards: usize,
    pub(crate) agents: Vec<Box<dyn Agent<M>>>,
    pub(crate) rngs: Vec<StdRng>,
    /// Messages that arrived at a peer before its start event, waiting
    /// for it to begin. Entries are `(from, slot)` into the shard slab.
    pub(crate) pre_start: Vec<Vec<(PeerId, u32)>>,
    /// Mirror of the authoritative `PeerStatus` lifecycle bits.
    pub(crate) flags: Vec<LaneFlags>,
    /// Shard-local query buffer, folded into the shared meter at the
    /// window barrier (parallel) or after each step (serial).
    pub(crate) delta: MeterDelta,
    /// Unmetered handle to the source; the lane does its own accounting
    /// through `delta`.
    pub(crate) source: Arc<dyn Source>,
    /// Drained outbox buffers recycled across steps.
    pub(crate) spare_outboxes: Vec<Vec<Outgoing<M>>>,
}

impl<M: ProtocolMessage> Lane<M> {
    /// The lane-local slot of `peer` (which must belong to this lane).
    pub(crate) fn slot_of(&self, peer: PeerId) -> usize {
        debug_assert_eq!(peer.index() % self.num_shards, self.shard);
        peer.index() / self.num_shards
    }

    /// An empty stand-in left behind while the real lane is lent to a
    /// worker thread. Never executes events.
    pub(crate) fn vacated(&self) -> Lane<M> {
        Lane {
            shard: self.shard,
            num_shards: self.num_shards,
            agents: Vec::new(),
            rngs: Vec::new(),
            pre_start: Vec::new(),
            flags: Vec::new(),
            delta: dr_core::QueryMeter::new(0).delta(0, 1),
            source: Arc::clone(&self.source),
            spare_outboxes: Vec::new(),
        }
    }

    /// Pass 1 for this lane: processes `events` (all subjects owned by
    /// this lane, ascending global seq) against the lane's own state and
    /// the shard slab, returning one outcome per event. See the module
    /// docs for the safety argument; adversary crash hooks are not
    /// consulted — the caller guarantees they are inert
    /// (`Adversary::parallel_safe`).
    pub(crate) fn run_window(
        &mut self,
        slab: &mut MsgSlab<M>,
        events: &[QueuedEvent],
        params: &ModelParams,
    ) -> Vec<Pass1Outcome<M>> {
        let mut outcomes = Vec::with_capacity(events.len());
        for ev in events {
            let to = ev.kind.subject();
            let slot_of = self.slot_of(to);
            let flags = self.flags[slot_of];
            if flags.crashed || flags.terminated {
                if let EventKind::Deliver { slot, .. } = ev.kind {
                    slab.release(slot);
                }
                outcomes.push(Pass1Outcome::Dropped);
                continue;
            }
            if !flags.started {
                if let EventKind::Deliver { from, slot, .. } = ev.kind {
                    self.pre_start[slot_of].push((from, slot));
                    outcomes.push(Pass1Outcome::Parked);
                    continue;
                }
            }
            let mut outbox = self.spare_outboxes.pop().unwrap_or_default();
            debug_assert!(outbox.is_empty());
            let is_start = matches!(ev.kind, EventKind::Start(_));
            {
                let agent = &mut self.agents[slot_of];
                let mut ctx = LaneCtx {
                    me: to,
                    num_peers: params.k(),
                    input_len: params.n(),
                    source: &*self.source,
                    delta: &mut self.delta,
                    rng: &mut self.rngs[slot_of],
                    outbox: &mut outbox,
                };
                match ev.kind {
                    EventKind::Start(_) => {
                        self.flags[slot_of].started = true;
                        agent.on_start(&mut ctx);
                    }
                    EventKind::Deliver { from, slot, .. } => {
                        let msg = slab.take(slot);
                        agent.on_message(from, msg, &mut ctx);
                    }
                    EventKind::Retransmit { .. } => {
                        // Retransmit events exist only for lossy runs,
                        // which the eligibility gate keeps on the serial
                        // pump; the coordinator also filters them out of
                        // lane batches defensively.
                        unreachable!("retransmit event handed to a lane")
                    }
                }
            }
            let flush = if is_start {
                std::mem::take(&mut self.pre_start[slot_of])
            } else {
                Vec::new()
            };
            let terminated_after = self.agents[slot_of].is_terminated();
            self.flags[slot_of].terminated = terminated_after;
            outcomes.push(Pass1Outcome::Stepped {
                is_start,
                outbox,
                flush,
                terminated_after,
            });
        }
        outcomes
    }
}

/// The [`Context`] a lane hands its agents: queries go straight to the
/// raw source with accounting buffered in the lane's [`MeterDelta`] — no
/// atomics, no locks — and sends and broadcasts accumulate in the step
/// outbox for the coordinator to dispatch.
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
        // One outbox entry, and one payload slot per destination shard,
        // for the k − 1 messages: the coordinator expands it recipient by
        // recipient exactly as the provided loop over `send` would.
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

/// Runs a window's shard jobs. The simulator is executor-agnostic: the
/// serial executor below runs jobs inline, and `dr_bench::plane`
/// provides the work-stealing pool implementation that shares workers
/// with trial-level parallelism. Implementations must run every job to
/// completion (in any order, on any threads) before returning.
pub trait WindowExecutor: Send + Sync {
    /// Executes all `jobs`, returning only once each has finished.
    fn run_jobs(&self, jobs: Vec<Box<dyn FnOnce() + Send>>);
}

/// Runs window jobs inline on the calling thread — the degenerate
/// executor, useful for exercising the two-pass window path without any
/// worker pool.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialWindowExecutor;

impl WindowExecutor for SerialWindowExecutor {
    fn run_jobs(&self, jobs: Vec<Box<dyn FnOnce() + Send>>) {
        for job in jobs {
            job();
        }
    }
}
