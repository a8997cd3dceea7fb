//! The discrete-event simulator for asynchronous faulty executions.
//!
//! [`Simulation`] drives a set of [`Agent`]s (honest protocol instances and
//! Byzantine behaviours) under an [`Adversary`] that controls start times,
//! message latencies, holds, and crashes, while metering queries, messages,
//! and virtual time. The semantics follow §1.2 of the paper:
//!
//! * every event-handler invocation is one atomic local step; the peer may
//!   query the source synchronously and emit messages;
//! * the adversary fixes each message's (finite) latency when it is sent,
//!   or holds it; held messages must be released at quiescence (§3.1);
//! * crashes happen only between steps — either immediately before an
//!   event is processed or mid-way through the outgoing batch of a step
//!   ("the peer has sent some, but perhaps not all, of its messages");
//! * a message longer than the model's `a` bits is charged as
//!   `⌈len/a⌉` packets and its delivery takes proportionally longer.
//!
//! # Hot-loop layout
//!
//! Message payloads never live inside queued events. Every in-flight or
//! held payload sits in a slab (see the `shard` module) with its sender
//! and is addressed by a `u32` slot, so a queued event is 8 bytes — the
//! recipient and the slot — appended to the bucket of its tick, and no
//! `BitArray` moves with it. A slot counts its owners — queued `Deliver`
//! and `Retransmit` events, held messages, pre-start buffer entries (bare
//! slots) — and the last one to consume or drop its message frees it. A
//! step's outbox records a broadcast as one entry and the dispatch loop
//! stores its payload once, so a k-recipient broadcast of an n-bit
//! payload costs one slot and k − 1 owner counts — not k − 1 slots,
//! payload clones and O(k·n) copied bits — while the adversary is still
//! consulted, and M, bits, queue entries and the trace are still charged,
//! per recipient and in `send` order.
//!
//! What a message meets after its sender's step is one `Network`: the
//! pump and its slab, held messages, the link-fault plane, pending
//! resends, the four link counters and the trace. Its `transmit` is the
//! one delivery step, shared by a send (attempt 0), a backed-off resend
//! (attempt `a ≥ 1`, the original latency) and a compelled release at
//! quiescence (latency 1, never dropped). It parks the message behind
//! an active cut; otherwise, on a lossy link, it lets `on_transmit` drop
//! the attempt and then schedules the resend; otherwise it queues the
//! delivery. No message is ever lost on the way: links are reliable, as
//! in the model, and a drop only delays. A payload whose recipient is
//! dead leaves through `Network::drop_payload`, which frees its claim and
//! records the `Drop`.
//!
//! # One pump, one order
//!
//! The paper's adversary decides every delivery, hold and crash against
//! the whole history, so Q, T and M are defined over one global order of
//! events. The run loop is that order: it pops one event at a time, runs
//! the subject's handler, and dispatches its outbox before the next pop.
//! Per-peer state (agent, RNG, pre-start buffer) sits in flat vectors
//! indexed by `PeerId`; the contiguous [`PeerStatus`] vector is the only
//! copy of the lifecycle bits and the read-only core every adversary
//! `View` borrows. Queries charge the run's own meter — plain per-peer
//! counters, and index logs when tracking is on — with no atomic or lock,
//! because nothing reads it until the run ends.

use crate::adversary::{Adversary, Delivery, HeldInfo, Release};
use crate::agent::Agent;
use crate::ctx::{LaneCtx, Meter, Outgoing};
use crate::linkfault::{backoff, LinkDecision, RuntimeLinkState};
use crate::report::{RunError, RunReport};
use crate::shard::{EventKind, EventPump};
use crate::time::{Ticks, TICKS_PER_UNIT};
use crate::trace::TraceEntry;
use crate::view::{PeerRole, PeerStatus, View};
use dr_core::collections::DetMap;
use dr_core::{BitArray, ModelParams, PeerId, PeerSet, ProtocolMessage, Source};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One message on its way to one recipient, whose delivery owns `slot`.
#[derive(Clone, Copy)]
struct Transit {
    from: PeerId,
    to: PeerId,
    slot: u32,
    /// The latency fixed at send (1 for a held message, delivered the
    /// tick after its release), reused by every resend so the RNG draw
    /// count is schedule-stable.
    latency: Ticks,
    packets: u64,
}

struct HeldMessage {
    msg: Transit,
    sent_at: Ticks,
}

/// A dropped message awaiting its resend, keyed by `(to, slot)` in
/// `Network::retrans`; the queued `Retransmit` event owns the slot.
struct RetransState {
    msg: Transit,
    /// The attempt the resend makes (≥ 1).
    attempt: u32,
}

/// The simulator's delivery state: the event pump and its payload slab,
/// held messages, the link-fault plane, pending resends, the four link
/// counters and the trace. [`transmit`](Network::transmit) is the one
/// place a message is parked, dropped, resent or scheduled.
pub(crate) struct Network<M> {
    pump: EventPump<M>,
    held: Vec<HeldMessage>,
    /// Validated runtime form of the adversary's link-fault plan
    /// (partitions and churn windows).
    links: RuntimeLinkState,
    /// Cached [`Adversary::lossy`] answer (contractually constant per
    /// run): gates every `on_transmit` consultation.
    lossy: bool,
    retrans: DetMap<(usize, u32), RetransState>,
    parked_messages: u64,
    link_drops: u64,
    retransmissions: u64,
    deferred_deliveries: u64,
    trace: Option<Vec<TraceEntry>>,
}

impl<M> Network<M> {
    fn record(&mut self, entry: TraceEntry) {
        if let Some(trace) = &mut self.trace {
            trace.push(entry);
        }
    }

    /// Gives up a delivery's claim on `slot` because its recipient is
    /// dead (crashed or terminated).
    fn drop_payload(&mut self, at: Ticks, to: PeerId, slot: u32) {
        let from = self.pump.sender(slot);
        self.pump.release_payload(slot);
        self.record(TraceEntry::Drop { at, from, to });
    }

    /// The delivery step for transmission attempt `attempt` of `msg`. An
    /// active cut parks the message until it heals, with no link consulted.
    /// Otherwise, on a lossy link, `on_transmit(attempt)` decides: a
    /// drop schedules the backed-off resend, however many attempts came
    /// before. Anything else is delivered `latency` plus the extra
    /// packets' transmission later.
    fn transmit(
        &mut self,
        now: Ticks,
        msg: Transit,
        attempt: u32,
        on_transmit: impl FnOnce(u32) -> LinkDecision,
    ) {
        let Transit {
            from,
            to,
            slot,
            latency,
            packets,
        } = msg;
        let deliver = EventKind::Deliver { from, to, slot };
        let transmission = (packets - 1) * TICKS_PER_UNIT;
        if let Some(until) = self.links.cut_heal(from, to, now) {
            self.parked_messages += 1;
            self.record(TraceEntry::Park {
                at: now,
                from,
                to,
                until,
            });
            self.pump.push(until + latency + transmission, deliver);
            return;
        }
        if !self.lossy || on_transmit(attempt) == LinkDecision::Transmit {
            self.pump.push(now + latency + transmission, deliver);
            return;
        }
        self.link_drops += 1;
        self.record(TraceEntry::LinkDrop {
            at: now,
            from,
            to,
            attempt,
        });
        let attempt = attempt + 1;
        self.retransmissions += 1;
        self.retrans
            .insert((to.index(), slot), RetransState { msg, attempt });
        let fire = now + backoff(attempt);
        self.pump
            .push(fire, EventKind::Retransmit { from, to, slot });
    }
}

/// A configured simulation, ready to [`run`](Simulation::run).
///
/// Construct through [`SimBuilder`](crate::SimBuilder).
pub struct Simulation<M: ProtocolMessage> {
    pub(crate) params: ModelParams,
    /// Resident reference copy of the source (absent for streaming runs
    /// built with `SimBuilder::streaming_source`).
    pub(crate) input: Option<BitArray>,
    source: Box<dyn Source>,
    meter: Meter,
    /// Per-peer status — the read-only core every adversary `View`
    /// borrows.
    pub(crate) status: Vec<PeerStatus>,
    pub(crate) adversary: Box<dyn Adversary<M>>,
    pub(crate) adv_rng: StdRng,
    pub(crate) max_events: u64,
    /// Per-peer mutable state, indexed by `PeerId`.
    agents: Vec<Box<dyn Agent<M>>>,
    rngs: Vec<StdRng>,
    /// Messages that arrived at a peer before its start event, waiting
    /// for it to begin, as slab slots (each slot names its sender).
    pre_start: Vec<Vec<u32>>,
    net: Network<M>,
    /// Count of peers that are currently nonfaulty and not terminated.
    /// Maintained incrementally at crash and termination transitions so
    /// the run loop's stop check is O(1) instead of an O(k) scan.
    pending_nonfaulty: usize,
    /// Step outbox reused across `process_event` calls (empty between
    /// steps), so each event-handler invocation starts from retained
    /// capacity instead of a fresh allocation.
    outbox_scratch: Vec<Outgoing<M>>,
    /// `HeldInfo` buffer reused across `release_held` calls.
    held_infos: Vec<HeldInfo>,
    now: Ticks,
    crash_budget: usize,
    messages_sent: u64,
    message_bits: u64,
    events: u64,
    quiescence_releases: u64,
}

impl<M: ProtocolMessage> Simulation<M> {
    // Crate-internal constructor fed piecewise by SimBuilder.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        params: ModelParams,
        input: Option<BitArray>,
        source: Box<dyn Source>,
        track_query_indices: bool,
        agents: Vec<Box<dyn Agent<M>>>,
        roles: Vec<PeerRole>,
        adversary: Box<dyn Adversary<M>>,
        seed: u64,
        max_events: u64,
        slab_capacity: u32,
    ) -> Self {
        let k = params.k();
        let byz = roles.iter().filter(|r| **r == PeerRole::Byzantine).count();
        assert!(
            byz <= params.b(),
            "{byz} Byzantine peers exceed fault budget b={}",
            params.b()
        );
        // Joint fault budget: crashes and Byzantine corruptions draw from
        // the same `b`. Adversaries with a declared crash plan are rejected
        // at build time instead of panicking mid-run.
        if let Some(planned) = adversary.planned_crashes() {
            assert!(
                byz + planned <= params.b(),
                "joint fault budget exceeded: {planned} planned crashes + {byz} Byzantine \
                 peers > b={}",
                params.b()
            );
        }
        // The link-fault plan is static for the run: fetch it once,
        // validate it against the peer count, and cache the (contractually
        // constant) lossiness flag.
        let net = Network {
            pump: EventPump::new(slab_capacity),
            held: Vec::new(),
            links: RuntimeLinkState::new(&adversary.link_fault_plan(), k),
            lossy: adversary.lossy(),
            retrans: DetMap::new(),
            parked_messages: 0,
            link_drops: 0,
            retransmissions: 0,
            deferred_deliveries: 0,
            trace: None,
        };
        let rngs = (0..k)
            .map(|p| StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(p as u64)))
            .collect();
        Simulation {
            params,
            input,
            source,
            meter: Meter::new(k, track_query_indices),
            status: roles.into_iter().map(PeerStatus::new).collect(),
            adversary,
            adv_rng: StdRng::seed_from_u64(seed ^ 0xdead_beef),
            max_events,
            agents,
            rngs,
            pre_start: (0..k).map(|_| Vec::new()).collect(),
            net,
            // Nobody has crashed or terminated yet, so every honest peer
            // is pending.
            pending_nonfaulty: k - byz,
            outbox_scratch: Vec::new(),
            held_infos: Vec::new(),
            now: 0,
            crash_budget: params.b() - byz,
            messages_sent: 0,
            message_bits: 0,
            events: 0,
            quiescence_releases: 0,
        }
    }

    pub(crate) fn enable_trace(&mut self) {
        self.net.trace = Some(Vec::new());
    }

    /// The input array this run downloads (for verification).
    ///
    /// # Panics
    ///
    /// Panics for runs built with
    /// [`streaming_source`](crate::SimBuilder::streaming_source), which
    /// deliberately never materialize the input; verify those with
    /// [`RunReport::verify_downloads_source`](crate::RunReport::verify_downloads_source).
    pub fn input(&self) -> &BitArray {
        self.input
            .as_ref()
            .expect("streaming run keeps no resident input; verify against the source")
    }

    /// Model parameters of this run.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    fn crash(&mut self, peer: PeerId) {
        assert!(
            self.status[peer.index()].role == PeerRole::Honest,
            "adversary tried to crash Byzantine peer {peer}"
        );
        assert!(
            self.crash_budget > 0,
            "adversary exceeded crash budget trying to crash {peer}"
        );
        self.crash_budget -= 1;
        let st = &mut self.status[peer.index()];
        // Both crash hooks fire only for live peers, so this peer was
        // counted in `pending_nonfaulty` unless it had already terminated
        // (possible for a mid-send crash on a peer whose final step
        // terminated it).
        debug_assert!(!st.crashed);
        if !st.terminated {
            self.pending_nonfaulty -= 1;
        }
        st.crashed = true;
        let now = self.now;
        self.net.record(TraceEntry::Crash { at: now, peer });
        // A crashed peer never starts, so anything waiting in its pre-start
        // buffer can never be delivered or dropped through the normal
        // paths — free those slots now instead of leaking them for the
        // rest of the run.
        for slot in std::mem::take(&mut self.pre_start[peer.index()]) {
            self.net.drop_payload(now, peer, slot);
        }
    }

    fn all_nonfaulty_terminated(&self) -> bool {
        self.status
            .iter()
            .all(|s| !s.is_nonfaulty() || s.terminated)
    }

    /// Charges and schedules the outgoing batch of one step, applying the
    /// adversary's mid-send crash cut if any. Drains `outbox` (handing the
    /// buffer back with retained capacity).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::SlabOverflow`] if storing a payload would grow
    /// the message slab past its configured capacity.
    fn dispatch_outbox(
        &mut self,
        peer: PeerId,
        outbox: &mut Vec<Outgoing<M>>,
    ) -> Result<(), RunError> {
        let k = self.params.k();
        // Point-to-point messages of the batch still to go out, in send
        // order with every broadcast expanded: a mid-send crash cuts it
        // short, inside a broadcast as readily as between two sends.
        let mut keep = usize::MAX;
        if !self.status[peer.index()].crashed {
            let planned = outbox.iter().map(|out| out.fan_out(k)).sum();
            let cut = {
                let view = View {
                    now: self.now,
                    peers: &self.status,
                };
                self.adversary.crash_during_send(&view, peer, planned)
            };
            if let Some(cut) = cut {
                keep = cut;
                self.crash(peer);
            }
        }
        // A peer crashed mid-send (by the cut just above) is faulty from
        // this point on: the messages it still manages to emit must not
        // count toward the non-faulty communication complexity.
        let sender_nonfaulty_now = self.status[peer.index()].is_nonfaulty();
        for out in outbox.drain(..) {
            if keep == 0 {
                break;
            }
            self.route(peer, out, sender_nonfaulty_now, &mut keep)?;
        }
        Ok(())
    }

    /// Routes one outbox entry to its recipients — at most `keep` of them,
    /// counted down — consulting the adversary for each exactly as for a
    /// point-to-point send. The payload is stored once and every recipient
    /// becomes one more owner of its slot before it is held or handed to
    /// [`Network::transmit`]; the loop's own claim from storing it ends
    /// once the last recipient is routed.
    fn route(
        &mut self,
        peer: PeerId,
        out: Outgoing<M>,
        sender_nonfaulty_now: bool,
        keep: &mut usize,
    ) -> Result<(), RunError> {
        let (recipients, skip, msg) = match out {
            Outgoing::To(to, msg) => (to.index()..to.index() + 1, None, msg),
            Outgoing::Broadcast(msg) => (0..self.params.k(), Some(peer), msg),
        };
        let bits = msg.bit_len() as u64;
        let packets = (bits.div_ceil(self.params.msg_bits() as u64)).max(1);
        let mut recipients = recipients
            .map(PeerId)
            .filter(|&to| Some(to) != skip)
            .take(*keep)
            .peekable();
        if recipients.peek().is_none() {
            return Ok(());
        }
        let net = &mut self.net;
        let slot = net
            .pump
            .insert_payload(msg, peer)
            .map_err(|e| RunError::SlabOverflow {
                capacity: e.capacity,
            })?;
        // Peer statuses cannot change for the rest of the batch, so one
        // `View` serves every message.
        let now = self.now;
        let view = View {
            now,
            peers: &self.status,
        };
        for to in recipients {
            *keep -= 1;
            if sender_nonfaulty_now {
                self.messages_sent += packets;
                self.message_bits += bits;
            }
            let delivery =
                self.adversary
                    .on_send(&view, peer, to, net.pump.payload(slot), &mut self.adv_rng);
            net.pump.retain_payload(slot);
            let msg = |latency| Transit {
                from: peer,
                to,
                slot,
                latency,
                packets,
            };
            let latency = match delivery {
                Delivery::After(latency) => latency.clamp(1, TICKS_PER_UNIT),
                Delivery::Hold => {
                    net.record(TraceEntry::Hold {
                        at: now,
                        from: peer,
                        to,
                    });
                    net.held.push(HeldMessage {
                        msg: msg(1),
                        sent_at: now,
                    });
                    continue;
                }
            };
            let (adversary, rng) = (&mut self.adversary, &mut self.adv_rng);
            let on_transmit = |attempt| adversary.on_transmit(&view, peer, to, attempt, rng);
            net.transmit(now, msg(latency), 0, on_transmit);
        }
        net.pump.release_payload(slot);
        Ok(())
    }

    /// Delivers one event to a peer, running its handler. The produced
    /// outbox is left in `outbox_scratch`; returns the stepping peer, or
    /// `None` if the event was dropped (peer crashed, terminated, or
    /// crashed by the adversary just now).
    fn process_event(&mut self, kind: EventKind) -> Option<PeerId> {
        let to = kind.subject();
        let st = self.status[to.index()].clone();
        if st.crashed || st.terminated {
            if let EventKind::Deliver { to, slot, .. } = kind {
                self.net.drop_payload(self.now, to, slot);
            }
            return None;
        }
        // Churn: a peer that has left the network takes no steps until it
        // rejoins. Every event addressed to it — starts included — is
        // deferred to the rejoin tick, its payload slot riding along (the
        // re-pushed event owns it), so nothing is lost or leaked.
        if let Some(until) = self.net.links.away_until(to, self.now) {
            self.net.deferred_deliveries += 1;
            self.net.record(TraceEntry::ChurnDefer {
                at: self.now,
                peer: to,
                until,
            });
            self.net.pump.push(until, kind);
            return None;
        }
        // A peer takes no steps before its start event: messages that
        // arrive earlier wait in a per-peer buffer (keeping their slab
        // slot) and are re-enqueued the moment the peer starts
        // (equivalent to the adversary delaying them until the recipient
        // is awake).
        if !st.started {
            if let EventKind::Deliver { slot, .. } = kind {
                self.pre_start[to.index()].push(slot);
                return None;
            }
        }
        // Crash faults fire only between steps: the adversary may fell the
        // peer immediately before it processes this event.
        if st.role == PeerRole::Honest && self.crash_budget > 0 {
            let crash_now = {
                let view = View {
                    now: self.now,
                    peers: &self.status,
                };
                self.adversary.crash_before_event(&view, to)
            };
            if crash_now {
                self.crash(to);
                if let EventKind::Deliver { slot, .. } = kind {
                    self.net.pump.release_payload(slot);
                }
                return None;
            }
        }
        self.status[to.index()].events_processed += 1;
        self.events += 1;
        let is_start = matches!(kind, EventKind::Start(_));
        // Move the payload out of the slab (freeing the slot) before the
        // handler runs; the agent takes it by value.
        let delivery = match kind {
            EventKind::Start(peer) => {
                let at = self.now;
                self.net.record(TraceEntry::Start { at, peer });
                None
            }
            EventKind::Deliver { from, slot, .. } => {
                let msg = self.net.pump.take_payload(slot);
                let (at, bits) = (self.now, msg.bit_len());
                self.net.record(TraceEntry::Deliver { at, from, to, bits });
                Some((from, msg))
            }
            EventKind::Retransmit { .. } => {
                unreachable!("retransmit events are handled by the coordinator, not process_event")
            }
        };
        if is_start {
            self.status[to.index()].started = true;
        }
        debug_assert!(self.outbox_scratch.is_empty());
        {
            let mut ctx = LaneCtx {
                me: to,
                num_peers: self.params.k(),
                input_len: self.params.n(),
                source: &*self.source,
                meter: &mut self.meter,
                rng: &mut self.rngs[to.index()],
                outbox: &mut self.outbox_scratch,
            };
            let agent = &mut self.agents[to.index()];
            match delivery {
                None => agent.on_start(&mut ctx),
                Some((from, msg)) => agent.on_message(from, msg, &mut ctx),
            }
        }
        if is_start {
            // Deliver anything that arrived before the peer woke up,
            // immediately after its start step, in arrival order.
            let waiting = std::mem::take(&mut self.pre_start[to.index()]);
            for slot in waiting {
                let from = self.net.pump.sender(slot);
                self.net
                    .pump
                    .push(self.now, EventKind::Deliver { from, to, slot });
            }
        }
        let was_terminated = self.status[to.index()].terminated;
        let terminated = self.agents[to.index()].is_terminated();
        self.status[to.index()].terminated = terminated;
        if !was_terminated && terminated {
            if self.status[to.index()].is_nonfaulty() {
                self.pending_nonfaulty -= 1;
            }
            let now = self.now;
            self.net.record(TraceEntry::Terminate { at: now, peer: to });
        }
        Some(to)
    }

    /// Runs the execution to completion.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Deadlock`] if every queue drains while a
    /// nonfaulty peer is still waiting (the protocols in the paper are
    /// proven never to reach this state),
    /// [`RunError::EventLimitExceeded`] if the livelock guard trips (on
    /// handler steps plus resends, so an adversary that drops a message
    /// forever trips it too), or
    /// [`RunError::SlabOverflow`] if the payload slab hits its configured
    /// slot capacity.
    pub fn run(mut self) -> Result<RunReport, RunError> {
        // The adversary decides when every peer starts (any finite offset;
        // there is no simultaneous-start assumption).
        for p in 0..self.params.k() {
            let offset = self.adversary.start_offset(PeerId(p), &mut self.adv_rng);
            self.net.pump.push(offset, EventKind::Start(PeerId(p)));
        }
        let pumped = self.pump_events();
        // Whatever ended the run, every occupied slot must still have its
        // owners.
        #[cfg(debug_assertions)]
        self.assert_no_leaked_slots();
        pumped.map(|()| self.into_report())
    }

    /// The run loop: serves events until every nonfaulty peer has
    /// terminated or the run fails.
    fn pump_events(&mut self) -> Result<(), RunError> {
        loop {
            debug_assert_eq!(
                self.pending_nonfaulty == 0,
                self.all_nonfaulty_terminated(),
                "pending-nonfaulty counter out of sync with peer statuses"
            );
            if self.pending_nonfaulty == 0 {
                return Ok(());
            }
            if self.events + self.net.retransmissions >= self.max_events {
                return Err(RunError::EventLimitExceeded {
                    limit: self.max_events,
                });
            }
            match self.net.pump.pop() {
                Some((at, kind)) => {
                    self.now = self.now.max(at);
                    if let EventKind::Retransmit { from, to, slot } = kind {
                        self.handle_retransmit(from, to, slot);
                        continue;
                    }
                    if let Some(peer) = self.process_event(kind) {
                        let mut outbox = std::mem::take(&mut self.outbox_scratch);
                        let dispatched = self.dispatch_outbox(peer, &mut outbox);
                        self.outbox_scratch = outbox;
                        dispatched?;
                    }
                }
                None => {
                    if self.net.held.is_empty() {
                        let stuck: Vec<PeerId> = self
                            .status
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| s.is_nonfaulty() && !s.terminated)
                            .map(|(i, _)| PeerId(i))
                            .collect();
                        return Err(RunError::Deadlock { stuck });
                    }
                    // Quiescence: the adversary is compelled to release held
                    // messages so the system can make progress.
                    self.release_held();
                }
            }
        }
    }

    /// A backed-off resend of the message in `slot` fires: dropped if its
    /// recipient died meanwhile, otherwise transmitted again with the
    /// latency of its original send.
    fn handle_retransmit(&mut self, from: PeerId, to: PeerId, slot: u32) {
        let st = self
            .net
            .retrans
            .remove(&(to.index(), slot))
            .expect("retransmit event fired without resend state");
        let target = &self.status[to.index()];
        if target.crashed || target.terminated {
            self.net.drop_payload(self.now, to, slot);
            return;
        }
        let view = View {
            now: self.now,
            peers: &self.status,
        };
        let (adversary, rng) = (&mut self.adversary, &mut self.adv_rng);
        let on_transmit = |attempt| adversary.on_transmit(&view, from, to, attempt, rng);
        self.net.transmit(self.now, st.msg, st.attempt, on_transmit);
    }

    /// Debug-build invariant: at the end of a run every occupied slab slot
    /// counts exactly its still-pending owners — queued and parked
    /// deliveries, pending resends, held messages and pre-start buffer
    /// entries. Each of those gives up its claim here; after that no slot
    /// may remain occupied (a claim too many), and none may have been
    /// freed early (a claim too few panics in the slab). Catches lifecycle
    /// leaks (e.g. slots stranded by a cancelled delivery) that release
    /// builds would silently accumulate.
    #[cfg(debug_assertions)]
    fn assert_no_leaked_slots(&mut self) {
        let net = &mut self.net;
        while let Some((_, kind)) = net.pump.pop() {
            match kind {
                EventKind::Deliver { slot, .. } => {
                    net.pump.release_payload(slot);
                }
                // A pending resend owns its payload slot exactly like a
                // queued delivery; drop its metadata alongside the slot.
                EventKind::Retransmit { to, slot, .. } => {
                    net.retrans.remove(&(to.index(), slot));
                    net.pump.release_payload(slot);
                }
                EventKind::Start(_) => {}
            }
        }
        assert!(
            net.retrans.is_empty(),
            "slab leak: resend state with no queued retransmit event"
        );
        for h in std::mem::take(&mut net.held) {
            net.pump.release_payload(h.msg.slot);
        }
        for (p, buf) in std::mem::take(&mut self.pre_start).into_iter().enumerate() {
            if self.status[p].crashed {
                assert!(
                    buf.is_empty(),
                    "slab leak: crashed peer {} still owns pre-start slots",
                    PeerId(p)
                );
            }
            for slot in buf {
                net.pump.release_payload(slot);
            }
        }
        assert_eq!(
            net.pump.live_payloads(),
            0,
            "slab leak: payload slots live with no owner at end of run"
        );
    }

    /// Compelled release at quiescence: the messages the adversary lets
    /// go are transmitted with latency 1 and never dropped (the adversary's
    /// `on_transmit` is not asked), but one released across an unhealed
    /// cut still parks until it heals.
    fn release_held(&mut self) {
        self.quiescence_releases += 1;
        let held = &self.net.held;
        self.held_infos.clear();
        self.held_infos.extend(held.iter().map(|h| HeldInfo {
            from: h.msg.from,
            to: h.msg.to,
            sent_at: h.sent_at,
        }));
        let decision = self.adversary.on_quiescence(
            &View {
                now: self.now,
                peers: &self.status,
            },
            &self.held_infos,
        );
        let mut chosen = match decision {
            Release::All => (0..held.len()).collect::<Vec<_>>(),
            Release::Some(indices) => indices,
        };
        chosen.sort_unstable();
        chosen.dedup();
        chosen.retain(|&i| i < held.len());
        // The quiescence rule compels progress: an adversary that selects
        // nothing releasable would stall the run forever, which the model
        // forbids — fail loudly instead of spinning.
        assert!(
            !chosen.is_empty(),
            "adversary released no held message at quiescence ({} held) — \
             the model compels release (§3.1); return Release::All or a \
             non-empty in-range Release::Some",
            held.len()
        );
        let now = self.now;
        let released = chosen.len();
        self.net
            .record(TraceEntry::QuiescenceRelease { at: now, released });
        // Remove in reverse so indices stay valid. The payload never
        // moves: its slot passes straight from the held entry to the
        // delivery event.
        for &i in chosen.iter().rev() {
            let msg = self.net.held.swap_remove(i).msg;
            self.net.transmit(now, msg, 0, |_| LinkDecision::Transmit);
        }
    }

    fn into_report(self) -> RunReport {
        let k = self.params.k();
        let mut nonfaulty = PeerSet::new(k);
        let mut crashed = PeerSet::new(k);
        let mut byzantine = PeerSet::new(k);
        for (i, s) in self.status.iter().enumerate() {
            if s.is_nonfaulty() {
                nonfaulty.insert(PeerId(i));
            }
            if s.crashed {
                crashed.insert(PeerId(i));
            }
            if s.role == PeerRole::Byzantine {
                byzantine.insert(PeerId(i));
            }
        }
        let query_counts = self.meter.counts;
        let max_nonfaulty_queries = nonfaulty
            .iter()
            .map(|p| query_counts[p.index()])
            .max()
            .unwrap_or(0);
        RunReport {
            outputs: self.agents.iter().map(|a| a.output().cloned()).collect(),
            nonfaulty,
            crashed,
            byzantine,
            query_counts,
            query_indices: self.meter.logs,
            max_nonfaulty_queries,
            messages_sent: self.messages_sent,
            message_bits: self.message_bits,
            virtual_time_units: RunReport::time_units_of(self.now),
            virtual_time_ticks: self.now,
            events: self.events,
            quiescence_releases: self.quiescence_releases,
            parked_messages: self.net.parked_messages,
            link_drops: self.net.link_drops,
            retransmissions: self.net.retransmissions,
            deferred_deliveries: self.net.deferred_deliveries,
            peak_queue_len: self.net.pump.peak_queued() as u64,
            peak_slab_len: self.net.pump.peak_live() as u64,
            trace: self.net.trace,
        }
    }
}
