//! The event pump: the queue/slab structure behind the simulator hot
//! loop, and the single source of truth for event pop order.
//!
//! [`EventPump`] owns the pending-event queue and the payload slabs for a
//! run. Pending events sit in one ordered map of tick buckets for the
//! whole pump; payloads sit in per-shard slabs (`shard(p) = p mod s`, with
//! `s = 1` the serial configuration). There is one layout and one serving
//! order for every shard count:
//!
//! * **Buckets.** `push` stamps nothing and sorts nothing: it appends the
//!   event to the `Vec` of its tick. The simulator hands out `seq` stamps
//!   globally and monotonically *at push time*, so every bucket is already
//!   in ascending `seq` order — the serving order — by construction
//!   (checked by a debug assertion at refill). The map is ordered rather
//!   than a ring of `TICKS_PER_UNIT` slots because the horizon is not
//!   bounded by one unit: a `p`-packet message lands `(p−1)·TICKS_PER_UNIT`
//!   later still, and heal ticks and retransmission back-off reach further;
//!   a ring would need an overflow queue beside it.
//! * **Window.** All pending events sharing the minimum tick `T` form one
//!   window. Message latencies are clamped to `1..=TICKS_PER_UNIT`, so an
//!   event processed at tick `T` can only schedule events at `T + 1` or
//!   later — the window is causally closed. Refilling it is `pop_first`
//!   on the map and a swap of the bucket into the window; the drained
//!   `Vec` goes to a spare list and backs the next new tick, so a long run
//!   allocates as many buckets as it ever has ticks pending at once.
//! * **Same-tick appends.** The one exception to "new events land after
//!   the window" is the pre-start flush, which re-enqueues buffered
//!   messages at the *current* tick. Those pushes carry fresh `seq` stamps
//!   larger than everything already in the window, so appending them to
//!   the active window keeps it in serving order — checked by a debug
//!   assertion.
//!
//! Events therefore pop in global `(at, seq)` order whatever the shard
//! count, which is why no golden fingerprint depends on it.
//!
//! Occupancy accounting (queue depth, occupied slots, peaks) lives both on
//! the pump wrapper (global, matching the historical serial counters) and
//! per shard (for the `RunReport` per-shard peak columns). The parallel
//! dispatch path borrows whole windows ([`EventPump::take_window_at_least`])
//! and shard slabs ([`EventPump::take_slab`]/[`EventPump::put_slab`]) so
//! worker threads can own their shard's state outright for the duration of
//! a window — see `sim.rs` for the two-pass execution argument.
//!
//! Slot lifecycle: a slab slot holds one payload and counts its owners.
//! A broadcast stores its payload once per destination shard and every
//! recipient in that shard owns the same slot; a point-to-point send is a
//! slot with one owner. An owner is a queued `Deliver` or `Retransmit`
//! event (parked and churn-deferred deliveries included), a held message,
//! or a pre-start buffer entry, and while a step's outbox is being routed
//! the dispatch loop owns each slot it filled as well, so a recipient
//! whose message is lost on the spot cannot free the slot under the
//! recipients still to come. Whichever path consumes or cancels an
//! owner's message gives up that owner's claim: the handler gets a clone
//! while others remain and the payload itself when it is the last, and
//! the last claim given up frees the slot. Occupancy, peaks and the
//! capacity bound all count slots, which is what memory holds. The
//! simulator asserts at the end of debug runs that once every owner has
//! given up its claim no slot is left occupied.

use crate::time::Ticks;
use dr_core::PeerId;
use std::collections::BTreeMap;

/// One slab cell: a payload and the number of owners (queued deliveries,
/// pending resends, held messages, pre-start entries, the dispatch loop
/// while it routes) that still refer to it. Vacant cells have no owners.
struct Slot<M> {
    msg: Option<M>,
    owners: u32,
}

/// Slot-indexed, reference-counted store for message payloads.
///
/// A hand-rolled slab: `insert` hands out a `u32` slot with one owner
/// (recycling freed slots LIFO), `retain` adds an owner, and `take` /
/// `release` give one up, the last of them emptying and freeing the slot.
/// A broadcast is one slot shared by its recipients in this shard; a
/// point-to-point send is a slot with one owner. Payloads stay put for
/// their whole queued/held lifetime — only slot indices move through the
/// event queue. The slab tracks its own live/peak occupancy, in slots, so
/// per-shard peaks stay exact even while the slab is lent out to a worker
/// thread.
pub(crate) struct MsgSlab<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
}

impl<M> MsgSlab<M> {
    /// Bytes one slot occupies in the slab, whatever its payload keeps on
    /// the heap.
    pub(crate) const SLOT_BYTES: usize = std::mem::size_of::<Slot<M>>();

    fn new() -> Self {
        MsgSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    /// Stores a payload under one owner, recycling a freed slot when one
    /// exists and growing the slab otherwise. Fails (instead of panicking)
    /// when growth would exceed `capacity` slots.
    fn insert(&mut self, msg: M, capacity: u32) -> Result<u32, SlabOverflow> {
        let cell = Slot {
            msg: Some(msg),
            owners: 1,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert_eq!(self.slots[slot as usize].owners, 0);
                self.slots[slot as usize] = cell;
                slot
            }
            None => {
                if self.slots.len() >= capacity as usize {
                    return Err(SlabOverflow { capacity });
                }
                let slot = self.slots.len() as u32;
                self.slots.push(cell);
                slot
            }
        };
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        Ok(slot)
    }

    /// The payload in `slot`, which must have an owner.
    fn get(&self, slot: u32) -> &M {
        self.slots[slot as usize]
            .msg
            .as_ref()
            .expect("message slot already freed")
    }

    /// Adds an owner to `slot`.
    fn retain(&mut self, slot: u32) {
        let cell = &mut self.slots[slot as usize];
        assert!(cell.owners > 0, "message slot already freed");
        cell.owners += 1;
    }

    /// Gives up one owner's claim on `slot` and hands that owner the
    /// payload: a clone while other owners remain, the payload itself
    /// (freeing the slot) for the last one.
    pub(crate) fn take(&mut self, slot: u32) -> M
    where
        M: Clone,
    {
        let cell = &mut self.slots[slot as usize];
        if cell.owners > 1 {
            cell.owners -= 1;
            return cell.msg.clone().expect("shared message slot is empty");
        }
        let msg = cell.msg.take().expect("message slot already freed");
        self.vacate(slot);
        msg
    }

    /// Gives up one owner's claim on `slot` without reading the payload;
    /// the last owner's release drops it and frees the slot.
    pub(crate) fn release(&mut self, slot: u32) {
        let cell = &mut self.slots[slot as usize];
        assert!(cell.owners > 0, "message slot already freed");
        if cell.owners > 1 {
            cell.owners -= 1;
        } else {
            cell.msg = None;
            self.vacate(slot);
        }
    }

    fn vacate(&mut self, slot: u32) {
        self.slots[slot as usize].owners = 0;
        self.free.push(slot);
        self.live -= 1;
    }

    /// Slots currently holding a payload.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Peak occupied slots over this slab's lifetime.
    fn peak_live(&self) -> usize {
        self.peak_live
    }
}

/// A payload slab filled up: inserting one more message would grow some
/// slab past its configured slot capacity. Surfaced through
/// [`RunError::SlabOverflow`](crate::RunError::SlabOverflow) instead of
/// aborting mid-pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlabOverflow {
    /// The per-slab slot capacity that was hit.
    pub capacity: u32,
}

#[derive(Clone, Copy)]
pub(crate) enum EventKind {
    Start(PeerId),
    Deliver {
        from: PeerId,
        to: PeerId,
        slot: u32,
    },
    /// A backed-off resend attempt of a dropped transmission fires: the
    /// payload still sits in `to`'s shard slab at `slot` (the event owns
    /// the slot, like a queued delivery), and the coordinator re-consults
    /// the adversary's transmit decision. Never steps an agent.
    Retransmit {
        from: PeerId,
        to: PeerId,
        slot: u32,
    },
}

impl EventKind {
    /// The peer an event steps (and whose shard owns any payload slot).
    pub(crate) fn subject(self) -> PeerId {
        match self {
            EventKind::Start(p) => p,
            EventKind::Deliver { to, .. } => to,
            EventKind::Retransmit { to, .. } => to,
        }
    }
}

#[derive(Clone, Copy)]
pub(crate) struct QueuedEvent {
    pub(crate) at: Ticks,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

/// One shard: the payload slab and the queue-depth counters of the peers
/// this shard owns. The slab sits in an `Option` so the parallel dispatch
/// path can lend it to a worker thread for the duration of a window; every
/// access asserts it is home.
struct Shard<M> {
    slab: Option<MsgSlab<M>>,
    /// Events currently queued for this shard's peers (buckets + unserved
    /// window).
    queued: usize,
    peak_queued: usize,
}

impl<M> Shard<M> {
    fn slab(&mut self) -> &mut MsgSlab<M> {
        self.slab.as_mut().expect("shard slab lent out")
    }
}

/// The simulator's pending-event queue and payload store: tick buckets
/// drained a window at a time and per-shard slabs, popping events in
/// global `(at, seq)` order for any shard count (1 = the serial layout).
pub(crate) struct EventPump<M> {
    shards: Vec<Shard<M>>,
    /// Pending events after the active window, one bucket per tick, each
    /// in ascending `seq` order (push order).
    buckets: BTreeMap<Ticks, Vec<QueuedEvent>>,
    /// Emptied bucket `Vec`s, reused for new ticks.
    spare: Vec<Vec<QueuedEvent>>,
    /// Events of the active window in ascending `seq` order; positions
    /// before `cursor` have been popped.
    window: Vec<QueuedEvent>,
    cursor: usize,
    /// Tick of the active window. Stays set after the window drains so a
    /// same-tick push (pre-start flush) still lands in the window rather
    /// than a bucket.
    window_at: Option<Ticks>,
    /// Per-slab slot capacity; inserting past it yields [`SlabOverflow`].
    capacity: u32,
    queued: usize,
    peak_queued: usize,
    live: usize,
    peak_live: usize,
}

impl<M> EventPump<M> {
    /// Creates a pump with `shards` shards (1 = the serial layout) and a
    /// per-slab slot capacity.
    pub(crate) fn new(shards: usize, capacity: u32) -> Self {
        assert!(shards >= 1, "a pump needs at least one shard");
        EventPump {
            shards: (0..shards)
                .map(|_| Shard {
                    slab: Some(MsgSlab::new()),
                    queued: 0,
                    peak_queued: 0,
                })
                .collect(),
            buckets: BTreeMap::new(),
            spare: Vec::new(),
            window: Vec::new(),
            cursor: 0,
            window_at: None,
            capacity,
            queued: 0,
            peak_queued: 0,
            live: 0,
            peak_live: 0,
        }
    }

    /// Number of shards (1 for the serial layout).
    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `peer`'s events and payloads.
    pub(crate) fn shard_of(&self, peer: PeerId) -> usize {
        peer.index() % self.shards.len()
    }

    pub(crate) fn push(&mut self, ev: QueuedEvent) {
        let s = self.shard_of(ev.kind.subject());
        match self.window_at {
            Some(t) if ev.at == t => {
                // Same-tick append (pre-start flush): `seq` stamps are
                // globally monotonic, so the window stays in serving order.
                debug_assert!(
                    self.window.last().is_none_or(|last| last.seq < ev.seq),
                    "same-tick push out of seq order"
                );
                self.window.push(ev);
            }
            earlier => {
                debug_assert!(
                    earlier.is_none_or(|t| ev.at > t),
                    "event scheduled before the active window (latency < 1?)"
                );
                let spare = &mut self.spare;
                self.buckets
                    .entry(ev.at)
                    .or_insert_with(|| spare.pop().unwrap_or_default())
                    .push(ev);
            }
        }
        self.shards[s].queued += 1;
        self.shards[s].peak_queued = self.shards[s].peak_queued.max(self.shards[s].queued);
        self.queued += 1;
        self.peak_queued = self.peak_queued.max(self.queued);
    }

    /// Makes the earliest bucket the active window. Returns `false` if
    /// nothing is pending.
    fn refill(&mut self) -> bool {
        debug_assert!(self.cursor >= self.window.len());
        let Some((t, bucket)) = self.buckets.pop_first() else {
            return false;
        };
        debug_assert!(
            bucket.windows(2).all(|w| w[0].seq < w[1].seq),
            "bucket out of seq order"
        );
        let mut drained = std::mem::replace(&mut self.window, bucket);
        drained.clear();
        self.spare.push(drained);
        self.cursor = 0;
        self.window_at = Some(t);
        true
    }

    pub(crate) fn pop(&mut self) -> Option<QueuedEvent> {
        if self.cursor >= self.window.len() && !self.refill() {
            return None;
        }
        let ev = self.window[self.cursor];
        self.cursor += 1;
        self.queued -= 1;
        let s = self.shard_of(ev.kind.subject());
        self.shards[s].queued -= 1;
        Some(ev)
    }

    /// Takes the whole active window (refilling it first if needed) when
    /// it holds at least `min` unserved events; otherwise leaves it for
    /// [`EventPump::pop`]. The window tick stays active, so same-tick
    /// appends made while the caller processes the taken events land in
    /// serving order behind them.
    pub(crate) fn take_window_at_least(&mut self, min: usize) -> Option<Vec<QueuedEvent>> {
        if self.cursor >= self.window.len() && !self.refill() {
            return None;
        }
        if self.window.len() - self.cursor < min {
            return None;
        }
        let taken: Vec<QueuedEvent> = self.window.split_off(self.cursor);
        for ev in &taken {
            self.queued -= 1;
            let s = self.shard_of(ev.kind.subject());
            self.shards[s].queued -= 1;
        }
        Some(taken)
    }

    /// Lends shard `s`'s slab to a worker. Live-payload accounting moves
    /// with it; [`EventPump::put_slab`] brings both home.
    pub(crate) fn take_slab(&mut self, s: usize) -> MsgSlab<M> {
        let slab = self.shards[s].slab.take().expect("shard slab already lent");
        self.live -= slab.live();
        slab
    }

    /// Returns a lent slab (see [`EventPump::take_slab`]).
    pub(crate) fn put_slab(&mut self, s: usize, slab: MsgSlab<M>) {
        debug_assert!(self.shards[s].slab.is_none(), "shard slab returned twice");
        self.live += slab.live();
        self.shards[s].slab = Some(slab);
    }

    /// Runs `f` on shard `s`'s slab and carries the slab's change in
    /// occupied slots over to the pump-wide count.
    fn on_slab<R>(&mut self, s: usize, f: impl FnOnce(&mut MsgSlab<M>) -> R) -> R {
        let slab = self.shards[s].slab();
        let before = slab.live();
        let out = f(slab);
        self.live = self.live + slab.live() - before;
        self.peak_live = self.peak_live.max(self.live);
        out
    }

    /// Stores a payload, under one owner, in the slab of the shard owning
    /// `owner` (the destination peer for deliveries, holds, and pre-start
    /// buffers).
    pub(crate) fn insert_payload(&mut self, owner: PeerId, msg: M) -> Result<u32, SlabOverflow> {
        let capacity = self.capacity;
        self.on_slab(self.shard_of(owner), |slab| slab.insert(msg, capacity))
    }

    /// The payload in `slot` of `owner`'s shard slab.
    pub(crate) fn payload(&self, owner: PeerId, slot: u32) -> &M {
        self.shards[self.shard_of(owner)]
            .slab
            .as_ref()
            .expect("shard slab lent out")
            .get(slot)
    }

    /// Adds an owner to `slot` of `owner`'s shard slab.
    pub(crate) fn retain_payload(&mut self, owner: PeerId, slot: u32) {
        let s = self.shard_of(owner);
        self.shards[s].slab().retain(slot);
    }

    /// Hands one owner its payload out of `owner`'s shard slab: a clone
    /// while the slot has other owners, the payload itself — freeing the
    /// slot — for the last.
    pub(crate) fn take_payload(&mut self, owner: PeerId, slot: u32) -> M
    where
        M: Clone,
    {
        self.on_slab(self.shard_of(owner), |slab| slab.take(slot))
    }

    /// Gives up one owner's claim on `slot` of `owner`'s shard slab
    /// without reading it; the last release frees the slot.
    pub(crate) fn release_payload(&mut self, owner: PeerId, slot: u32) {
        self.on_slab(self.shard_of(owner), |slab| slab.release(slot));
    }

    /// Gives up the claim recorded for each shard in `slots` (indexed by
    /// shard), leaving the table empty.
    pub(crate) fn release_each(&mut self, slots: &mut [Option<u32>]) {
        for (s, entry) in slots.iter_mut().enumerate() {
            if let Some(slot) = entry.take() {
                self.on_slab(s, |slab| slab.release(slot));
            }
        }
    }

    /// Slots currently occupied across all slabs. Read only by the
    /// debug-build slab-leak check and the unit tests.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn live_payloads(&self) -> usize {
        self.live
    }

    /// Peak queue occupancy over the run (all shards combined).
    pub(crate) fn peak_queued(&self) -> usize {
        self.peak_queued
    }

    /// Peak occupied slots over the run (all slabs combined).
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Peak queue occupancy per shard.
    pub(crate) fn peak_queued_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.peak_queued as u64).collect()
    }

    /// Peak occupied slots per shard slab.
    pub(crate) fn peak_live_per_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.slab.as_ref().expect("shard slab lent out").peak_live() as u64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(at: Ticks, seq: u64, peer: usize) -> QueuedEvent {
        QueuedEvent {
            at,
            seq,
            kind: EventKind::Start(PeerId(peer)),
        }
    }

    /// `(at, seq, subject)` of an event, for comparing against a model.
    fn flat(e: QueuedEvent) -> (Ticks, u64, usize) {
        (e.at, e.seq, e.kind.subject().index())
    }

    fn drain_order(pump: &mut EventPump<()>) -> Vec<(Ticks, u64)> {
        std::iter::from_fn(|| pump.pop())
            .map(|e| (e.at, e.seq))
            .collect()
    }

    #[test]
    fn sharded_pops_in_global_at_seq_order() {
        for shards in [1, 2, 3, 7] {
            let mut pump: EventPump<()> = EventPump::new(shards, u32::MAX);
            // Interleave peers and ticks in a scrambled push order.
            let pushes = [
                (5, 0, 0),
                (1, 1, 3),
                (5, 2, 1),
                (1, 3, 2),
                (9, 4, 5),
                (1, 5, 4),
                (5, 6, 6),
            ];
            for (at, seq, peer) in pushes {
                pump.push(ev(at, seq, peer));
            }
            assert_eq!(
                drain_order(&mut pump),
                vec![(1, 1), (1, 3), (1, 5), (5, 0), (5, 2), (5, 6), (9, 4)],
                "shards={shards}"
            );
        }
    }

    #[test]
    fn same_tick_push_lands_in_active_window() {
        let mut pump: EventPump<()> = EventPump::new(3, u32::MAX);
        pump.push(ev(4, 0, 0));
        pump.push(ev(4, 1, 1));
        pump.push(ev(7, 2, 2));
        assert_eq!(pump.pop().map(|e| e.seq), Some(0));
        // Mid-window push at the same tick (the pre-start flush shape).
        pump.push(ev(4, 3, 2));
        assert_eq!(pump.pop().map(|e| e.seq), Some(1));
        assert_eq!(pump.pop().map(|e| e.seq), Some(3));
        // Push at the window tick after the window drained but before the
        // next refill — still ahead of the tick-7 event.
        pump.push(ev(4, 4, 1));
        assert_eq!(pump.pop().map(|e| e.seq), Some(4));
        assert_eq!(pump.pop().map(|e| e.seq), Some(2));
        assert!(pump.pop().is_none());
    }

    #[test]
    fn payloads_route_to_owner_shard() {
        let mut pump: EventPump<&'static str> = EventPump::new(4, u32::MAX);
        let a = pump.insert_payload(PeerId(1), "one").unwrap();
        let b = pump.insert_payload(PeerId(5), "five").unwrap();
        // Peers 1 and 5 share shard 1 of 4; distinct slots in one slab.
        assert_ne!(a, b);
        let c = pump.insert_payload(PeerId(2), "two").unwrap();
        assert_eq!(pump.live_payloads(), 3);
        assert_eq!(pump.take_payload(PeerId(5), b), "five");
        assert_eq!(pump.take_payload(PeerId(1), a), "one");
        assert_eq!(pump.take_payload(PeerId(2), c), "two");
        assert_eq!(pump.live_payloads(), 0);
        assert_eq!(pump.peak_live(), 3);
        // Per-shard attribution: shard 1 peaked at 2, shard 2 at 1, the
        // rest never held a payload.
        assert_eq!(pump.peak_live_per_shard(), vec![0, 2, 1, 0]);
    }

    #[test]
    fn slab_capacity_overflows_structuredly() {
        let mut pump: EventPump<u8> = EventPump::new(1, 2);
        let a = pump.insert_payload(PeerId(0), 1).unwrap();
        let _b = pump.insert_payload(PeerId(0), 2).unwrap();
        assert_eq!(
            pump.insert_payload(PeerId(0), 3),
            Err(SlabOverflow { capacity: 2 })
        );
        // Freeing a slot makes room again (recycled, not grown).
        assert_eq!(pump.take_payload(PeerId(0), a), 1);
        assert!(pump.insert_payload(PeerId(0), 4).is_ok());
    }

    #[test]
    fn queue_peaks_count_globally_and_per_shard() {
        let mut pump: EventPump<()> = EventPump::new(2, u32::MAX);
        for seq in 0..6 {
            pump.push(ev(1 + seq, seq, seq as usize));
        }
        assert_eq!(pump.peak_queued(), 6);
        assert_eq!(pump.peak_queued_per_shard(), vec![3, 3]);
        while pump.pop().is_some() {}
        assert_eq!(pump.peak_queued(), 6);
        assert_eq!(pump.peak_queued_per_shard(), vec![3, 3]);
    }

    #[test]
    fn take_window_respects_min_and_serving_order() {
        let mut pump: EventPump<()> = EventPump::new(3, u32::MAX);
        for (at, seq, peer) in [(2, 0, 0), (2, 1, 1), (2, 2, 5), (6, 3, 2)] {
            pump.push(ev(at, seq, peer));
        }
        // Window of 3 is below a min of 4: left for pop.
        assert!(pump.take_window_at_least(4).is_none());
        let win = pump.take_window_at_least(3).expect("window of 3");
        assert_eq!(win.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(pump.queued, 1);
        // Same-tick appends made while the window is out are served before
        // the next tick's events.
        pump.push(ev(2, 4, 1));
        assert_eq!(pump.pop().map(|e| e.seq), Some(4));
        assert_eq!(pump.pop().map(|e| e.seq), Some(3));
        assert!(pump.pop().is_none());
    }

    #[test]
    fn partially_served_window_can_still_be_taken() {
        let mut pump: EventPump<()> = EventPump::new(2, u32::MAX);
        for seq in 0..4 {
            pump.push(ev(3, seq, seq as usize));
        }
        assert_eq!(pump.pop().map(|e| e.seq), Some(0));
        let rest = pump.take_window_at_least(1).expect("remainder");
        assert_eq!(
            rest.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(pump.pop().is_none());
    }

    #[test]
    fn lent_slab_accounting_moves_with_it() {
        let mut pump: EventPump<u8> = EventPump::new(2, u32::MAX);
        let s0 = pump.insert_payload(PeerId(0), 10).unwrap();
        let _s1 = pump.insert_payload(PeerId(1), 11).unwrap();
        let mut slab = pump.take_slab(0);
        assert_eq!(pump.live_payloads(), 1);
        assert_eq!(slab.take(s0), 10);
        pump.put_slab(0, slab);
        assert_eq!(pump.live_payloads(), 1);
        assert_eq!(pump.peak_live(), 2);
        assert_eq!(pump.peak_live_per_shard(), vec![1, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random pushes (same-tick appends mid-window and after a drained
        /// window included), pops and window takes, against a flat list
        /// searched for its `(at, seq)` minimum and counted naively.
        #[test]
        fn pump_serves_like_a_sorted_list(
            ops in prop::collection::vec((0u8..8, 0u64..4, 0usize..16), 1..200),
        ) {
            for shards in [1usize, 2, 3, 7] {
                let mut pump: EventPump<()> = EventPump::new(shards, u32::MAX);
                let mut pending: Vec<(Ticks, u64, usize)> = Vec::new();
                let mut pushed = Vec::new();
                let mut served = Vec::new();
                // Tick of the pump's active window: pushes may not precede it.
                let mut now: Option<Ticks> = None;
                let mut peak = 0;
                let mut peaks = vec![0u64; shards];
                let key = |e: &(Ticks, u64, usize)| (e.0, e.1);

                for &(op, dt, peer) in &ops {
                    match op {
                        0..=4 => {
                            let e = (now.unwrap_or(0) + dt, pushed.len() as u64, peer);
                            pump.push(ev(e.0, e.1, e.2));
                            pending.push(e);
                            pushed.push(e);
                            peak = peak.max(pending.len());
                            for (s, p) in peaks.iter_mut().enumerate() {
                                let depth = pending.iter().filter(|e| e.2 % shards == s).count();
                                *p = (*p).max(depth as u64);
                            }
                        }
                        5 | 6 => {
                            let want = pending.iter().copied().min_by_key(key);
                            let got = pump.pop().map(flat);
                            prop_assert_eq!(got, want, "shards={}", shards);
                            if let Some(e) = want {
                                pending.retain(|p| *p != e);
                                served.push(e);
                                now = Some(e.0);
                            }
                        }
                        _ => {
                            let min = dt as usize + 1;
                            let got = pump.take_window_at_least(min);
                            // A refused take has still moved the window on
                            // to the earliest pending tick.
                            now = pending.iter().map(|e| e.0).min().or(now);
                            let mut window: Vec<_> =
                                pending.iter().copied().filter(|e| Some(e.0) == now).collect();
                            window.sort_unstable_by_key(key);
                            if window.len() < min {
                                prop_assert!(got.is_none(), "shards={}", shards);
                            } else {
                                let got: Vec<_> = got
                                    .expect("window large enough")
                                    .into_iter()
                                    .map(flat)
                                    .collect();
                                prop_assert_eq!(&got, &window, "shards={}", shards);
                                pending.retain(|p| !window.contains(p));
                                served.extend(window);
                            }
                        }
                    }
                    prop_assert_eq!(pump.queued, pending.len());
                }
                served.extend(std::iter::from_fn(|| pump.pop()).map(flat));
                pushed.sort_unstable_by_key(key);
                prop_assert_eq!(&served, &pushed, "shards={}", shards);
                prop_assert_eq!(pump.peak_queued(), peak);
                prop_assert_eq!(pump.peak_queued_per_shard(), peaks);
            }
        }
    }
}
