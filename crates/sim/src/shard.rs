//! The event pump: the queue/slab structure behind the simulator hot
//! loop, and the single source of truth for event pop order.
//!
//! [`EventPump`] owns the pending-event queue and the payload slab for a
//! run. Pending events sit in tick buckets; payloads sit in one slab:
//!
//! * **Events.** A queued event is 8 bytes: the recipient as a `u32` and
//!   one slot word. The word is the payload's slab slot for a `Deliver`,
//!   the slot with its top bit set for a `Retransmit`, and `u32::MAX` for
//!   a `Start`. The sender is not stored: every owner of a slot was sent
//!   by the same peer, so the slot keeps it, and `pop` reads it back from
//!   there. The tick is the bucket's, not a field. Up to `k²` events wait
//!   at once (an all-to-all claim exchange), so their size is most of the
//!   pump's memory.
//! * **Buckets.** `push` stamps nothing and sorts nothing: it appends the
//!   event to the bucket of its tick, so a bucket's append order is its
//!   serving order. A tick near the active window has its bucket in a
//!   ring indexed by the tick's low bits, found without a search. The
//!   ring starts one time unit wide and doubles when a push lands past
//!   it, up to [`MAX_RING_TICKS`] = 16 units, so a message of up to 16
//!   packets lands in it (every claim of the cycle protocols at the
//!   benchmark's sizes is 7 to 13) while a run whose messages all land
//!   within a unit, or farther than 16, keeps a 4 KB ring. A farther
//!   tick — a longer message, a heal tick, a long back-off — has its
//!   bucket in an ordered map. When the window's advance brings such a
//!   tick into the ring's span, later pushes to it go to its ring bucket;
//!   every push into the map bucket came before them, so the map bucket
//!   is served first.
//! * **Window.** All pending events sharing the minimum tick `T` form one
//!   window. Message latencies are clamped to `1..=TICKS_PER_UNIT`, so an
//!   event processed at tick `T` can only schedule events at `T + 1` or
//!   later — the window is causally closed. Refilling it finds the first
//!   occupied ring tick in an occupancy bitmap, compares it with the
//!   map's first key, and swaps the earlier bucket into the window. The
//!   drained `Vec` is kept for the next new tick, so a long run allocates
//!   as many buckets as it ever has ticks pending at once, and the ring
//!   itself is one `u32` handle per tick. None of this depends on the
//!   message type, so it is one non-generic `TickQueue`.
//! * **Same-tick appends.** The one exception to "new events land after
//!   the window" is the pre-start flush, which re-enqueues buffered
//!   messages at the *current* tick. Those pushes come after everything
//!   already in the window, so appending them to it keeps the window in
//!   push order.
//!
//! Events therefore pop in tick order, and within a tick in push order.
//!
//! Slot lifecycle: a slab slot holds one payload, its sender, and counts
//! its owners. A broadcast stores its payload once and every recipient
//! owns the same slot; a point-to-point send is a slot with one owner. An
//! owner is a queued `Deliver` or `Retransmit` event (parked and
//! churn-deferred deliveries included), a held message, or a pre-start
//! buffer entry, and while a step's outbox is being routed the dispatch
//! loop owns the slot it filled as well, so a recipient whose message is
//! lost on the spot cannot free the slot under the recipients still to
//! come. Whichever path consumes or cancels an owner's message gives up
//! that owner's claim: the handler gets a clone while others remain and
//! the payload itself when it is the last, and the last claim given up
//! frees the slot. Occupancy, peaks and the capacity bound all count
//! slots, which is what memory holds. The simulator asserts at the end of
//! debug runs that once every owner has given up its claim no slot is
//! left occupied.

use crate::time::{Ticks, TICKS_PER_UNIT};
use dr_core::PeerId;
use std::collections::BTreeMap;

/// One slab cell: a payload, its sender, and the number of owners (queued
/// deliveries, pending resends, held messages, pre-start entries, the
/// dispatch loop while it routes) that still refer to it. Vacant cells
/// have no owners.
struct Slot<M> {
    msg: Option<M>,
    owners: u32,
    /// The sender, which queued events do not store. It sits in the
    /// padding after `owners` for payloads aligned to 8 bytes.
    from: u32,
}

/// Bytes one slab slot takes for payload type `M`: the payload, its owner
/// count and its sender. Message types assert with it that the sender
/// fits in the slot's padding.
#[doc(hidden)]
pub const fn slab_slot_bytes<M>() -> usize {
    std::mem::size_of::<Slot<M>>()
}

/// Slot-indexed, reference-counted store for message payloads.
///
/// A hand-rolled slab: `insert` hands out a `u32` slot with one owner
/// (recycling freed slots LIFO), `retain` adds an owner, and `take` /
/// `release` give one up, the last of them emptying and freeing the slot.
/// A broadcast is one slot shared by its recipients; a point-to-point send
/// is a slot with one owner. Payloads stay put for their whole queued/held
/// lifetime — only slot indices move through the event queue. The slab
/// tracks its own live/peak occupancy, in slots.
pub(crate) struct MsgSlab<M> {
    slots: Vec<Slot<M>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
}

impl<M> MsgSlab<M> {
    fn new() -> Self {
        MsgSlab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    /// Stores a payload sent by `from` under one owner, recycling a freed
    /// slot when one exists and growing the slab otherwise. Fails (instead
    /// of panicking) when growth would exceed `capacity` slots.
    fn insert(&mut self, msg: M, from: PeerId, capacity: u32) -> Result<u32, SlabOverflow> {
        let cell = Slot {
            msg: Some(msg),
            owners: 1,
            from: narrow(from),
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

    /// The sender of the payload in `slot`, which must have an owner.
    fn sender(&self, slot: u32) -> PeerId {
        let cell = &self.slots[slot as usize];
        debug_assert!(cell.owners > 0, "message slot already freed");
        PeerId(cell.from as usize)
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
    fn take(&mut self, slot: u32) -> M
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
    fn release(&mut self, slot: u32) {
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
}

/// The payload slab filled up: inserting one more message would grow it
/// past its configured slot capacity. Surfaced through
/// [`RunError::SlabOverflow`](crate::RunError::SlabOverflow) instead of
/// aborting mid-pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlabOverflow {
    /// The slot capacity that was hit.
    pub capacity: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventKind {
    Start(PeerId),
    Deliver {
        from: PeerId,
        to: PeerId,
        slot: u32,
    },
    /// A backed-off resend attempt of a dropped transmission fires: the
    /// payload still sits in the slab at `slot` (the event owns the slot,
    /// like a queued delivery), and the run loop re-consults the
    /// adversary's transmit decision. Never steps an agent.
    Retransmit {
        from: PeerId,
        to: PeerId,
        slot: u32,
    },
}

impl EventKind {
    /// The peer an event steps.
    pub(crate) fn subject(self) -> PeerId {
        match self {
            EventKind::Start(p) => p,
            EventKind::Deliver { to, .. } => to,
            EventKind::Retransmit { to, .. } => to,
        }
    }
}

/// The slot word of a queued `Start`, which has no payload.
const START: u32 = u32::MAX;

/// The bit of a slot word that marks a `Retransmit`.
const RETRANSMIT: u32 = 1 << 31;

/// The largest slot a queued event can address: a `Retransmit` of it
/// sets [`RETRANSMIT`] and must still differ from [`START`].
const MAX_SLOT: u32 = RETRANSMIT - 2;

/// The most slab slots a run can use (slots `0..=MAX_SLOT`, 2³¹ − 1).
pub(crate) const SLOT_LIMIT: u32 = MAX_SLOT + 1;

/// An [`EventKind`] as a bucket stores it: the recipient and a slot word
/// ([`START`], the slot, or the slot with [`RETRANSMIT`] set). The sender
/// is its payload slot's.
#[derive(Clone, Copy)]
struct QueuedEvent {
    to: u32,
    word: u32,
}

const _: () = assert!(std::mem::size_of::<QueuedEvent>() == 8);

/// A peer id as the pump stores it. `ModelParams` refuses `k > u32::MAX`,
/// so no peer of a run fails this.
fn narrow(peer: PeerId) -> u32 {
    u32::try_from(peer.index()).expect("peer ids fit in u32: ModelParams caps k")
}

impl QueuedEvent {
    fn encode(kind: EventKind) -> Self {
        let (to, word) = match kind {
            EventKind::Start(p) => (p, START),
            EventKind::Deliver { to, slot, .. } => (to, slot),
            EventKind::Retransmit { to, slot, .. } => (to, slot | RETRANSMIT),
        };
        debug_assert!(
            word == START || word & !RETRANSMIT <= MAX_SLOT,
            "slot past the slab's slot limit"
        );
        QueuedEvent {
            to: narrow(to),
            word,
        }
    }

    /// The event back, its sender looked up by slot through `sender`.
    fn decode(self, sender: impl FnOnce(u32) -> PeerId) -> EventKind {
        let to = PeerId(self.to as usize);
        if self.word == START {
            return EventKind::Start(to);
        }
        let slot = self.word & !RETRANSMIT;
        let from = sender(slot);
        if self.word & RETRANSMIT == 0 {
            EventKind::Deliver { from, to, slot }
        } else {
            EventKind::Retransmit { from, to, slot }
        }
    }
}

/// The widest the bucket ring grows: a tick less than this far past the
/// active window can have its bucket in the ring.
const MAX_RING_TICKS: usize = 16 * TICKS_PER_UNIT as usize;

/// The ring's span before any push lands farther out: one time unit, where
/// every single-packet message lands.
const FIRST_RING_TICKS: usize = TICKS_PER_UNIT as usize;

const _: () = assert!(
    FIRST_RING_TICKS.is_power_of_two()
        && FIRST_RING_TICKS >= 64
        && MAX_RING_TICKS.is_power_of_two()
        && MAX_RING_TICKS >= FIRST_RING_TICKS
);

/// The pending events, in tick buckets drained a window at a time. It
/// orders events and knows nothing of their payloads, so it is one type
/// for every message type.
struct TickQueue {
    /// Every bucket `Vec`, addressed by handle: the ring and the map hold
    /// handles, and `idle` lists those of emptied buckets, reused for new
    /// ticks.
    buckets: Vec<Vec<QueuedEvent>>,
    idle: Vec<u32>,
    /// `ring[t % ring.len()]` is one plus the handle of tick `t`'s bucket
    /// for `t` in `(now, now + ring.len())`, or 0 if no event waits at
    /// `t`; `occupied` has the same non-zero entries as bits. The length
    /// is a power of two, so a tick's ring index is its low bits.
    ring: Vec<u32>,
    occupied: Vec<u64>,
    /// Buckets of ticks that were [`MAX_RING_TICKS`] or more past the
    /// window when first pushed to, each in push order.
    far: BTreeMap<Ticks, u32>,
    /// Events of the active window in push order; positions before
    /// `cursor` have been popped.
    window: Vec<QueuedEvent>,
    cursor: usize,
    /// Tick of the active window (0 before the first pop). It stays after
    /// the window drains, so a same-tick push (pre-start flush) still
    /// lands in the window rather than a bucket.
    now: Ticks,
    queued: usize,
    peak_queued: usize,
}

/// The handle of an empty bucket: an idle one, or a new one.
fn open_bucket(buckets: &mut Vec<Vec<QueuedEvent>>, idle: &mut Vec<u32>) -> u32 {
    idle.pop().unwrap_or_else(|| {
        buckets.push(Vec::new());
        (buckets.len() - 1) as u32
    })
}

impl TickQueue {
    fn new() -> Self {
        TickQueue {
            buckets: Vec::new(),
            idle: Vec::new(),
            ring: vec![0; FIRST_RING_TICKS],
            occupied: vec![0; FIRST_RING_TICKS / 64],
            far: BTreeMap::new(),
            window: Vec::new(),
            cursor: 0,
            now: 0,
            queued: 0,
            peak_queued: 0,
        }
    }

    /// Queues `ev` at tick `at`, behind everything already queued there.
    fn push(&mut self, at: Ticks, ev: QueuedEvent) {
        debug_assert!(
            at >= self.now,
            "event scheduled before the active window (latency < 1?)"
        );
        let ahead = at.wrapping_sub(self.now);
        if ahead == 0 {
            // Same-tick append (pre-start flush): the window is still
            // being served, and this push comes after all of it.
            self.window.push(ev);
        } else if ahead < MAX_RING_TICKS as Ticks {
            if ahead >= self.ring.len() as Ticks {
                self.widen_ring(ahead);
            }
            let i = at as usize & (self.ring.len() - 1);
            if self.ring[i] == 0 {
                self.ring[i] = open_bucket(&mut self.buckets, &mut self.idle) + 1;
                self.occupied[i / 64] |= 1 << (i % 64);
            }
            self.buckets[self.ring[i] as usize - 1].push(ev);
        } else {
            let (buckets, idle) = (&mut self.buckets, &mut self.idle);
            let handle = *self
                .far
                .entry(at)
                .or_insert_with(|| open_bucket(buckets, idle));
            self.buckets[handle as usize].push(ev);
        }
        self.queued += 1;
        self.peak_queued = self.peak_queued.max(self.queued);
    }

    /// The tick whose ring index is `i`: the one in `(now, now +
    /// ring.len())`.
    fn ring_tick(&self, i: usize) -> Ticks {
        let ahead = i.wrapping_sub(self.now as usize) & (self.ring.len() - 1);
        self.now + ahead as Ticks
    }

    /// Doubles the ring until it spans `ahead`, moving each bucket handle
    /// to its tick's index in the wider ring. A run whose pushes never
    /// land more than a unit ahead keeps the first, small ring.
    fn widen_ring(&mut self, ahead: Ticks) {
        let span = (ahead as usize + 1).next_power_of_two();
        let mut ring = vec![0; span];
        let mut occupied = vec![0u64; span / 64];
        for (i, &handle) in self.ring.iter().enumerate() {
            if handle != 0 {
                let j = self.ring_tick(i) as usize & (span - 1);
                ring[j] = handle;
                occupied[j / 64] |= 1 << (j % 64);
            }
        }
        self.ring = ring;
        self.occupied = occupied;
    }

    /// The first tick after the window with a ring bucket, if any.
    fn next_ring_tick(&self) -> Option<Ticks> {
        let from = (self.now as usize + 1) & (self.ring.len() - 1);
        let words = self.occupied.len();
        let mut w = from / 64;
        let mut bits = self.occupied[w] & (!0 << (from % 64));
        // One lap over the words, back to the first one's low bits.
        for _ in 0..=words {
            if bits != 0 {
                return Some(self.ring_tick(w * 64 + bits.trailing_zeros() as usize));
            }
            w = (w + 1) % words;
            bits = self.occupied[w];
        }
        None
    }

    /// Appends the bucket `handle` to the window and idles it.
    fn drain_into_window(&mut self, handle: u32) {
        let bucket = &mut self.buckets[handle as usize];
        if self.window.is_empty() {
            std::mem::swap(&mut self.window, bucket);
        } else {
            self.window.extend_from_slice(bucket);
            bucket.clear();
        }
        self.idle.push(handle);
    }

    /// Makes the earliest pending tick the active window: its map bucket,
    /// then its ring bucket. Returns `false` if nothing is pending.
    fn refill(&mut self) -> bool {
        debug_assert!(self.cursor >= self.window.len());
        let near = self.next_ring_tick();
        let far = self.far.first_key_value().map(|(&t, _)| t);
        let at = match (near, far) {
            (Some(near), Some(far)) => near.min(far),
            (Some(at), None) | (None, Some(at)) => at,
            (None, None) => return false,
        };
        self.window.clear();
        self.cursor = 0;
        self.now = at;
        if far == Some(at) {
            let (_, handle) = self.far.pop_first().expect("the map's first tick");
            self.drain_into_window(handle);
        }
        if near == Some(at) {
            let i = at as usize & (self.ring.len() - 1);
            let handle = std::mem::take(&mut self.ring[i]) - 1;
            self.occupied[i / 64] &= !(1 << (i % 64));
            self.drain_into_window(handle);
        }
        true
    }

    /// The next event and its tick: the earliest tick first, and within a
    /// tick the first pushed.
    fn pop(&mut self) -> Option<(Ticks, QueuedEvent)> {
        if self.cursor >= self.window.len() && !self.refill() {
            return None;
        }
        let ev = self.window[self.cursor];
        self.cursor += 1;
        self.queued -= 1;
        Some((self.now, ev))
    }
}

/// The simulator's pending-event queue and payload store: tick buckets
/// drained a window at a time and one slab, popping events in tick order
/// and, within a tick, in push order.
pub(crate) struct EventPump<M> {
    slab: MsgSlab<M>,
    queue: TickQueue,
    /// Slab slot capacity; inserting past it yields [`SlabOverflow`].
    capacity: u32,
}

impl<M> EventPump<M> {
    /// Creates a pump whose slab holds at most `capacity` slots, which
    /// must not exceed [`SLOT_LIMIT`].
    pub(crate) fn new(capacity: u32) -> Self {
        assert!(
            capacity <= SLOT_LIMIT,
            "slab capacity {capacity} past the {SLOT_LIMIT} slots a queued event can address"
        );
        EventPump {
            slab: MsgSlab::new(),
            queue: TickQueue::new(),
            capacity,
        }
    }

    /// Queues `kind` at tick `at`, behind everything already queued there.
    /// A delivery's or resend's `from` must be its slot's sender.
    pub(crate) fn push(&mut self, at: Ticks, kind: EventKind) {
        debug_assert!(
            match kind {
                EventKind::Start(_) => true,
                EventKind::Deliver { from, slot, .. }
                | EventKind::Retransmit { from, slot, .. } => self.slab.sender(slot) == from,
            },
            "queued event names a sender its slot does not"
        );
        self.queue.push(at, QueuedEvent::encode(kind));
    }

    /// The next event and its tick: the earliest tick first, and within a
    /// tick the first pushed.
    pub(crate) fn pop(&mut self) -> Option<(Ticks, EventKind)> {
        let (at, ev) = self.queue.pop()?;
        Some((at, ev.decode(|slot| self.slab.sender(slot))))
    }

    /// Stores a payload sent by `from` under one owner.
    pub(crate) fn insert_payload(&mut self, msg: M, from: PeerId) -> Result<u32, SlabOverflow> {
        self.slab.insert(msg, from, self.capacity)
    }

    /// The payload in `slot`.
    pub(crate) fn payload(&self, slot: u32) -> &M {
        self.slab.get(slot)
    }

    /// The sender of the payload in `slot`.
    pub(crate) fn sender(&self, slot: u32) -> PeerId {
        self.slab.sender(slot)
    }

    /// Adds an owner to `slot`.
    pub(crate) fn retain_payload(&mut self, slot: u32) {
        self.slab.retain(slot);
    }

    /// Hands one owner its payload: a clone while the slot has other
    /// owners, the payload itself — freeing the slot — for the last.
    pub(crate) fn take_payload(&mut self, slot: u32) -> M
    where
        M: Clone,
    {
        self.slab.take(slot)
    }

    /// Gives up one owner's claim on `slot` without reading it; the last
    /// release frees the slot.
    pub(crate) fn release_payload(&mut self, slot: u32) {
        self.slab.release(slot);
    }

    /// Slots currently occupied. Read only by the debug-build slab-leak
    /// check and the unit tests.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn live_payloads(&self) -> usize {
        self.slab.live
    }

    /// Peak queue occupancy over the run.
    pub(crate) fn peak_queued(&self) -> usize {
        self.queue.peak_queued
    }

    /// Peak occupied slots over the run.
    pub(crate) fn peak_live(&self) -> usize {
        self.slab.peak_live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sender of push number `i`: ids up to `u32::MAX`, so narrowing
    /// and the slot's copy are checked at both ends.
    fn sender(i: usize) -> PeerId {
        PeerId(u32::MAX as usize - i)
    }

    /// Push number `i` of a test: the three kinds in turn, `i` as the
    /// subject (so a popped event says which push it was) and, for a
    /// delivery or resend, slot `i` sent by [`sender`]`(i)`.
    fn nth(i: usize) -> EventKind {
        let (from, to, slot) = (sender(i), PeerId(i), i as u32);
        match i % 3 {
            0 => EventKind::Start(to),
            1 => EventKind::Deliver { from, to, slot },
            _ => EventKind::Retransmit { from, to, slot },
        }
    }

    /// Queues push number `i` at `at`. Every push stores one payload
    /// first, and the tests free none, so push `i` owns slot `i`.
    fn push_nth(pump: &mut EventPump<()>, at: Ticks, i: usize) {
        assert_eq!(pump.insert_payload((), sender(i)), Ok(i as u32));
        pump.push(at, nth(i));
    }

    /// `(tick, push number)` of a popped event, once it is checked to have
    /// come back with every field it was pushed with.
    fn which((at, kind): (Ticks, EventKind)) -> (Ticks, usize) {
        let i = kind.subject().index();
        assert_eq!(kind, nth(i), "event {i} changed in the queue");
        (at, i)
    }

    fn drain(pump: &mut EventPump<()>) -> Vec<(Ticks, usize)> {
        std::iter::from_fn(|| pump.pop()).map(which).collect()
    }

    fn pump() -> EventPump<()> {
        EventPump::new(SLOT_LIMIT)
    }

    const RING: Ticks = MAX_RING_TICKS as Ticks;
    const FIRST: Ticks = FIRST_RING_TICKS as Ticks;

    #[test]
    fn pops_by_tick_then_push_order() {
        let mut pump = pump();
        // Ticks in a scrambled order, some past the ring.
        let ticks = [5, 1, 5, 1, 9, 1, 5, RING + 1, RING, 2 * RING + 3, RING];
        for (i, at) in ticks.into_iter().enumerate() {
            push_nth(&mut pump, at, i);
        }
        assert_eq!(
            drain(&mut pump),
            vec![
                (1, 1),
                (1, 3),
                (1, 5),
                (5, 0),
                (5, 2),
                (5, 6),
                (9, 4),
                (RING, 8),
                (RING, 10),
                (RING + 1, 7),
                (2 * RING + 3, 9),
            ],
        );
    }

    #[test]
    fn same_tick_push_lands_in_active_window() {
        let mut pump = pump();
        push_nth(&mut pump, 4, 0);
        push_nth(&mut pump, 4, 1);
        push_nth(&mut pump, 7, 2);
        assert_eq!(pump.pop().map(which), Some((4, 0)));
        // Mid-window push at the same tick (the pre-start flush shape).
        push_nth(&mut pump, 4, 3);
        assert_eq!(pump.pop().map(which), Some((4, 1)));
        assert_eq!(pump.pop().map(which), Some((4, 3)));
        // Push at the window tick after the window drained but before the
        // next refill — still ahead of the tick-7 event.
        push_nth(&mut pump, 4, 4);
        assert_eq!(pump.pop().map(which), Some((4, 4)));
        assert_eq!(pump.pop().map(which), Some((7, 2)));
        assert!(pump.pop().is_none());
    }

    /// Tick `T` is pushed to while it lies past the ring (its map bucket)
    /// and again once the window has advanced far enough to bring it into
    /// the ring's span (its ring bucket): `T`'s events still pop in push
    /// order, between the ring ticks around them.
    #[test]
    fn a_tick_entering_the_ring_keeps_push_order() {
        let mut pump = pump();
        let t = RING + 40;
        push_nth(&mut pump, t, 0);
        push_nth(&mut pump, 50, 1);
        push_nth(&mut pump, t, 2);
        assert_eq!(pump.pop().map(which), Some((50, 1)));
        // The window is at 50, so `t` is now inside the ring's span.
        push_nth(&mut pump, t, 3);
        push_nth(&mut pump, t - 1, 4);
        push_nth(&mut pump, t + 1, 5);
        push_nth(&mut pump, t, 6);
        assert_eq!(
            drain(&mut pump),
            vec![(t - 1, 4), (t, 0), (t, 2), (t, 3), (t, 6), (t + 1, 5)],
        );
    }

    /// Buckets that wrap round the first ring (the window well past tick
    /// 0) keep their ticks when a far push widens it, twice.
    #[test]
    fn widening_the_ring_keeps_every_tick() {
        let mut pump = pump();
        // Far enough to go to the map, so the ring stays at its first span.
        let now = RING + 5 * FIRST + 7;
        push_nth(&mut pump, now, 0);
        assert_eq!(pump.queue.ring.len(), FIRST_RING_TICKS);
        assert_eq!(pump.pop().map(which), Some((now, 0)));
        // Ticks either side of the first ring's wrap point.
        let near = [FIRST - 1, FIRST - 10, 1, FIRST / 2];
        for (i, ahead) in near.into_iter().enumerate() {
            push_nth(&mut pump, now + ahead, 1 + i);
        }
        push_nth(&mut pump, now + 2 * FIRST, 5);
        assert_eq!(pump.queue.ring.len(), 4 * FIRST_RING_TICKS);
        push_nth(&mut pump, now + RING - 1, 6);
        assert_eq!(pump.queue.ring.len(), MAX_RING_TICKS);
        push_nth(&mut pump, now + FIRST - 1, 7);
        assert_eq!(
            drain(&mut pump),
            vec![
                (now + 1, 3),
                (now + FIRST / 2, 4),
                (now + FIRST - 10, 2),
                (now + FIRST - 1, 1),
                (now + FIRST - 1, 7),
                (now + 2 * FIRST, 5),
                (now + RING - 1, 6),
            ],
        );
    }

    /// Every kind comes back from its 8-byte form with `from` read through
    /// the slot, at the first and the largest slot a queued event can
    /// address.
    #[test]
    fn queued_events_round_trip_through_eight_bytes() {
        let (from, to) = (PeerId(u32::MAX as usize), PeerId(u32::MAX as usize - 1));
        for slot in [0, 1, MAX_SLOT - 1, MAX_SLOT] {
            for kind in [
                EventKind::Start(to),
                EventKind::Deliver { from, to, slot },
                EventKind::Retransmit { from, to, slot },
            ] {
                let looked_up = |s: u32| {
                    assert_eq!(s, slot, "sender looked up for the wrong slot");
                    from
                };
                assert_eq!(QueuedEvent::encode(kind).decode(looked_up), kind);
            }
        }
        // A start reads no slot.
        let start = QueuedEvent::encode(EventKind::Start(to));
        let no_lookup = |_: u32| -> PeerId { panic!("a start has no sender") };
        assert_eq!(start.decode(no_lookup), EventKind::Start(to));
    }

    #[test]
    #[should_panic(expected = "slots a queued event can address")]
    fn a_capacity_past_the_slot_limit_is_refused() {
        EventPump::<()>::new(SLOT_LIMIT + 1);
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "peer ids fit in u32")]
    fn a_peer_id_past_u32_is_refused() {
        pump().push(1, EventKind::Start(PeerId(u32::MAX as usize + 1)));
    }

    #[test]
    fn payloads_keep_distinct_slots_and_count_live() {
        let mut pump: EventPump<&'static str> = EventPump::new(SLOT_LIMIT);
        let a = pump.insert_payload("one", PeerId(3)).unwrap();
        let b = pump.insert_payload("five", PeerId(7)).unwrap();
        assert_ne!(a, b);
        let c = pump.insert_payload("two", PeerId(0)).unwrap();
        assert_eq!(pump.live_payloads(), 3);
        assert_eq!((pump.sender(a), pump.sender(b)), (PeerId(3), PeerId(7)));
        assert_eq!(pump.take_payload(b), "five");
        assert_eq!(pump.take_payload(a), "one");
        assert_eq!(pump.take_payload(c), "two");
        assert_eq!(pump.live_payloads(), 0);
        assert_eq!(pump.peak_live(), 3);
    }

    #[test]
    fn slab_capacity_overflows_structuredly() {
        let mut pump: EventPump<u8> = EventPump::new(2);
        let a = pump.insert_payload(1, PeerId(0)).unwrap();
        let _b = pump.insert_payload(2, PeerId(0)).unwrap();
        assert_eq!(
            pump.insert_payload(3, PeerId(0)),
            Err(SlabOverflow { capacity: 2 })
        );
        // Freeing a slot makes room again (recycled, not grown), and the
        // recycled slot names its new sender.
        assert_eq!(pump.take_payload(a), 1);
        assert_eq!(pump.insert_payload(4, PeerId(9)), Ok(a));
        assert_eq!(pump.sender(a), PeerId(9));
    }

    #[test]
    fn queue_peak_survives_the_drain() {
        let mut pump = pump();
        for i in 0..6 {
            push_nth(&mut pump, 1 + i as Ticks, i);
        }
        assert_eq!(pump.peak_queued(), 6);
        while pump.pop().is_some() {}
        assert_eq!(pump.peak_queued(), 6);
    }

    /// How far past the window a test push lands: the window itself, a few
    /// ticks on, either side of the first ring's edge and of a widened
    /// one's, the widest ring's last tick, its first tick past, and
    /// several spans on.
    const AHEAD: [Ticks; 14] = [
        0,
        1,
        2,
        3,
        FIRST - 1,
        FIRST,
        3 * FIRST - 1,
        3 * FIRST + 1,
        RING - 1,
        RING,
        RING + 1,
        2 * RING - 1,
        3 * RING + 5,
        7 * RING,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random pushes (same-tick appends mid-window and after a drained
        /// window included, and ticks on both sides of the ring's far
        /// edge) and pops, against a flat list searched for its
        /// `(tick, push number)` minimum and counted naively.
        #[test]
        fn pump_serves_like_a_sorted_list(
            ops in prop::collection::vec((0u8..7, 0usize..AHEAD.len()), 1..200),
        ) {
            let mut pump = pump();
            let mut pending: Vec<(Ticks, usize)> = Vec::new();
            let mut pushed = Vec::new();
            let mut served = Vec::new();
            // Tick of the pump's active window: pushes may not precede it.
            let mut now: Ticks = 0;
            let mut peak = 0;

            for &(op, ahead) in &ops {
                match op {
                    0..=4 => {
                        let e = (now + AHEAD[ahead], pushed.len());
                        push_nth(&mut pump, e.0, e.1);
                        pending.push(e);
                        pushed.push(e);
                        peak = peak.max(pending.len());
                    }
                    _ => {
                        let want = pending.iter().copied().min();
                        prop_assert_eq!(pump.pop().map(which), want);
                        if let Some(e) = want {
                            pending.retain(|p| *p != e);
                            served.push(e);
                            now = e.0;
                        }
                    }
                }
                prop_assert_eq!(pump.queue.queued, pending.len());
            }
            served.extend(drain(&mut pump));
            pushed.sort_unstable();
            prop_assert_eq!(&served, &pushed);
            prop_assert_eq!(pump.peak_queued(), peak);
        }
    }
}
