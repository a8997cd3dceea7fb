//! The event pump: the queue/slab structure behind the simulator hot
//! loop, and the single source of truth for event pop order.
//!
//! [`EventPump`] owns the pending-event queue and the payload slab for a
//! run. Pending events sit in one ordered map of tick buckets; payloads
//! sit in one slab:
//!
//! * **Buckets.** `push` stamps nothing and sorts nothing: it appends the
//!   event to the `Vec` of its tick, so a bucket's append order is its
//!   serving order. A bucket entry is 16 bytes: the event kind with its
//!   peer ids narrowed to `u32`. The tick is the bucket's key, not a
//!   field, and `pop` returns it from the window. The map is ordered
//!   rather than a ring of `TICKS_PER_UNIT` slots because the horizon is
//!   not bounded by one unit: a `p`-packet message lands
//!   `(p−1)·TICKS_PER_UNIT` later still, and heal ticks and retransmission
//!   back-off reach further; a ring would need an overflow queue beside it
//!   (and a prototype ring of `2·TICKS_PER_UNIT` buckets ran the
//!   pump-bound workload no faster than the map).
//! * **Window.** All pending events sharing the minimum tick `T` form one
//!   window. Message latencies are clamped to `1..=TICKS_PER_UNIT`, so an
//!   event processed at tick `T` can only schedule events at `T + 1` or
//!   later — the window is causally closed. Refilling it is `pop_first`
//!   on the map and a swap of the bucket into the window; the drained
//!   `Vec` goes to a spare list and backs the next new tick, so a long run
//!   allocates as many buckets as it ever has ticks pending at once.
//! * **Same-tick appends.** The one exception to "new events land after
//!   the window" is the pre-start flush, which re-enqueues buffered
//!   messages at the *current* tick. Those pushes come after everything
//!   already in the window, so appending them to it keeps the window in
//!   push order.
//!
//! Events therefore pop in tick order, and within a tick in push order.
//!
//! Slot lifecycle: a slab slot holds one payload and counts its owners.
//! A broadcast stores its payload once and every recipient owns the same
//! slot; a point-to-point send is a slot with one owner. An owner is a
//! queued `Deliver` or `Retransmit` event (parked and churn-deferred
//! deliveries included), a held message, or a pre-start buffer entry, and
//! while a step's outbox is being routed the dispatch loop owns the slot
//! it filled as well, so a recipient whose message is lost on the spot
//! cannot free the slot under the recipients still to come. Whichever
//! path consumes or cancels an owner's message gives up that owner's
//! claim: the handler gets a clone while others remain and the payload
//! itself when it is the last, and the last claim given up frees the
//! slot. Occupancy, peaks and the capacity bound all count slots, which
//! is what memory holds. The simulator asserts at the end of debug runs
//! that once every owner has given up its claim no slot is left occupied.

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

/// An [`EventKind`] as a bucket stores it, peer ids narrowed to `u32`: a
/// tag and three `u32`s. Up to `k²` of these wait at once, so their size
/// is most of the pump's memory.
#[derive(Clone, Copy)]
enum QueuedEvent {
    Start(u32),
    Deliver { from: u32, to: u32, slot: u32 },
    Retransmit { from: u32, to: u32, slot: u32 },
}

/// Bytes one queued event occupies in its bucket.
const EVENT_BYTES: usize = std::mem::size_of::<QueuedEvent>();

const _: () = assert!(EVENT_BYTES == 16);

/// A peer id as a bucket stores it. `ModelParams` refuses `k > u32::MAX`,
/// so no peer of a run fails this.
fn narrow(peer: PeerId) -> u32 {
    u32::try_from(peer.index()).expect("peer ids fit in u32: ModelParams caps k")
}

impl From<EventKind> for QueuedEvent {
    fn from(kind: EventKind) -> Self {
        match kind {
            EventKind::Start(p) => QueuedEvent::Start(narrow(p)),
            EventKind::Deliver { from, to, slot } => QueuedEvent::Deliver {
                from: narrow(from),
                to: narrow(to),
                slot,
            },
            EventKind::Retransmit { from, to, slot } => QueuedEvent::Retransmit {
                from: narrow(from),
                to: narrow(to),
                slot,
            },
        }
    }
}

impl From<QueuedEvent> for EventKind {
    fn from(ev: QueuedEvent) -> Self {
        let peer = |p: u32| PeerId(p as usize);
        match ev {
            QueuedEvent::Start(p) => EventKind::Start(peer(p)),
            QueuedEvent::Deliver { from, to, slot } => EventKind::Deliver {
                from: peer(from),
                to: peer(to),
                slot,
            },
            QueuedEvent::Retransmit { from, to, slot } => EventKind::Retransmit {
                from: peer(from),
                to: peer(to),
                slot,
            },
        }
    }
}

/// The simulator's pending-event queue and payload store: tick buckets
/// drained a window at a time and one slab, popping events in tick order
/// and, within a tick, in push order.
pub(crate) struct EventPump<M> {
    slab: MsgSlab<M>,
    /// Pending events after the active window, one bucket per tick, each
    /// in push order.
    buckets: BTreeMap<Ticks, Vec<QueuedEvent>>,
    /// Emptied bucket `Vec`s, reused for new ticks.
    spare: Vec<Vec<QueuedEvent>>,
    /// Events of the active window in push order; positions before
    /// `cursor` have been popped.
    window: Vec<QueuedEvent>,
    cursor: usize,
    /// Tick of the active window. Stays set after the window drains so a
    /// same-tick push (pre-start flush) still lands in the window rather
    /// than a bucket.
    window_at: Option<Ticks>,
    /// Slab slot capacity; inserting past it yields [`SlabOverflow`].
    capacity: u32,
    queued: usize,
    peak_queued: usize,
}

impl<M> EventPump<M> {
    /// Creates a pump whose slab holds at most `capacity` slots.
    pub(crate) fn new(capacity: u32) -> Self {
        EventPump {
            slab: MsgSlab::new(),
            buckets: BTreeMap::new(),
            spare: Vec::new(),
            window: Vec::new(),
            cursor: 0,
            window_at: None,
            capacity,
            queued: 0,
            peak_queued: 0,
        }
    }

    /// Queues `kind` at tick `at`, behind everything already queued there.
    pub(crate) fn push(&mut self, at: Ticks, kind: EventKind) {
        let ev = QueuedEvent::from(kind);
        match self.window_at {
            // Same-tick append (pre-start flush): the window is still
            // being served, and this push comes after all of it.
            Some(t) if at == t => self.window.push(ev),
            earlier => {
                debug_assert!(
                    earlier.is_none_or(|t| at > t),
                    "event scheduled before the active window (latency < 1?)"
                );
                let spare = &mut self.spare;
                self.buckets
                    .entry(at)
                    .or_insert_with(|| spare.pop().unwrap_or_default())
                    .push(ev);
            }
        }
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
        let mut drained = std::mem::replace(&mut self.window, bucket);
        drained.clear();
        self.spare.push(drained);
        self.cursor = 0;
        self.window_at = Some(t);
        true
    }

    /// The next event and its tick: the earliest tick first, and within a
    /// tick the first pushed.
    pub(crate) fn pop(&mut self) -> Option<(Ticks, EventKind)> {
        if self.cursor >= self.window.len() && !self.refill() {
            return None;
        }
        let ev = self.window[self.cursor];
        self.cursor += 1;
        self.queued -= 1;
        let at = self.window_at.expect("a filled window has a tick");
        Some((at, ev.into()))
    }

    /// Stores a payload under one owner.
    pub(crate) fn insert_payload(&mut self, msg: M) -> Result<u32, SlabOverflow> {
        self.slab.insert(msg, self.capacity)
    }

    /// The payload in `slot`.
    pub(crate) fn payload(&self, slot: u32) -> &M {
        self.slab.get(slot)
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
        self.peak_queued
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

    /// Push number `i` of a test: the three kinds in turn, every field
    /// derived from `i` (ids and slots up to `u32::MAX`), and `i` as the
    /// subject, so a popped event says which push it was.
    fn nth(i: usize) -> EventKind {
        let far = PeerId(u32::MAX as usize - i);
        let slot = u32::MAX - i as u32;
        match i % 3 {
            0 => EventKind::Start(PeerId(i)),
            1 => EventKind::Deliver {
                from: far,
                to: PeerId(i),
                slot,
            },
            _ => EventKind::Retransmit {
                from: far,
                to: PeerId(i),
                slot,
            },
        }
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

    #[test]
    fn pops_by_tick_then_push_order() {
        let mut pump = EventPump::new(u32::MAX);
        // Ticks in a scrambled order.
        for (i, at) in [5, 1, 5, 1, 9, 1, 5].into_iter().enumerate() {
            pump.push(at, nth(i));
        }
        assert_eq!(
            drain(&mut pump),
            vec![(1, 1), (1, 3), (1, 5), (5, 0), (5, 2), (5, 6), (9, 4)],
        );
    }

    #[test]
    fn same_tick_push_lands_in_active_window() {
        let mut pump: EventPump<()> = EventPump::new(u32::MAX);
        pump.push(4, nth(0));
        pump.push(4, nth(1));
        pump.push(7, nth(2));
        assert_eq!(pump.pop().map(which), Some((4, 0)));
        // Mid-window push at the same tick (the pre-start flush shape).
        pump.push(4, nth(3));
        assert_eq!(pump.pop().map(which), Some((4, 1)));
        assert_eq!(pump.pop().map(which), Some((4, 3)));
        // Push at the window tick after the window drained but before the
        // next refill — still ahead of the tick-7 event.
        pump.push(4, nth(4));
        assert_eq!(pump.pop().map(which), Some((4, 4)));
        assert_eq!(pump.pop().map(which), Some((7, 2)));
        assert!(pump.pop().is_none());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    #[should_panic(expected = "peer ids fit in u32")]
    fn a_peer_id_past_u32_is_refused() {
        let mut pump: EventPump<()> = EventPump::new(u32::MAX);
        pump.push(1, EventKind::Start(PeerId(u32::MAX as usize + 1)));
    }

    #[test]
    fn payloads_keep_distinct_slots_and_count_live() {
        let mut pump: EventPump<&'static str> = EventPump::new(u32::MAX);
        let a = pump.insert_payload("one").unwrap();
        let b = pump.insert_payload("five").unwrap();
        assert_ne!(a, b);
        let c = pump.insert_payload("two").unwrap();
        assert_eq!(pump.live_payloads(), 3);
        assert_eq!(pump.take_payload(b), "five");
        assert_eq!(pump.take_payload(a), "one");
        assert_eq!(pump.take_payload(c), "two");
        assert_eq!(pump.live_payloads(), 0);
        assert_eq!(pump.peak_live(), 3);
    }

    #[test]
    fn slab_capacity_overflows_structuredly() {
        let mut pump: EventPump<u8> = EventPump::new(2);
        let a = pump.insert_payload(1).unwrap();
        let _b = pump.insert_payload(2).unwrap();
        assert_eq!(pump.insert_payload(3), Err(SlabOverflow { capacity: 2 }));
        // Freeing a slot makes room again (recycled, not grown).
        assert_eq!(pump.take_payload(a), 1);
        assert!(pump.insert_payload(4).is_ok());
    }

    #[test]
    fn queue_peak_survives_the_drain() {
        let mut pump: EventPump<()> = EventPump::new(u32::MAX);
        for i in 0..6 {
            pump.push(1 + i as Ticks, nth(i));
        }
        assert_eq!(pump.peak_queued(), 6);
        while pump.pop().is_some() {}
        assert_eq!(pump.peak_queued(), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random pushes (same-tick appends mid-window and after a drained
        /// window included) and pops, against a flat list searched for its
        /// `(tick, push number)` minimum and counted naively.
        #[test]
        fn pump_serves_like_a_sorted_list(
            ops in prop::collection::vec((0u8..7, 0u64..4), 1..200),
        ) {
            let mut pump: EventPump<()> = EventPump::new(u32::MAX);
            let mut pending: Vec<(Ticks, usize)> = Vec::new();
            let mut pushed = Vec::new();
            let mut served = Vec::new();
            // Tick of the pump's active window: pushes may not precede it.
            let mut now: Option<Ticks> = None;
            let mut peak = 0;

            for &(op, dt) in &ops {
                match op {
                    0..=4 => {
                        let e = (now.unwrap_or(0) + dt, pushed.len());
                        pump.push(e.0, nth(e.1));
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
                            now = Some(e.0);
                        }
                    }
                }
                prop_assert_eq!(pump.queued, pending.len());
            }
            served.extend(drain(&mut pump));
            pushed.sort_unstable();
            prop_assert_eq!(&served, &pushed);
            prop_assert_eq!(pump.peak_queued(), peak);
        }
    }
}
