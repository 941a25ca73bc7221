//! The pending-event set.
//!
//! One production implementation, [`CalendarQueue`], serves both engines;
//! [`HeapQueue`] is the reference oracle the property tests and the
//! benchmark's hold-model probe compare it against. Both pop in
//! [`EventKey`] order.
//!
//! A network simulation packs its events onto few distinct timestamps (the
//! profiled paper-scale run: 2.41 M events on 50,533 nanoseconds, peak
//! depth 16.5 k), so a binary heap of whole events spends most of its time
//! sifting 104-byte elements through comparisons that tie on `time`. The
//! calendar instead keeps
//!
//! * every event once in a **slab**, never moved after `push`; vacated
//!   slots are free-listed, so memory follows the peak pending count and
//!   not the history;
//! * a **ring** of 4096 near-future days (a day is `day_width` ns; the
//!   engines pass 1, a day per timestamp), each an unsorted singly linked
//!   list of slab slots (the links sit in a `u32` array beside the slab),
//!   with an occupancy bitmap to find the next non-empty day;
//! * the **day being drained** as a small reusable vector of 32-byte keys,
//!   sorted once when the clock reaches the day; late arrivals for the
//!   same day (zero-delay sends) are binary-inserted;
//! * an **overflow** min-heap of the same 32-byte keys for events beyond
//!   the ring. A sparse time axis degrades to exactly that: a small-key
//!   heap over a slab.
//!
//! The clock (`day`) moves only to a day that holds an event due for
//! delivery; with a day per timestamp that means only when an event is
//! delivered, so [`EventQueue::pop_if_before`] never carries it past the
//! time of the last delivered event. A push below the clock is legal but
//! cold: it spills the ring into the overflow heap and rewinds.

use crate::event::{Event, EventKey, LpId};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Common interface for pending-event sets, keyed by [`EventKey`].
pub trait EventQueue<P> {
    /// Insert an event.
    fn push(&mut self, ev: Event<P>);
    /// Remove and return the minimum event, if any.
    fn pop(&mut self) -> Option<Event<P>>;
    /// Key of the minimum event without removing it.
    fn peek_key(&self) -> Option<EventKey>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Remove and return the minimum event if it fires strictly before
    /// `until`; otherwise leave the queue untouched.
    fn pop_if_before(&mut self, until: SimTime) -> Option<Event<P>> {
        if self.peek_key()?.time < until {
            self.pop()
        } else {
            None
        }
    }
}

/// Binary heap of whole events: the reference oracle for
/// [`CalendarQueue`], simple enough to be obviously right.
pub struct HeapQueue<P> {
    heap: BinaryHeap<Reverse<Event<P>>>,
}

impl<P> HeapQueue<P> {
    /// Create an empty queue.
    pub fn new() -> Self {
        HeapQueue { heap: BinaryHeap::new() }
    }
}

impl<P> Default for HeapQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> for HeapQueue<P> {
    fn push(&mut self, ev: Event<P>) {
        self.heap.push(Reverse(ev));
    }

    fn pop(&mut self) -> Option<Event<P>> {
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(ev)| ev.key)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Days the ring spans ahead of the clock (a power of two).
const RING_DAYS: usize = 4096;
const RING_MASK: u64 = RING_DAYS as u64 - 1;
const RING_WORDS: usize = RING_DAYS / 64;
// One more `u64` summarises the bitmap, a bit per word.
const _: () = assert!(RING_WORDS == 64);
/// End of a slab list (ring day or free list).
const NIL: u32 = u32::MAX;

/// An [`EventKey`] plus the slab slot of its event, packed so the derived
/// ordering is `EventKey` order (equal keys fall to the slot, which keeps
/// the order total).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SlotKey {
    time: u64,
    /// `dst << 32 | src`.
    lps: u64,
    seq: u64,
    slot: u32,
}

impl SlotKey {
    fn new(key: &EventKey, slot: u32) -> Self {
        let lps = u64::from(key.dst.0) << 32 | u64::from(key.src.0);
        SlotKey { time: key.time.0, lps, seq: key.seq, slot }
    }

    fn event_key(&self) -> EventKey {
        EventKey {
            time: SimTime(self.time),
            dst: LpId((self.lps >> 32) as u32),
            src: LpId(self.lps as u32),
            seq: self.seq,
        }
    }
}

/// Per-timestamp calendar over slab-resident events; see the module docs.
pub struct CalendarQueue<P> {
    slab: Vec<Option<Event<P>>>,
    /// Per slot: the next slot of its ring day (occupied) or of the free
    /// list (vacant). Kept apart from the events so that walking a list
    /// chases 4-byte links, not the cache line of each event.
    next: Vec<u32>,
    free: u32,
    day_width: u64,
    /// The clock: the day `current` drains. Ring slot `d & RING_MASK`
    /// holds day `d` for `day <= d < day + RING_DAYS`.
    day: u64,
    /// Keys of the clock's day, sorted descending (minimum at the back).
    current: Vec<SlotKey>,
    heads: Box<[u32; RING_DAYS]>,
    /// Bit `i` is set exactly when `heads[i] != NIL`.
    occupied: [u64; RING_WORDS],
    /// Bit `w` is set exactly when `occupied[w] != 0`.
    occupied_words: u64,
    /// Events at least `RING_DAYS` days ahead of the clock when pushed;
    /// always of a later day than the clock's.
    overflow: BinaryHeap<Reverse<SlotKey>>,
    len: usize,
}

/// The slots of the list starting at `head`, following `next`.
fn list(next: &[u32], head: u32) -> impl Iterator<Item = u32> + '_ {
    // lint:allow(slice_index, reason="list links only ever hold slab indices minted by store()")
    let follow = move |&at: &u32| Some(next[at as usize]).filter(|&n| n != NIL);
    std::iter::successors(Some(head).filter(|&h| h != NIL), follow)
}

/// The queue key of the event in slot `at`.
fn key_at<P>(slab: &[Option<Event<P>>], at: u32) -> SlotKey {
    #[expect(
        clippy::expect_used,
        reason = "internal invariant: a slot is linked into a list only while it holds an event"
    )]
    // lint:allow(slice_index, reason="list links only ever hold slab indices minted by store()")
    let ev = slab[at as usize].as_ref().expect("a ring list threads occupied slots");
    SlotKey::new(&ev.key, at)
}

impl<P> CalendarQueue<P> {
    /// Create an empty queue whose days are `day_width_ns` wide. Width 1
    /// (what the engines use) gives every timestamp its own day; a wider
    /// day trades longer per-day sorts for a longer ring span.
    pub fn new(day_width_ns: u64) -> Self {
        CalendarQueue {
            slab: Vec::new(),
            next: Vec::new(),
            free: NIL,
            day_width: day_width_ns.max(1),
            day: 0,
            current: Vec::new(),
            heads: Box::new([NIL; RING_DAYS]),
            occupied: [0; RING_WORDS],
            occupied_words: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Iterate over pending events in **arbitrary** (slab) order. Snapshot
    /// code sorts by [`EventKey`] afterwards to get a deterministic
    /// serialization.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Event<P>> {
        self.slab.iter().flatten()
    }

    // The `expect` is the `if` branch's tail expression, which cannot carry
    // an attribute of its own.
    #[expect(
        clippy::expect_used,
        reason = "4 billion pending events cannot be held in memory; the panic names the limit instead of wrapping slot ids"
    )]
    fn store(&mut self, ev: Event<P>) -> u32 {
        if self.free == NIL {
            let at = u32::try_from(self.slab.len()).ok().filter(|&at| at != NIL);
            self.slab.push(Some(ev));
            self.next.push(NIL);
            at.expect("pending-event slab outgrew u32 slots")
        } else {
            let at = self.free;
            // lint:allow(slice_index, reason="free-list entries are slab indices minted by store()")
            self.free = self.next[at as usize];
            // lint:allow(slice_index, reason="free-list entries are slab indices minted by store()")
            self.slab[at as usize] = Some(ev);
            at
        }
    }

    fn take(&mut self, at: u32) -> Event<P> {
        #[expect(
            clippy::expect_used,
            reason = "internal invariant: a key leaves `current` exactly once, when its slot is vacated here"
        )]
        // lint:allow(slice_index, reason="queued keys only ever hold slab indices minted by store()")
        let ev = self.slab[at as usize].take().expect("a queued key points at an occupied slot");
        // lint:allow(slice_index, reason="next is built in lockstep with slab")
        self.next[at as usize] = self.free;
        self.free = at;
        self.len -= 1;
        ev
    }

    /// Detach and return the head of the ring list in slot `i`.
    fn unlink(&mut self, i: usize) -> u32 {
        // lint:allow(slice_index, reason="callers pass i < RING_DAYS (a masked day or a loop over the ring)")
        let word = &mut self.occupied[i / 64];
        *word &= !(1 << (i % 64));
        if *word == 0 {
            self.occupied_words &= !(1 << (i / 64));
        }
        // lint:allow(slice_index, reason="callers pass i < RING_DAYS (a masked day or a loop over the ring)")
        std::mem::replace(&mut self.heads[i], NIL)
    }

    /// Move the clock's ring list into `current`, whose first `sorted`
    /// keys are already in order. A fresh day is sorted once; a few late
    /// arrivals into a day being drained are binary-inserted.
    fn load_today(&mut self, sorted: usize) {
        let head = self.unlink((self.day & RING_MASK) as usize);
        let slab = &self.slab;
        self.current.extend(list(&self.next, head).map(|at| key_at(slab, at)));
        if sorted == 0 || self.current.len() - sorted > 8 {
            self.current.sort_unstable_by(|a, b| b.cmp(a));
            return;
        }
        for end in sorted..self.current.len() {
            // lint:allow(slice_index, reason="end < current.len() by the loop range")
            let key = self.current[end];
            // lint:allow(slice_index, reason="end < current.len() by the loop range")
            let at = self.current[..end].partition_point(|k| *k > key);
            // lint:allow(slice_index, reason="at <= end < current.len()")
            self.current[at..=end].rotate_right(1);
        }
    }

    /// The first occupied ring day after the clock's (whose own list the
    /// callers have already found empty).
    fn next_ring_day(&self) -> Option<u64> {
        let start = (self.day.wrapping_add(1) & RING_MASK) as usize;
        let (word, bit) = (start / 64, start % 64);
        // The rest of the start day's word, else the next non-empty word in
        // ring order — which can come round to the start word's low bits.
        // lint:allow(slice_index, reason="word < RING_WORDS by the mask")
        let rest = self.occupied[word] & (!0 << bit);
        let at = if rest != 0 {
            word * 64 + rest.trailing_zeros() as usize
        } else {
            let after = self.occupied_words.rotate_right(word as u32 + 1);
            if after == 0 {
                return None;
            }
            let word = (word + 1 + after.trailing_zeros() as usize) % RING_WORDS;
            // lint:allow(slice_index, reason="word < RING_WORDS by the modulo")
            word * 64 + self.occupied[word].trailing_zeros() as usize
        };
        Some(self.day + 1 + ((at + RING_DAYS - start) as u64 & RING_MASK))
    }

    /// Pop the minimum event if it fires at or before `last`.
    fn pop_through(&mut self, last: u64) -> Option<Event<P>> {
        loop {
            // lint:allow(slice_index, reason="index < RING_DAYS by the mask")
            if self.heads[(self.day & RING_MASK) as usize] != NIL {
                self.load_today(self.current.len());
            }
            if let Some(key) = self.current.last() {
                if key.time > last {
                    return None;
                }
                let at = key.slot;
                self.current.pop();
                return Some(self.take(at));
            }
            let far = self.overflow.peek().map(|Reverse(k)| k.time / self.day_width);
            let next = match (self.next_ring_day(), far) {
                (Some(near), Some(far)) => near.min(far),
                (near, far) => near.or(far)?,
            };
            // The clock only moves to a day that holds a deliverable event
            // (with a day per timestamp: only when one is delivered).
            if next > last / self.day_width {
                return None;
            }
            self.day = next;
            while self.overflow.peek().is_some_and(|Reverse(k)| k.time / self.day_width == next) {
                self.current.extend(self.overflow.pop().map(|Reverse(k)| k));
            }
            self.load_today(0);
        }
    }

    /// A push below the clock: spill the drained day and the whole ring
    /// into the overflow heap (events stay put in the slab) and restart the
    /// clock at `day`. Cold — the engines never schedule into the past.
    fn rewind(&mut self, day: u64) {
        self.overflow.extend(self.current.drain(..).map(Reverse));
        for i in 0..RING_DAYS {
            let head = self.unlink(i);
            let slab = &self.slab;
            self.overflow.extend(list(&self.next, head).map(|at| Reverse(key_at(slab, at))));
        }
        self.day = day;
    }

    /// Minimum key of one ring day's list.
    fn ring_min(&self, day: u64) -> Option<SlotKey> {
        // lint:allow(slice_index, reason="index < RING_DAYS by the mask")
        let head = self.heads[(day & RING_MASK) as usize];
        list(&self.next, head).map(|at| key_at(&self.slab, at)).min()
    }
}

impl<P> EventQueue<P> for CalendarQueue<P> {
    fn push(&mut self, ev: Event<P>) {
        let key = ev.key;
        let day = key.time.0 / self.day_width;
        let at = self.store(ev);
        self.len += 1;
        if day < self.day {
            self.rewind(day);
        }
        if day - self.day >= RING_DAYS as u64 {
            self.overflow.push(Reverse(SlotKey::new(&key, at)));
            return;
        }
        let i = (day & RING_MASK) as usize;
        // lint:allow(slice_index, reason="`at` was minted by store(); i < RING_DAYS by the mask")
        self.next[at as usize] = self.heads[i];
        // lint:allow(slice_index, reason="i < RING_DAYS by the mask")
        self.heads[i] = at;
        // lint:allow(slice_index, reason="i / 64 < RING_WORDS by the mask")
        self.occupied[i / 64] |= 1 << (i % 64);
        self.occupied_words |= 1 << (i / 64);
    }

    fn pop(&mut self) -> Option<Event<P>> {
        self.pop_through(u64::MAX)
    }

    fn pop_if_before(&mut self, until: SimTime) -> Option<Event<P>> {
        self.pop_through(until.0.checked_sub(1)?)
    }

    fn peek_key(&self) -> Option<EventKey> {
        // Later ring days only matter once the clock's day (drained keys
        // plus late arrivals still on its list) is empty. The overflow top
        // is past the clock's day, but an entry pushed long ago can precede
        // the ring's next day, so it is always compared.
        let today = self.current.last().copied().into_iter().chain(self.ring_min(self.day)).min();
        let near = today.or_else(|| self.ring_min(self.next_ring_day()?));
        let far = self.overflow.peek().map(|Reverse(k)| *k);
        near.into_iter().chain(far).min().map(|k| k.event_key())
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LpId;
    use proptest::prelude::*;

    fn ev(t: u64, seq: u64) -> Event<u64> {
        Event { key: EventKey { time: SimTime(t), dst: LpId(0), src: LpId(0), seq }, payload: t }
    }

    #[test]
    fn heap_orders_events() {
        let mut q = HeapQueue::new();
        for t in [5u64, 1, 9, 3, 7] {
            q.push(ev(t, t));
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn heap_peek_matches_pop() {
        let mut q = HeapQueue::new();
        q.push(ev(4, 0));
        q.push(ev(2, 0));
        assert_eq!(q.peek_key().unwrap().time, SimTime(2));
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn calendar_orders_events() {
        let mut q = CalendarQueue::new(2);
        for t in [50u64, 10, 90, 30, 70, 10] {
            q.push(ev(t, t));
        }
        // Two events at t=10 with the same seq differ only by payload; both emerge.
        let got: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(got, vec![10, 10, 30, 50, 70, 90]);
    }

    #[test]
    fn calendar_handles_sparse_then_dense() {
        let mut q = CalendarQueue::new(1);
        q.push(ev(1_000_000, 0));
        q.push(ev(5, 1));
        assert_eq!(q.pop().unwrap().payload, 5);
        assert_eq!(q.pop().unwrap().payload, 1_000_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_orders_many_colliding_times() {
        let mut q = CalendarQueue::new(3);
        for t in 0..500u64 {
            q.push(ev(t * 7 % 101, t));
        }
        let mut prev = None;
        let mut n = 0;
        while let Some(e) = q.pop() {
            if let Some(p) = prev {
                assert!(e.key >= p, "calendar queue emitted out of order");
            }
            prev = Some(e.key);
            n += 1;
        }
        assert_eq!(n, 500);
    }

    #[test]
    fn calendar_interleaved_push_pop() {
        let mut q = CalendarQueue::new(10);
        q.push(ev(100, 0));
        assert_eq!(q.pop().unwrap().payload, 100);
        // Pushing an earlier event after the clock advanced must still work.
        q.push(ev(50, 1));
        q.push(ev(150, 2));
        assert_eq!(q.pop().unwrap().payload, 50);
        assert_eq!(q.pop().unwrap().payload, 150);
    }

    #[test]
    fn calendar_handles_times_near_u64_max() {
        // Day boundaries near the end of the time axis used to overflow
        // `bucket_start + bucket_width`; the queue must still order events.
        let mut q = CalendarQueue::new(16);
        q.push(ev(u64::MAX, 2));
        q.push(ev(u64::MAX - 3, 1));
        q.push(ev(7, 0));
        assert_eq!(q.pop().unwrap().key.time, SimTime(7));
        assert_eq!(q.pop().unwrap().key.time, SimTime(u64::MAX - 3));
        assert_eq!(q.pop().unwrap().key.time, SimTime(u64::MAX));
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn calendar_reusable_after_max_time_drain() {
        let mut q = CalendarQueue::new(8);
        q.push(ev(u64::MAX, 0));
        assert_eq!(q.pop().unwrap().key.time, SimTime(u64::MAX));
        // The scan position is parked at the end of the axis; a small-time
        // push must rewind it.
        q.push(ev(3, 1));
        assert_eq!(q.pop().unwrap().key.time, SimTime(3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_pop_on_empty_is_none_repeatedly() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new(4);
        for _ in 0..3 {
            assert!(q.pop().is_none());
        }
        q.push(ev(10, 0));
        assert_eq!(q.pop().unwrap().payload, 10);
        for _ in 0..3 {
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn calendar_duplicate_timestamps_emerge_in_seq_order() {
        let mut q = CalendarQueue::new(4);
        for seq in (0..64u64).rev() {
            q.push(ev(1000, seq));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.key.seq).collect();
        let want: Vec<u64> = (0..64).collect();
        assert_eq!(seqs, want);
    }

    #[test]
    fn calendar_drains_a_burst_in_order() {
        let mut q = CalendarQueue::new(2);
        for t in 0..200u64 {
            q.push(ev(t, t));
        }
        for expect in 0..200u64 {
            let e = q.pop().expect("still populated");
            assert_eq!(e.key.time, SimTime(expect));
        }
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn clock_advances_only_on_delivery() {
        let mut q = CalendarQueue::new(1);
        q.push(ev(10, 0));
        q.push(ev(100, 1));
        assert_eq!(q.pop_if_before(SimTime(50)).unwrap().payload, 10);
        assert!(q.pop_if_before(SimTime(50)).is_none());
        assert!(q.pop_if_before(SimTime(100)).is_none());
        assert_eq!(q.day, 10, "a refused pop leaves the clock at the last delivery");
        // So a send between the clock and the next pending event is an
        // ordinary ring insert, not a rewind (which spills to the overflow).
        q.push(ev(60, 2));
        assert!(q.overflow.is_empty());
        assert_eq!(q.pop_if_before(SimTime(101)).unwrap().payload, 60);
        assert_eq!(q.pop_if_before(SimTime(101)).unwrap().payload, 100);
        assert_eq!(q.day, 100);
    }

    #[test]
    fn calendar_memory_follows_peak_pending_not_history() {
        // The hold model at depth 1 k for 1 M holds: every pop vacates the
        // slot the next push reuses, so nothing grows with the history.
        let mut q = CalendarQueue::new(1);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let depth = 1_000usize;
        for seq in 0..depth as u64 {
            q.push(ev(rand(2_000), seq));
        }
        for seq in 0..1_000_000u64 {
            let t = q.pop().expect("the hold model keeps its depth").key.time.0;
            // Mostly near-future sends; one in 64 lands beyond the ring.
            let ahead = if seq % 64 == 0 { 10_000 } else { 1 + rand(2_000) };
            q.push(ev(t + ahead, seq));
        }
        assert_eq!(q.len(), depth);
        assert_eq!(q.slab.len(), depth, "vacated slots are reused");
        let held = q.slab.capacity() + q.next.capacity() + q.current.capacity();
        assert!(held + q.overflow.capacity() <= 6 * depth, "capacity {held} for depth {depth}");
    }

    fn ev_at(t: u64, dst: u32, src: u32, seq: u64) -> Event<u64> {
        Event {
            key: EventKey { time: SimTime(t), dst: LpId(dst), src: LpId(src), seq },
            payload: seq,
        }
    }

    proptest! {
        /// Engine-shaped traffic against the oracle, with a day per
        /// timestamp (the engines) and with wider days: bursts of hundreds
        /// of events on one timestamp, sends at the clock while its day
        /// drains, sends beyond the ring span, below the clock, and at the
        /// end of the time axis, drained through both pop flavours.
        #[test]
        fn calendar_equals_heap_on_engine_traffic(
            width in 1u64..40,
            ops in prop::collection::vec((0u8..10, 0u64..1_000_000), 1..120),
        ) {
            let mut cal = CalendarQueue::new(width);
            let mut heap = HeapQueue::new();
            let span = RING_DAYS as u64 * width;
            let (mut now, mut seq) = (0u64, 0u64);
            for (kind, a) in ops {
                let (count, time) = match kind {
                    0..=2 => {
                        let (got, want) = if kind == 0 {
                            let until = SimTime(now.saturating_add(a % 64));
                            (cal.pop_if_before(until), heap.pop_if_before(until))
                        } else {
                            (cal.pop(), heap.pop())
                        };
                        prop_assert_eq!(got.as_ref().map(|e| e.key), want.as_ref().map(|e| e.key));
                        prop_assert_eq!(got.as_ref().map(|e| e.payload), want.map(|e| e.payload));
                        now = got.map_or(now, |e| e.key.time.0);
                        (0, 0)
                    }
                    3 => (100 + a % 300, now.saturating_add(a % 7)),
                    4 => (1 + a % 3, now),
                    5 => (1, now.saturating_add(span + a % (2 * span))),
                    6 => (1, a.min(now)),
                    7 => (1, u64::MAX - a % 3),
                    _ => (1, now.saturating_add(a % 400)),
                };
                for i in 0..count {
                    let (dst, src) = (((a + i) % 7) as u32, ((a ^ i) % 3) as u32);
                    cal.push(ev_at(time, dst, src, seq));
                    heap.push(ev_at(time, dst, src, seq));
                    seq += 1;
                }
                prop_assert_eq!(cal.len(), heap.len());
                prop_assert_eq!(cal.peek_key(), heap.peek_key());
            }
            while let Some(want) = heap.pop() {
                prop_assert_eq!(cal.peek_key(), Some(want.key));
                prop_assert_eq!(cal.pop().map(|e| e.key), Some(want.key));
            }
            prop_assert!(cal.pop().is_none() && cal.is_empty());
        }

        /// The calendar queue and the heap queue agree on output order for
        /// arbitrary interleavings of pushes and pops.
        #[test]
        fn calendar_equals_heap(ops in prop::collection::vec((0u64..10_000, prop::bool::ANY), 1..300)) {
            let mut cal = CalendarQueue::new(16);
            let mut heap = HeapQueue::new();
            let mut seq = 0u64;
            for (t, is_pop) in ops {
                if is_pop {
                    let a = cal.pop().map(|e| e.key);
                    let b = heap.pop().map(|e| e.key);
                    prop_assert_eq!(a, b);
                } else {
                    cal.push(ev(t, seq));
                    heap.push(ev(t, seq));
                    seq += 1;
                }
                prop_assert_eq!(cal.len(), heap.len());
            }
            loop {
                let a = cal.pop().map(|e| e.key);
                let b = heap.pop().map(|e| e.key);
                prop_assert_eq!(a, b);
                if b.is_none() { break; }
            }
        }
    }
}
