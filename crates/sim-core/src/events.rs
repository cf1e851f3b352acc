//! Deterministic timed event queue.
//!
//! [`EventQueue`] is a hierarchical timer wheel (Varghese & Lauck, SOSP
//! 1987) keyed by `(SimTime, sequence)`. The sequence number makes
//! ordering of same-instant events stable (FIFO in scheduling order),
//! which is essential for reproducibility: two events scheduled for the
//! same microsecond must always pop in the same order.
//!
//! ## Structure
//!
//! An event lives in one of four places, by how far past the cursor it
//! is due:
//!
//! * the **open region**: every event due in a slot the cursor has
//!   already opened. It is two sorted sequences, and `pop` and
//!   `peek_time` take the smaller of their heads:
//!   - the **open slot**, the last slot the cursor opened, sorted once
//!     when opened (`sort_unstable` on `(at, seq)` preserves FIFO
//!     because sequence numbers are unique); and
//!   - the **same-instant run**, an append-only FIFO that takes every
//!     event sorting after its tail: the follow-ups a handler schedules
//!     for *now* and a batch's zero-offset arrivals, in O(1) each. A new
//!     event carries the largest sequence number, so only one due before
//!     the run's tail (in the past, or out of order) is merge-inserted
//!     into the open slot instead, by binary search;
//! * the **near wheel**: [`NEAR_SLOTS`] slots of [`SLOT_GRAIN_US`]
//!   microseconds, spanning one *window* of [`WINDOW_US`] ≈ 1.05
//!   simulated seconds;
//! * the **far wheel**: [`FAR_SLOTS`] slots of one window each, about
//!   17.9 simulated minutes. It holds keep-alive expiries (at most 9 min
//!   ahead), pool and scale ticks (60 s) and responses. When the near
//!   wheel drains, the next occupied window cascades into it in one
//!   batch; and
//! * the **overflow map** from window index to events, for events beyond
//!   the far wheel's horizon only (day ticks, far fault-plan entries, the
//!   first batch after a long `advance_to`). A window that came within
//!   the horizon after some of its events were filed here is merged with
//!   its far-wheel slot when it cascades.
//!
//! Events land in a wheel slot unsorted; an occupancy bitmap per wheel
//! makes "next occupied slot" a handful of word scans. Pop order is
//! exactly that of a binary heap.
//!
//! Emptied buffers of at most 32 entries (`REUSE_CAP`) wait on a spare
//! list for the next slot to fill, so the queue allocates about one
//! buffer per slot occupied at once rather than one per slot it ever
//! touches. Larger buffers are freed: a burst that once filled a slot
//! with thousands of events must not pin that capacity for the rest of
//! the run.
//!
//! Compared to the [`BinaryHeapQueue`] it replaced, the wheel trades the
//! per-operation `O(log n)` sift (which copies whole entries at every
//! level) for amortized O(1) bucketing plus one sort per slot, and
//! dispatches each opened slot as a batch. [`BinaryHeapQueue`] is kept as
//! the executable reference model.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Microseconds covered by one near-wheel slot (power of two, ≈ 1 ms).
pub const SLOT_GRAIN_US: u64 = 1 << 10;
/// Number of slots in the near wheel (power of two).
pub const NEAR_SLOTS: usize = 1 << 10;
/// Microseconds covered by one full rotation of the near wheel.
pub const WINDOW_US: u64 = SLOT_GRAIN_US * NEAR_SLOTS as u64;
/// Number of one-window slots in the far wheel (multiple of 64). Its
/// horizon must cover the longest keep-alive, 9 simulated minutes: 512
/// windows would span 537 s.
pub const FAR_SLOTS: usize = 1 << 10;
/// Largest buffer capacity, in entries, that the spare list keeps.
const REUSE_CAP: usize = 32;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

type Bucket<E> = Vec<Entry<E>>;

/// One level of the wheel: unsorted buckets plus an occupancy bitmap.
struct Wheel<E> {
    slots: Vec<Bucket<E>>,
    occupied: Vec<u64>,
}

impl<E> Wheel<E> {
    fn new(slots: usize) -> Self {
        let mut buckets = Vec::with_capacity(slots);
        buckets.resize_with(slots, Vec::new);
        Wheel {
            slots: buckets,
            occupied: vec![0; slots / 64],
        }
    }

    /// Add `entry` to `slot`, giving the slot a spare buffer if it has
    /// none.
    #[inline]
    fn push(&mut self, slot: usize, entry: Entry<E>, spare: &mut Vec<Bucket<E>>) {
        let bucket = &mut self.slots[slot];
        if bucket.capacity() == 0 {
            *bucket = spare.pop().unwrap_or_default();
        }
        bucket.push(entry);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Empty `slot`, returning its buffer.
    fn take(&mut self, slot: usize) -> Bucket<E> {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        std::mem::take(&mut self.slots[slot])
    }

    /// First occupied slot index `>= from`, if any.
    #[inline]
    fn first_occupied(&self, from: usize) -> Option<usize> {
        let mut word_idx = from / 64;
        let mut word = self.occupied.get(word_idx)? & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(word_idx * 64 + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            word = *self.occupied.get(word_idx)?;
        }
    }
}

/// The earliest due time in an unsorted bucket.
fn earliest<E>(bucket: &[Entry<E>]) -> Option<SimTime> {
    bucket.iter().map(|e| e.at).min()
}

/// A priority queue of `(SimTime, E)` pairs popping in time order, with
/// FIFO tie-breaking for events scheduled at the same instant.
///
/// ```
/// use sky_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(10), 'b');
/// q.schedule(SimTime::from_micros(10), 'c');
/// q.schedule(SimTime::from_micros(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// The open slot, sorted **descending** by `(at, seq)` so pop is a
    /// `Vec::pop` from the back. With `run`, it holds every pending
    /// event whose absolute slot index is `< next_slot_abs`.
    current: Bucket<E>,
    /// The same-instant run: open-region events appended in ascending
    /// `(at, seq)` order.
    run: VecDeque<Entry<E>>,
    /// Slots of the current window.
    near: Wheel<E>,
    /// Window `w` with `window < w < window + FAR_SLOTS` lives in slot
    /// `w % FAR_SLOTS`; the current window's own slot stays empty.
    far: Wheel<E>,
    /// Index of the window the near wheel currently represents.
    window: u64,
    /// Absolute slot index (`at_us / SLOT_GRAIN_US`) of the next slot the
    /// cursor will open. Events due in earlier slots go to the open
    /// region.
    next_slot_abs: u64,
    /// Windows beyond the far wheel's horizon, keyed by window index.
    overflow: BTreeMap<u64, Bucket<E>>,
    /// Empty buffers of at most `REUSE_CAP` entries, handed to the next
    /// slot that fills without one of its own.
    spare: Vec<Bucket<E>>,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            current: Vec::new(),
            run: VecDeque::new(),
            near: Wheel::new(NEAR_SLOTS),
            far: Wheel::new(FAR_SLOTS),
            window: 0,
            next_slot_abs: 0,
            overflow: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = Entry {
            at,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        self.len += 1;
        let abs = at.as_micros() / SLOT_GRAIN_US;
        if abs < self.next_slot_abs {
            // Due in an opened slot. The entry's sequence number is the
            // largest yet, so it sorts after the run's tail unless it is
            // due earlier.
            if self.run.back().is_some_and(|tail| at < tail.at) {
                let key = entry.key();
                let idx = self.current.partition_point(|e| e.key() > key);
                self.current.insert(idx, entry);
            } else {
                self.run.push_back(entry);
            }
            return;
        }
        let win = abs / NEAR_SLOTS as u64;
        if win == self.window {
            let slot = (abs % NEAR_SLOTS as u64) as usize;
            self.near.push(slot, entry, &mut self.spare);
        } else if win - self.window < FAR_SLOTS as u64 {
            let slot = (win % FAR_SLOTS as u64) as usize;
            self.far.push(slot, entry, &mut self.spare);
        } else {
            let spare = &mut self.spare;
            self.overflow
                .entry(win)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(entry);
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.is_empty() && self.run.is_empty() {
            self.open_next_slot()?;
        }
        // Non-empty now: exactly one of the two pops below runs and
        // succeeds.
        self.len -= 1;
        if self.run_leads() {
            self.run.pop_front().map(|e| (e.at, e.event))
        } else {
            self.current.pop().map(|e| (e.at, e.event))
        }
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let open = match (self.run.front(), self.current.last()) {
            (Some(r), Some(c)) => Some(r.at.min(c.at)),
            (r, c) => r.or(c).map(|e| e.at),
        };
        if open.is_some() {
            return open;
        }
        if let Some(slot) = self.near.first_occupied(self.near_cursor()) {
            return earliest(&self.near.slots[slot]);
        }
        let win = self.next_window()?;
        let far = earliest(&self.far.slots[(win % FAR_SLOTS as u64) as usize]);
        let beyond = self
            .overflow
            .first_key_value()
            .filter(|&(&w, _)| w == win)
            .and_then(|(_, bucket)| earliest(bucket));
        far.into_iter().chain(beyond).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the run's head sorts before the open slot's.
    #[inline]
    fn run_leads(&self) -> bool {
        match (self.run.front(), self.current.last()) {
            (Some(r), Some(c)) => r.key() < c.key(),
            (r, _) => r.is_some(),
        }
    }

    /// Near-wheel index of the next slot the cursor will open
    /// (`NEAR_SLOTS` once the window is used up).
    #[inline]
    fn near_cursor(&self) -> usize {
        (self.next_slot_abs - self.window * NEAR_SLOTS as u64) as usize
    }

    /// The earliest window past the near wheel that holds events, from
    /// the far wheel or the overflow map.
    fn next_window(&self) -> Option<u64> {
        // Scan forward from the slot after the current window's, wrapping.
        let start = ((self.window + 1) % FAR_SLOTS as u64) as usize;
        let far = self
            .far
            .first_occupied(start)
            .or_else(|| self.far.first_occupied(0))
            .map(|slot| self.window + 1 + ((slot + FAR_SLOTS - start) % FAR_SLOTS) as u64);
        let beyond = self.overflow.first_key_value().map(|(&w, _)| w);
        far.into_iter().chain(beyond).min()
    }

    /// Open the next occupied near slot, cascading windows into the near
    /// wheel as it drains. `None` when no event is pending.
    fn open_next_slot(&mut self) -> Option<()> {
        loop {
            if let Some(slot) = self.near.first_occupied(self.near_cursor()) {
                self.open_slot(slot);
                return Some(());
            }
            let win = self.next_window()?;
            self.window = win;
            self.next_slot_abs = win * NEAR_SLOTS as u64;
            let far = self.far.take((win % FAR_SLOTS as u64) as usize);
            self.spill(far);
            if let Some(beyond) = self.overflow.remove(&win) {
                self.spill(beyond);
            }
        }
    }

    /// Spread one window's events over the near wheel, then recycle
    /// their buffer.
    fn spill(&mut self, mut entries: Bucket<E>) {
        for entry in entries.drain(..) {
            let slot = ((entry.at.as_micros() / SLOT_GRAIN_US) % NEAR_SLOTS as u64) as usize;
            self.near.push(slot, entry, &mut self.spare);
        }
        self.recycle(entries);
    }

    /// Keep an emptied buffer for reuse if it is small enough.
    fn recycle(&mut self, bucket: Bucket<E>) {
        debug_assert!(bucket.is_empty());
        if (1..=REUSE_CAP).contains(&bucket.capacity()) {
            self.spare.push(bucket);
        }
    }

    /// Move slot `slot`'s events into the open buffer, sorted for popping,
    /// and advance the cursor past it. The whole slot becomes one dispatch
    /// batch: it is sorted once, then drained by O(1) pops.
    fn open_slot(&mut self, slot: usize) {
        debug_assert!(self.current.is_empty() && self.run.is_empty());
        let opened = self.near.take(slot);
        let drained = std::mem::replace(&mut self.current, opened);
        self.recycle(drained);
        // Descending, so `Vec::pop` yields ascending `(at, seq)`.
        self.current.sort_unstable_by_key(|e| Reverse(e.key()));
        self.next_slot_abs = self.window * NEAR_SLOTS as u64 + slot as u64 + 1;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next_time", &self.peek_time())
            .finish()
    }
}

struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original binary-heap event queue, kept as the executable reference
/// model: the timer wheel's property tests assert pop-order equality against
/// it, and perfbench's heap-vs-wheel replay (`sim.events.*`) times the two.
///
/// Semantics are identical to [`EventQueue`]: pops in `(SimTime, seq)` order,
/// FIFO for same-instant events.
#[derive(Default)]
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

impl<E> BinaryHeapQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { at, seq, event });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    /// Far-wheel horizon in microseconds: an event due this far past the
    /// current window's start is the first to reach the overflow map.
    const HORIZON_US: u64 = WINDOW_US * FAR_SLOTS as u64;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (i, us) in [50u64, 10, 30, 20, 40].iter().enumerate() {
            q.schedule(SimTime::from_micros(*us), i);
        }
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_micros())).collect();
        assert_eq!(times, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(30), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_micros(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(20)));
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_before_cursor_pops_next() {
        // A handler at t=100ms schedules a follow-up for t=50ms (the past
        // relative to the cursor). Heap semantics: it pops next.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100_000), "now");
        q.schedule(SimTime::from_micros(200_000), "later");
        assert_eq!(q.pop().unwrap().1, "now");
        q.schedule(SimTime::from_micros(50_000), "past");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(50_000)));
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn far_future_events_cascade_through_overflow() {
        let mut q = EventQueue::new();
        // Several windows apart, scheduled out of order.
        q.schedule(SimTime::ZERO + SimDuration::from_days(7), "week");
        q.schedule(SimTime::ZERO + SimDuration::from_secs(3), "soon");
        q.schedule(SimTime::ZERO + SimDuration::from_hours(1), "hour");
        q.schedule(SimTime::from_micros(5), "now");
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["now", "soon", "hour", "week"]);
        assert!(q.is_empty());
    }

    #[test]
    fn only_events_beyond_the_horizon_reach_the_overflow_map() {
        let mut q = EventQueue::new();
        // Keep-alive expiries (5-9 min), ticks (60 s) and responses.
        for secs in [2, 60, 300, 540] {
            q.schedule(SimTime::ZERO + SimDuration::from_secs(secs), secs);
        }
        q.schedule(SimTime::from_micros(HORIZON_US - 1), 1_000);
        assert!(q.overflow.is_empty(), "the far wheel holds them all");
        q.schedule(SimTime::from_micros(HORIZON_US), 1_001);
        q.schedule(SimTime::ZERO + SimDuration::from_days(1), 1_002);
        assert_eq!(q.overflow.len(), 2);
        // After the 540 s pop the horizon has moved past both window
        // edges: the day tick stays beyond it, and the window at the old
        // edge now also takes far-wheel events, merged at cascade.
        for expected in [2, 60, 300, 540] {
            assert_eq!(q.pop().map(|(_, e)| e), Some(expected));
        }
        q.schedule(SimTime::from_micros(HORIZON_US), 1_003);
        assert_eq!(q.overflow.len(), 2, "the far wheel took the new event");
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![1_000, 1_001, 1_003, 1_002]);
    }

    #[test]
    fn spare_buffers_are_capped_in_capacity() {
        let mut q = EventQueue::new();
        // A burst that fills one slot far past the cap, then sparse
        // traffic over several windows.
        for i in 0..2_000u64 {
            q.schedule(SimTime::from_micros(3_000), i);
        }
        for i in 0..200u64 {
            q.schedule(SimTime::from_micros(i * 37_000), i);
        }
        while q.pop().is_some() {}
        assert!(!q.spare.is_empty(), "small buffers are reused");
        assert!(q.spare.iter().all(|b| b.capacity() <= REUSE_CAP));
        assert!(
            q.current.capacity() <= REUSE_CAP,
            "the burst's buffer was freed"
        );
    }

    #[test]
    fn wheel_matches_heap_reference() {
        // Randomized interleavings against the reference model; mirrors the
        // heavier property test in `tests/tests/properties.rs`.
        let mut rng = SimRng::seed_from(7).derive("events-unit");
        let mut wheel = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut now = 0u64;
        for _ in 0..5_000 {
            if rng.next_below(3) == 0 {
                assert_eq!(wheel.peek_time(), heap.peek_time());
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = now.max(t.as_micros());
                }
            } else if rng.next_below(50) == 0 {
                // A same-instant burst at the last popped time.
                for _ in 0..500 + rng.next_below(200) {
                    let tag = rng.next_u64();
                    wheel.schedule(SimTime::from_micros(now), tag);
                    heap.schedule(SimTime::from_micros(now), tag);
                }
            } else {
                // Near, far-wheel, horizon-edge, overflow and tie-heavy times.
                let at = match rng.next_below(6) {
                    0 => now + rng.next_below(SLOT_GRAIN_US * 4),
                    1 => now + rng.next_below(WINDOW_US * 3),
                    2 => now.saturating_sub(rng.next_below(1_000)),
                    3 => now + rng.next_below(HORIZON_US * 3),
                    4 => (now + HORIZON_US + rng.next_below(WINDOW_US * 4))
                        .saturating_sub(WINDOW_US * 2),
                    _ => now + SLOT_GRAIN_US * rng.next_below(8),
                };
                let tag = rng.next_u64();
                wheel.schedule(SimTime::from_micros(at), tag);
                heap.schedule(SimTime::from_micros(at), tag);
            }
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            assert_eq!(wheel.peek_time(), heap.peek_time());
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
