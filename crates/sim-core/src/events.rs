//! Deterministic timed event queue.
//!
//! [`EventQueue`] is a hierarchical timer wheel keyed by `(SimTime, sequence)`.
//! The sequence number makes ordering of same-instant events stable (FIFO in
//! scheduling order), which is essential for reproducibility: two events
//! scheduled for the same microsecond must always pop in the same order.
//!
//! ## Structure
//!
//! The wheel has two levels:
//!
//! * a **near wheel** of [`NEAR_SLOTS`] slots, each covering
//!   [`SLOT_GRAIN_US`] microseconds, spanning one *window* of
//!   `NEAR_SLOTS * SLOT_GRAIN_US` ≈ 1.05 simulated seconds; and
//! * **overflow levels**: a sorted map from window index to the events due in
//!   that window. When the near wheel drains, the earliest overflow window is
//!   cascaded into the near wheel in one batch.
//!
//! Events land in a slot unsorted; the slot is sorted once when the cursor
//! opens it (`sort_unstable` on `(at, seq)` preserves FIFO because sequence
//! numbers are unique). An occupancy bitmap makes "next non-empty slot" a
//! handful of word scans. Events scheduled at or before the open slot — the
//! "past" relative to the cursor, which the engine produces when a handler
//! schedules a follow-up for *now* — are merge-inserted into the already
//! sorted open slot, so pop order is exactly that of a binary heap.
//! Opening a slot frees a buffer, which waits on a spare list for the next
//! empty slot to fill, so the wheel allocates about one buffer per slot
//! occupied at once rather than one per slot it ever touches.
//!
//! Compared to the [`BinaryHeapQueue`] it replaced, the wheel trades the
//! per-operation `O(log n)` sift (which copies whole entries at every level)
//! for amortized O(1) bucketing plus one sort per slot, and dispatches each
//! opened slot as a batch. [`BinaryHeapQueue`] is kept as the executable
//! reference model for property tests and microbenchmarks.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// Microseconds covered by one near-wheel slot (power of two, ≈ 1 ms).
pub const SLOT_GRAIN_US: u64 = 1 << 10;
/// Number of slots in the near wheel (power of two).
pub const NEAR_SLOTS: usize = 1 << 10;
/// Microseconds covered by one full rotation of the near wheel.
pub const WINDOW_US: u64 = SLOT_GRAIN_US * NEAR_SLOTS as u64;

const BITMAP_WORDS: usize = NEAR_SLOTS / 64;

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
    /// `Vec::pop` from the back. Holds every pending event whose absolute
    /// slot index is `< next_slot_abs`.
    current: Vec<Entry<E>>,
    /// Near-wheel slots for the current window, unsorted.
    slots: Vec<Vec<Entry<E>>>,
    /// Occupancy bitmap over `slots`.
    occupied: [u64; BITMAP_WORDS],
    /// Index of the window the near wheel currently represents.
    window: u64,
    /// Absolute slot index (`at_us / SLOT_GRAIN_US`) of the next slot the
    /// cursor will open. Events due in earlier slots go to `current`.
    next_slot_abs: u64,
    /// Windows beyond the near wheel, keyed by window index.
    overflow: BTreeMap<u64, Vec<Entry<E>>>,
    /// Empty buffers left by opened slots, handed to the next slot that
    /// fills without one of its own.
    spare: Vec<Vec<Entry<E>>>,
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
        let mut slots = Vec::with_capacity(NEAR_SLOTS);
        slots.resize_with(NEAR_SLOTS, Vec::new);
        EventQueue {
            current: Vec::new(),
            slots,
            occupied: [0; BITMAP_WORDS],
            window: 0,
            next_slot_abs: 0,
            overflow: BTreeMap::new(),
            spare: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// An empty queue with pre-allocated capacity for the open slot.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.current.reserve(cap.min(1 << 16));
        q
    }

    /// Pre-allocate room in the open slot. Kept for API compatibility with
    /// the binary-heap queue; the wheel allocates per slot, so this only
    /// sizes the merge buffer a burst of same-instant events lands in.
    pub fn reserve(&mut self, additional: usize) {
        self.current.reserve(additional.min(1 << 16));
    }

    /// Schedule `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let entry = Entry { at, seq, event };
        let abs = at.as_micros() / SLOT_GRAIN_US;
        if abs < self.next_slot_abs {
            // Due in an already-opened slot: merge into the sorted open slot
            // so it pops in exact `(at, seq)` order relative to what remains.
            let key = entry.key();
            let idx = self.current.partition_point(|e| e.key() > key);
            self.current.insert(idx, entry);
        } else if abs / NEAR_SLOTS as u64 == self.window {
            self.push_slot((abs % NEAR_SLOTS as u64) as usize, entry);
        } else {
            self.overflow
                .entry(at.as_micros() / WINDOW_US)
                .or_default()
                .push(entry);
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some(e) = self.current.pop() {
            self.len -= 1;
            return Some((e.at, e.event));
        }
        loop {
            // Scan the near wheel for the next occupied slot.
            let local = (self.next_slot_abs - self.window * NEAR_SLOTS as u64) as usize;
            if let Some(slot) = self.next_occupied(local) {
                self.open_slot(slot);
                let e = self.current.pop().expect("opened slot is non-empty");
                self.len -= 1;
                return Some((e.at, e.event));
            }
            // Near wheel exhausted: cascade the earliest overflow window.
            let (win, entries) = self.overflow.pop_first()?;
            self.window = win;
            self.next_slot_abs = win * NEAR_SLOTS as u64;
            for entry in entries {
                let slot = ((entry.at.as_micros() / SLOT_GRAIN_US) % NEAR_SLOTS as u64) as usize;
                self.push_slot(slot, entry);
            }
        }
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.current.last() {
            return Some(e.at);
        }
        let local = (self.next_slot_abs - self.window * NEAR_SLOTS as u64) as usize;
        if let Some(slot) = self.next_occupied(local) {
            return self.slots[slot].iter().map(|e| e.at).min();
        }
        self.overflow
            .first_key_value()
            .and_then(|(_, v)| v.iter().map(|e| e.at).min())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.current.clear();
        for slot in &mut self.slots {
            slot.clear();
        }
        self.occupied = [0; BITMAP_WORDS];
        self.overflow.clear();
        self.window = 0;
        self.next_slot_abs = 0;
        self.len = 0;
    }

    /// First occupied slot index `>= from` in the near wheel, if any.
    #[inline]
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= NEAR_SLOTS {
            return None;
        }
        let mut word_idx = from / 64;
        let mut word = self.occupied[word_idx] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(word_idx * 64 + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx >= BITMAP_WORDS {
                return None;
            }
            word = self.occupied[word_idx];
        }
    }

    /// Add `entry` to near-wheel slot `slot`, giving the slot a spare
    /// buffer if it has none.
    fn push_slot(&mut self, slot: usize, entry: Entry<E>) {
        let bucket = &mut self.slots[slot];
        if bucket.capacity() == 0 {
            *bucket = self.spare.pop().unwrap_or_default();
        }
        bucket.push(entry);
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Move slot `slot`'s events into the open buffer, sorted for popping,
    /// and advance the cursor past it. The whole slot becomes one dispatch
    /// batch: it is sorted once, then drained by O(1) pops. The drained
    /// open buffer goes to the spare list.
    fn open_slot(&mut self, slot: usize) {
        debug_assert!(self.current.is_empty());
        let drained = std::mem::replace(&mut self.current, std::mem::take(&mut self.slots[slot]));
        if drained.capacity() > 0 {
            self.spare.push(drained);
        }
        self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        // Descending, so `Vec::pop` yields ascending `(at, seq)`.
        self.current
            .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
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
/// it, and `crates/bench/benches/simulator.rs` compares the two.
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

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::with_capacity(cap),
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
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO + SimDuration::from_secs(1), ());
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
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
        // Several overflow windows apart, scheduled out of order.
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
    fn wheel_matches_heap_reference() {
        // Randomized interleavings against the reference model; mirrors the
        // heavier property test in `tests/tests/properties.rs`.
        let mut rng = SimRng::seed_from(7).derive("events-unit");
        let mut wheel = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut now = 0u64;
        for _ in 0..5_000 {
            if rng.next_below(3) == 0 {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = now.max(t.as_micros());
                }
            } else {
                // Mix of near, far-future (overflow) and tie-heavy times.
                let at = match rng.next_below(4) {
                    0 => now + rng.next_below(SLOT_GRAIN_US * 4),
                    1 => now + rng.next_below(WINDOW_US * 3),
                    2 => now.saturating_sub(rng.next_below(1_000)),
                    _ => now + SLOT_GRAIN_US * rng.next_below(8),
                };
                let tag = rng.next_u64();
                wheel.schedule(SimTime::from_micros(at), tag);
                heap.schedule(SimTime::from_micros(at), tag);
            }
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
