//! Heap-vs-wheel replay (`sim.events.*`): a workload's step schedule
//! pushed through a fresh [`EventQueue`] (the engine's timer wheel) and
//! through the reference [`BinaryHeapQueue`], at the queue depths the
//! workload really reaches.
//!
//! Each step schedules its arrivals at the workload's own spread; every
//! popped arrival schedules one completion a service time later, as the
//! engine's arrival handler does. The reported figure is host ns per
//! schedule+pop pair.

// sky-lint: allow-file(D002, a benchmark measures host wall time by definition)

use std::time::{Duration, Instant};

use sky_core::sim::{BinaryHeapQueue, EventQueue, SimDuration, SimTime};

/// A queue entry sized like the engine's own events (a tag, a request
/// index and two payload words).
#[derive(Debug, Clone, Copy)]
struct Entry {
    completion: bool,
    idx: u64,
    _payload: [u64; 2],
}

trait Queue {
    fn schedule(&mut self, at: SimTime, e: Entry);
    fn pop(&mut self) -> Option<(SimTime, Entry)>;
}

impl Queue for EventQueue<Entry> {
    fn schedule(&mut self, at: SimTime, e: Entry) {
        EventQueue::schedule(self, at, e);
    }
    fn pop(&mut self) -> Option<(SimTime, Entry)> {
        EventQueue::pop(self)
    }
}

impl Queue for BinaryHeapQueue<Entry> {
    fn schedule(&mut self, at: SimTime, e: Entry) {
        BinaryHeapQueue::schedule(self, at, e);
    }
    fn pop(&mut self) -> Option<(SimTime, Entry)> {
        BinaryHeapQueue::pop(self)
    }
}

/// A workload's step schedule: per step, the arrival offsets from the
/// step's start.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Arrival offsets of each step.
    pub steps: Vec<Vec<SimDuration>>,
    /// Time from an arrival to its completion.
    pub service: SimDuration,
}

impl Schedule {
    /// Schedule+pop pairs one replay performs (two per arrival: the
    /// arrival and its completion).
    pub fn pairs(&self) -> u64 {
        2 * self.steps.iter().map(|s| s.len() as u64).sum::<u64>()
    }
}

/// Replay once; returns a checksum so the work cannot be optimised away.
fn replay<Q: Queue>(q: &mut Q, schedule: &Schedule) -> u64 {
    let gap = SimDuration::from_secs(1);
    let mut base = SimTime::ZERO;
    let mut sum = 0u64;
    for offsets in &schedule.steps {
        for (i, &off) in offsets.iter().enumerate() {
            q.schedule(
                base + off,
                Entry {
                    completion: false,
                    idx: i as u64,
                    _payload: [0; 2],
                },
            );
        }
        let mut last = base;
        while let Some((at, e)) = q.pop() {
            last = at;
            sum = sum.wrapping_add(e.idx ^ at.as_micros());
            if !e.completion {
                q.schedule(
                    at + schedule.service,
                    Entry {
                        completion: true,
                        ..e
                    },
                );
            }
        }
        base = last + gap;
    }
    sum
}

/// Median host ns per schedule+pop pair for the wheel and the heap,
/// alternating fresh queues of each kind for about `budget`.
pub fn measure(schedule: &Schedule, budget: Duration) -> (f64, f64) {
    let pairs = schedule.pairs().max(1) as f64;
    let mut wheel = Vec::new();
    let mut heap = Vec::new();
    let start = Instant::now();
    while wheel.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let mut q = EventQueue::new();
        std::hint::black_box(replay(&mut q, std::hint::black_box(schedule)));
        wheel.push(t.elapsed().as_nanos() as f64 / pairs);

        let t = Instant::now();
        let mut q = BinaryHeapQueue::new();
        std::hint::black_box(replay(&mut q, std::hint::black_box(schedule)));
        heap.push(t.elapsed().as_nanos() as f64 / pairs);
    }
    (crate::stats::median(&wheel), crate::stats::median(&heap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_and_heap_replay_the_same_order() {
        let schedule = Schedule {
            steps: vec![
                (0..50)
                    .map(|i| SimDuration::from_micros(i * 37 % 11))
                    .collect(),
                (0..20).map(SimDuration::from_millis).collect(),
            ],
            service: SimDuration::from_millis(250),
        };
        let a = replay(&mut EventQueue::new(), &schedule);
        let b = replay(&mut BinaryHeapQueue::new(), &schedule);
        assert_eq!(a, b);
        assert_eq!(schedule.pairs(), 140);
    }
}
