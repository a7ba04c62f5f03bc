//! A generic time-ordered event queue.

use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A discrete-event queue delivering events in non-decreasing time order.
///
/// Events carrying equal timestamps are delivered in insertion order
/// (FIFO), which makes simulation runs deterministic — a requirement for
/// reproducible experiments and for meaningful A/B comparisons between
/// algorithms.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The timestamp of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the current simulation time:
    /// scheduling into the past indicates a logic error in the caller and
    /// would silently corrupt FCFS queue ordering.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < now {})",
            self.now
        );
        let entry = Entry {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// Pops the earliest event, advancing simulation time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Peeks at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed arrival schedule merged into an [`EventQueue`] at pop time
/// instead of scheduled in it up front, so the heap holds only the
/// events in flight.
///
/// The merge pops exactly what one queue would if arrival `i` (at
/// `times[i]`) had been scheduled, in index order, before any other
/// event: arrivals leave in `(time, index)` order, and an arrival wins a
/// time tie against every queued event (the pre-scheduled arrivals held
/// the lowest insertion numbers).
pub struct ArrivalMerge {
    /// `(time, index)` of every arrival, sorted.
    order: Vec<(SimTime, usize)>,
    next: usize,
}

/// What [`ArrivalMerge::pop`] delivers.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<E> {
    /// Arrival number `i` of the schedule.
    Arrival(usize),
    /// An event scheduled on the queue.
    Event(E),
}

impl ArrivalMerge {
    /// A merge of arrival `i` at `times[i]`, none of them popped yet.
    pub fn new(times: impl IntoIterator<Item = SimTime>) -> Self {
        let mut order: Vec<(SimTime, usize)> = times
            .into_iter()
            .enumerate()
            .map(|(i, time)| (time, i))
            .collect();
        order.sort_unstable();
        Self { order, next: 0 }
    }

    /// Pops the earliest of the next arrival and `queue`'s next event,
    /// the arrival on a tie, advancing `queue`'s time to it.
    pub fn pop<E>(&mut self, queue: &mut EventQueue<E>) -> Option<(SimTime, Popped<E>)> {
        match self.order.get(self.next) {
            Some(&(time, i)) if queue.peek_time().is_none_or(|next| time <= next) => {
                self.next += 1;
                queue.now = time;
                Some((time, Popped::Arrival(i)))
            }
            _ => queue
                .pop()
                .map(|(time, event)| (time, Popped::Event(event))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_broken_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(7));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// What one popped event makes the simulation schedule next: the
    /// delays (possibly zero, for ties) of new events after it.
    type Script = Vec<Vec<u64>>;

    /// Drains a run whose `k`-th pop schedules events `script[k % len]`
    /// later, through `pop`, until 200 have been scheduled; the arrivals
    /// are labelled by index, the scheduled events by a counter.
    fn drain(
        script: &Script,
        queue: &mut EventQueue<u64>,
        mut pop: impl FnMut(&mut EventQueue<u64>) -> Option<(SimTime, Popped<u64>)>,
    ) -> Vec<(SimTime, Popped<u64>)> {
        let (mut popped, mut label) = (Vec::new(), 0);
        while let Some((now, event)) = pop(queue) {
            for &delay in &script[popped.len() % script.len()] {
                if label < 200 {
                    queue.schedule(now + SimTime::from_nanos(delay), label);
                    label += 1;
                }
            }
            popped.push((now, event));
        }
        popped
    }

    #[test]
    fn arrival_merge_pops_what_one_queue_with_arrivals_first_pops() {
        use sqda_geom::prop::{check, len};
        // Arrival times from a small range (duplicates, out of index
        // order); delays of 0 tie scheduled events with each other and,
        // on a coarse grid, with arrivals.
        let gen = |rng: &mut sqda_geom::rng::Rng, size: usize| {
            let grid = rng.gen_range(1..=4u64);
            let arrivals: Vec<u64> = (0..len(rng, size, 0..40))
                .map(|_| rng.gen_range(0..=12u64) * grid)
                .collect();
            let script: Script = (0..len(rng, size, 1..8))
                .map(|_| {
                    let fan_out = [0, 0, 1, 1, 1, 2][rng.gen_range(0..6usize)];
                    (0..fan_out)
                        .map(|_| rng.gen_range(0..=3u64) * grid)
                        .collect()
                })
                .collect();
            (arrivals, script)
        };
        check(
            "arrival_merge_matches_one_queue",
            256,
            gen,
            |(arrivals, script)| {
                // Reference: every arrival scheduled first, in index order.
                // Arrival `i` is `u64::MAX - i`, a label no counter reaches.
                let mut one = EventQueue::new();
                for (i, &t) in arrivals.iter().enumerate() {
                    one.schedule(SimTime::from_nanos(t), u64::MAX - i as u64);
                }
                let want = drain(&script, &mut one, |q| {
                    let (time, e) = q.pop()?;
                    let popped = match u64::MAX - e {
                        i if i < arrivals.len() as u64 => Popped::Arrival(i as usize),
                        _ => Popped::Event(e),
                    };
                    Some((time, popped))
                });
                let mut merge = ArrivalMerge::new(arrivals.iter().map(|&t| SimTime::from_nanos(t)));
                let got = drain(&script, &mut EventQueue::new(), |q| merge.pop(q));
                assert_eq!(got, want);
            },
        );
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        // Schedule relative to now.
        q.schedule(t + SimTime::from_nanos(5), 2);
        q.schedule(t, 3); // same time as now is allowed
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }
}
