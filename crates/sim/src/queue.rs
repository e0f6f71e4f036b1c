//! The event scheduler: one binary heap over `(time, seq)`.
//!
//! Both engines pop every event from an [`EventQueue`], in strictly
//! ascending `(time, seq)` order; sequence numbers are unique per queue,
//! so the order is total and no trace depends on how the queue is built.
//! A property test (`tests/queue_model.rs`) pins the order against an
//! independent `Reverse<(SimTime, u64)>` heap over random interleavings of
//! pushes, pops and horizon-bounded pops.
//!
//! The queues the workloads build are shallow: the deepest in a timed
//! phase holds 128 entries (the 64-node mesh), the deepest anywhere 4,032
//! (that mesh's set-up, where 64 clients each look up 63 peers at once).
//! At those depths a heap's `O(log n)` push and pop costs less than the
//! bookkeeping of a bucketed calendar queue (DESIGN.md §2 has the
//! measurements).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// One scheduled entry. Ordering ignores the item: `(time, seq)` is the
/// total order (sequence numbers are unique per queue), inverted so that
/// `BinaryHeap` — a max-heap — pops the earliest entry first.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A time-ordered event queue: `pop` yields entries in ascending
/// `(time, seq)` order, whatever order they were pushed in.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `item` at `(time, seq)`. Sequence numbers must be unique
    /// for the order to be total; the engines guarantee this by assigning
    /// them from a monotone counter.
    // analyze: hot-path
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        self.heap.push(Entry { time, seq, item });
    }

    /// The `(time, seq)` key of the earliest entry, without removing it.
    // analyze: hot-path
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Removes and returns the earliest entry as `(time, seq, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.item))
    }

    /// [`pop`](Self::pop), unless the earliest entry lies at or past
    /// `horizon` (`None` = unbounded): the event loop's bounded pop.
    // analyze: hot-path
    pub fn pop_if_before(&mut self, horizon: Option<SimTime>) -> Option<(SimTime, u64, T)> {
        let head = self.heap.peek()?;
        if horizon.is_some_and(|h| head.time >= h) {
            return None;
        }
        self.pop()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("head", &self.peek_key())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;

    use super::*;

    /// Reference model: a plain min-heap over `(time, seq)`, ordered by
    /// the standard tuple order instead of `Entry`'s hand-written one.
    struct Model(BinaryHeap<Reverse<(SimTime, u64)>>);

    impl Model {
        fn new() -> Self {
            Model(BinaryHeap::new())
        }
        fn push(&mut self, time: SimTime, seq: u64) {
            self.0.push(Reverse((time, seq)));
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            self.0.pop().map(|Reverse(k)| k)
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(500), 2, "b");
        q.push(SimTime::from_nanos(500), 1, "a");
        q.push(SimTime::from_nanos(100), 3, "c");
        assert_eq!(q.peek_key(), Some((SimTime::from_nanos(100), 3)));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("c"));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("a"));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some("b"));
        assert_eq!(q.pop().map(|(_, _, i)| i), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_entries_pop_after_near_ones() {
        let mut q = EventQueue::new();
        // An hour, ten milliseconds and fifty nanoseconds ahead.
        q.push(SimTime::from_nanos(3_600_000_000_000), 1, 1u32);
        q.push(SimTime::from_nanos(10_000_000), 2, 2u32);
        q.push(SimTime::from_nanos(50), 3, 3u32);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(3));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(2));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_before_the_last_pop_still_orders_correctly() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100_000), 1, 1u32);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(1));
        // A push at 0 after a pop at 100 µs must not be lost or reordered
        // against a later push.
        q.push(SimTime::from_nanos(0), 2, 2u32);
        q.push(SimTime::from_nanos(100_001), 3, 3u32);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(2));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(3));
    }

    #[test]
    fn entries_about_a_millisecond_apart_pop_in_time_order() {
        let mut q = EventQueue::new();
        let w = 1 << 20; // ≈ 1 ms in ns
        q.push(SimTime::from_nanos(10), 1, 1u32);
        q.push(SimTime::from_nanos(w + 5), 2, 2u32);
        q.push(SimTime::from_nanos(3 * w), 3, 3u32);
        // A later push that lands between the first two.
        q.push(SimTime::from_nanos(w - 1), 4, 4u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, i)| i)).collect();
        assert_eq!(order, vec![1, 4, 2, 3]);
    }

    #[test]
    fn matches_binary_heap_model_on_a_pseudorandom_sequence() {
        // Deterministic LCG so the test needs no RNG dependency.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut q = EventQueue::new();
        let mut m = Model::new();
        let mut seq = 0u64;
        let mut watermark = 0u64; // engines never push below `now`
        for _ in 0..5_000 {
            if next() % 3 != 0 || q.is_empty() {
                // Mix of near, far, and very far delays.
                let delay = match next() % 4 {
                    0 => next() % 1_000,
                    1 => next() % 100_000,
                    2 => next() % 10_000_000,
                    _ => next() % 10_000_000_000,
                };
                let t = SimTime::from_nanos(watermark + delay);
                q.push(t, seq, seq);
                m.push(t, seq);
                seq += 1;
            } else {
                // Half the pops are bounded by a horizon drawn around the
                // head: the head comes out iff it lies strictly before it.
                let horizon = (next() % 2 == 0).then(|| {
                    let head = q.peek_key().expect("non-empty").0.as_nanos();
                    SimTime::from_nanos((head + next() % 3).saturating_sub(1))
                });
                let got = q.pop_if_before(horizon).map(|(t, s, _)| (t, s));
                let due = horizon.is_none_or(|h| m.0.peek().is_some_and(|&Reverse((t, _))| t < h));
                let want = if due { m.pop() } else { None };
                assert_eq!(got, want);
                if let Some((t, _)) = got {
                    watermark = t.as_nanos();
                }
            }
        }
        while let Some(want) = m.pop() {
            let got = q.pop().map(|(t, s, _)| (t, s));
            assert_eq!(got, Some(want));
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn len_and_peek_track_mixed_operations() {
        let mut q = EventQueue::new();
        assert_eq!(q.len(), 0);
        for i in 0..100u64 {
            q.push(SimTime::from_nanos(i * 7_919), i, i);
        }
        assert_eq!(q.len(), 100);
        for expect in 0..100u64 {
            assert_eq!(q.peek_key().map(|(_, s)| s), Some(expect));
            q.pop();
        }
        assert_eq!(q.len(), 0);
    }
}
