//! The event scheduler: a hierarchical timing wheel with a heap fallback.
//!
//! Discrete-event workloads in this simulator are dominated by short
//! delays — queueing a message one fabric hop ahead, charging a few
//! microseconds of handler cost — with a thin tail of far-future timers
//! (ack timeouts, watchdog ticks, cleanup). A [`BinaryHeap`] pays
//! `O(log n)` per operation on *every* event; a calendar queue pays `O(1)`
//! amortized for the near-future bulk and only falls back to a heap for
//! the tail.
//!
//! [`EventQueue`] keeps a rotating wheel of `SLOTS` buckets, each
//! spanning 2^`SHIFT` virtual nanoseconds (≈ 4 µs), so the wheel covers
//! about one millisecond of virtual time ahead of the cursor. Events
//! beyond the window land in an overflow min-heap and migrate into the
//! wheel as the cursor advances. Each bucket is itself a tiny binary heap,
//! so ties inside a bucket resolve exactly like the global heap did.
//!
//! The contract that matters is *exact order preservation*: `pop` returns
//! entries in strictly ascending `(time, seq)` order — byte-for-byte the
//! same order a `BinaryHeap` reference model produces — so swapping the
//! scheduler cannot perturb a single trace. A property test
//! (`tests/queue_model.rs`, `proptests` feature) pins this against random
//! interleavings of pushes and pops.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// Log2 of the bucket width in nanoseconds (4096 ns ≈ one short RPC).
const SHIFT: u32 = 12;

/// Number of wheel buckets; the wheel spans `SLOTS << SHIFT` ≈ 1 ms.
const SLOTS: usize = 256;

/// Words of the occupancy bitmask.
const WORDS: usize = SLOTS / 64;

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

/// A time-ordered event queue: timing wheel for the near future, heap for
/// the far future.
///
/// `pop` yields entries in ascending `(time, seq)` order, identically to a
/// `BinaryHeap` over the same keys. Pushes at instants at or before the
/// cursor (possible when an external caller enqueues "now") are accepted
/// and ordered correctly.
pub struct EventQueue<T> {
    /// Near-future buckets; bucket `abs % SLOTS` holds entries whose
    /// absolute bucket index (`time >> SHIFT`) is `abs`, for `abs` in
    /// `[cursor, cursor + SLOTS)`.
    wheel: Vec<BinaryHeap<Entry<T>>>,
    /// One bit per non-empty bucket, for fast first-occupied scans.
    occupied: [u64; WORDS],
    /// Absolute bucket index of the wheel cursor. Only moves forward.
    cursor: u64,
    /// Entries past the wheel window, ordered min-first.
    far: BinaryHeap<Entry<T>>,
    /// Entries currently in the wheel.
    wheel_len: usize,
    /// Total entries.
    len: usize,
}

impl<T> EventQueue<T> {
    /// An empty queue with the cursor at virtual time zero.
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..SLOTS).map(|_| BinaryHeap::new()).collect(),
            occupied: [0; WORDS],
            cursor: 0,
            far: BinaryHeap::new(),
            wheel_len: 0,
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries currently inside the wheel window (engine self-profiling).
    pub fn wheel_len(&self) -> usize {
        self.wheel_len
    }

    /// Entries in the far-future overflow heap (engine self-profiling —
    /// a persistently large heap means the wheel window is mis-sized for
    /// the workload's delay distribution).
    pub fn far_len(&self) -> usize {
        self.far.len()
    }

    /// Number of occupied wheel buckets (engine self-profiling — bucket
    /// occupancy versus `wheel_len` shows how clustered near-future
    /// events are).
    pub fn wheel_occupied_buckets(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Schedules `item` at `(time, seq)`. Sequence numbers must be unique
    /// for the order to be total; the engines guarantee this by assigning
    /// them from a monotone counter.
    // analyze: hot-path
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let entry = Entry { time, seq, item };
        // Entries at or before the cursor clamp into the cursor bucket;
        // the per-bucket heap still orders them by true (time, seq).
        let abs = (time.as_nanos() >> SHIFT).max(self.cursor);
        if abs - self.cursor < SLOTS as u64 {
            self.wheel_insert(abs, entry);
        } else {
            self.far.push(entry);
        }
        self.len += 1;
    }

    /// The `(time, seq)` key of the earliest entry, without removing it.
    // analyze: hot-path
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            // Wheel empty: the overflow heap's minimum is the global
            // minimum (all far entries lie past the wheel window).
            return self.far.peek().map(|e| (e.time, e.seq));
        }
        let off = self.first_occupied().expect("wheel_len > 0");
        let slot = ((self.cursor + off as u64) % SLOTS as u64) as usize;
        self.wheel[slot].peek().map(|e| (e.time, e.seq))
    }

    /// Removes and returns the earliest entry as `(time, seq, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.pop_if_before(None)
    }

    /// [`pop`](Self::pop), unless the earliest entry lies at or past
    /// `horizon` (`None` = unbounded): the event loop's bounded pop, one
    /// bucket scan where `peek_key` + `pop` take two.
    // analyze: hot-path
    pub fn pop_if_before(&mut self, horizon: Option<SimTime>) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let due = |e: &Entry<T>| horizon.is_none_or(|h| e.time < h);
        if self.wheel_len == 0 {
            // Rotate the window to the earliest far entry and migrate
            // everything that now fits.
            let min = self.far.peek().expect("len > 0 with empty wheel");
            if !due(min) {
                return None;
            }
            self.cursor = min.time.as_nanos() >> SHIFT;
            self.refill();
        }
        let off = self.first_occupied().expect("wheel refilled");
        let slot = ((self.cursor + off as u64) % SLOTS as u64) as usize;
        if !due(self.wheel[slot].peek().expect("occupied bucket")) {
            return None;
        }
        if off > 0 {
            // The window slid forward: far entries may now fit into the
            // vacated span; migrate them before popping so the wheel/far
            // partition invariant (far strictly past the window) holds.
            self.cursor += off as u64;
            self.refill();
        }
        let entry = self.wheel[slot].pop().expect("occupied bucket");
        if self.wheel[slot].is_empty() {
            self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.wheel_len -= 1;
        self.len -= 1;
        Some((entry.time, entry.seq, entry.item))
    }

    fn wheel_insert(&mut self, abs: u64, entry: Entry<T>) {
        debug_assert!(abs >= self.cursor && abs - self.cursor < SLOTS as u64);
        let slot = (abs % SLOTS as u64) as usize;
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
        self.wheel[slot].push(entry);
        self.wheel_len += 1;
    }

    /// Migrates far-heap entries that fall inside the current window.
    fn refill(&mut self) {
        let end = self.cursor + SLOTS as u64;
        while let Some(head) = self.far.peek() {
            if head.time.as_nanos() >> SHIFT >= end {
                break;
            }
            let entry = self.far.pop().expect("peeked entry");
            let abs = (entry.time.as_nanos() >> SHIFT).max(self.cursor);
            self.wheel_insert(abs, entry);
        }
    }

    /// Offset (in buckets, from the cursor) of the first occupied bucket.
    ///
    /// Because every wheel entry lies within one window, circular slot
    /// order starting at the cursor equals absolute time order.
    fn first_occupied(&self) -> Option<usize> {
        let start = (self.cursor % SLOTS as u64) as usize;
        if let Some(slot) = self.scan_range(start, SLOTS) {
            return Some(slot - start);
        }
        if let Some(slot) = self.scan_range(0, start) {
            return Some(slot + SLOTS - start);
        }
        None
    }

    /// First occupied slot in `[lo, hi)`, scanning the bitmask word-wise.
    fn scan_range(&self, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        let first_word = lo / 64;
        let last_word = hi.div_ceil(64);
        for w in first_word..last_word {
            let mut word = self.occupied[w];
            if w == first_word {
                word &= !0u64 << (lo % 64);
            }
            let word_end = (w + 1) * 64;
            if word_end > hi {
                word &= !0u64 >> (word_end - hi);
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
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
            .field("len", &self.len)
            .field("wheel_len", &self.wheel_len)
            .field("far_len", &self.far.len())
            .field("cursor", &(self.cursor << SHIFT))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: a plain max-heap over inverted `(time, seq)`.
    struct Model(BinaryHeap<Entry<u64>>);

    impl Model {
        fn new() -> Self {
            Model(BinaryHeap::new())
        }
        fn push(&mut self, time: SimTime, seq: u64) {
            self.0.push(Entry {
                time,
                seq,
                item: seq,
            });
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            self.0.pop().map(|e| (e.time, e.seq))
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
    fn far_future_entries_round_trip_through_the_overflow_heap() {
        let mut q = EventQueue::new();
        // Well past the ~1 ms wheel window, plus one near entry.
        q.push(SimTime::from_nanos(3_600_000_000_000), 1, 1u32);
        q.push(SimTime::from_nanos(10_000_000), 2, 2u32);
        q.push(SimTime::from_nanos(50), 3, 3u32);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(3));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(2));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(1));
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_at_or_before_the_cursor_still_orders_correctly() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100_000), 1, 1u32);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(1));
        // Cursor is now at ~100 µs; a push at 0 must not be lost or
        // reordered against a later same-window push.
        q.push(SimTime::from_nanos(0), 2, 2u32);
        q.push(SimTime::from_nanos(100_001), 3, 3u32);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(2));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(3));
    }

    #[test]
    fn window_slide_migrates_far_entries_before_they_are_due() {
        let mut q = EventQueue::new();
        let w = (SLOTS as u64) << SHIFT; // window span in ns
                                         // One near entry, one just past the initial window, one far past.
        q.push(SimTime::from_nanos(10), 1, 1u32);
        q.push(SimTime::from_nanos(w + 5), 2, 2u32);
        q.push(SimTime::from_nanos(3 * w), 3, 3u32);
        // A later near push that lands between the first two.
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
                let due = horizon.is_none_or(|h| m.0.peek().is_some_and(|e| e.time < h));
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
    fn profiling_accessors_track_the_partition() {
        let mut q = EventQueue::new();
        assert_eq!(q.wheel_len() + q.far_len(), 0);
        assert_eq!(q.wheel_occupied_buckets(), 0);
        q.push(SimTime::from_nanos(10), 1, 1u32); // near: wheel
        q.push(SimTime::from_nanos(20), 2, 2u32); // same bucket
        q.push(SimTime::from_nanos(3_600_000_000_000), 3, 3u32); // far heap
        assert_eq!(q.wheel_len(), 2);
        assert_eq!(q.far_len(), 1);
        assert_eq!(q.wheel_occupied_buckets(), 1);
        assert_eq!(q.len(), q.wheel_len() + q.far_len());
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
