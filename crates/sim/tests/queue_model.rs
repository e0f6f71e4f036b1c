//! Property tests for the event queue: random interleavings of pushes,
//! pops and horizon-bounded pops must match a `BinaryHeap` reference model
//! exactly — same `(time, seq)` at every pop, same refusals at every
//! horizon, same final drain — so changing the scheduler cannot perturb a
//! single event trace. The model orders by the standard tuple order, so it
//! checks the queue's hand-written entry order rather than sharing it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use fractos_sim::{EventQueue, SimTime};

/// Reference model: a plain min-heap over `(time, seq)`.
#[derive(Default)]
struct Model(BinaryHeap<Reverse<(SimTime, u64)>>);

impl Model {
    fn push(&mut self, time: SimTime, seq: u64) {
        self.0.push(Reverse((time, seq)));
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.0.pop().map(|Reverse(k)| k)
    }
    fn peek(&self) -> Option<(SimTime, u64)> {
        self.0.peek().map(|&Reverse(k)| k)
    }
}

/// One step of the driver: push an event `delay` ns past the watermark,
/// pop, or pop bounded by a horizon `offset - 1` ns past the head — one
/// nanosecond before it, at it, or just after it, the event loop's
/// `pop_if_before`. Delays run from ties and near-ties to tens of seconds,
/// so near and far entries interleave.
#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Pop,
    PopBefore(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000).prop_map(Op::Push),           // ties and near-ties
        (0u64..100_000).prop_map(Op::Push),         // a few fabric hops
        (900_000u64..1_300_000).prop_map(Op::Push), // about a millisecond
        (0u64..20_000_000_000).prop_map(Op::Push),  // up to tens of seconds
        Just(Op::Pop),
        (0u64..3).prop_map(Op::PopBefore),
    ]
}

/// Replays `ops` against both the queue and the model; the watermark
/// mirrors the engines' invariant that nothing is scheduled below the
/// current virtual time.
fn check(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut q = EventQueue::new();
    let mut m = Model::default();
    let mut seq = 0u64;
    let mut watermark = 0u64;
    for o in ops {
        match o {
            Op::Push(delay) => {
                let t = SimTime::from_nanos(watermark + delay);
                q.push(t, seq, seq);
                m.push(t, seq);
                seq += 1;
            }
            Op::Pop => {
                prop_assert_eq!(q.peek_key(), m.peek(), "peek diverged from model");
                let got = q.pop().map(|(t, s, _)| (t, s));
                let want = m.pop();
                prop_assert_eq!(got, want, "pop diverged from model");
                if let Some((t, _)) = got {
                    watermark = t.as_nanos();
                }
            }
            Op::PopBefore(offset) => {
                let head = m.peek().map_or(watermark, |(t, _)| t.as_nanos());
                let horizon = SimTime::from_nanos((head + offset).saturating_sub(1));
                let got = q.pop_if_before(Some(horizon)).map(|(t, s, _)| (t, s));
                let due = m.peek().is_some_and(|(t, _)| t < horizon);
                let want = if due { m.pop() } else { None };
                prop_assert_eq!(got, want, "bounded pop diverged from model");
                if let Some((t, _)) = got {
                    watermark = t.as_nanos();
                }
            }
        }
        prop_assert_eq!(q.len(), m.0.len());
        prop_assert_eq!(q.is_empty(), m.0.is_empty());
    }
    // Drain: the tail must come out in exactly the model's order too.
    while let Some(want) = m.pop() {
        let got = q.pop().map(|(t, s, _)| (t, s));
        prop_assert_eq!(got, Some(want), "drain diverged from model");
    }
    prop_assert!(q.is_empty());
    prop_assert_eq!(q.peek_key(), None);
    Ok(())
}

proptest! {
    /// Random push/pop interleavings match the heap model step for step.
    #[test]
    fn queue_matches_heap_model(ops in prop::collection::vec(op(), 1..400)) {
        check(&ops)?;
    }

    /// Same-timestamp bursts (every push lands on one instant) exercise
    /// pure seq-order tie-breaking.
    #[test]
    fn same_time_bursts_pop_in_seq_order(n in 1usize..200, t in 0u64..2_000_000) {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(t);
        for seq in 0..n as u64 {
            q.push(t, seq, seq);
        }
        for expect in 0..n as u64 {
            let got = q.pop().map(|(pt, s, _)| (pt, s));
            prop_assert_eq!(got, Some((t, expect)));
        }
        prop_assert!(q.is_empty());
    }
}
