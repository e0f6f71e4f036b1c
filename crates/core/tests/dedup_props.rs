//! Property test for the per-channel duplicate filter: on any sequence of
//! deliveries — duplicates, gaps, reorderings — [`DedupFilter`] gives the
//! same verdicts and holds the same number of out-of-order sequences as
//! the rule it had before its in-order fast path, which put every fresh
//! sequence through the pending set (kept below as the oracle).
//!
//! Tier-1 runs the default 64 cases; CI's long run sets
//! `PROPTEST_CASES=4096`.

use std::collections::BTreeSet;

use proptest::prelude::*;

use fractos_core::retry::DedupFilter;

/// The filter without the fast path.
#[derive(Default)]
struct SetRule {
    next: u64,
    pending: BTreeSet<u64>,
}

impl SetRule {
    fn fresh(&mut self, seq: u64) -> bool {
        if seq < self.next {
            return false;
        }
        if !self.pending.insert(seq) {
            return false;
        }
        while self.pending.remove(&self.next) {
            self.next += 1;
        }
        true
    }
}

/// A delivery stream: mostly the channel's next sequence, with repeats of
/// recent ones, jumps ahead and late arrivals mixed in.
fn deliveries() -> impl Strategy<Value = Vec<u64>> {
    #[derive(Debug, Clone)]
    enum Step {
        Next,
        Repeat(u64),
        Ahead(u64),
        Behind(u64),
    }
    let step = prop_oneof![
        Just(Step::Next),
        Just(Step::Next),
        Just(Step::Next),
        (0u64..4).prop_map(Step::Repeat),
        (1u64..6).prop_map(Step::Ahead),
        (1u64..8).prop_map(Step::Behind),
    ];
    prop::collection::vec(step, 0..200).prop_map(|steps| {
        let (mut top, mut out) = (0u64, Vec::new());
        for s in steps {
            let seq = match s {
                Step::Next => top,
                Step::Repeat(back) => top.saturating_sub(1 + back),
                Step::Ahead(n) => top + n,
                Step::Behind(n) => top.saturating_sub(n),
            };
            top = top.max(seq + 1);
            out.push(seq);
        }
        out
    })
}

proptest! {
    #[test]
    fn dedup_filter_matches_the_set_rule(seqs in deliveries()) {
        let mut filter = DedupFilter::new();
        let mut oracle = SetRule::default();
        for seq in seqs {
            prop_assert_eq!(filter.fresh(seq), oracle.fresh(seq), "seq {}", seq);
            prop_assert_eq!(filter.out_of_order(), oracle.pending.len());
        }
    }
}
