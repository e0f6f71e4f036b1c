//! Property-based tests for the capability layer invariants.
//!
//! These check the security-critical properties the paper relies on:
//! revocation is a *closure* over the revocation tree (no survivor in the
//! subtree, no casualty outside it), capability spaces behave like POSIX fd
//! tables, monitored delegation counts drain exactly once, and reboots
//! implicitly revoke everything.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use fractos_cap::{
    CapRef, CapSpace, ControllerAddr, ObjectId, ObjectTable, Perms, ProcessToken, Watcher,
};

const CTRL: ControllerAddr = ControllerAddr(0);
const OWNER: ProcessToken = ProcessToken(0);

fn capref(n: u64) -> CapRef {
    CapRef {
        ctrl: CTRL,
        epoch: fractos_cap::Epoch(0),
        object: ObjectId(n),
    }
}

/// A reference from a small universe (three owners, two epochs, a dozen
/// objects), so one reference often sits in several slots.
fn held_ref() -> impl Strategy<Value = CapRef> {
    (0u32..3, 0u64..2, 0u64..12).prop_map(|(ctrl, epoch, object)| CapRef {
        ctrl: ControllerAddr(ctrl),
        epoch: fractos_cap::Epoch(epoch),
        object: ObjectId(object),
    })
}

/// Every reference `ctrl` can mint, as the inclusive range `CapRef`'s
/// (owner, epoch, object) order makes it.
fn owner_range(ctrl: u32) -> (CapRef, CapRef) {
    let at = |x: u64| CapRef {
        ctrl: ControllerAddr(ctrl),
        epoch: fractos_cap::Epoch(x),
        object: ObjectId(x),
    };
    (at(0), at(u64::MAX))
}

/// Operations on a capability space, mirrored against a simple model.
#[derive(Debug, Clone)]
enum SpaceOp {
    Insert(CapRef),
    Remove(u32),
    /// Remove every slot whose reference lies in `lo..=hi`.
    RemoveRefs(CapRef, CapRef),
}

fn space_ops() -> impl Strategy<Value = Vec<SpaceOp>> {
    prop::collection::vec(
        prop_oneof![
            held_ref().prop_map(SpaceOp::Insert),
            held_ref().prop_map(SpaceOp::Insert),
            (0u32..64).prop_map(SpaceOp::Remove),
            held_ref().prop_map(|r| SpaceOp::RemoveRefs(r, r)),
            (0u32..3).prop_map(|ctrl| {
                let (lo, hi) = owner_range(ctrl);
                SpaceOp::RemoveRefs(lo, hi)
            }),
            (held_ref(), held_ref()).prop_map(|(a, b)| SpaceOp::RemoveRefs(a.min(b), a.max(b))),
        ],
        0..200,
    )
}

proptest! {
    /// The capability space always allocates the lowest free index and
    /// agrees with a naive model, before and after its holder index
    /// exists: a range removal drops exactly the slots a filter over the
    /// model finds.
    #[test]
    fn capspace_matches_fd_model(ops in space_ops()) {
        let mut space = CapSpace::new();
        let mut model: BTreeMap<u32, CapRef> = BTreeMap::new();
        let lowest_free = |model: &BTreeMap<u32, CapRef>| {
            (0u32..).find(|i| !model.contains_key(i)).unwrap()
        };

        for op in ops {
            match op {
                SpaceOp::Insert(r) => {
                    let cid = space.insert(r).unwrap();
                    prop_assert_eq!(cid.0, lowest_free(&model));
                    model.insert(cid.0, r);
                }
                SpaceOp::Remove(idx) => {
                    let got = space.remove(fractos_cap::Cid(idx));
                    match model.remove(&idx) {
                        Some(r) => prop_assert_eq!(got.unwrap(), r),
                        None => prop_assert!(got.is_err()),
                    }
                }
                SpaceOp::RemoveRefs(lo, hi) => {
                    let before: BTreeSet<u32> = space.iter().map(|(cid, _)| cid.0).collect();
                    let removed = space.remove_refs(lo..=hi);
                    let after: BTreeSet<u32> = space.iter().map(|(cid, _)| cid.0).collect();
                    let expect: Vec<u32> = model
                        .iter()
                        .filter(|(_, r)| (lo..=hi).contains(*r))
                        .map(|(&cid, _)| cid)
                        .collect();
                    model.retain(|_, r| !(lo..=hi).contains(r));
                    prop_assert_eq!(removed, expect.len());
                    prop_assert_eq!(before.difference(&after).copied().collect::<Vec<_>>(), expect);
                }
            }
            prop_assert_eq!(space.len(), model.len());
            let live: BTreeMap<u32, CapRef> =
                space.iter().map(|(cid, cap)| (cid.0, *cap)).collect();
            prop_assert_eq!(&live, &model);
        }
        // The next insert still takes the lowest free index.
        let next = space.insert(capref(0)).unwrap();
        prop_assert_eq!(next.0, lowest_free(&model));
    }

    /// Revoking any node invalidates exactly its subtree.
    #[test]
    fn revocation_is_subtree_closure(
        parent_seeds in prop::collection::vec(any::<usize>(), 0..40),
        victim_seed in any::<u64>(),
    ) {
        // Parent choices: node i+1 attaches to some node <= i.
        let parents: Vec<usize> = parent_seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| s % (i + 1))
            .collect();
        let mut table: ObjectTable<u64> = ObjectTable::new(CTRL);
        let root = table.create(OWNER, 0);
        let mut caps = vec![root];
        for (i, &p) in parents.iter().enumerate() {
            let parent = caps[p];
            let cap = table.derive(parent.object, OWNER, (i + 1) as u64).unwrap();
            caps.push(cap);
        }
        let n = caps.len();
        let victim = (victim_seed % n as u64) as usize;

        // Compute the expected subtree in the model.
        let mut subtree = BTreeSet::new();
        subtree.insert(victim);
        // parents[i] is the parent of node i+1.
        loop {
            let before = subtree.len();
            for (i, &p) in parents.iter().enumerate() {
                if subtree.contains(&p) {
                    subtree.insert(i + 1);
                }
            }
            if subtree.len() == before {
                break;
            }
        }

        let outcome = table.revoke(caps[victim].object).unwrap();
        let revoked: BTreeSet<ObjectId> = outcome.revoked.iter().copied().collect();
        prop_assert_eq!(revoked.len(), subtree.len());

        for (i, cap) in caps.iter().enumerate() {
            if subtree.contains(&i) {
                prop_assert!(table.check(*cap).is_err(), "node {} should be revoked", i);
                prop_assert!(revoked.contains(&cap.object));
            } else {
                prop_assert!(table.check(*cap).is_ok(), "node {} should be live", i);
                prop_assert!(!revoked.contains(&cap.object));
            }
        }
    }

    /// Revtree (inherit) nodes always resolve to the payload of their
    /// nearest payload-owning ancestor.
    #[test]
    fn inherit_nodes_resolve_to_nearest_owned(
        depth in 1usize..12,
        owned_mask in any::<u16>(),
        payloads in prop::collection::vec(any::<u64>(), 12),
    ) {
        let mut table: ObjectTable<u64> = ObjectTable::new(CTRL);
        let root = table.create(OWNER, payloads[0]);
        let mut chain = vec![root];
        let mut expected = vec![payloads[0]];
        for d in 1..=depth {
            let parent = chain[d - 1];
            if owned_mask & (1 << d) != 0 {
                let cap = table.derive(parent.object, OWNER, payloads[d]).unwrap();
                chain.push(cap);
                expected.push(payloads[d]);
            } else {
                let cap = table.create_revtree_node(parent.object, OWNER).unwrap();
                chain.push(cap);
                expected.push(expected[d - 1]);
            }
        }
        for (cap, want) in chain.iter().zip(&expected) {
            prop_assert_eq!(table.resolve(*cap).unwrap(), want);
        }
    }

    /// With `monitor_delegate` armed, exactly one `DelegateDrained` event
    /// fires, and only after the last delegatee child is revoked.
    #[test]
    fn monitor_delegate_drains_exactly_once(
        k in 1usize..20,
        order_seed in any::<u64>(),
    ) {
        let mut table: ObjectTable<u64> = ObjectTable::new(CTRL);
        let cap = table.create(OWNER, 7);
        let watcher = Watcher { process: OWNER, callback_id: 42 };
        table.monitor_delegate(cap.object, watcher).unwrap();

        let mut children = Vec::new();
        for i in 0..k {
            children.push(table.delegate(cap.object, ProcessToken(i as u64 + 1)).unwrap());
        }
        // Deterministic pseudo-shuffle of the revocation order.
        let mut order: Vec<usize> = (0..k).collect();
        let mut s = order_seed;
        for i in (1..k).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }

        let mut drained = 0;
        for (n, &i) in order.iter().enumerate() {
            let outcome = table.revoke(children[i].object).unwrap();
            let events = outcome.events.len();
            if n + 1 == k {
                prop_assert_eq!(events, 1, "drain event on last revoke");
            } else {
                prop_assert_eq!(events, 0, "no event before last revoke");
            }
            drained += events;
        }
        prop_assert_eq!(drained, 1);
        // The armed capability itself stays live.
        prop_assert!(table.check(cap).is_ok());
    }

    /// After a reboot every previously minted capability is stale and every
    /// newly minted capability validates.
    #[test]
    fn reboot_stales_all_prior_caps(n in 1usize..30) {
        let mut table: ObjectTable<u64> = ObjectTable::new(CTRL);
        let old: Vec<CapRef> = (0..n).map(|i| table.create(OWNER, i as u64)).collect();
        table.reboot();
        for cap in &old {
            prop_assert!(table.check(*cap).is_err());
        }
        let fresh = table.create(OWNER, 0);
        prop_assert!(table.check(fresh).is_ok());
    }

    /// Diminishing permissions never adds bits.
    #[test]
    fn perms_diminish_monotone(a in 0u8..4, b in 0u8..4) {
        let before = Perms::from_bits(a);
        let after = before.diminish(Perms::from_bits(b));
        prop_assert!(before.contains(after));
    }

    /// Failing a process revokes all and only its objects (when trees do
    /// not span owners).
    #[test]
    fn fail_process_scopes_to_owner(assignment in prop::collection::vec(0u64..3, 1..30)) {
        let mut table: ObjectTable<u64> = ObjectTable::new(CTRL);
        let caps: Vec<(CapRef, u64)> = assignment
            .iter()
            .enumerate()
            .map(|(i, &p)| (table.create(ProcessToken(p), i as u64), p))
            .collect();
        table.fail_process(ProcessToken(1));
        for (cap, owner) in &caps {
            if *owner == 1 {
                prop_assert!(table.check(*cap).is_err());
            } else {
                prop_assert!(table.check(*cap).is_ok());
            }
        }
    }
}
