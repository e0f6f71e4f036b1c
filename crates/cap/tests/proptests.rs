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

// ---------------------------------------------------------------------------
// ObjectTable against the BTreeMap table it replaced
// ---------------------------------------------------------------------------

/// The object table as it was before its slab: one `BTreeMap` entry per
/// object, swept in key order, child links pruned with `dead.contains`.
/// Kept verbatim in behaviour (payload `u64`) as the oracle for the slab.
mod reference {
    use std::collections::BTreeMap;

    use fractos_cap::{
        CapError, CapRef, ControllerAddr, Epoch, MonitorEvent, ObjectId, ProcessToken,
        RevokeOutcome, Watcher,
    };

    type Result<T> = std::result::Result<T, CapError>;

    #[derive(Debug, Clone)]
    enum Payload {
        Owned(u64),
        Inherit,
    }

    #[derive(Debug, Clone)]
    struct Entry {
        payload: Payload,
        owner: ProcessToken,
        parent: Option<ObjectId>,
        children: Vec<ObjectId>,
        revoked: bool,
        delegator: Option<(Watcher, u64)>,
        delegatee_of: Option<ObjectId>,
        receive_watchers: Vec<Watcher>,
    }

    impl Entry {
        fn new(payload: Payload, owner: ProcessToken, parent: Option<ObjectId>) -> Self {
            Entry {
                payload,
                owner,
                parent,
                children: Vec::new(),
                revoked: false,
                delegator: None,
                delegatee_of: None,
                receive_watchers: Vec::new(),
            }
        }
    }

    pub struct RefTable {
        ctrl: ControllerAddr,
        epoch: Epoch,
        next_id: u64,
        entries: BTreeMap<ObjectId, Entry>,
    }

    impl RefTable {
        pub fn new(ctrl: ControllerAddr) -> Self {
            RefTable {
                ctrl,
                epoch: Epoch(0),
                next_id: 0,
                entries: BTreeMap::new(),
            }
        }

        pub fn epoch(&self) -> Epoch {
            self.epoch
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        fn mint(&mut self, entry: Entry) -> CapRef {
            let id = ObjectId(self.next_id);
            self.next_id += 1;
            self.entries.insert(id, entry);
            CapRef {
                ctrl: self.ctrl,
                epoch: self.epoch,
                object: id,
            }
        }

        pub fn create(&mut self, owner: ProcessToken, payload: u64) -> CapRef {
            self.mint(Entry::new(Payload::Owned(payload), owner, None))
        }

        pub fn derive(
            &mut self,
            parent: ObjectId,
            owner: ProcessToken,
            payload: u64,
        ) -> Result<CapRef> {
            self.check_live(parent)?;
            let cap = self.mint(Entry::new(Payload::Owned(payload), owner, Some(parent)));
            if let Some(p) = self.entries.get_mut(&parent) {
                p.children.push(cap.object);
            }
            Ok(cap)
        }

        pub fn create_revtree_node(
            &mut self,
            parent: ObjectId,
            owner: ProcessToken,
        ) -> Result<CapRef> {
            self.check_live(parent)?;
            let cap = self.mint(Entry::new(Payload::Inherit, owner, Some(parent)));
            if let Some(p) = self.entries.get_mut(&parent) {
                p.children.push(cap.object);
            }
            Ok(cap)
        }

        pub fn delegate(&mut self, id: ObjectId, to: ProcessToken) -> Result<CapRef> {
            self.check_live(id)?;
            let has_monitor = self.entries.get(&id).is_some_and(|e| e.delegator.is_some());
            if !has_monitor {
                return Ok(CapRef {
                    ctrl: self.ctrl,
                    epoch: self.epoch,
                    object: id,
                });
            }
            let mut entry = Entry::new(Payload::Inherit, to, Some(id));
            entry.delegatee_of = Some(id);
            let cap = self.mint(entry);
            if let Some(entry) = self.entries.get_mut(&id) {
                entry.children.push(cap.object);
                if let Some(mon) = entry.delegator.as_mut() {
                    mon.1 += 1;
                }
            }
            Ok(cap)
        }

        pub fn check(&self, cap: CapRef) -> Result<()> {
            if cap.epoch != self.epoch {
                return Err(CapError::StaleEpoch(cap.object));
            }
            self.check_live(cap.object)
        }

        fn check_live(&self, id: ObjectId) -> Result<()> {
            match self.entries.get(&id) {
                None => Err(CapError::NoSuchObject(id)),
                Some(e) if e.revoked => Err(CapError::Revoked(id)),
                Some(_) => Ok(()),
            }
        }

        pub fn resolve_owner_object(&self, cap: CapRef) -> Result<ObjectId> {
            self.check(cap)?;
            let mut id = cap.object;
            loop {
                let entry = self.entries.get(&id).ok_or(CapError::NoSuchObject(id))?;
                match (&entry.payload, entry.parent) {
                    (Payload::Owned(_), _) => return Ok(id),
                    (Payload::Inherit, Some(p)) => id = p,
                    (Payload::Inherit, None) => return Err(CapError::NoSuchObject(id)),
                }
            }
        }

        pub fn resolve(&self, cap: CapRef) -> Result<&u64> {
            let id = self.resolve_owner_object(cap)?;
            match self.entries.get(&id).map(|e| &e.payload) {
                Some(Payload::Owned(t)) => Ok(t),
                _ => Err(CapError::NoSuchObject(id)),
            }
        }

        pub fn payload_mut(&mut self, cap: CapRef) -> Result<&mut u64> {
            let id = self.resolve_owner_object(cap)?;
            match self.entries.get_mut(&id).map(|e| &mut e.payload) {
                Some(Payload::Owned(t)) => Ok(t),
                _ => Err(CapError::NoSuchObject(id)),
            }
        }

        pub fn parent_of(&self, id: ObjectId) -> Result<Option<ObjectId>> {
            self.entries
                .get(&id)
                .map(|e| e.parent)
                .ok_or(CapError::NoSuchObject(id))
        }

        pub fn monitor_delegate(&mut self, id: ObjectId, watcher: Watcher) -> Result<()> {
            self.check_live(id)?;
            let entry = self
                .entries
                .get_mut(&id)
                .ok_or(CapError::NoSuchObject(id))?;
            if !entry.children.is_empty() {
                return Err(CapError::HasChildren(id));
            }
            if entry.delegator.is_some() {
                return Err(CapError::AlreadyMonitored(id));
            }
            entry.delegator = Some((watcher, 0));
            Ok(())
        }

        pub fn monitor_receive(&mut self, id: ObjectId, watcher: Watcher) -> Result<()> {
            self.check_live(id)?;
            let entry = self
                .entries
                .get_mut(&id)
                .ok_or(CapError::NoSuchObject(id))?;
            entry.receive_watchers.push(watcher);
            Ok(())
        }

        pub fn revoke(&mut self, id: ObjectId) -> Result<RevokeOutcome> {
            self.check_live(id)?;
            let mut outcome = RevokeOutcome::default();
            let mut stack = vec![id];
            while let Some(id) = stack.pop() {
                let Some(entry) = self.entries.get_mut(&id) else {
                    continue;
                };
                if entry.revoked {
                    continue;
                }
                entry.revoked = true;
                outcome.revoked.push(id);
                stack.extend(entry.children.iter().copied());
                for w in entry.receive_watchers.drain(..) {
                    outcome.events.push(MonitorEvent::Receive(w));
                }
                entry.payload = Payload::Inherit;
                if let Some(parent) = entry.delegatee_of {
                    if let Some(mon) = self
                        .entries
                        .get_mut(&parent)
                        .and_then(|p| p.delegator.as_mut())
                    {
                        mon.1 = mon.1.saturating_sub(1);
                        if mon.1 == 0 {
                            outcome.events.push(MonitorEvent::DelegateDrained(mon.0));
                        }
                    }
                }
            }
            Ok(outcome)
        }

        pub fn fail_process(&mut self, proc: ProcessToken) -> RevokeOutcome {
            let owned: Vec<ObjectId> = self
                .entries
                .iter()
                .filter(|(_, e)| e.owner == proc && !e.revoked)
                .map(|(id, _)| *id)
                .collect();
            let mut outcome = RevokeOutcome::default();
            for id in owned {
                if let Ok(o) = self.revoke(id) {
                    outcome.merge(o);
                }
            }
            for entry in self.entries.values_mut() {
                entry.receive_watchers.retain(|w| w.process != proc);
                if entry.delegator.is_some_and(|m| m.0.process == proc) {
                    entry.delegator = None;
                }
            }
            outcome.events.retain(|ev| match ev {
                MonitorEvent::DelegateDrained(w) | MonitorEvent::Receive(w) => w.process != proc,
            });
            outcome
        }

        pub fn cleanup_revoked(&mut self) -> Vec<ObjectId> {
            let dead: Vec<ObjectId> = self
                .entries
                .iter()
                .filter(|(_, e)| e.revoked)
                .map(|(id, _)| *id)
                .collect();
            for id in &dead {
                self.entries.remove(id);
            }
            for entry in self.entries.values_mut() {
                entry.children.retain(|c| !dead.contains(c));
            }
            dead
        }

        pub fn reboot(&mut self) {
            self.epoch = self.epoch.next();
            self.entries.clear();
        }

        pub fn live_objects(&self) -> Vec<ObjectId> {
            self.entries
                .iter()
                .filter(|(_, e)| !e.revoked)
                .map(|(id, _)| *id)
                .collect()
        }

        pub fn children_of(&self, id: ObjectId) -> Result<&[ObjectId]> {
            self.entries
                .get(&id)
                .map(|e| e.children.as_slice())
                .ok_or(CapError::NoSuchObject(id))
        }
    }
}

/// One step on both tables. `pick` names an object: `pick % (minted + 1)`,
/// so it covers every id minted so far (in any epoch, cleaned up or not)
/// and the next, unminted one.
#[derive(Debug, Clone)]
enum TableOp {
    Create(u64, u64),
    Derive(u64, u64, u64),
    Revtree(u64, u64),
    Delegate(u64, u64),
    MonitorDelegate(u64, u64, u64),
    MonitorReceive(u64, u64, u64),
    PayloadMut(u64, u64),
    Revoke(u64),
    FailProcess(u64),
    Cleanup,
    Reboot,
}

fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    let owner = || 0u64..3;
    let pick = || any::<u64>();
    prop::collection::vec(
        prop_oneof![
            (owner(), any::<u64>()).prop_map(|(o, v)| TableOp::Create(o, v)),
            (owner(), any::<u64>()).prop_map(|(o, v)| TableOp::Create(o, v)),
            (pick(), owner(), any::<u64>()).prop_map(|(p, o, v)| TableOp::Derive(p, o, v)),
            (pick(), owner(), any::<u64>()).prop_map(|(p, o, v)| TableOp::Derive(p, o, v)),
            (pick(), owner()).prop_map(|(p, o)| TableOp::Revtree(p, o)),
            (pick(), owner()).prop_map(|(p, o)| TableOp::Delegate(p, o)),
            (pick(), owner()).prop_map(|(p, o)| TableOp::Delegate(p, o)),
            (pick(), owner(), 0u64..4).prop_map(|(p, o, c)| TableOp::MonitorDelegate(p, o, c)),
            (pick(), owner(), 0u64..4).prop_map(|(p, o, c)| TableOp::MonitorReceive(p, o, c)),
            (pick(), any::<u64>()).prop_map(|(p, v)| TableOp::PayloadMut(p, v)),
            pick().prop_map(TableOp::Revoke),
            pick().prop_map(TableOp::Revoke),
            owner().prop_map(TableOp::FailProcess),
            Just(TableOp::Cleanup),
            Just(TableOp::Reboot),
        ],
        0..120,
    )
}

proptest! {
    /// The slab table gives the `BTreeMap` table's answers: equal results
    /// and errors for every operation, revocation cascades and monitor
    /// events in the same order, and after every step equal `len`,
    /// `live_objects`, and per-id `children_of`, `parent_of`, `check`,
    /// `resolve` and `resolve_owner_object` — for every id minted so far,
    /// in the current epoch and in the epoch it was minted in.
    #[test]
    fn slab_table_matches_the_btreemap_table(ops in table_ops()) {
        let mut table: ObjectTable<u64> = ObjectTable::new(CTRL);
        let mut oracle = reference::RefTable::new(CTRL);
        // The epoch each id was minted in.
        let mut minted: Vec<fractos_cap::Epoch> = Vec::new();
        let obj = |minted: &Vec<fractos_cap::Epoch>, pick: u64| {
            ObjectId(pick % (minted.len() as u64 + 1))
        };
        let watcher = |p: u64, c: u64| Watcher { process: ProcessToken(p), callback_id: c };

        for op in ops {
            let epoch_now = table.epoch();
            let cap_at = |id| CapRef { ctrl: CTRL, epoch: epoch_now, object: id };
            // The capability the step minted or handed out, if any.
            let got: Option<CapRef> = match op {
                TableOp::Create(o, v) => {
                    let cap = table.create(ProcessToken(o), v);
                    prop_assert_eq!(cap, oracle.create(ProcessToken(o), v));
                    Some(cap)
                }
                TableOp::Derive(p, o, v) => {
                    let id = obj(&minted, p);
                    let got = table.derive(id, ProcessToken(o), v);
                    prop_assert_eq!(got, oracle.derive(id, ProcessToken(o), v));
                    got.ok()
                }
                TableOp::Revtree(p, o) => {
                    let id = obj(&minted, p);
                    let got = table.create_revtree_node(id, ProcessToken(o));
                    prop_assert_eq!(got, oracle.create_revtree_node(id, ProcessToken(o)));
                    got.ok()
                }
                TableOp::Delegate(p, o) => {
                    let id = obj(&minted, p);
                    let got = table.delegate(id, ProcessToken(o));
                    prop_assert_eq!(got, oracle.delegate(id, ProcessToken(o)));
                    got.ok()
                }
                TableOp::MonitorDelegate(p, o, c) => {
                    let id = obj(&minted, p);
                    prop_assert_eq!(
                        table.monitor_delegate(id, watcher(o, c)),
                        oracle.monitor_delegate(id, watcher(o, c))
                    );
                    None
                }
                TableOp::MonitorReceive(p, o, c) => {
                    let id = obj(&minted, p);
                    prop_assert_eq!(
                        table.monitor_receive(id, watcher(o, c)),
                        oracle.monitor_receive(id, watcher(o, c))
                    );
                    None
                }
                TableOp::PayloadMut(p, v) => {
                    let cap = cap_at(obj(&minted, p));
                    let got = table.payload_mut(cap).map(|t| std::mem::replace(t, v));
                    let want = oracle.payload_mut(cap).map(|t| std::mem::replace(t, v));
                    prop_assert_eq!(got, want);
                    None
                }
                TableOp::Revoke(p) => {
                    let id = obj(&minted, p);
                    let got = table.revoke(id).map(|o| (o.revoked, o.events));
                    let want = oracle.revoke(id).map(|o| (o.revoked, o.events));
                    prop_assert_eq!(got, want);
                    None
                }
                TableOp::FailProcess(o) => {
                    let got = table.fail_process(ProcessToken(o));
                    let want = oracle.fail_process(ProcessToken(o));
                    prop_assert_eq!((got.revoked, got.events), (want.revoked, want.events));
                    None
                }
                TableOp::Cleanup => {
                    prop_assert_eq!(table.cleanup_revoked(), oracle.cleanup_revoked());
                    None
                }
                TableOp::Reboot => {
                    table.reboot();
                    oracle.reboot();
                    None
                }
            };
            if let Some(cap) = got.filter(|c| c.object.0 == minted.len() as u64) {
                minted.push(cap.epoch);
            }

            prop_assert_eq!(table.epoch(), oracle.epoch());
            prop_assert_eq!(table.len(), oracle.len());
            prop_assert_eq!(table.is_empty(), oracle.len() == 0);
            prop_assert_eq!(table.live_objects(), oracle.live_objects());
            for i in 0..=minted.len() {
                let minted_in = minted.get(i).copied().unwrap_or(table.epoch());
                let id = ObjectId(i as u64);
                prop_assert_eq!(table.children_of(id), oracle.children_of(id));
                prop_assert_eq!(table.parent_of(id), oracle.parent_of(id));
                for epoch in [minted_in, table.epoch()] {
                    let cap = CapRef { ctrl: CTRL, epoch, object: id };
                    prop_assert_eq!(table.check(cap), oracle.check(cap));
                    prop_assert_eq!(table.resolve(cap), oracle.resolve(cap));
                    prop_assert_eq!(
                        table.resolve_owner_object(cap),
                        oracle.resolve_owner_object(cap)
                    );
                }
            }
        }
    }
}
