//! Owner-centric object tables with revocation trees and monitors.
//!
//! Each Controller owns one [`ObjectTable`]. Objects referenced by
//! capabilities "can only be used by contacting the owner of the object —
//! the Controller with which it is registered" (§3.5), so revocation is a
//! *local* invalidation at the owner followed by an out-of-critical-path
//! cleanup broadcast. Delegations are deliberately *not* tracked; instead,
//! separately revocable nodes are created explicitly via
//! `cap_create_revtree` (the caretaker pattern), or implicitly per
//! delegation when a `monitor_delegate` is armed on the source capability
//! (§3.6).
//!
//! The table is generic over the payload type `T` so the OS layer can store
//! its Memory/Request descriptors while this crate owns the lifecycle rules.
//!
//! Storage is a slab: object ids are minted densely from one counter, so
//! the entry for `ObjectId(base + i)` lives at index `i` of a `Vec`, and a
//! check or resolve is an index, not a tree walk. A reboot empties the slab
//! and moves `base` to the next id to mint; ids keep increasing across
//! reboots, so a pre-reboot id falls below `base` and finds nothing.

use crate::error::{CapError, Result};
use crate::ids::{CapRef, ControllerAddr, Epoch, ObjectId, ProcessToken};

/// What a revocation-tree node stores.
///
/// Nodes minted by `cap_create_revtree` and by monitored delegation carry no
/// payload of their own: they *inherit* the nearest ancestor's payload, which
/// keeps them at the paper's "a few bytes each" (§3.5).
#[derive(Debug, Clone)]
enum Payload<T> {
    Owned(T),
    Inherit,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    payload: Payload<T>,
    owner: ProcessToken,
    parent: Option<ObjectId>,
    children: Vec<ObjectId>,
    revoked: bool,
    /// Armed by `monitor_delegate`: counts live implicitly-created children.
    delegator: Option<DelegatorMonitor>,
    /// Set on implicitly-created delegation children: revoking them
    /// decrements the delegator's counter.
    delegatee_of: Option<ObjectId>,
    /// Armed by `monitor_receive`: notified when this object is revoked.
    receive_watchers: Vec<Watcher>,
}

#[derive(Debug, Clone)]
struct DelegatorMonitor {
    watcher: Watcher,
    outstanding: u64,
}

/// A registered monitor callback target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watcher {
    /// The Process to notify.
    pub process: ProcessToken,
    /// The user-chosen callback id echoed back in the notification.
    pub callback_id: u64,
}

/// A monitor notification produced by a revocation (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorEvent {
    /// `monitor_delegate_cb`: every implicitly-created child of the armed
    /// capability has been invalidated.
    DelegateDrained(Watcher),
    /// `monitor_receive_cb`: the watched capability was revoked.
    Receive(Watcher),
}

/// The result of a revocation: which objects were invalidated and which
/// monitor callbacks fired.
#[derive(Debug, Default)]
pub struct RevokeOutcome {
    /// Every object invalidated, in cascade order (the argument first).
    pub revoked: Vec<ObjectId>,
    /// Monitor callbacks to deliver.
    pub events: Vec<MonitorEvent>,
}

impl RevokeOutcome {
    /// Number of revocation-tree nodes visited (the Fig 7 cost metric).
    pub fn nodes_visited(&self) -> usize {
        self.revoked.len()
    }

    /// Merges another outcome into this one.
    pub fn merge(&mut self, other: RevokeOutcome) {
        self.revoked.extend(other.revoked);
        self.events.extend(other.events);
    }
}

/// One Controller's table of capability-protected objects.
#[derive(Debug)]
pub struct ObjectTable<T> {
    ctrl: ControllerAddr,
    epoch: Epoch,
    next_id: u64,
    /// The id of `entries[0]`: the first id minted in this epoch.
    base: u64,
    /// This epoch's objects, `ObjectId(base + i)` at index `i` (`None` once
    /// cleaned up). Ids are minted in increasing order, so index order is id
    /// order, and whole-table sweeps (`fail_process`, `cleanup_revoked`,
    /// `live_objects`) visit entries in ascending id order regardless of
    /// history — the cascade order of a failure-translation revocation is
    /// observable through monitor events.
    entries: Vec<Option<Entry<T>>>,
    /// Number of `Some` slots in `entries`.
    len: usize,
}

impl<T> ObjectTable<T> {
    /// Creates an empty table for the Controller at `ctrl`, epoch 0.
    pub fn new(ctrl: ControllerAddr) -> Self {
        ObjectTable {
            ctrl,
            epoch: Epoch(0),
            next_id: 0,
            base: 0,
            entries: Vec::new(),
            len: 0,
        }
    }

    /// The owning Controller's address.
    pub fn ctrl(&self) -> ControllerAddr {
        self.ctrl
    }

    /// The current reboot epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Number of entries, including revoked-but-not-cleaned ones.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slab index of `id`, if it was minted in this epoch.
    fn index(&self, id: ObjectId) -> Option<usize> {
        id.0.checked_sub(self.base)
            .and_then(|i| usize::try_from(i).ok())
    }

    fn get(&self, id: ObjectId) -> Option<&Entry<T>> {
        self.entries.get(self.index(id)?)?.as_ref()
    }

    fn get_mut(&mut self, id: ObjectId) -> Option<&mut Entry<T>> {
        let i = self.index(id)?;
        self.entries.get_mut(i)?.as_mut()
    }

    /// Ids of the entries that satisfy `keep`, ascending.
    fn ids_where(&self, keep: impl Fn(&Entry<T>) -> bool) -> Vec<ObjectId> {
        (self.base..)
            .zip(&self.entries)
            .filter(|(_, e)| e.as_ref().is_some_and(&keep))
            .map(|(id, _)| ObjectId(id))
            .collect()
    }

    fn mint(&mut self, entry: Entry<T>) -> CapRef {
        let id = ObjectId(self.next_id);
        self.next_id += 1;
        self.entries.push(Some(entry));
        self.len += 1;
        CapRef {
            ctrl: self.ctrl,
            epoch: self.epoch,
            object: id,
        }
    }

    /// Registers a brand-new root object (e.g. `memory_create`,
    /// `request_create` without a source).
    pub fn create(&mut self, owner: ProcessToken, payload: T) -> CapRef {
        self.mint(Entry {
            payload: Payload::Owned(payload),
            owner,
            parent: None,
            children: Vec::new(),
            revoked: false,
            delegator: None,
            delegatee_of: None,
            receive_watchers: Vec::new(),
        })
    }

    /// Derives a new object with its own payload from `parent`
    /// (`memory_diminish`, Request refinement). The child joins the parent's
    /// revocation tree: revoking the parent invalidates the child.
    pub fn derive(&mut self, parent: ObjectId, owner: ProcessToken, payload: T) -> Result<CapRef> {
        self.check_live(parent)?;
        let cap = self.mint(Entry {
            payload: Payload::Owned(payload),
            owner,
            parent: Some(parent),
            children: Vec::new(),
            revoked: false,
            delegator: None,
            delegatee_of: None,
            receive_watchers: Vec::new(),
        });
        if let Some(p) = self.get_mut(parent) {
            p.children.push(cap.object);
        }
        Ok(cap)
    }

    /// `cap_create_revtree`: creates a separately revocable node that
    /// inherits the parent's payload (the caretaker indirection, §3.5).
    pub fn create_revtree_node(&mut self, parent: ObjectId, owner: ProcessToken) -> Result<CapRef> {
        self.check_live(parent)?;
        let cap = self.mint(Entry {
            payload: Payload::Inherit,
            owner,
            parent: Some(parent),
            children: Vec::new(),
            revoked: false,
            delegator: None,
            delegatee_of: None,
            receive_watchers: Vec::new(),
        });
        if let Some(p) = self.get_mut(parent) {
            p.children.push(cap.object);
        }
        Ok(cap)
    }

    /// Produces the capability to hand to a delegatee of `id`.
    ///
    /// Plain delegation mints no new object (delegations are untracked);
    /// the same reference is returned. If `id` carries an armed
    /// `monitor_delegate`, a separately revocable *delegatee child* is
    /// created instead, flagged so its revocation decrements the
    /// delegator's counter (§3.6).
    pub fn delegate(&mut self, id: ObjectId, to: ProcessToken) -> Result<CapRef> {
        self.check_live(id)?;
        let has_monitor = self.get(id).is_some_and(|e| e.delegator.is_some());
        if !has_monitor {
            return Ok(CapRef {
                ctrl: self.ctrl,
                epoch: self.epoch,
                object: id,
            });
        }
        let cap = self.mint(Entry {
            payload: Payload::Inherit,
            owner: to,
            parent: Some(id),
            children: Vec::new(),
            revoked: false,
            delegator: None,
            delegatee_of: Some(id),
            receive_watchers: Vec::new(),
        });
        if let Some(entry) = self.get_mut(id) {
            entry.children.push(cap.object);
            if let Some(mon) = entry.delegator.as_mut() {
                mon.outstanding += 1;
            }
        }
        Ok(cap)
    }

    /// Validates a full capability reference: object exists, is not revoked,
    /// and the epoch matches (stale epochs mean the Controller rebooted and
    /// the capability is implicitly revoked, §3.6).
    pub fn check(&self, cap: CapRef) -> Result<()> {
        if cap.epoch != self.epoch {
            return Err(CapError::StaleEpoch(cap.object));
        }
        self.check_live(cap.object)
    }

    fn check_live(&self, id: ObjectId) -> Result<()> {
        match self.get(id) {
            None => Err(CapError::NoSuchObject(id)),
            Some(e) if e.revoked => Err(CapError::Revoked(id)),
            Some(_) => Ok(()),
        }
    }

    /// Resolves a capability to its effective payload, walking up through
    /// payload-less (revtree / delegatee) nodes to the nearest owned one.
    pub fn resolve(&self, cap: CapRef) -> Result<&T> {
        self.check(cap)?;
        let mut id = cap.object;
        loop {
            let entry = self.get(id).ok_or(CapError::NoSuchObject(id))?;
            // Ancestors cannot be revoked while a descendant is live:
            // revocation cascades downward atomically.
            match (&entry.payload, entry.parent) {
                (Payload::Owned(t), _) => return Ok(t),
                (Payload::Inherit, Some(p)) => id = p,
                // An Inherit node always has a parent by construction; a
                // missing one means the table was corrupted externally.
                (Payload::Inherit, None) => return Err(CapError::NoSuchObject(id)),
            }
        }
    }

    /// Resolves to the id of the nearest payload-owning ancestor (or self).
    pub fn resolve_owner_object(&self, cap: CapRef) -> Result<ObjectId> {
        self.check(cap)?;
        let mut id = cap.object;
        loop {
            let entry = self.get(id).ok_or(CapError::NoSuchObject(id))?;
            match (&entry.payload, entry.parent) {
                (Payload::Owned(_), _) => return Ok(id),
                (Payload::Inherit, Some(p)) => id = p,
                (Payload::Inherit, None) => return Err(CapError::NoSuchObject(id)),
            }
        }
    }

    /// Mutable access to an object's payload (e.g. Request refinement by the
    /// Controller itself).
    pub fn payload_mut(&mut self, cap: CapRef) -> Result<&mut T> {
        self.check(cap)?;
        let id = self.resolve_owner_object(cap)?;
        match self.get_mut(id).map(|e| &mut e.payload) {
            Some(Payload::Owned(t)) => Ok(t),
            // `resolve_owner_object` only returns Owned nodes.
            _ => Err(CapError::NoSuchObject(id)),
        }
    }

    /// Parent of `id` in the revocation tree, if any (`None` for roots).
    ///
    /// Static verifiers use this to walk derivation edges and prove
    /// privilege monotonicity without mutating the table.
    pub fn parent_of(&self, id: ObjectId) -> Result<Option<ObjectId>> {
        self.get(id)
            .map(|e| e.parent)
            .ok_or(CapError::NoSuchObject(id))
    }

    /// Arms `monitor_delegate` on `id` (§3.6): future delegations create
    /// separately revocable children; when the last child is invalidated the
    /// watcher receives a `DelegateDrained` event.
    ///
    /// Per the paper, the capability must not have children yet.
    pub fn monitor_delegate(&mut self, id: ObjectId, watcher: Watcher) -> Result<()> {
        self.check_live(id)?;
        let entry = self.get_mut(id).ok_or(CapError::NoSuchObject(id))?;
        if !entry.children.is_empty() {
            return Err(CapError::HasChildren(id));
        }
        if entry.delegator.is_some() {
            return Err(CapError::AlreadyMonitored(id));
        }
        entry.delegator = Some(DelegatorMonitor {
            watcher,
            outstanding: 0,
        });
        Ok(())
    }

    /// Arms `monitor_receive` on `id` (§3.6): the watcher is notified when
    /// the object is revoked (explicitly or through failure translation).
    pub fn monitor_receive(&mut self, id: ObjectId, watcher: Watcher) -> Result<()> {
        self.check_live(id)?;
        let entry = self.get_mut(id).ok_or(CapError::NoSuchObject(id))?;
        entry.receive_watchers.push(watcher);
        Ok(())
    }

    /// Revokes the object and its entire revocation subtree, immediately.
    ///
    /// Invalidation is local to this (owner) table; dangling capabilities at
    /// other Controllers are removed by the later cleanup broadcast and are
    /// harmless in between because every use contacts this table.
    pub fn revoke(&mut self, id: ObjectId) -> Result<RevokeOutcome> {
        self.check_live(id)?;
        let mut outcome = RevokeOutcome::default();
        self.revoke_subtree(id, &mut outcome);
        Ok(outcome)
    }

    fn revoke_subtree(&mut self, root: ObjectId, outcome: &mut RevokeOutcome) {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let Some(entry) = self.get_mut(id) else {
                continue;
            };
            if entry.revoked {
                continue;
            }
            entry.revoked = true;
            outcome.revoked.push(id);
            stack.extend(entry.children.iter().copied());

            // Fire receive watchers for this node.
            for w in entry.receive_watchers.drain(..) {
                outcome.events.push(MonitorEvent::Receive(w));
            }
            // Drop the payload: the node is revoked, so it can never be
            // resolved through again.
            entry.payload = Payload::Inherit;
            let delegatee_of = entry.delegatee_of;

            // Decrement the delegator counter if this was a monitored
            // delegation child.
            if let Some(parent) = delegatee_of {
                if let Some(pentry) = self.get_mut(parent) {
                    if let Some(mon) = pentry.delegator.as_mut() {
                        mon.outstanding = mon.outstanding.saturating_sub(1);
                        if mon.outstanding == 0 {
                            outcome
                                .events
                                .push(MonitorEvent::DelegateDrained(mon.watcher));
                        }
                    }
                }
            }
        }
    }

    /// Translates a Process failure into revocations (§3.6): every object
    /// registered by the failed Process is revoked, and its monitor
    /// registrations are discarded (no callbacks to the dead).
    pub fn fail_process(&mut self, proc: ProcessToken) -> RevokeOutcome {
        let owned = self.ids_where(|e| e.owner == proc && !e.revoked);
        let mut outcome = RevokeOutcome::default();
        for id in owned {
            // A cascade from an earlier root may have taken this one already.
            if let Ok(o) = self.revoke(id) {
                outcome.merge(o);
            }
        }
        // Drop monitors registered by the failed Process and suppress any
        // events already routed to it.
        for entry in self.entries.iter_mut().flatten() {
            entry.receive_watchers.retain(|w| w.process != proc);
            if entry
                .delegator
                .as_ref()
                .is_some_and(|m| m.watcher.process == proc)
            {
                entry.delegator = None;
            }
        }
        outcome.events.retain(|ev| match ev {
            MonitorEvent::DelegateDrained(w) | MonitorEvent::Receive(w) => w.process != proc,
        });
        outcome
    }

    /// The cleanup step (§3.5): physically removes revoked entries.
    ///
    /// In the full system this runs after the broadcast confirms no
    /// Controller still holds references; it is outside the critical path
    /// and neither security- nor performance-critical.
    pub fn cleanup_revoked(&mut self) -> Vec<ObjectId> {
        let mut dead = Vec::new();
        for (id, slot) in (self.base..).zip(&mut self.entries) {
            if slot.as_ref().is_some_and(|e| e.revoked) {
                *slot = None;
                dead.push(ObjectId(id));
            }
        }
        self.len -= dead.len();
        // Prune dangling child links on survivors: every link named a
        // present entry before this sweep, so the absent ones are the dead.
        for i in 0..self.entries.len() {
            let Some(entry) = self.entries[i].as_mut() else {
                continue;
            };
            let mut children = std::mem::take(&mut entry.children);
            children.retain(|&c| self.get(c).is_some());
            if let Some(entry) = self.entries[i].as_mut() {
                entry.children = children;
            }
        }
        dead
    }

    /// Simulates a Controller reboot: the epoch advances and all state is
    /// lost, implicitly revoking every capability minted before (§3.6).
    pub fn reboot(&mut self) {
        self.epoch = self.epoch.next();
        self.entries.clear();
        self.len = 0;
        // Object ids keep increasing so pre-reboot ids can never alias
        // post-reboot objects even if the epoch check were skipped: they
        // fall below the new base.
        self.base = self.next_id;
    }

    /// Ids of all live (non-revoked) objects, in ascending order.
    pub fn live_objects(&self) -> Vec<ObjectId> {
        self.ids_where(|e| !e.revoked)
    }

    /// Immediate children of `id` in the revocation tree.
    pub fn children_of(&self, id: ObjectId) -> Result<&[ObjectId]> {
        self.get(id)
            .map(|e| e.children.as_slice())
            .ok_or(CapError::NoSuchObject(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTRL: ControllerAddr = ControllerAddr(0);
    const P0: ProcessToken = ProcessToken(0);
    const P1: ProcessToken = ProcessToken(1);

    fn table() -> ObjectTable<&'static str> {
        ObjectTable::new(CTRL)
    }

    #[test]
    fn create_resolve_roundtrip() {
        let mut t = table();
        let cap = t.create(P0, "mem");
        assert_eq!(*t.resolve(cap).unwrap(), "mem");
        assert!(t.check(cap).is_ok());
    }

    #[test]
    fn derive_builds_tree_and_inherits_revocation() {
        let mut t = table();
        let root = t.create(P0, "root");
        let child = t.derive(root.object, P0, "child").unwrap();
        let grand = t.derive(child.object, P1, "grand").unwrap();

        let outcome = t.revoke(child.object).unwrap();
        assert_eq!(outcome.nodes_visited(), 2);
        assert!(outcome.revoked.contains(&child.object));
        assert!(outcome.revoked.contains(&grand.object));
        assert_eq!(t.check(root), Ok(()));
        assert_eq!(t.check(child), Err(CapError::Revoked(child.object)));
        assert_eq!(t.check(grand), Err(CapError::Revoked(grand.object)));
    }

    #[test]
    fn revtree_node_inherits_payload() {
        let mut t = table();
        let root = t.create(P0, "blob");
        let node = t.create_revtree_node(root.object, P0).unwrap();
        assert_eq!(*t.resolve(node).unwrap(), "blob");
        // Revoking the indirection node leaves the root alive.
        t.revoke(node.object).unwrap();
        assert!(t.check(root).is_ok());
        assert_eq!(t.resolve(node), Err(CapError::Revoked(node.object)));
    }

    #[test]
    fn plain_delegation_shares_the_object() {
        let mut t = table();
        let root = t.create(P0, "x");
        let d = t.delegate(root.object, P1).unwrap();
        assert_eq!(d.object, root.object);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn monitored_delegation_mints_children_and_drains() {
        let mut t = table();
        let root = t.create(P0, "svc");
        let w = Watcher {
            process: P0,
            callback_id: 99,
        };
        t.monitor_delegate(root.object, w).unwrap();

        let d1 = t.delegate(root.object, P1).unwrap();
        let d2 = t.delegate(root.object, P1).unwrap();
        assert_ne!(d1.object, root.object);
        assert_ne!(d1.object, d2.object);
        // Children resolve to the root payload.
        assert_eq!(*t.resolve(d1).unwrap(), "svc");

        let o1 = t.revoke(d1.object).unwrap();
        assert!(o1.events.is_empty(), "counter not yet drained");
        let o2 = t.revoke(d2.object).unwrap();
        assert_eq!(o2.events, vec![MonitorEvent::DelegateDrained(w)]);
        assert!(t.check(root).is_ok());
    }

    #[test]
    fn monitor_delegate_requires_childless_cap() {
        let mut t = table();
        let root = t.create(P0, "x");
        t.derive(root.object, P0, "c").unwrap();
        let w = Watcher {
            process: P0,
            callback_id: 1,
        };
        assert_eq!(
            t.monitor_delegate(root.object, w),
            Err(CapError::HasChildren(root.object))
        );
    }

    #[test]
    fn monitor_receive_fires_on_revoke() {
        let mut t = table();
        let root = t.create(P0, "x");
        let w = Watcher {
            process: P1,
            callback_id: 7,
        };
        t.monitor_receive(root.object, w).unwrap();
        let outcome = t.revoke(root.object).unwrap();
        assert_eq!(outcome.events, vec![MonitorEvent::Receive(w)]);
    }

    #[test]
    fn monitor_receive_fires_on_cascade() {
        let mut t = table();
        let root = t.create(P0, "x");
        let node = t.create_revtree_node(root.object, P1).unwrap();
        let w = Watcher {
            process: P1,
            callback_id: 3,
        };
        t.monitor_receive(node.object, w).unwrap();
        // Revoking the *parent* cascades into the watched node.
        let outcome = t.revoke(root.object).unwrap();
        assert!(outcome.events.contains(&MonitorEvent::Receive(w)));
    }

    #[test]
    fn fail_process_revokes_owned_objects_and_mutes_callbacks() {
        let mut t = table();
        let a = t.create(P0, "a");
        let b = t.create(P1, "b");
        // P1 watches its own object — callbacks to the dead are suppressed.
        t.monitor_receive(
            b.object,
            Watcher {
                process: P1,
                callback_id: 1,
            },
        )
        .unwrap();
        // P0 watches P1's object — this callback must fire.
        t.monitor_receive(
            b.object,
            Watcher {
                process: P0,
                callback_id: 2,
            },
        )
        .unwrap();

        let outcome = t.fail_process(P1);
        assert!(outcome.revoked.contains(&b.object));
        assert!(!outcome.revoked.contains(&a.object));
        assert_eq!(
            outcome.events,
            vec![MonitorEvent::Receive(Watcher {
                process: P0,
                callback_id: 2
            })]
        );
        assert!(t.check(a).is_ok());
    }

    #[test]
    fn cleanup_removes_revoked_entries() {
        let mut t = table();
        let root = t.create(P0, "r");
        let child = t.derive(root.object, P0, "c").unwrap();
        t.revoke(child.object).unwrap();
        let dead = t.cleanup_revoked();
        assert_eq!(dead, vec![child.object]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.children_of(root.object).unwrap(), &[]);
        assert_eq!(t.check(child), Err(CapError::NoSuchObject(child.object)));
    }

    #[test]
    fn reboot_bumps_epoch_and_stales_caps() {
        let mut t = table();
        let cap = t.create(P0, "x");
        t.reboot();
        assert_eq!(t.epoch(), Epoch(1));
        assert_eq!(t.check(cap), Err(CapError::StaleEpoch(cap.object)));
        // New objects mint with the new epoch and validate fine.
        let fresh = t.create(P0, "y");
        assert!(t.check(fresh).is_ok());
    }

    #[test]
    fn revoked_object_rejects_all_operations() {
        let mut t = table();
        let cap = t.create(P0, "x");
        t.revoke(cap.object).unwrap();
        assert_eq!(t.resolve(cap), Err(CapError::Revoked(cap.object)));
        assert_eq!(
            t.derive(cap.object, P0, "y").unwrap_err(),
            CapError::Revoked(cap.object)
        );
        assert_eq!(
            t.delegate(cap.object, P1).unwrap_err(),
            CapError::Revoked(cap.object)
        );
        assert_eq!(
            t.revoke(cap.object).unwrap_err(),
            CapError::Revoked(cap.object)
        );
    }

    #[test]
    fn double_monitor_delegate_rejected() {
        let mut t = table();
        let cap = t.create(P0, "x");
        let w = Watcher {
            process: P0,
            callback_id: 0,
        };
        t.monitor_delegate(cap.object, w).unwrap();
        assert_eq!(
            t.monitor_delegate(cap.object, w),
            Err(CapError::AlreadyMonitored(cap.object))
        );
    }

    #[test]
    fn payload_mut_reaches_owner_node() {
        let mut t = table();
        let root = t.create(P0, "old");
        let node = t.create_revtree_node(root.object, P0).unwrap();
        *t.payload_mut(node).unwrap() = "new";
        assert_eq!(*t.resolve(root).unwrap(), "new");
    }
}
