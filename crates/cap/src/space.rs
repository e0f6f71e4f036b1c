//! Per-Process capability spaces.
//!
//! A Process never holds raw [`CapRef`]s; it holds small integer indices
//! ([`Cid`]) into its capability space, exactly like POSIX file descriptors
//! (§3.1: "the references behind the capabilities are protected by FractOS,
//! and Processes access them via indices in their capability space").
//! Insertion reuses the lowest free index, mirroring fd allocation.
//!
//! A slot holds the whole capability the index names: a bare [`CapRef`] by
//! default, or whatever record its holder keeps per capability (the
//! Controller's slots carry the reference together with the memory
//! descriptor snapshot that one-sided RDMA needs).
//!
//! Revocation cleanup removes slots by the reference they hold, not by
//! index: [`CapSpace::remove_refs`] drops every slot whose reference lies
//! in a range (one revoked object, or everything one owner minted). It
//! answers from a holder index, an ordered set of (reference, cid)
//! entries, so a scrub costs O(log held + removed) instead of a pass over
//! every slot. A space builds the index at its first scrub and keeps it
//! current from then on, so a space that is never scrubbed never pays for
//! it. That is measured, not assumed: kept from the first insert instead,
//! the index raised the peak RSS of `perf/`'s `mesh64` workload, which
//! never revokes, by about a tenth (10.6 MiB, measured while the object
//! table was still a `BTreeMap`) and read 0.85–1.05× its ops/s (3
//! alternating runs on a 2-core host).

use std::collections::{BTreeSet, BinaryHeap};
use std::ops::RangeInclusive;

use crate::error::{CapError, Result};
use crate::ids::{CapRef, Cid, ControllerAddr, Epoch, ObjectId};

/// Maximum number of capability slots per Process (quota, §4 mentions the
/// capability space "can be capped via quotas").
pub const DEFAULT_QUOTA: usize = 1 << 20;

/// A Process's table of capabilities, one `T` per live slot. A slot's
/// reference is read through `AsRef<CapRef>`.
#[derive(Debug, Clone)]
pub struct CapSpace<T = CapRef> {
    slots: Vec<Option<T>>,
    // Min-heap of freed indices (stored negated in a max-heap).
    free: BinaryHeap<std::cmp::Reverse<u32>>,
    quota: usize,
    live: usize,
    // Holder index: one entry per live slot once the first `remove_refs`
    // built it; `insert` and `remove` keep it current.
    index: Option<BTreeSet<Held>>,
}

/// A holder-index entry: a slot's reference, then its cid. Flat rather
/// than `(CapRef, Cid)`, which pads to 32 bytes where this packs into 24;
/// the derived order is the same, (owner, epoch, object, cid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Held {
    ctrl: ControllerAddr,
    epoch: Epoch,
    object: ObjectId,
    cid: Cid,
}

impl Held {
    fn new(r: CapRef, cid: Cid) -> Self {
        Held {
            ctrl: r.ctrl,
            epoch: r.epoch,
            object: r.object,
            cid,
        }
    }
}

impl CapSpace {
    /// Creates an empty space of bare references with the default quota.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T: AsRef<CapRef>> CapSpace<T> {
    /// Creates an empty space with a specific slot quota.
    pub fn with_quota(quota: usize) -> Self {
        CapSpace {
            slots: Vec::new(),
            free: BinaryHeap::new(),
            quota,
            live: 0,
            index: None,
        }
    }

    /// Caps the space at `quota` live slots. Capabilities already held
    /// stay; insertions fail while `quota` or more are live.
    pub fn set_quota(&mut self, quota: usize) {
        self.quota = quota;
    }

    /// Inserts a capability at the lowest free index.
    pub fn insert(&mut self, cap: T) -> Result<Cid> {
        if self.live >= self.quota {
            return Err(CapError::SpaceExhausted);
        }
        let held = *cap.as_ref();
        let cid = if let Some(std::cmp::Reverse(idx)) = self.free.pop() {
            self.slots[idx as usize] = Some(cap);
            Cid(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).map_err(|_| CapError::SpaceExhausted)?;
            self.slots.push(Some(cap));
            Cid(idx)
        };
        if let Some(index) = &mut self.index {
            index.insert(Held::new(held, cid));
        }
        self.live += 1;
        Ok(cid)
    }

    /// Looks up the capability at `cid`.
    pub fn get(&self, cid: Cid) -> Result<&T> {
        self.slots
            .get(cid.0 as usize)
            .and_then(Option::as_ref)
            .ok_or(CapError::BadCid(cid))
    }

    /// Removes and returns the capability at `cid`, freeing the index.
    pub fn remove(&mut self, cid: Cid) -> Result<T> {
        let slot = self
            .slots
            .get_mut(cid.0 as usize)
            .ok_or(CapError::BadCid(cid))?;
        let cap = slot.take().ok_or(CapError::BadCid(cid))?;
        if let Some(index) = &mut self.index {
            index.remove(&Held::new(*cap.as_ref(), cid));
        }
        self.free.push(std::cmp::Reverse(cid.0));
        self.live -= 1;
        Ok(cap)
    }

    /// Removes every capability whose reference lies in `refs` and returns
    /// how many were removed. The first call builds the holder index from
    /// the live slots; later calls and every `insert`/`remove` reuse it.
    pub fn remove_refs(&mut self, refs: RangeInclusive<CapRef>) -> usize {
        let slots = &self.slots;
        let index = self.index.get_or_insert_with(|| {
            slots
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| {
                    slot.as_ref()
                        .map(|cap| Held::new(*cap.as_ref(), Cid(i as u32)))
                })
                .collect()
        });
        let bounds = Held::new(*refs.start(), Cid(0))..=Held::new(*refs.end(), Cid(u32::MAX));
        let victims: Vec<Cid> = index.range(bounds).map(|held| held.cid).collect();
        for &cid in &victims {
            let _ = self.remove(cid);
        }
        victims.len()
    }

    /// Number of live capabilities.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the space holds no capabilities.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over `(cid, cap)` pairs of live slots.
    pub fn iter(&self) -> impl Iterator<Item = (Cid, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|cap| (Cid(i as u32), cap)))
    }
}

impl<T: AsRef<CapRef>> Default for CapSpace<T> {
    fn default() -> Self {
        Self::with_quota(DEFAULT_QUOTA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ControllerAddr, Epoch, ObjectId};

    fn cap(n: u64) -> CapRef {
        CapRef {
            ctrl: ControllerAddr(0),
            epoch: Epoch(0),
            object: ObjectId(n),
        }
    }

    #[test]
    fn inserts_use_lowest_free_index() {
        let mut s = CapSpace::new();
        assert_eq!(s.insert(cap(0)).unwrap(), Cid(0));
        assert_eq!(s.insert(cap(1)).unwrap(), Cid(1));
        assert_eq!(s.insert(cap(2)).unwrap(), Cid(2));
        s.remove(Cid(1)).unwrap();
        s.remove(Cid(0)).unwrap();
        // Lowest freed index first, like POSIX fds.
        assert_eq!(s.insert(cap(3)).unwrap(), Cid(0));
        assert_eq!(s.insert(cap(4)).unwrap(), Cid(1));
        assert_eq!(s.insert(cap(5)).unwrap(), Cid(3));
    }

    #[test]
    fn get_and_remove() {
        let mut s = CapSpace::new();
        let cid = s.insert(cap(7)).unwrap();
        assert_eq!(s.get(cid).unwrap().object, ObjectId(7));
        assert_eq!(s.remove(cid).unwrap().object, ObjectId(7));
        assert_eq!(s.get(cid), Err(CapError::BadCid(cid)));
        assert_eq!(s.remove(cid), Err(CapError::BadCid(cid)));
    }

    #[test]
    fn bad_indices_rejected() {
        let s = CapSpace::new();
        assert_eq!(s.get(Cid(42)), Err(CapError::BadCid(Cid(42))));
    }

    #[test]
    fn quota_enforced() {
        let mut s = CapSpace::with_quota(2);
        s.insert(cap(0)).unwrap();
        s.insert(cap(1)).unwrap();
        assert_eq!(s.insert(cap(2)), Err(CapError::SpaceExhausted));
        s.remove(Cid(0)).unwrap();
        assert!(s.insert(cap(3)).is_ok());
    }

    #[test]
    fn iter_yields_live_slots() {
        let mut s = CapSpace::new();
        s.insert(cap(1)).unwrap();
        let c = s.insert(cap(2)).unwrap();
        s.insert(cap(3)).unwrap();
        s.remove(c).unwrap();
        let live: Vec<_> = s.iter().map(|(_, c)| c.object.0).collect();
        assert_eq!(live, vec![1, 3]);
    }
}
