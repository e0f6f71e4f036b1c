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

use std::collections::BinaryHeap;

use crate::error::{CapError, Result};
use crate::ids::{CapRef, Cid};

/// Maximum number of capability slots per Process (quota, §4 mentions the
/// capability space "can be capped via quotas").
pub const DEFAULT_QUOTA: usize = 1 << 20;

/// A Process's table of capabilities, one `T` per live slot.
#[derive(Debug, Clone)]
pub struct CapSpace<T = CapRef> {
    slots: Vec<Option<T>>,
    // Min-heap of freed indices (stored negated in a max-heap).
    free: BinaryHeap<std::cmp::Reverse<u32>>,
    quota: usize,
    live: usize,
}

impl CapSpace {
    /// Creates an empty space of bare references with the default quota.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T> CapSpace<T> {
    /// Creates an empty space with a specific slot quota.
    pub fn with_quota(quota: usize) -> Self {
        CapSpace {
            slots: Vec::new(),
            free: BinaryHeap::new(),
            quota,
            live: 0,
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
        let cid = if let Some(std::cmp::Reverse(idx)) = self.free.pop() {
            self.slots[idx as usize] = Some(cap);
            Cid(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).map_err(|_| CapError::SpaceExhausted)?;
            self.slots.push(Some(cap));
            Cid(idx)
        };
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
        self.free.push(std::cmp::Reverse(cid.0));
        self.live -= 1;
        Ok(cap)
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

impl<T> Default for CapSpace<T> {
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
