//! Simulated physical memory of every Process, plus RDMA memory windows.
//!
//! Each Process has a private address space with bump allocation. Memory
//! objects registered via `memory_create` become *windows* — the rkey
//! analogue: one-sided RDMA operations name a window and are checked against
//! it at access time, on the node that owns the memory. Revoking a Memory
//! capability invalidates the window at its owner, which is exactly why
//! FractOS revocation is immediate without delegation tracking (§3.5).
//!
//! The store holds *real bytes*: `memory_copy` moves data end to end and the
//! integration tests verify content, not just timing.

use std::collections::BTreeMap;

use fractos_cap::{CapRef, Perms};

use crate::types::{FosError, MemoryDesc, ProcId};

/// One allocated region of Process memory.
#[derive(Debug)]
struct Region {
    data: Vec<u8>,
    /// Physical placement override: device memory (e.g. a GPU buffer
    /// allocated by its adaptor) lives at the device endpoint, so data
    /// transfers to it traverse the right links.
    location: Option<fractos_net::Endpoint>,
}

/// All simulated Process memory in the cluster.
///
/// All maps are BTreeMaps: window invalidation sweeps iterate them, and
/// sweep order must be reproducible for bit-identical replay.
#[derive(Debug, Default)]
pub struct MemoryStore {
    /// Per-process regions: `(proc, base addr) → region`.
    regions: BTreeMap<(ProcId, u64), Region>,
    /// Bump allocator cursor per process.
    next_addr: BTreeMap<ProcId, u64>,
    /// Live RDMA windows keyed by the capability that minted them; a
    /// revoked window is removed.
    windows: BTreeMap<CapRef, MemoryDesc>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore::default()
    }

    /// Allocates `size` bytes in `proc`'s address space, zero-initialized.
    /// Returns the start address.
    pub fn alloc(&mut self, proc: ProcId, size: u64) -> u64 {
        self.alloc_inner(proc, size, None)
    }

    /// Allocates memory physically placed at `location` (device memory
    /// managed by an adaptor Process).
    pub fn alloc_at(&mut self, proc: ProcId, size: u64, location: fractos_net::Endpoint) -> u64 {
        self.alloc_inner(proc, size, Some(location))
    }

    fn alloc_inner(
        &mut self,
        proc: ProcId,
        size: u64,
        location: Option<fractos_net::Endpoint>,
    ) -> u64 {
        let cursor = self.next_addr.entry(proc).or_insert(0x1000);
        let addr = *cursor;
        // Keep regions aligned and non-adjacent so bound bugs surface.
        *cursor += size.max(1).next_multiple_of(4096) + 4096;
        self.regions.insert(
            (proc, addr),
            Region {
                data: vec![0; size as usize],
                location,
            },
        );
        addr
    }

    /// Physical placement of the region at `addr`, if overridden.
    pub fn region_location(&self, proc: ProcId, addr: u64) -> Option<fractos_net::Endpoint> {
        self.regions.get(&(proc, addr)).and_then(|r| r.location)
    }

    /// Writes `data` into `proc`'s memory at `addr + offset`.
    pub fn write(
        &mut self,
        proc: ProcId,
        addr: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<(), FosError> {
        let region = self.region_mut(proc, addr)?;
        let start = offset as usize;
        let end = start + data.len();
        if end > region.len() {
            return Err(FosError::OutOfBounds);
        }
        region[start..end].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes from `proc`'s memory at `addr + offset`.
    pub fn read(
        &self,
        proc: ProcId,
        addr: u64,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, FosError> {
        let region = self.region(proc, addr)?;
        let start = offset as usize;
        let end = start + len as usize;
        if end > region.len() {
            return Err(FosError::OutOfBounds);
        }
        Ok(region[start..end].to_vec())
    }

    /// Size of the region starting at `addr`, if it exists.
    pub fn region_size(&self, proc: ProcId, addr: u64) -> Option<u64> {
        self.regions.get(&(proc, addr)).map(|r| r.data.len() as u64)
    }

    fn region(&self, proc: ProcId, addr: u64) -> Result<&Vec<u8>, FosError> {
        self.regions
            .get(&(proc, addr))
            .map(|r| &r.data)
            .ok_or(FosError::OutOfBounds)
    }

    fn region_mut(&mut self, proc: ProcId, addr: u64) -> Result<&mut Vec<u8>, FosError> {
        self.regions
            .get_mut(&(proc, addr))
            .map(|r| &mut r.data)
            .ok_or(FosError::OutOfBounds)
    }

    /// Registers an RDMA window for the capability `cap` over `desc`.
    pub fn register_window(&mut self, cap: CapRef, desc: MemoryDesc) {
        self.windows.insert(cap, desc);
    }

    /// Removes the window minted by `cap` (owner-side revocation).
    /// Idempotent; unknown windows are ignored (they may belong to Request
    /// objects).
    pub fn invalidate_window(&mut self, cap: CapRef) {
        self.windows.remove(&cap);
    }

    /// Removes every window over `proc`'s memory (process failure).
    pub fn invalidate_proc_windows(&mut self, proc: ProcId) {
        self.windows.retain(|_, desc| desc.proc != proc);
    }

    /// One-sided RDMA read through a window: checks validity, permissions
    /// and bounds at the target, then returns the bytes.
    pub fn rdma_read_window(
        &self,
        window: CapRef,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, FosError> {
        let w = self.check_window(window, offset, len, Perms::READ)?;
        self.read(w.proc, w.addr, w.view_off + offset, len)
    }

    /// One-sided RDMA write through a window.
    pub fn rdma_write_window(
        &mut self,
        window: CapRef,
        offset: u64,
        data: &[u8],
    ) -> Result<(), FosError> {
        let w = self
            .check_window(window, offset, data.len() as u64, Perms::WRITE)?
            .clone();
        self.write(w.proc, w.addr, w.view_off + offset, data)
    }

    fn check_window(
        &self,
        window: CapRef,
        offset: u64,
        len: u64,
        need: Perms,
    ) -> Result<&MemoryDesc, FosError> {
        let w = self.windows.get(&window).ok_or(FosError::WindowInvalid)?;
        if !w.perms.contains(need) {
            return Err(FosError::PermissionDenied);
        }
        if offset.checked_add(len).is_none_or(|end| end > w.size) {
            return Err(FosError::OutOfBounds);
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractos_cap::{ControllerAddr, Epoch, ObjectId};
    use fractos_net::{Endpoint, NodeId};

    const P: ProcId = ProcId(1);

    fn cap(n: u64) -> CapRef {
        CapRef {
            ctrl: ControllerAddr(0),
            epoch: Epoch(0),
            object: ObjectId(n),
        }
    }

    fn desc(addr: u64, size: u64, perms: Perms) -> MemoryDesc {
        MemoryDesc {
            proc: P,
            location: Endpoint::cpu(NodeId(0)),
            addr,
            view_off: 0,
            size,
            perms,
        }
    }

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut m = MemoryStore::new();
        let addr = m.alloc(P, 64);
        m.write(P, addr, 0, b"hello").unwrap();
        assert_eq!(m.read(P, addr, 0, 5).unwrap(), b"hello");
        assert_eq!(m.read(P, addr, 5, 3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn distinct_allocations_do_not_alias() {
        let mut m = MemoryStore::new();
        let a = m.alloc(P, 16);
        let b = m.alloc(P, 16);
        assert_ne!(a, b);
        m.write(P, a, 0, &[1; 16]).unwrap();
        assert_eq!(m.read(P, b, 0, 16).unwrap(), vec![0; 16]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = MemoryStore::new();
        let addr = m.alloc(P, 8);
        assert_eq!(m.write(P, addr, 4, &[0; 8]), Err(FosError::OutOfBounds));
        assert_eq!(m.read(P, addr, 0, 9).unwrap_err(), FosError::OutOfBounds);
        assert_eq!(m.read(P, 0xdead, 0, 1).unwrap_err(), FosError::OutOfBounds);
    }

    #[test]
    fn window_read_write_and_bounds() {
        let mut m = MemoryStore::new();
        let addr = m.alloc(P, 32);
        let w = cap(1);
        m.register_window(w, desc(addr, 32, Perms::RW));
        m.rdma_write_window(w, 4, b"abcd").unwrap();
        assert_eq!(m.rdma_read_window(w, 4, 4).unwrap(), b"abcd");
        assert_eq!(
            m.rdma_read_window(w, 30, 4).unwrap_err(),
            FosError::OutOfBounds
        );
    }

    #[test]
    fn window_permissions_enforced() {
        let mut m = MemoryStore::new();
        let addr = m.alloc(P, 16);
        let w = cap(2);
        m.register_window(w, desc(addr, 16, Perms::READ));
        assert!(m.rdma_read_window(w, 0, 4).is_ok());
        assert_eq!(
            m.rdma_write_window(w, 0, b"x").unwrap_err(),
            FosError::PermissionDenied
        );
    }

    #[test]
    fn invalidated_window_rejects_access() {
        let mut m = MemoryStore::new();
        let addr = m.alloc(P, 16);
        let w = cap(3);
        m.register_window(w, desc(addr, 16, Perms::RW));
        m.invalidate_window(w);
        assert_eq!(
            m.rdma_read_window(w, 0, 1).unwrap_err(),
            FosError::WindowInvalid
        );
        // Underlying memory still accessible by the owner itself.
        assert!(m.read(P, addr, 0, 1).is_ok());
    }

    #[test]
    fn unknown_window_rejected() {
        let m = MemoryStore::new();
        assert_eq!(
            m.rdma_read_window(cap(9), 0, 1).unwrap_err(),
            FosError::WindowInvalid
        );
    }

    #[test]
    fn process_failure_invalidates_all_its_windows() {
        let mut m = MemoryStore::new();
        let a1 = m.alloc(P, 8);
        let a2 = m.alloc(ProcId(2), 8);
        let w1 = cap(1);
        let w2 = cap(2);
        m.register_window(w1, desc(a1, 8, Perms::RW));
        m.register_window(
            w2,
            MemoryDesc {
                proc: ProcId(2),
                location: Endpoint::cpu(NodeId(0)),
                addr: a2,
                view_off: 0,
                size: 8,
                perms: Perms::RW,
            },
        );
        m.invalidate_proc_windows(P);
        assert!(m.rdma_read_window(w1, 0, 1).is_err());
        assert!(m.rdma_read_window(w2, 0, 1).is_ok());
    }
}
