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
//! integration tests verify content, not just timing. A region's bytes are
//! allocated at its first write; until then it reads as zeros, so staging
//! windows and buffers that a run never touches cost no host memory.

use std::collections::BTreeMap;

use fractos_cap::{CapRef, Perms};

use crate::types::{FosError, MemoryDesc, ProcId};

/// Regions up to this size are backed lazily: until their first write,
/// reads borrow a prefix of [`ZEROS`]. Larger ones are allocated up front.
const LAZY_MAX: usize = 1 << 20;

/// What a never-written region reads as.
static ZEROS: [u8; LAZY_MAX] = [0; LAZY_MAX];

/// One allocated region of Process memory.
#[derive(Debug)]
struct Region {
    /// The bytes, or `None` while the region was never written (it then
    /// reads as `size` zeros).
    data: Option<Vec<u8>>,
    size: usize,
    /// Physical placement override: device memory (e.g. a GPU buffer
    /// allocated by its adaptor) lives at the device endpoint, so data
    /// transfers to it traverse the right links.
    location: Option<fractos_net::Endpoint>,
}

impl Region {
    fn new(size: usize, location: Option<fractos_net::Endpoint>) -> Self {
        Region {
            data: (size > LAZY_MAX).then(|| vec![0; size]),
            size,
            location,
        }
    }

    fn bytes(&self) -> &[u8] {
        match &self.data {
            Some(data) => data,
            None => &ZEROS[..self.size],
        }
    }

    /// The bytes for writing, allocated (zeroed) on first use.
    fn bytes_mut(&mut self) -> &mut [u8] {
        self.data.get_or_insert_with(|| vec![0; self.size])
    }
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

    /// Allocates `size` bytes in `proc`'s address space. Returns the start
    /// address. The region reads as zeros; its bytes are allocated at the
    /// first write.
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
        self.regions
            .insert((proc, addr), Region::new(size as usize, location));
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
        if end > region.size {
            return Err(FosError::OutOfBounds);
        }
        region.bytes_mut()[start..end].copy_from_slice(data);
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
        self.slice(proc, addr, offset, len).map(<[u8]>::to_vec)
    }

    /// The `len` bytes of `proc`'s memory at `addr + offset`, borrowed:
    /// [`MemoryStore::read`] without the copy.
    pub fn slice(&self, proc: ProcId, addr: u64, offset: u64, len: u64) -> Result<&[u8], FosError> {
        let region = self.region(proc, addr)?;
        let start = offset as usize;
        let end = start + len as usize;
        if end > region.len() {
            return Err(FosError::OutOfBounds);
        }
        Ok(&region[start..end])
    }

    /// Size of the region starting at `addr`, if it exists.
    pub fn region_size(&self, proc: ProcId, addr: u64) -> Option<u64> {
        self.regions.get(&(proc, addr)).map(|r| r.size as u64)
    }

    fn region(&self, proc: ProcId, addr: u64) -> Result<&[u8], FosError> {
        self.regions
            .get(&(proc, addr))
            .map(Region::bytes)
            .ok_or(FosError::OutOfBounds)
    }

    fn region_mut(&mut self, proc: ProcId, addr: u64) -> Result<&mut Region, FosError> {
        self.regions
            .get_mut(&(proc, addr))
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
        self.window_slice(window, offset, len).map(<[u8]>::to_vec)
    }

    /// The bytes [`MemoryStore::rdma_read_window`] would return, borrowed.
    pub fn window_slice(&self, window: CapRef, offset: u64, len: u64) -> Result<&[u8], FosError> {
        let ((proc, addr), range) = self.window_span(window, offset, len, Perms::READ)?;
        Ok(&self.region(proc, addr)?[range])
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

    /// Copies the first `len` bytes of window `src` to the start of window
    /// `dst` in one move, and returns the destination bytes just written.
    ///
    /// The result, and the error when there is one, are those of an
    /// [`MemoryStore::rdma_read_window`] of `src` followed by an
    /// [`MemoryStore::rdma_write_window`] of its bytes to `dst`: every
    /// check of the source (validity, `READ`, bounds) comes before every
    /// check of the destination (validity, `WRITE`, bounds), and nothing
    /// is written unless both pass.
    pub fn copy_window(
        &mut self,
        src: CapRef,
        dst: CapRef,
        len: u64,
    ) -> Result<&mut [u8], FosError> {
        let (src_key, src_range) = self.window_span(src, 0, len, Perms::READ)?;
        let (dst_key, dst_range) = self.window_span(dst, 0, len, Perms::WRITE)?;
        if src_key == dst_key {
            let data = self.region_mut(dst_key.0, dst_key.1)?.bytes_mut();
            data.copy_within(src_range, dst_range.start);
            return Ok(&mut data[dst_range]);
        }
        // Two distinct regions: the ends of one range over the map borrow
        // both mutably at once.
        let (lo, hi) = (src_key.min(dst_key), src_key.max(dst_key));
        let mut between = self.regions.range_mut(lo..=hi);
        let (Some((_, first)), Some((_, last))) = (between.next(), between.next_back()) else {
            return Err(FosError::OutOfBounds);
        };
        let (from, to) = if src_key < dst_key {
            (first, last)
        } else {
            (last, first)
        };
        let moved = &mut to.bytes_mut()[dst_range];
        moved.copy_from_slice(&from.bytes()[src_range]);
        Ok(moved)
    }

    /// The region key and byte range that `len` bytes at `offset` through
    /// `window` name, after the access checks of a one-sided operation
    /// that needs `need`: validity, permissions, window bounds, region
    /// bounds, in that order.
    fn window_span(
        &self,
        window: CapRef,
        offset: u64,
        len: u64,
        need: Perms,
    ) -> Result<((ProcId, u64), std::ops::Range<usize>), FosError> {
        let w = self.check_window(window, offset, len, need)?;
        let start = (w.view_off + offset) as usize;
        let end = start + len as usize;
        if end > self.region(w.proc, w.addr)?.len() {
            return Err(FosError::OutOfBounds);
        }
        Ok(((w.proc, w.addr), start..end))
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
    fn unwritten_regions_read_as_zeros() {
        let mut m = MemoryStore::new();
        // One region backed lazily, one too large for that and allocated
        // up front.
        for size in [LAZY_MAX as u64, LAZY_MAX as u64 + 1] {
            let addr = m.alloc(P, size);
            let w = cap(size);
            m.register_window(w, desc(addr, size, Perms::RW));
            assert_eq!(m.region_size(P, addr), Some(size));
            let zeros = vec![0; size as usize];
            assert_eq!(m.read(P, addr, 0, size).unwrap(), zeros);
            assert_eq!(m.slice(P, addr, 0, size).unwrap(), &zeros[..]);
            assert_eq!(m.window_slice(w, 0, size).unwrap(), &zeros[..]);
            assert_eq!(m.rdma_read_window(w, 0, size).unwrap(), zeros);
            // Bounds hold before any byte exists.
            assert_eq!(m.slice(P, addr, 1, size), Err(FosError::OutOfBounds));
            assert_eq!(m.window_slice(w, 1, size), Err(FosError::OutOfBounds));
            // A first write keeps every other byte zero.
            m.write(P, addr, size - 2, b"ab").unwrap();
            let tail = m.slice(P, addr, size - 4, 4).unwrap();
            assert_eq!(tail, &[0, 0, b'a', b'b']);
            assert!(m
                .slice(P, addr, 0, size - 2)
                .unwrap()
                .iter()
                .all(|&b| b == 0));
        }
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
