//! Disaggregated NVMe SSD: device model and the block-device adaptor (§5).
//!
//! The device stores *real bytes* in logical volumes and models a Samsung
//! 970-EVO-Plus-class drive: ~70 µs 4 KiB random-read latency (the paper
//! notes "the NVMe latency dominates (70 usec)" for 4 KiB reads in Fig 10),
//! SLC-cache-absorbed writes, and bandwidth far above the 10 Gbps network so
//! that the fabric, not the device, bounds throughput (Fig 11).
//!
//! The adaptor exposes `create_vol` / `read` / `write` Requests. Volume ids
//! are *preset immediates* on the per-volume Requests, so a client can
//! refine offsets and buffers but can never redirect a Request at another
//! volume — the `0xcafe` block-number example of §3.4.

#![expect(
    clippy::expect_used,
    reason = "adaptor staging buffers are minted by the adaptor itself; failure is a wiring bug"
)]

use std::collections::HashMap;
use std::ops::Range;

use fractos_cap::{Cid, Perms};
use fractos_core::integrity::ExtentSums;
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_net::{DeviceFaultOutcome, DeviceOp, Endpoint};
use fractos_sim::{SimDuration, SimTime};

use crate::proto::{imm, imm_at, DevError, TAG_BLK_CREATE_VOL, TAG_BLK_READ, TAG_BLK_WRITE};

/// Timing model of the NVMe device.
#[derive(Debug, Clone)]
pub struct NvmeParams {
    /// Base latency of a random read (flash array lookup).
    pub read_latency: SimDuration,
    /// Base latency of a write absorbed by the SLC cache.
    pub write_latency: SimDuration,
    /// Device read bandwidth in bytes/second.
    pub read_bandwidth: f64,
    /// Device write bandwidth in bytes/second.
    pub write_bandwidth: f64,
    /// Latency of a block-cache hit / cache-absorbed write in the kernel
    /// block layer (used by [`KernelCache`]).
    pub cache_latency: SimDuration,
}

impl Default for NvmeParams {
    fn default() -> Self {
        NvmeParams {
            read_latency: SimDuration::from_micros(67),
            write_latency: SimDuration::from_micros(15),
            read_bandwidth: 2.5e9,
            write_bandwidth: 1.5e9,
            cache_latency: SimDuration::from_micros(4),
        }
    }
}

/// Timing-only model of the Linux block cache in front of an NVMe-oF
/// device (§6.4's "Disaggregated Baseline"): writes are absorbed (ack
/// after the cache latency, write-back off the measured path), sequential
/// read streaks trigger read-ahead, and cached ranges skip the device.
///
/// Data always lands in the device immediately (the simulation keeps one
/// copy of the truth); the cache only decides what *latency* an access
/// pays.
#[derive(Debug, Default)]
pub struct KernelCache {
    /// 4 KiB pages currently resident.
    resident: std::collections::HashSet<u64>,
    last_page: Option<u64>,
    /// Cache hits (tests / Fig 10 discussion).
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

/// Cache page size.
pub const CACHE_PAGE: u64 = 4096;

/// Pages prefetched on a sequential streak (2 MiB, covering large
/// sequential I/Os like Fig 11's 1024 KiB blocks).
pub const CACHE_READAHEAD: u64 = 512;

impl KernelCache {
    /// A cold cache.
    pub fn new() -> Self {
        KernelCache::default()
    }

    /// Records a read of `[offset, offset+len)` on `vol`; returns `true`
    /// if it hits (device skipped). On a miss the range becomes resident,
    /// and a sequential streak makes the read-ahead window resident too.
    /// A range whose end overflows a `u64` misses and leaves the cache as
    /// it was.
    pub fn read(&mut self, vol: u64, offset: u64, len: u64) -> bool {
        let Some(end) = offset.checked_add(len.max(1) - 1) else {
            self.misses += 1;
            return false;
        };
        let first = Self::page(vol, offset);
        let last = Self::page(vol, end);
        let sequential = self.last_page.is_some_and(|p| p == first || p + 1 == first);
        self.last_page = Some(last);
        if (first..=last).all(|p| self.resident.contains(&p)) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        let ahead = if sequential { CACHE_READAHEAD } else { 0 };
        for p in first..=(last + ahead) {
            self.resident.insert(p);
        }
        false
    }

    /// Records a write: the range becomes resident (absorbed). A range
    /// whose end overflows a `u64` is ignored.
    pub fn write(&mut self, vol: u64, offset: u64, len: u64) {
        let Some(end) = offset.checked_add(len.max(1) - 1) else {
            return;
        };
        let first = Self::page(vol, offset);
        let last = Self::page(vol, end);
        for p in first..=last {
            self.resident.insert(p);
        }
    }

    fn page(vol: u64, byte: u64) -> u64 {
        // Volumes are far smaller than 2^40 pages; pack (vol, page).
        (vol << 40) | (byte / CACHE_PAGE)
    }
}

/// Kind of a block operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOp {
    /// Read from flash.
    Read,
    /// Write to flash (SLC-cache absorbed).
    Write,
}

/// The NVMe device model: logical volumes with real contents.
#[derive(Debug)]
pub struct NvmeDevice {
    params: NvmeParams,
    volumes: HashMap<u64, Vec<u8>>,
    next_vol: u64,
    busy_until: SimTime,
    /// Completed operations (tests/benches).
    pub ops: u64,
}

impl NvmeDevice {
    /// A fresh, empty device.
    pub fn new(params: NvmeParams) -> Self {
        NvmeDevice {
            params,
            volumes: HashMap::new(),
            next_vol: 1,
            busy_until: SimTime::ZERO,
            ops: 0,
        }
    }

    /// The timing parameters.
    pub fn params(&self) -> &NvmeParams {
        &self.params
    }

    /// Creates a zero-filled logical volume of `size` bytes; returns its id.
    pub fn create_volume(&mut self, size: u64) -> u64 {
        let id = self.next_vol;
        self.next_vol += 1;
        self.volumes.insert(id, vec![0; size as usize]);
        id
    }

    /// Size of a volume.
    pub fn volume_size(&self, vol: u64) -> Option<u64> {
        self.volumes.get(&vol).map(|v| v.len() as u64)
    }

    /// Frees a logical volume, returning whether it existed.
    pub fn delete_volume(&mut self, vol: u64) -> bool {
        self.volumes.remove(&vol).is_some()
    }

    /// Reads bytes without counting a host-visible operation — the
    /// adaptor's post-write CRC read-back, which runs inside the device
    /// and never crosses the block interface.
    pub fn peek(&self, vol: u64, offset: u64, len: u64) -> Result<&[u8], FosError> {
        let v = self.volumes.get(&vol).ok_or(FosError::OutOfBounds)?;
        Ok(&v[extent(v.len(), offset, len)?])
    }

    /// Reads bytes from a volume.
    pub fn read(&mut self, vol: u64, offset: u64, len: u64) -> Result<Vec<u8>, FosError> {
        self.read_slice(vol, offset, len).map(<[u8]>::to_vec)
    }

    /// [`NvmeDevice::read`] without the copy: the bytes stay borrowed from
    /// the volume. Counts an operation only when the read succeeds.
    pub fn read_slice(&mut self, vol: u64, offset: u64, len: u64) -> Result<&[u8], FosError> {
        let v = self.volumes.get(&vol).ok_or(FosError::OutOfBounds)?;
        let range = extent(v.len(), offset, len)?;
        self.ops += 1;
        Ok(&v[range])
    }

    /// Writes bytes into a volume.
    pub fn write(&mut self, vol: u64, offset: u64, data: &[u8]) -> Result<(), FosError> {
        let v = self.volumes.get_mut(&vol).ok_or(FosError::OutOfBounds)?;
        let range = extent(v.len(), offset, data.len() as u64)?;
        v[range].copy_from_slice(data);
        self.ops += 1;
        Ok(())
    }

    /// Service-time model: base latency plus bandwidth occupancy, with the
    /// flash channels shared across outstanding operations.
    pub fn service_time(&mut self, now: SimTime, op: BlockOp, size: u64) -> SimDuration {
        let (base, bw) = match op {
            BlockOp::Read => (self.params.read_latency, self.params.read_bandwidth),
            BlockOp::Write => (self.params.write_latency, self.params.write_bandwidth),
        };
        let occupancy = SimDuration::from_secs_f64(size as f64 / bw);
        let start = self.busy_until.max(now);
        self.busy_until = start + occupancy;
        start.duration_since(now) + occupancy + base
    }
}

/// The indices of `[offset, offset + len)` in a volume of `size` bytes, or
/// `OutOfBounds` when the range leaves the volume or its end overflows.
fn extent(size: usize, offset: u64, len: u64) -> Result<Range<usize>, FosError> {
    match offset.checked_add(len) {
        // Both ends are at most `size`, so they fit a `usize`.
        Some(end) if end <= size as u64 => Ok(offset as usize..end as usize),
        _ => Err(FosError::OutOfBounds),
    }
}

/// Staging-buffer pool entry.
struct Staging {
    addr: u64,
    cid: Cid,
    busy: bool,
}

/// The block-device adaptor Process (§5).
///
/// With [`BlockAdaptor::with_kernel_cache`] it instead models the in-kernel
/// NVMe-oF block stack of §6.4's "Disaggregated Baseline": same Request
/// interface and data path, but a Linux block cache absorbs writes and
/// read-ahead accelerates sequential reads.
pub struct BlockAdaptor {
    device: NvmeDevice,
    nvme_endpoint: Endpoint,
    key: String,
    staging: Vec<Staging>,
    kernel_cache: Option<KernelCache>,
    /// Integrity envelopes over committed extents, keyed by volume id:
    /// stamped with the *intended* payload at write commit, verified by
    /// the device-side read-back and again on exact-extent reads. A torn
    /// write therefore surfaces as [`DevError::Integrity`] instead of
    /// silently handing corrupt bytes to the reader.
    sums: ExtentSums,
    /// Completed reads and writes delivered to continuations (tests).
    pub completed: u64,
    /// Volumes reclaimed after their capability trees drained (§3.5).
    pub reaped_volumes: u64,
    /// Control-plane setup operations (monitor arms, registry publishes)
    /// that failed. Release builds must not silently discard these —
    /// reaping/publication is degraded, so they are surfaced as a metric
    /// instead of a debug-only assert.
    pub setup_failures: u64,
}

/// Size of each staging buffer (covers the paper's largest I/O,
/// 1024 KiB in Fig 11).
pub const STAGING_BUF_SIZE: u64 = 1 << 20;

/// Number of pre-registered staging buffers.
pub const STAGING_POOL: usize = 8;

impl BlockAdaptor {
    /// Creates an adaptor for an NVMe drive at `nvme_endpoint`, publishing
    /// its `create_vol` Request under `"{key}.create_vol"`.
    pub fn new(params: NvmeParams, nvme_endpoint: Endpoint, key: &str) -> Self {
        BlockAdaptor {
            device: NvmeDevice::new(params),
            nvme_endpoint,
            key: key.to_string(),
            staging: Vec::new(),
            kernel_cache: None,
            sums: ExtentSums::new(),
            completed: 0,
            reaped_volumes: 0,
            setup_failures: 0,
        }
    }

    /// Enables the kernel block-cache model (the NVMe-oF baseline).
    pub fn with_kernel_cache(mut self) -> Self {
        self.kernel_cache = Some(KernelCache::new());
        self
    }

    /// Cache statistics, if the kernel cache is enabled.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.kernel_cache.as_ref().map(|c| (c.hits, c.misses))
    }

    /// The device model (tests/benches).
    pub fn device(&self) -> &NvmeDevice {
        &self.device
    }

    /// Mutable device access (harnesses pre-populating volumes).
    pub fn device_mut(&mut self) -> &mut NvmeDevice {
        &mut self.device
    }

    /// Staging buffers currently lent to an I/O (tests).
    pub fn staging_busy(&self) -> usize {
        self.staging.iter().filter(|s| s.busy).count()
    }

    /// Runs `k` with a free staging slot, registering another buffer when
    /// the pool is exhausted; answers `error` if that registration fails.
    fn grab_staging(
        &mut self,
        fos: &Fos<Self>,
        error: Cid,
        k: impl FnOnce(&mut Self, usize, &Fos<Self>) + 'static,
    ) {
        if let Some(i) = self.staging.iter().position(|s| !s.busy) {
            self.staging[i].busy = true;
            k(self, i, fos);
            return;
        }
        // Pool exhausted: register another buffer.
        let size = STAGING_BUF_SIZE;
        let addr = fos.mem_alloc_at(size, self.nvme_endpoint);
        fos.memory_create(addr, size, Perms::RW, move |s: &mut Self, res, fos| {
            let SyscallResult::NewCid(cid) = res else {
                return fos.reply_via(error, vec![DevError::Transfer.imm()], vec![]);
            };
            s.staging.push(Staging {
                addr,
                cid,
                busy: true,
            });
            let i = s.staging.len() - 1;
            k(s, i, fos);
        });
    }

    /// Returns staging slot `slot` to the pool and answers `error` with `e`.
    fn fail_io(&mut self, slot: usize, error: Cid, e: DevError, fos: &Fos<Self>) {
        self.staging[slot].busy = false;
        fos.reply_via(error, vec![e.imm()], vec![]);
    }

    fn on_create_vol(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let (Some(size), Some(&cont)) = (imm_at(&req.imms, 0), req.caps.first()) else {
            return;
        };
        let vol = self.device.create_volume(size);
        // Per-volume read/write Requests with the volume id preset. The
        // adaptor watches the read Request's delegations: once every holder
        // has revoked (or died), the volume's storage is reclaimed — the
        // §3.5 "free one of their blocks" pattern, driven entirely by the
        // capability machinery.
        let request = |tag| Syscall::new_request(tag, vec![imm(vol)]);
        let requests = vec![request(TAG_BLK_READ), request(TAG_BLK_WRITE)];
        fos.chain(requests, move |s: &mut Self, res, fos| {
            let Ok(&[read_req, write_req]) = res.as_deref() else {
                // The volume cannot be offered: free it and answer without.
                s.setup_failures += 1;
                s.device.delete_volume(vol);
                fos.reply_via(cont, vec![imm(vol)], vec![]);
                return;
            };
            let monitor = Syscall::MonitorDelegate {
                cid: read_req,
                callback_id: vol,
            };
            fos.call(monitor, move |s: &mut Self, res, fos| {
                if !res.is_ok() {
                    // Reaping for this volume is degraded; the volume
                    // itself still works.
                    s.setup_failures += 1;
                }
                fos.reply_via(cont, vec![imm(vol)], vec![read_req, write_req]);
            });
        });
    }

    fn on_read(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let [dst, success, error] = req.caps[..] else {
            // Wrong capability count: there is no identifiable error
            // continuation to reply on, so the request is dropped.
            return;
        };
        let (Some(vol), Some(offset), Some(size)) = (
            imm_at(&req.imms, 0),
            imm_at(&req.imms, 1),
            imm_at(&req.imms, 2),
        ) else {
            fos.reply_via(error, vec![DevError::BadRequest.imm()], vec![]);
            return;
        };
        if size > STAGING_BUF_SIZE {
            fos.reply_via(error, vec![DevError::TooLarge.imm()], vec![]);
            return;
        }
        // Device access first, then a third-party transfer into the
        // client-provided destination buffer. A kernel cache may absorb
        // the device access entirely.
        let hit = self
            .kernel_cache
            .as_mut()
            .is_some_and(|cache| cache.read(vol, offset, size));
        let mut delay = if hit {
            self.device.params().cache_latency
        } else {
            self.device.service_time(fos.now(), BlockOp::Read, size)
        };
        // One fault-plan draw per media read, in the adaptor's serial
        // op order (replay contract).
        let fault = fos.device_fault(self.nvme_endpoint, DeviceOp::NvmeRead);
        fos.telemetry_count("dev.nvme.reads", 1);
        if hit {
            fos.telemetry_count("dev.nvme.cache_hits", 1);
        }
        if let DeviceFaultOutcome::Spike { factor } = fault {
            delay = SimDuration::from_secs_f64(delay.as_secs_f64() * factor);
        }
        if matches!(fault, DeviceFaultOutcome::Fail) {
            // Media error: the flash array gives up only after the
            // access latency, as on real hardware.
            fos.sleep_dev(delay, "nvme.read", move |_s: &mut Self, fos| {
                fos.reply_via(error, vec![DevError::Media.imm()], vec![]);
            });
            return;
        }
        self.grab_staging(fos, error, move |_s: &mut Self, slot, fos| {
            fos.sleep_dev(delay, "nvme.read", move |s: &mut Self, fos| {
                let st = &s.staging[slot];
                let (st_addr, st_cid) = (st.addr, st.cid);
                let data = match s.device.read_slice(vol, offset, size) {
                    Ok(d) => d,
                    Err(_) => return s.fail_io(slot, error, DevError::Bounds, fos),
                };
                // Consumption-boundary check: if this exact extent was
                // stamped at write commit, verify its envelope before
                // handing the bytes to the client (catches torn writes
                // that persisted past the write-time read-back).
                if s.sums.verify(vol, offset, data) == Some(false) {
                    return s.fail_io(slot, error, DevError::Integrity, fos);
                }
                fos.mem_write(st_addr, 0, data).expect("staging write");
                // A sized view of the staging buffer, so the copy moves
                // exactly `size` bytes.
                fos.call(
                    Syscall::MemoryDiminish {
                        cid: st_cid,
                        offset: 0,
                        size,
                        drop_perms: Perms::NONE,
                    },
                    move |s: &mut Self, res, fos| {
                        let SyscallResult::NewCid(view) = res else {
                            return s.fail_io(slot, error, DevError::Transfer, fos);
                        };
                        fos.memory_copy(view, dst, move |s: &mut Self, res, fos| {
                            s.staging[slot].busy = false;
                            // Drop the transient view.
                            fos.call_ignore(Syscall::CapRevoke { cid: view });
                            match res {
                                SyscallResult::Ok => {
                                    s.completed += 1;
                                    fos.reply_via(success, vec![imm(size)], vec![]);
                                }
                                SyscallResult::Err(FosError::IntegrityViolation) => {
                                    fos.reply_via(error, vec![DevError::Integrity.imm()], vec![])
                                }
                                _ => fos.reply_via(error, vec![DevError::Transfer.imm()], vec![]),
                            }
                        });
                    },
                );
            });
        });
    }

    fn on_write(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let [src, success, error] = req.caps[..] else {
            return;
        };
        let (Some(vol), Some(offset), Some(size)) = (
            imm_at(&req.imms, 0),
            imm_at(&req.imms, 1),
            imm_at(&req.imms, 2),
        ) else {
            fos.reply_via(error, vec![DevError::BadRequest.imm()], vec![]);
            return;
        };
        if size > STAGING_BUF_SIZE {
            fos.reply_via(error, vec![DevError::TooLarge.imm()], vec![]);
            return;
        }
        self.grab_staging(fos, error, move |s: &mut Self, slot, fos| {
            let st = &s.staging[slot];
            let (st_addr, st_cid) = (st.addr, st.cid);
            // Pull the client's data into the staging buffer (third-party
            // transfer), then commit to flash.
            fos.call(
                Syscall::MemoryDiminish {
                    cid: st_cid,
                    offset: 0,
                    size,
                    drop_perms: Perms::NONE,
                },
                move |s: &mut Self, res, fos| {
                    let SyscallResult::NewCid(view) = res else {
                        return s.fail_io(slot, error, DevError::Transfer, fos);
                    };
                    fos.memory_copy(src, view, move |s: &mut Self, res, fos| {
                        fos.call_ignore(Syscall::CapRevoke { cid: view });
                        match res {
                            SyscallResult::Ok => {}
                            SyscallResult::Err(FosError::IntegrityViolation) => {
                                return s.fail_io(slot, error, DevError::Integrity, fos)
                            }
                            _ => return s.fail_io(slot, error, DevError::Transfer, fos),
                        }
                        let data = fos.mem_read(st_addr, 0, size).expect("staging read");
                        // One fault-plan draw per media write (replay
                        // contract: serial adaptor op order).
                        let fault = fos.device_fault(s.nvme_endpoint, DeviceOp::NvmeWrite);
                        fos.telemetry_count("dev.nvme.writes", 1);
                        let mut delay = match s.kernel_cache.as_mut() {
                            Some(cache) => {
                                // Absorbed: ack after the cache latency;
                                // write-back runs off the measured path.
                                cache.write(vol, offset, size);
                                s.device.params().cache_latency
                            }
                            None => s.device.service_time(fos.now(), BlockOp::Write, size),
                        };
                        if let DeviceFaultOutcome::Spike { factor } = fault {
                            delay = SimDuration::from_secs_f64(delay.as_secs_f64() * factor);
                        }
                        fos.sleep_dev(delay, "nvme.write", move |s: &mut Self, fos| {
                            s.staging[slot].busy = false;
                            if matches!(fault, DeviceFaultOutcome::Fail) {
                                fos.reply_via(error, vec![DevError::Media.imm()], vec![]);
                                return;
                            }
                            // A torn write persists only a prefix of the
                            // payload; the envelope below catches it.
                            let commit: &[u8] = match fault {
                                DeviceFaultOutcome::Torn { keep_frac } => {
                                    let keep = (size as f64 * keep_frac) as usize;
                                    &data[..keep.min(data.len())]
                                }
                                _ => &data,
                            };
                            match s.device.write(vol, offset, commit) {
                                Ok(()) => {
                                    // Stamp the *intended* payload's
                                    // envelope, then read back and verify
                                    // — the device-side CRC that turns a
                                    // torn write into a typed, recoverable
                                    // error the caller can re-issue. Only
                                    // a torn write commits other bytes
                                    // than the stamped ones; after any
                                    // other draw the read-back would
                                    // compare the payload with itself.
                                    s.sums.stamp(vol, offset, &data);
                                    let torn = matches!(fault, DeviceFaultOutcome::Torn { .. });
                                    let intact = !torn
                                        || s.device.peek(vol, offset, size).is_ok_and(|back| {
                                            s.sums.verify(vol, offset, back) == Some(true)
                                        });
                                    if !intact {
                                        fos.reply_via(
                                            error,
                                            vec![DevError::Integrity.imm()],
                                            vec![],
                                        );
                                        return;
                                    }
                                    s.completed += 1;
                                    fos.reply_via(success, vec![imm(size)], vec![]);
                                }
                                Err(_) => {
                                    fos.reply_via(error, vec![DevError::Bounds.imm()], vec![])
                                }
                            }
                        });
                    });
                },
            );
        });
    }
}

impl Service for BlockAdaptor {
    fn on_monitor(&mut self, cb: MonitorCb, _fos: &Fos<Self>) {
        if let MonitorCb::DelegateDrained { callback_id: vol } = cb {
            if self.device.delete_volume(vol) {
                self.sums.forget(vol);
                self.reaped_volumes += 1;
            }
        }
    }

    fn on_start(&mut self, fos: &Fos<Self>) {
        // Pre-register the staging pool (the prototype's bounce buffers).
        let size = STAGING_BUF_SIZE;
        let ep = self.nvme_endpoint;
        for _ in 0..STAGING_POOL {
            let addr = fos.mem_alloc_at(size, ep);
            fos.memory_create(addr, size, Perms::RW, move |s: &mut Self, res, _fos| {
                if let SyscallResult::NewCid(cid) = res {
                    s.staging.push(Staging {
                        addr,
                        cid,
                        busy: false,
                    });
                }
            });
        }
        let key = format!("{}.create_vol", self.key);
        fos.publish(&key, TAG_BLK_CREATE_VOL, vec![], |s: &mut Self, res, _| {
            if res.is_err() {
                s.setup_failures += 1;
            }
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        match req.tag {
            TAG_BLK_CREATE_VOL => self.on_create_vol(req, fos),
            TAG_BLK_READ => self.on_read(req, fos),
            TAG_BLK_WRITE => self.on_write(req, fos),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_read_write_roundtrip() {
        let mut dev = NvmeDevice::new(NvmeParams::default());
        let vol = dev.create_volume(4096);
        dev.write(vol, 100, b"hello nvme").unwrap();
        assert_eq!(dev.read(vol, 100, 10).unwrap(), b"hello nvme");
        assert_eq!(dev.read(vol, 0, 4).unwrap(), vec![0; 4]);
        assert_eq!(dev.ops, 3);
    }

    #[test]
    fn bounds_checked() {
        let mut dev = NvmeDevice::new(NvmeParams::default());
        let vol = dev.create_volume(16);
        assert!(dev.write(vol, 10, &[0; 10]).is_err());
        assert!(dev.read(vol, 0, 17).is_err());
        assert!(dev.read(99, 0, 1).is_err());
    }

    #[test]
    fn ranges_ending_past_u64_are_out_of_bounds() {
        let mut dev = NvmeDevice::new(NvmeParams::default());
        let vol = dev.create_volume(16);
        let offset = u64::MAX - 255;
        assert_eq!(dev.read(vol, offset, 512), Err(FosError::OutOfBounds));
        assert_eq!(dev.peek(vol, offset, 512), Err(FosError::OutOfBounds));
        assert_eq!(
            dev.write(vol, offset, &[0; 512]),
            Err(FosError::OutOfBounds)
        );
        assert_eq!(dev.ops, 0);
        let mut cache = KernelCache::new();
        cache.write(vol, offset, 512);
        assert!(!cache.read(vol, offset, 512));
        assert!(!cache.read(vol, 0, 1), "nothing became resident");
    }

    #[test]
    fn service_time_includes_base_latency() {
        let mut dev = NvmeDevice::new(NvmeParams::default());
        let t = dev.service_time(SimTime::ZERO, BlockOp::Read, 4096);
        // 67 µs base + ~1.6 µs transfer.
        let us = t.as_micros_f64();
        assert!((68.0..70.0).contains(&us), "4 KiB read {us:.2} µs");
        let tw = dev.service_time(SimTime::ZERO, BlockOp::Write, 4096);
        assert!(tw < t, "cached writes are faster than flash reads");
    }

    #[test]
    fn kernel_cache_absorbs_and_prefetches() {
        let mut c = KernelCache::new();
        // Cold random read misses; the range becomes resident.
        assert!(!c.read(1, 0, 4096));
        assert!(c.read(1, 0, 4096), "repeat hits");
        // Sequential follow-up triggers read-ahead.
        assert!(!c.read(1, 4096, 4096));
        assert!(
            c.read(1, 8192, 4096),
            "read-ahead made the next page resident"
        );
        // Writes are absorbed (range resident afterwards).
        c.write(1, 1 << 20, 4096);
        assert!(c.read(1, 1 << 20, 4096));
        // Volumes do not alias.
        assert!(!c.read(2, 0, 4096));
        assert!(c.hits >= 3 && c.misses >= 3);
    }

    #[test]
    fn delete_volume_frees_storage() {
        let mut dev = NvmeDevice::new(NvmeParams::default());
        let vol = dev.create_volume(4096);
        assert!(dev.volume_size(vol).is_some());
        assert!(dev.delete_volume(vol));
        assert!(dev.volume_size(vol).is_none());
        assert!(!dev.delete_volume(vol), "double free is a no-op");
        assert!(dev.read(vol, 0, 1).is_err());
    }

    #[test]
    fn bandwidth_shared_across_outstanding_ops() {
        let mut dev = NvmeDevice::new(NvmeParams::default());
        let big = 10 << 20;
        let t1 = dev.service_time(SimTime::ZERO, BlockOp::Read, big);
        let t2 = dev.service_time(SimTime::ZERO, BlockOp::Read, big);
        assert!(t2.as_secs_f64() > 1.9 * t1.as_secs_f64() * 0.9);
    }
}
