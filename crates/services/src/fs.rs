//! The multi-tier storage stack: an extent-based file-system service over
//! the block-device adaptor (§5 "Storage Stack: File System and Block
//! Device").
//!
//! The FS is an ordinary (untrusted) FractOS Process composed with the
//! block-device adaptor: each file extent is one logical volume, acquired
//! through the adaptor's `create_vol` Request. Clients only ever see the
//! capabilities the FS hands out. Three modes cover the paper's design
//! space:
//!
//! * [`FsMode::Mediated`] — the paper's "FS mode": every read/write moves
//!   data through the FS Process (two network transfers per operation);
//! * [`FsMode::Compose`] — the §3.4 dynamic-composition optimization: the
//!   FS *refines* the block-device Request with the client's buffer and
//!   continuation, so data flows device ↔ client directly while the FS
//!   stays on the control path only;
//! * [`FsMode::Dax`] — the paper's DAX mode: `open` returns the
//!   block-device Requests themselves (read-only opens get only the read
//!   Request), and the FS is bypassed entirely afterwards.

use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_devices::proto::{imm, imm_at, DevError};
use fractos_sim::IdMap;

/// FS: create a file. Imms: `[size]`. Caps: `[continuation]`.
/// Reply imms: `[file id, extent size]`; caps as for open (rw).
pub const TAG_FS_CREATE: u64 = 0x0300;

/// FS: open a file. Imms: `[file id, mode (0 = ro, 1 = rw)]`.
/// Caps: `[continuation]`. Reply imms: `[file id, extent size]`; caps:
/// mediated/compose → `[fs read Request, fs write Request]` (write only if
/// rw); DAX → per extent `[blk read Request, (blk write Request)]`.
pub const TAG_FS_OPEN: u64 = 0x0301;

/// FS-mediated/composed read. Imms: `[file (preset), offset, size]`.
/// Caps: `[destination Memory, success Request, error Request]`.
pub const TAG_FS_READ: u64 = 0x0302;

/// FS-mediated/composed write. Imms: `[file (preset), offset, size]`.
/// Caps: `[source Memory, success Request, error Request]`.
pub const TAG_FS_WRITE: u64 = 0x0303;

/// FS: delete a file. Imms: `[file id]`. Caps: `[continuation]`.
/// Selectively revokes every outstanding capability to the file's extents
/// (mediated handles *and* DAX handles alike) and lets the block adaptor
/// reclaim the volumes (§3.5).
pub const TAG_FS_DELETE: u64 = 0x0304;

/// Internal completion continuations the FS hands to the block device.
/// Imms: `[kind, op, ...]`, where kind is one of the `FSI_*` below; the FS
/// mints and dispatches them itself, so this tag space is private.
const TAG_FS_INTERNAL: u64 = 0x0310;
/// A volume extent finished deriving.
const FSI_EXTENT_READY: u64 = 0;
/// A block operation completed successfully.
const FSI_BLK_OK: u64 = 1;
/// A block operation failed; the adaptor's typed `DevError` code rides at
/// immediate index 2.
const FSI_BLK_ERR: u64 = 2;

/// Typed FS failure codes.
///
/// A failed operation replies `[code]` imms with *zero* capabilities on the
/// client's continuation (create/open) or error Request (read/write).
/// Success replies always carry at least one capability (handles) or ride
/// the dedicated success Request, so the two shapes cannot be confused.
/// Under an armed fault plan these codes are how the FS degrades instead of
/// hanging: a partitioned block adaptor or an exhausted retry budget
/// surfaces here rather than as a lost continuation. Clients assert on the
/// values, which are frozen protocol.
pub mod fs_err {
    /// Read/write range straddles extents or exceeds the file.
    pub const RANGE: u64 = 1;
    /// Dynamic composition failed (block Request unreachable or revoked).
    pub const COMPOSE: u64 = 2;
    /// Staging-buffer setup failed.
    pub const STAGING: u64 = 3;
    /// FS degraded: the block adaptor is unreachable (bootstrap failed or
    /// its Controller is partitioned), so no volumes can be provisioned.
    pub const DEGRADED: u64 = 4;
    /// No such file.
    pub const NO_FILE: u64 = 5;
    /// Minting an internal continuation or per-file handle failed.
    pub const INTERNAL: u64 = 6;
    /// Block-device operation failed.
    pub const IO: u64 = 9;
}

/// Data-path mode of the storage stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsMode {
    /// All data mediated by the FS Process (the paper's baseline FS mode).
    Mediated,
    /// FS refines block-device Requests with client arguments (§3.4).
    Compose,
    /// Clients get the block-device Requests at open time (§5 DAX).
    Dax,
}

/// Extent size: one logical volume per extent.
pub const EXTENT_SIZE: u64 = 1 << 20;

struct Extent {
    vol: u64,
    read_req: Cid,
    write_req: Cid,
}

struct FsFile {
    extents: Vec<Extent>,
}

/// One mediated read or write: the block Request it goes through, the
/// in-extent range it covers, and the client's buffer and continuations.
#[derive(Clone, Copy)]
struct MediatedIo {
    blk_req: Cid,
    ext_off: u64,
    size: u64,
    client_mem: Cid,
    success: Cid,
    error: Cid,
    is_read: bool,
}

/// In-flight mediated operation. Carries everything needed to *re-issue*
/// the block operation: under a device-fault plan the adaptor may reply
/// with a recoverable typed error ([`DevError::Media`],
/// [`DevError::Integrity`], …) and the FS retries with backoff instead of
/// propagating the first fault to the client.
struct PendingOp {
    io: MediatedIo,
    staging_view: Cid,
    staging_slot: usize,
    attempts: u32,
}

struct StagingBuf {
    cid: Cid,
    busy: bool,
}

/// Pending file-creation state.
struct PendingCreate {
    cont: Cid,
    extents_needed: u64,
    extents: Vec<Extent>,
}

/// The file-system service Process.
pub struct FsService {
    mode: FsMode,
    key: String,
    blk_key: String,
    files: IdMap<u64, FsFile>,
    next_file: u64,
    create_vol_req: Option<Cid>,
    staging: Vec<StagingBuf>,
    ops: IdMap<u64, PendingOp>,
    creates: IdMap<u64, PendingCreate>,
    next_op: u64,
    /// Completed reads/writes (tests).
    pub completed_ops: u64,
    /// Block operations re-issued after a recoverable device fault (tests
    /// and chaos metrics).
    pub retried_ops: u64,
}

/// Staging buffers held by the FS for mediated transfers.
const FS_STAGING_POOL: usize = 8;

impl FsService {
    /// Creates an FS publishing under `"{key}.create"` / `"{key}.open"`,
    /// backed by the block adaptor published under `"{blk_key}.create_vol"`.
    pub fn new(mode: FsMode, key: &str, blk_key: &str) -> Self {
        FsService {
            mode,
            key: key.to_string(),
            blk_key: blk_key.to_string(),
            files: IdMap::default(),
            next_file: 1,
            create_vol_req: None,
            staging: Vec::new(),
            ops: IdMap::default(),
            creates: IdMap::default(),
            next_op: 0,
            completed_ops: 0,
            retried_ops: 0,
        }
    }

    /// The data-path mode.
    pub fn mode(&self) -> FsMode {
        self.mode
    }

    /// The backing volume ids of a file, in extent order (test harnesses
    /// pre-populating the database).
    pub fn file_volumes(&self, file: u64) -> Option<Vec<u64>> {
        self.files
            .get(&file)
            .map(|f| f.extents.iter().map(|e| e.vol).collect())
    }

    fn op_token(&mut self) -> u64 {
        let t = self.next_op;
        self.next_op += 1;
        t
    }

    /// The internal continuation `(tag, imms)` for event `kind` of op `op`.
    fn internal(kind: u64, op: u64) -> (u64, Vec<Payload>) {
        (TAG_FS_INTERNAL, vec![imm(kind), imm(op)])
    }

    /// Acquires a free staging slot, growing the pool when all are busy
    /// (the prototype sizes its bounce pool generously; running out must
    /// degrade to allocation, not to an error).
    fn grab_staging(
        &mut self,
        fos: &Fos<Self>,
        k: impl FnOnce(&mut Self, Result<usize, FosError>, &Fos<Self>) + 'static,
    ) {
        if let Some(i) = self.staging.iter().position(|s| !s.busy) {
            self.staging[i].busy = true;
            k(self, Ok(i), fos);
            return;
        }
        let addr = fos.mem_alloc(EXTENT_SIZE);
        fos.memory_create(
            addr,
            EXTENT_SIZE,
            Perms::RW,
            move |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(cid) = res else {
                    // Growing the pool failed (e.g. the Controller link is
                    // down): surface the failure instead of dropping the op.
                    k(s, Err(FosError::ControllerUnreachable), fos);
                    return;
                };
                s.staging.push(StagingBuf { cid, busy: true });
                let i = s.staging.len() - 1;
                k(s, Ok(i), fos);
            },
        );
    }

    // ---- file creation ------------------------------------------------

    fn on_create(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let (Some(size), Some(&cont)) = (imm_at(&req.imms, 0), req.caps.first()) else {
            return;
        };
        let Some(create_vol) = self.create_vol_req else {
            // Bootstrap never reached the block adaptor: the FS is up but
            // degraded — creates fail typed instead of hanging the client.
            fos.reply_via(cont, vec![imm(fs_err::DEGRADED)], vec![]);
            return;
        };
        let n = size.div_ceil(EXTENT_SIZE).max(1);
        let op = self.op_token();
        self.creates.insert(
            op,
            PendingCreate {
                cont,
                extents_needed: n,
                extents: Vec::new(),
            },
        );
        self.request_extent(fos, create_vol, op);
    }

    /// Calls the block adaptor's `create_vol` for one more extent of
    /// pending create `op`. Under an armed fault plan the Controller may be
    /// unable to get the call out (retry budget exhausted); the create then
    /// fails typed instead of hanging.
    fn request_extent(&mut self, fos: &Fos<Self>, create_vol: Cid, op: u64) {
        let ready = vec![Self::internal(FSI_EXTENT_READY, op)];
        let size = vec![imm(EXTENT_SIZE)];
        fos.invoke_with_or(create_vol, size, vec![], ready, move |s, _err, fos| {
            s.fail_create(op, fos)
        });
    }

    /// Fails a pending create with a typed reply, releasing any extents
    /// already provisioned.
    fn fail_create(&mut self, op: u64, fos: &Fos<Self>) {
        let Some(pending) = self.creates.remove(&op) else {
            return;
        };
        for e in pending.extents {
            fos.call_ignore(Syscall::CapRevoke { cid: e.read_req });
            fos.call_ignore(Syscall::CapRevoke { cid: e.write_req });
        }
        fos.reply_via(pending.cont, vec![imm(fs_err::DEGRADED)], vec![]);
    }

    /// A `create_vol` completion arrived: `[vol]` imm plus
    /// `[read, write]` Requests.
    fn on_extent_ready(&mut self, op: u64, req: &IncomingRequest, fos: &Fos<Self>) {
        // Reply imms: [kind, op, vol]; caps: [read, write], or none when the
        // adaptor could not offer the volume.
        let vol = imm_at(&req.imms, 2).unwrap_or(0);
        let [read_req, write_req] = req.caps[..] else {
            self.fail_create(op, fos);
            return;
        };
        let Some(pending) = self.creates.get_mut(&op) else {
            return;
        };
        pending.extents.push(Extent {
            vol,
            read_req,
            write_req,
        });
        if (pending.extents.len() as u64) < pending.extents_needed {
            let Some(create_vol) = self.create_vol_req else {
                self.fail_create(op, fos);
                return;
            };
            self.request_extent(fos, create_vol, op);
            return;
        }
        // `get_mut` above proved the entry exists.
        let Some(pending) = self.creates.remove(&op) else {
            return;
        };
        let file_id = self.next_file;
        self.next_file += 1;
        self.files.insert(
            file_id,
            FsFile {
                extents: pending.extents,
            },
        );
        self.reply_handles(file_id, true, pending.cont, fos);
    }

    /// Replies to a create/open with the mode-appropriate handles.
    fn reply_handles(&mut self, file_id: u64, writable: bool, cont: Cid, fos: &Fos<Self>) {
        match self.mode {
            FsMode::Mediated | FsMode::Compose => {
                // Mint per-file FS read/write Requests with the file preset.
                let handle = |tag| Syscall::new_request(tag, vec![imm(file_id)]);
                let mut handles = vec![handle(TAG_FS_READ)];
                if writable {
                    handles.push(handle(TAG_FS_WRITE));
                }
                fos.chain(handles, move |_s, res, fos| match res {
                    Ok(handles) => {
                        fos.reply_via(cont, vec![imm(file_id), imm(EXTENT_SIZE)], handles)
                    }
                    Err(_) => fos.reply_via(cont, vec![imm(fs_err::INTERNAL)], vec![]),
                });
            }
            FsMode::Dax => {
                // Hand out the block-device Requests themselves, per extent
                // (read-only opens withhold the write Requests — the
                // "access permissions according to the file's open mode").
                let Some(file) = self.files.get(&file_id) else {
                    fos.reply_via(cont, vec![imm(fs_err::NO_FILE)], vec![]);
                    return;
                };
                let mut caps = Vec::new();
                for e in &file.extents {
                    caps.push(e.read_req);
                    if writable {
                        caps.push(e.write_req);
                    }
                }
                fos.reply_via(cont, vec![imm(file_id), imm(EXTENT_SIZE)], caps);
            }
        }
    }

    fn on_delete(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let (Some(file_id), Some(&cont)) = (imm_at(&req.imms, 0), req.caps.first()) else {
            return;
        };
        let Some(file) = self.files.remove(&file_id) else {
            fos.reply_via(cont, vec![imm(0)], vec![]);
            return;
        };
        // Revoking the FS's handles invalidates the very objects every
        // delegated copy points at — immediate, selective revocation with
        // no delegation tracking (§3.5). The adaptor's monitor drains and
        // the volumes are reclaimed.
        let n = file.extents.len() as u64;
        for e in file.extents {
            fos.call_ignore(Syscall::CapRevoke { cid: e.read_req });
            fos.call_ignore(Syscall::CapRevoke { cid: e.write_req });
        }
        fos.reply_via(cont, vec![imm(n)], vec![]);
    }

    fn on_open(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let (Some(file_id), Some(mode), Some(&cont)) =
            (imm_at(&req.imms, 0), imm_at(&req.imms, 1), req.caps.first())
        else {
            return;
        };
        if !self.files.contains_key(&file_id) {
            fos.reply_via(cont, vec![imm(fs_err::NO_FILE)], vec![]);
            return;
        }
        self.reply_handles(file_id, mode == 1, cont, fos);
    }

    // ---- reads and writes ----------------------------------------------

    /// Translates a file offset into `(extent, in-extent offset)`, failing
    /// if the operation straddles extents.
    fn locate(&self, file: u64, offset: u64, size: u64) -> Option<(usize, u64)> {
        let f = self.files.get(&file)?;
        let idx = (offset / EXTENT_SIZE) as usize;
        let off = offset % EXTENT_SIZE;
        if idx >= f.extents.len() || off + size > EXTENT_SIZE {
            return None;
        }
        Some((idx, off))
    }

    fn on_read_write(&mut self, req: IncomingRequest, fos: &Fos<Self>, is_read: bool) {
        let (Some(file), Some(offset), Some(size)) = (
            imm_at(&req.imms, 0),
            imm_at(&req.imms, 1),
            imm_at(&req.imms, 2),
        ) else {
            return;
        };
        let [client_mem, success, error] = req.caps[..] else {
            return;
        };
        let Some((ext_idx, ext_off)) = self.locate(file, offset, size) else {
            fos.reply_via(error, vec![imm(fs_err::RANGE)], vec![]);
            return;
        };
        let f = &self.files[&file];
        let blk_req = if is_read {
            f.extents[ext_idx].read_req
        } else {
            f.extents[ext_idx].write_req
        };

        match self.mode {
            FsMode::Compose => {
                // §3.4 dynamic composition: refine the block-device Request
                // with the *client's* buffer and continuations. Data and
                // completion flow device ↔ client directly.
                self.completed_ops += 1;
                let range = vec![imm(ext_off), imm(size)];
                let caps = vec![client_mem, success, error];
                fos.invoke_with_or(blk_req, range, caps, vec![], move |_s, _err, fos| {
                    fos.reply_via(error, vec![imm(fs_err::COMPOSE)], vec![])
                });
            }
            FsMode::Mediated | FsMode::Dax => {
                // (A DAX client normally bypasses the FS, but the mediated
                // path still works for it.)
                let io = MediatedIo {
                    blk_req,
                    ext_off,
                    size,
                    client_mem,
                    success,
                    error,
                    is_read,
                };
                self.grab_staging(fos, move |s: &mut Self, slot, fos| match slot {
                    Ok(slot) => s.mediated_io(slot, io, fos),
                    Err(_) => fos.reply_via(error, vec![imm(fs_err::STAGING)], vec![]),
                });
            }
        }
    }

    /// Mediated data path once a staging slot is held.
    fn mediated_io(&mut self, slot: usize, io: MediatedIo, fos: &Fos<Self>) {
        let staging_cid = self.staging[slot].cid;
        let op = self.op_token();
        // A sized view of the staging buffer for this operation.
        fos.call(
            Syscall::MemoryDiminish {
                cid: staging_cid,
                offset: 0,
                size: io.size,
                drop_perms: Perms::NONE,
            },
            move |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(view) = res else {
                    s.staging[slot].busy = false;
                    fos.reply_via(io.error, vec![imm(fs_err::STAGING)], vec![]);
                    return;
                };
                s.ops.insert(
                    op,
                    PendingOp {
                        io,
                        staging_view: view,
                        staging_slot: slot,
                        attempts: 0,
                    },
                );
                Self::start_io(op, io, view, fos);
            },
        );
    }

    /// (Re-)starts op `op`. A read goes device → staging, then staging →
    /// client. A write pulls the client's payload into the staging view,
    /// then commits it to the device; a corrupted pull (integrity envelope
    /// mismatch on the copy) is retried — the client's buffer still holds
    /// the payload, so re-pulling re-stamps it.
    fn start_io(op: u64, io: MediatedIo, view: Cid, fos: &Fos<Self>) {
        if io.is_read {
            Self::start_blk(op, io, view, fos);
            return;
        }
        fos.memory_copy(io.client_mem, view, move |s, res, fos| match res {
            SyscallResult::Ok => Self::start_blk(op, io, view, fos),
            SyscallResult::Err(FosError::IntegrityViolation) => {
                s.retry_or_fail(op, Some(DevError::Integrity.code()), fos)
            }
            _ => s.finish_op(op, false, fos),
        });
    }

    /// Calls the block-device Request with the staging view and fresh
    /// internal success/failure continuations. Any failure to get the call
    /// out fails op `op` typed.
    fn start_blk(op: u64, io: MediatedIo, view: Cid, fos: &Fos<Self>) {
        let conts = vec![
            Self::internal(FSI_BLK_OK, op),
            Self::internal(FSI_BLK_ERR, op),
        ];
        let range = vec![imm(io.ext_off), imm(io.size)];
        fos.invoke_with_or(io.blk_req, range, vec![view], conts, move |s, _err, fos| {
            s.finish_op(op, false, fos)
        });
    }

    /// Re-issues op `op` after an exponential backoff if the fault is
    /// recoverable and budget remains (`RetryPolicy::fs_io_retries`, with
    /// the control plane's doubling RTO as the backoff); otherwise fails
    /// the op typed. This is the error-continuation recovery loop: the
    /// device adaptor translated a fault into a typed error invocation,
    /// and the FS — not the client — decides whether it is worth another
    /// attempt.
    fn retry_or_fail(&mut self, op: u64, code: Option<u64>, fos: &Fos<Self>) {
        let recoverable = code
            .and_then(DevError::from_code)
            .is_some_and(|e| e.is_recoverable());
        let Some(p) = self.ops.get_mut(&op) else {
            return;
        };
        if !recoverable || p.attempts >= fractos_net::RETRY.fs_io_retries {
            self.finish_op(op, false, fos);
            return;
        }
        p.attempts += 1;
        let backoff = fractos_net::RETRY.rto(p.attempts - 1);
        let (io, view) = (p.io, p.staging_view);
        self.retried_ops += 1;
        fos.sleep(backoff, move |_s: &mut Self, fos| {
            Self::start_io(op, io, view, fos)
        });
    }

    /// Completes a mediated op: for reads, copy staging → client first.
    /// `code` is the device adaptor's typed error code on failure; a
    /// recoverable one re-issues the operation instead of failing it.
    fn on_blk_done(&mut self, op: u64, ok: bool, code: Option<u64>, fos: &Fos<Self>) {
        let Some(p) = self.ops.get(&op) else { return };
        if !ok {
            self.retry_or_fail(op, code, fos);
            return;
        }
        if p.io.is_read {
            let (view, client_mem) = (p.staging_view, p.io.client_mem);
            fos.memory_copy(view, client_mem, move |s: &mut Self, res, fos| {
                match res {
                    SyscallResult::Ok => s.finish_op(op, true, fos),
                    // Corrupted in flight: re-read the extent (the
                    // device's copy is intact) and re-deliver.
                    SyscallResult::Err(FosError::IntegrityViolation) => {
                        s.retry_or_fail(op, Some(DevError::Integrity.code()), fos)
                    }
                    _ => s.finish_op(op, false, fos),
                }
            });
        } else {
            self.finish_op(op, true, fos);
        }
    }

    fn finish_op(&mut self, op: u64, ok: bool, fos: &Fos<Self>) {
        let Some(p) = self.ops.remove(&op) else {
            return;
        };
        self.staging[p.staging_slot].busy = false;
        fos.call_ignore(Syscall::CapRevoke {
            cid: p.staging_view,
        });
        if ok {
            self.completed_ops += 1;
            fos.reply_via(p.io.success, vec![imm(p.io.size)], vec![]);
        } else {
            fos.reply_via(p.io.error, vec![imm(fs_err::IO)], vec![]);
        }
    }
}

impl Service for FsService {
    fn on_start(&mut self, fos: &Fos<Self>) {
        // Staging pool.
        for _ in 0..FS_STAGING_POOL {
            let addr = fos.mem_alloc(EXTENT_SIZE);
            fos.memory_create(addr, EXTENT_SIZE, Perms::RW, |s: &mut Self, res, _| {
                if let SyscallResult::NewCid(cid) = res {
                    s.staging.push(StagingBuf { cid, busy: false });
                }
            });
        }
        // Bootstrap: fetch the block adaptor's create_vol Request, then
        // publish our own endpoints.
        let key = self.key.clone();
        let blk_key = format!("{}.create_vol", self.blk_key);
        fos.call(
            Syscall::KvGet { key: blk_key },
            move |s: &mut Self, res, fos| {
                // Under faults the KvGet can fail: come up degraded
                // (creates reply `fs_err::DEGRADED`) rather than not at all.
                if let SyscallResult::NewCid(cid) = res {
                    s.create_vol_req = Some(cid);
                }
                let endpoints = [
                    ("create", TAG_FS_CREATE),
                    ("open", TAG_FS_OPEN),
                    ("delete", TAG_FS_DELETE),
                ];
                for (name, tag) in endpoints {
                    fos.publish(&format!("{key}.{name}"), tag, vec![], |_, _, _| {});
                }
            },
        );
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        match req.tag {
            TAG_FS_CREATE => self.on_create(req, fos),
            TAG_FS_OPEN => self.on_open(req, fos),
            TAG_FS_DELETE => self.on_delete(req, fos),
            TAG_FS_READ => self.on_read_write(req, fos, true),
            TAG_FS_WRITE => self.on_read_write(req, fos, false),
            TAG_FS_INTERNAL => {
                // Imms: [kind, op, ...]; on failure the adaptor's typed
                // `DevError` code rides at index 2.
                let (Some(kind), Some(op)) = (imm_at(&req.imms, 0), imm_at(&req.imms, 1)) else {
                    return;
                };
                match kind {
                    FSI_EXTENT_READY => self.on_extent_ready(op, &req, fos),
                    FSI_BLK_OK => self.on_blk_done(op, true, None, fos),
                    FSI_BLK_ERR => self.on_blk_done(op, false, imm_at(&req.imms, 2), fos),
                    _ => {}
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fs_err;

    #[test]
    fn fs_err_codes_are_frozen() {
        let codes = [
            fs_err::RANGE,
            fs_err::COMPOSE,
            fs_err::STAGING,
            fs_err::DEGRADED,
            fs_err::NO_FILE,
            fs_err::INTERNAL,
            fs_err::IO,
        ];
        assert_eq!(codes, [1, 2, 3, 4, 5, 6, 9]);
    }
}
