//! The end-to-end face-verification application (§5, evaluated in §6.5).
//!
//! The frontend receives a batch of photos plus claimed identities, reads
//! the reference photos for those identities from disaggregated storage
//! *directly into GPU memory*, runs the face-verification kernel, copies
//! the match results back, and answers the client. With FractOS the data
//! path is a single transfer (NVMe → GPU) and the control path is the chain
//! client → frontend → storage → GPU → frontend → client (five control
//! messages instead of the baseline's eight, §6.5).
//!
//! Pipeline per request (`a`–`e` as in Fig 2):
//!
//! 1. client invokes the frontend's verify Request, passing its query
//!    buffer (a Memory capability) and a reply continuation;
//! 2. the frontend copies the queries into the first half of a pooled GPU
//!    input buffer (third-party transfer client → GPU);
//! 3. the frontend invokes the storage read Request, refined with a view of
//!    the second half of the GPU buffer as destination and the pre-derived
//!    GPU kernel-invocation Request as success continuation;
//! 4. the storage adaptor moves the reference images NVMe → GPU and invokes
//!    the kernel Request verbatim;
//! 5. the kernel writes per-pair distances; its success continuation
//!    returns control to the frontend, which copies the results out and
//!    invokes the client's reply continuation.

use std::collections::VecDeque;

use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_devices::proto::{imm, imm_at, DevError};
use fractos_sim::{SimDuration, SimTime};

use crate::matcher::{synth_face, MATCH_THRESHOLD};

/// Frontend: verify a batch. Imms: `[batch, first id]`.
/// Caps: `[query Memory (batch × img bytes), reply Request]`.
/// Reply imms: `[distances (batch bytes)]`.
pub const TAG_FV_VERIFY: u64 = 0x0400;

/// Frontend-internal: GPU kernel completion for slot.
const TAG_FV_GPU_DONE: u64 = 0x0401;

/// Frontend-internal: pipeline error for slot.
const TAG_FV_ERR: u64 = 0x0402;

/// Frontend-internal: bootstrap replies.
const TAG_FV_BOOT: u64 = 0x0403;

/// Client: reply continuation.
pub const TAG_FV_REPLY: u64 = 0x0404;

/// Configuration of the face-verification frontend.
#[derive(Debug, Clone)]
pub struct FvConfig {
    /// Bytes per image.
    pub img_bytes: u64,
    /// Largest batch a pooled buffer must fit.
    pub max_batch: u64,
    /// Number of pooled GPU buffers (concurrent requests in flight).
    pub pool: usize,
    /// Registry key of the GPU adaptor (`"{gpu}.init"`).
    pub gpu_key: String,
    /// Registry key this frontend publishes its verify Request under.
    pub verify_key: String,
    /// Registry key of the database read Request (published by the harness
    /// after creating the DB file through the FS).
    pub db_read_key: String,
    /// When set, results are not returned inline: the frontend chains the
    /// GPU output into a *composed* FS write (§3.4) on the output SSD, and
    /// the storage device invokes the client's continuation directly — the
    /// full Fig 2 ring (steps d–e).
    pub store_results: bool,
    /// Registry key of the output file's write Request (used when
    /// `store_results` is set).
    pub out_write_key: String,
}

impl Default for FvConfig {
    fn default() -> Self {
        FvConfig {
            img_bytes: 4096,
            max_batch: 64,
            pool: 4,
            gpu_key: "gpu".into(),
            verify_key: "fv.verify".into(),
            db_read_key: "fv.db_read".into(),
            store_results: false,
            out_write_key: "fv.out_write".into(),
        }
    }
}

struct GpuSlot {
    in_mem: Cid,
    out_mem: Cid,
    busy: bool,
    cache: Option<SlotCache>,
}

/// Pre-derived per-slot artifacts, reused across requests of the same
/// batch size (the paper's pre-allocated-pool optimization: only the
/// storage offset is refined per request).
struct SlotCache {
    batch: u64,
    /// Writable view over the query half of the GPU input buffer.
    in_a: Cid,
    /// Writable view over the reference half (storage writes into it).
    in_b: Cid,
    /// Fully pre-derived kernel-invocation Request (input view, output
    /// view and continuations preset); invoked verbatim by storage.
    kernel_req: Cid,
    /// Error continuation.
    err: Cid,
    /// Frontend-local result buffer.
    out_local_addr: u64,
    /// Memory capability over the local result buffer.
    out_local: Cid,
    /// Readable view over the GPU output buffer.
    out_view: Cid,
}

struct InFlight {
    batch: u64,
    reply: Cid,
    /// The client's query buffer and id window — kept so a recoverable
    /// device fault can re-run the whole storage → GPU stage chain.
    query_mem: Cid,
    first_id: u64,
    attempts: u32,
}

/// The frontend Process of the application.
pub struct FaceVerifyFrontend {
    cfg: FvConfig,
    // Bootstrap state.
    alloc_req: Option<Cid>,
    load_req: Option<Cid>,
    invoke_req: Option<Cid>,
    db_read_req: Option<Cid>,
    out_write_req: Option<Cid>,
    slots: Vec<GpuSlot>,
    boot_allocs: usize,
    /// In-flight request per slot.
    inflight: Vec<Option<InFlight>>,
    /// Requests queued while every slot is busy.
    backlog: VecDeque<IncomingRequest>,
    /// Whether bootstrap finished and the verify Request is published.
    pub ready: bool,
    /// Served requests (tests/benches).
    pub served: u64,
    /// Stage chains re-run after a recoverable device fault (chaos tests).
    pub retried: u64,
}

impl FaceVerifyFrontend {
    /// Creates the frontend.
    pub fn new(cfg: FvConfig) -> Self {
        let pool = cfg.pool;
        FaceVerifyFrontend {
            cfg,
            alloc_req: None,
            load_req: None,
            invoke_req: None,
            db_read_req: None,
            out_write_req: None,
            slots: Vec::new(),
            boot_allocs: 0,
            inflight: (0..pool).map(|_| None).collect(),
            backlog: VecDeque::new(),
            ready: false,
            served: 0,
            retried: 0,
        }
    }

    fn in_buf_size(&self) -> u64 {
        // Query half plus reference half.
        2 * self.cfg.max_batch * self.cfg.img_bytes
    }

    /// Bootstrap driver: each phase mints its continuation (imms
    /// `[phase, 0]`), then fires the RPC that will invoke it.
    fn boot(&mut self, phase: u64, fos: &Fos<Self>) {
        let cont = (TAG_FV_BOOT, vec![imm(phase), imm(0)]);
        match phase {
            // Phase 0: gpu.init, looked up once its continuation exists.
            0 => {
                let key = format!("{}.init", self.cfg.gpu_key);
                fos.request_create_new(cont.0, cont.1, vec![], move |_s: &mut Self, res, fos| {
                    let cont = res.cid();
                    fos.call(Syscall::KvGet { key }, move |_s, res, fos| {
                        fos.invoke_with(res.cid(), vec![], vec![cont], vec![]);
                    });
                });
            }
            // Phase 1+2k: allocate input buffer for slot k; 2+2k: output.
            p if p >= 1 && p < 1 + 2 * self.cfg.pool as u64 => {
                let alloc = self.alloc_req.expect("init done");
                let size = if (p - 1) % 2 == 0 {
                    self.in_buf_size()
                } else {
                    self.cfg.max_batch
                };
                fos.invoke_with(alloc, vec![imm(size)], vec![], vec![cont]);
            }
            // Final phase: load the kernel.
            p if p == 1 + 2 * self.cfg.pool as u64 => {
                let load = self.load_req.expect("init done");
                let kernel = imm(crate::matcher::FACE_VERIFY_KERNEL);
                fos.invoke_with(load, vec![kernel], vec![], vec![cont]);
            }
            _ => unreachable!("bootstrap phase {phase}"),
        }
    }

    fn on_boot_reply(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let phase = imm_at(&req.imms, 0).unwrap_or(u64::MAX);
        match phase {
            0 => {
                self.alloc_req = Some(req.caps[0]);
                self.load_req = Some(req.caps[1]);
                self.boot(1, fos);
            }
            p if p >= 1 && p < 1 + 2 * self.cfg.pool as u64 => {
                let mem = req.caps[0];
                if (p - 1) % 2 == 0 {
                    self.slots.push(GpuSlot {
                        in_mem: mem,
                        out_mem: Cid(u32::MAX),
                        busy: false,
                        cache: None,
                    });
                } else {
                    self.slots.last_mut().expect("input first").out_mem = mem;
                    self.boot_allocs += 1;
                }
                self.boot(p + 1, fos);
            }
            p if p == 1 + 2 * self.cfg.pool as u64 => {
                self.invoke_req = Some(req.caps[0]);
                // Fetch the database read Request, publish verify, done.
                let db_key = self.cfg.db_read_key.clone();
                let verify_key = self.cfg.verify_key.clone();
                fos.call(
                    Syscall::KvGet { key: db_key },
                    move |s: &mut Self, res, fos| {
                        s.db_read_req = Some(res.cid());
                        fos.request_create_new(
                            TAG_FV_VERIFY,
                            vec![],
                            vec![],
                            move |_s: &mut Self, res, fos| {
                                let v = res.cid();
                                fos.kv_put(&verify_key, v, |s: &mut Self, res, _| {
                                    debug_assert!(res.is_ok());
                                    s.ready = true;
                                });
                            },
                        );
                    },
                );
            }
            _ => {}
        }
    }

    fn on_verify(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let Some(slot) = self.slots.iter().position(|s| !s.busy) else {
            self.backlog.push_back(req);
            return;
        };
        let (Some(batch), Some(first_id)) = (imm_at(&req.imms, 0), imm_at(&req.imms, 1)) else {
            return;
        };
        let [query_mem, reply] = req.caps[..] else {
            return;
        };
        if batch > self.cfg.max_batch {
            fos.reply_via(reply, vec![Payload::empty()], vec![]);
            return;
        }
        self.slots[slot].busy = true;
        self.inflight[slot] = Some(InFlight {
            batch,
            reply,
            query_mem,
            first_id,
            attempts: 0,
        });

        if self.slots[slot]
            .cache
            .as_ref()
            .is_some_and(|c| c.batch == batch)
        {
            self.issue(slot, first_id, query_mem, fos);
        } else {
            self.build_cache(slot, batch, first_id, query_mem, fos);
        }
    }

    /// Builds the per-slot cache of views and derived Requests for `batch`
    /// (one-time cost per (slot, batch); the paper pre-allocates GPU
    /// buffers and refines only per-request arguments).
    fn build_cache(
        &mut self,
        slot: usize,
        batch: u64,
        first_id: u64,
        query_mem: Cid,
        fos: &Fos<Self>,
    ) {
        // Drop stale cached handles (best effort).
        if let Some(old) = self.slots[slot].cache.take() {
            for cid in [old.in_a, old.in_b, old.kernel_req, old.out_view] {
                fos.call_ignore(Syscall::CapRevoke { cid });
            }
        }
        let img = self.cfg.img_bytes;
        let in_mem = self.slots[slot].in_mem;
        let out_mem = self.slots[slot].out_mem;
        let invoke_base = self.invoke_req.expect("ready");

        // Query-half view.
        fos.call(
            Syscall::MemoryDiminish {
                cid: in_mem,
                offset: 0,
                size: batch * img,
                drop_perms: Perms::NONE,
            },
            move |_s: &mut Self, res, fos| {
                let SyscallResult::NewCid(in_a) = res else { return };
                // Reference-half view.
                fos.call(
                    Syscall::MemoryDiminish {
                        cid: in_mem,
                        offset: batch * img,
                        size: batch * img,
                        drop_perms: Perms::NONE,
                    },
                    move |_s: &mut Self, res, fos| {
                        let SyscallResult::NewCid(in_b) = res else { return };
                        // Whole-input view the kernel reads.
                        fos.call(
                            Syscall::MemoryDiminish {
                                cid: in_mem,
                                offset: 0,
                                size: 2 * batch * img,
                                drop_perms: Perms::WRITE,
                            },
                            move |_s: &mut Self, res, fos| {
                                let SyscallResult::NewCid(k_in) = res else { return };
                                // Output view.
                                fos.call(
                                    Syscall::MemoryDiminish {
                                        cid: out_mem,
                                        offset: 0,
                                        size: batch,
                                        drop_perms: Perms::NONE,
                                    },
                                    move |_s: &mut Self, res, fos| {
                                        let SyscallResult::NewCid(out_view) = res else {
                                            return;
                                        };
                                        // Frontend continuations.
                                        fos.request_create_new(
                                            TAG_FV_GPU_DONE,
                                            vec![imm(slot as u64)],
                                            vec![],
                                            move |_s: &mut Self, res, fos| {
                                                let done = res.cid();
                                                fos.request_create_new(
                                                    TAG_FV_ERR,
                                                    vec![imm(slot as u64)],
                                                    vec![],
                                                    move |_s: &mut Self, res, fos| {
                                                        let err = res.cid();
                                                        // Fully pre-derive
                                                        // the kernel Request.
                                                        fos.request_derive(
                                                            invoke_base,
                                                            vec![imm(batch), imm(img)],
                                                            vec![k_in, out_view, done, err],
                                                            move |s: &mut Self, res, fos| {
                                                                let SyscallResult::NewCid(
                                                                    kernel_req,
                                                                ) = res
                                                                else {
                                                                    s.fail_slot(slot, fos);
                                                                    return;
                                                                };
                                                                let out_local_addr =
                                                                    fos.mem_alloc(
                                                                        s.cfg.max_batch,
                                                                    );
                                                                fos.memory_create(
                                                                    out_local_addr,
                                                                    s.cfg.max_batch,
                                                                    Perms::RW,
                                                                    move |s: &mut Self,
                                                                          res,
                                                                          fos| {
                                                                        let SyscallResult::NewCid(out_local) = res else {
                                                                            s.fail_slot(slot, fos);
                                                                            return;
                                                                        };
                                                                        s.slots[slot].cache =
                                                                            Some(SlotCache {
                                                                                batch,
                                                                                in_a,
                                                                                in_b,
                                                                                kernel_req,
                                                                                err,
                                                                                out_local_addr,
                                                                                out_local,
                                                                                out_view,
                                                                            });
                                                                        s.issue(
                                                                            slot, first_id,
                                                                            query_mem, fos,
                                                                        );
                                                                    },
                                                                );
                                                            },
                                                        );
                                                    },
                                                );
                                            },
                                        );
                                    },
                                );
                            },
                        );
                    },
                );
            },
        );
    }

    /// Fast path (steps 2–3): third-party copy of the queries into the GPU
    /// buffer, then chain storage → GPU → us via one refined read Request.
    fn issue(&mut self, slot: usize, first_id: u64, query_mem: Cid, fos: &Fos<Self>) {
        let cache = self.slots[slot].cache.as_ref().expect("cache built");
        let (in_a, in_b, kernel_req, err) = (cache.in_a, cache.in_b, cache.kernel_req, cache.err);
        let batch = cache.batch;
        let img = self.cfg.img_bytes;
        let db_read = self.db_read_req.expect("ready");
        fos.memory_copy(query_mem, in_a, move |s: &mut Self, res, fos| {
            match res {
                SyscallResult::Ok => {}
                // The query payload was corrupted in flight: the client's
                // buffer is intact, so re-run the chain.
                SyscallResult::Err(FosError::IntegrityViolation) => {
                    s.retry_or_fail_slot(slot, Some(DevError::Integrity.code()), fos);
                    return;
                }
                _ => {
                    s.fail_slot(slot, fos);
                    return;
                }
            }
            fos.request_derive(
                db_read,
                vec![imm(first_id * img), imm(batch * img)],
                vec![in_b, kernel_req, err],
                move |s: &mut Self, res, fos| {
                    let SyscallResult::NewCid(read) = res else {
                        s.fail_slot(slot, fos);
                        return;
                    };
                    fos.request_invoke(read, |_, res, _| debug_assert!(res.is_ok()));
                },
            );
        });
    }

    /// Step 5: kernel finished. Either pull the distances and answer the
    /// client inline, or — in `store_results` mode — chain the GPU output
    /// straight into the composed output-FS write, whose success
    /// continuation *is* the client's reply (the output SSD reads from the
    /// GPU and answers the application directly, Fig 2 steps d–e).
    fn on_gpu_done(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let Some(slot) = imm_at(&req.imms, 0).map(|s| s as usize) else {
            return;
        };
        if self.inflight[slot].is_none() {
            return;
        }
        if let Some(out_write) = self.out_write_req {
            let cache = self.slots[slot].cache.as_ref().expect("cache built");
            let (out_view, err) = (cache.out_view, cache.err);
            let batch = self.inflight[slot].as_ref().expect("checked").batch;
            let Some(inflight) = self.inflight[slot].take() else {
                return;
            };
            let reply = inflight.reply;
            // Distinct output region per slot so concurrent requests do
            // not clobber each other.
            let offset = slot as u64 * self.cfg.max_batch;
            self.slots[slot].busy = false;
            self.served += 1;
            fos.request_derive(
                out_write,
                vec![imm(offset), imm(batch)],
                vec![out_view, reply, err],
                move |s: &mut Self, res, fos| {
                    if let SyscallResult::NewCid(w) = res {
                        fos.request_invoke(w, |_, res, _| debug_assert!(res.is_ok()));
                    }
                    if let Some(queued) = s.backlog.pop_front() {
                        s.on_verify(queued, fos);
                    }
                },
            );
            return;
        }
        let cache = self.slots[slot].cache.as_ref().expect("cache built");
        let (out_view, out_local, out_addr) =
            (cache.out_view, cache.out_local, cache.out_local_addr);
        let batch = self.inflight[slot].as_ref().expect("checked").batch;
        fos.memory_copy(out_view, out_local, move |s: &mut Self, res, fos| {
            match res {
                SyscallResult::Ok => {}
                // The distances were corrupted on the way out of GPU
                // memory; re-run the chain to recompute them.
                SyscallResult::Err(FosError::IntegrityViolation) => {
                    s.retry_or_fail_slot(slot, Some(DevError::Integrity.code()), fos);
                    return;
                }
                _ => {
                    s.fail_slot(slot, fos);
                    return;
                }
            }
            let distances = fos.mem_read(out_addr, 0, batch).unwrap_or_default();
            let Some(inflight) = s.inflight[slot].take() else {
                return;
            };
            s.slots[slot].busy = false;
            s.served += 1;
            fos.reply_via(inflight.reply, vec![distances], vec![]);
            // Admit one queued request, if any.
            if let Some(queued) = s.backlog.pop_front() {
                s.on_verify(queued, fos);
            }
        });
    }

    /// Decides what to do with a typed error for `slot`'s in-flight
    /// request: a recoverable device fault ([`DevError::Media`],
    /// [`DevError::Launch`], [`DevError::Integrity`], …) re-runs the whole
    /// storage → GPU stage chain after a doubling backoff, up to the
    /// policy's `fv_retries` attempts; anything else (or an exhausted
    /// budget) degrades to an empty reply via
    /// [`FaceVerifyFrontend::fail_slot`].
    fn retry_or_fail_slot(&mut self, slot: usize, code: Option<u64>, fos: &Fos<Self>) {
        let recoverable = code
            .and_then(DevError::from_code)
            .is_some_and(|e| e.is_recoverable());
        let retry = fos.retry_policy();
        let Some(inflight) = self.inflight[slot].as_mut() else {
            return;
        };
        if !recoverable || inflight.attempts >= retry.fv_retries {
            self.fail_slot(slot, fos);
            return;
        }
        inflight.attempts += 1;
        let (first_id, query_mem) = (inflight.first_id, inflight.query_mem);
        let backoff = retry.rto(inflight.attempts - 1);
        self.retried += 1;
        fos.sleep(backoff, move |s: &mut Self, fos| {
            // The slot stays busy and its cache intact across the retry.
            if s.inflight[slot].is_some() {
                s.issue(slot, first_id, query_mem, fos);
            }
        });
    }

    fn fail_slot(&mut self, slot: usize, fos: &Fos<Self>) {
        if let Some(inflight) = self.inflight[slot].take() {
            self.slots[slot].busy = false;
            fos.reply_via(inflight.reply, vec![Payload::empty()], vec![]);
        }
        if let Some(queued) = self.backlog.pop_front() {
            self.on_verify(queued, fos);
        }
    }
}

impl Service for FaceVerifyFrontend {
    fn on_start(&mut self, fos: &Fos<Self>) {
        self.boot(0, fos);
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        match req.tag {
            TAG_FV_BOOT => self.on_boot_reply(req, fos),
            TAG_FV_VERIFY => self.on_verify(req, fos),
            TAG_FV_GPU_DONE => self.on_gpu_done(req, fos),
            TAG_FV_ERR => {
                // Preset imms: [slot]; the device adaptor appends its
                // typed `DevError` code at index 1.
                if let Some(slot) = imm_at(&req.imms, 0) {
                    let code = imm_at(&req.imms, 1);
                    self.retry_or_fail_slot(slot as usize, code, fos);
                }
            }
            _ => {}
        }
    }
}

/// One measured request of the load-generating client.
#[derive(Debug, Clone, Copy)]
pub struct FvSample {
    /// When the request was issued.
    pub issued: SimTime,
    /// When the reply arrived.
    pub completed: SimTime,
    /// Whether every pair matched (queries are noisy captures of the
    /// claimed identities, so they all should).
    pub all_matched: bool,
}

impl FvSample {
    /// Request latency.
    pub fn latency(&self) -> SimDuration {
        self.completed.duration_since(self.issued)
    }
}

/// The load-generating client of the face-verification service.
pub struct FvClient {
    /// Bytes per image (must match the frontend).
    pub img_bytes: u64,
    /// Batch size per request.
    pub batch: u64,
    /// Total requests to issue.
    pub requests: u64,
    /// Requests kept in flight.
    pub in_flight: u64,
    /// Identity range to draw from.
    pub id_range: u64,
    /// When the frontend runs in `store_results` mode, replies arrive from
    /// the output storage device and carry a byte count instead of the
    /// distances; set this so samples count as verified on receipt.
    pub expect_stored: bool,
    /// Registry key of the frontend's verify Request.
    pub verify_key: String,
    verify_req: Option<Cid>,
    issued: u64,
    seq: u64,
    pending_issue: Vec<(u64, SimTime)>,
    /// Reusable registered query buffers: `(addr, Memory cid)` free list.
    buffers: Vec<(u64, Cid)>,
    /// Buffers lent out per in-flight seq.
    lent: Vec<(u64, (u64, Cid))>,
    /// Completed samples.
    pub samples: Vec<FvSample>,
    /// Raw reply payloads (the distance bytes), in completion order. These
    /// are cheap-clone [`Payload`] handles into the delivered immediates,
    /// kept so harnesses can assert end-to-end bytes across backends.
    pub replies: Vec<Payload>,
}

impl FvClient {
    /// Creates a client issuing `requests` batches of `batch` images.
    pub fn new(img_bytes: u64, batch: u64, requests: u64, in_flight: u64) -> Self {
        FvClient {
            img_bytes,
            batch,
            requests,
            in_flight: in_flight.max(1),
            id_range: 256,
            expect_stored: false,
            verify_key: "fv.verify".into(),
            verify_req: None,
            issued: 0,
            seq: 0,
            pending_issue: Vec::new(),
            buffers: Vec::new(),
            lent: Vec::new(),
            samples: Vec::new(),
            replies: Vec::new(),
        }
    }

    fn issue_one(&mut self, fos: &Fos<Self>) {
        if self.issued >= self.requests {
            return;
        }
        // Each top-level verification request roots its own span tree.
        fos.trace_root();
        self.issued += 1;
        let seq = self.seq;
        self.seq += 1;
        let verify = self.verify_req.expect("bootstrapped");
        let batch = self.batch;
        let img = self.img_bytes;
        // Deterministic but scattered id windows (random reads, like the
        // paper's workload — caches at any tier stay cold).
        let first_id = (seq * 53 + 17) % (self.id_range.saturating_sub(batch).max(1));

        // Build the query images: noisy captures of the claimed ids.
        let mut data = Vec::with_capacity((batch * img) as usize);
        for i in 0..batch {
            data.extend(synth_face(first_id + i, img as usize, seq + 1));
        }
        let issued_at = fos.now();
        self.pending_issue.push((seq, issued_at));
        fos.telemetry_count("app.fv.issued", 1);
        fos.telemetry_gauge("app.fv.inflight", self.pending_issue.len() as u64);

        // Reuse a registered buffer when one is free (clients keep a small
        // pool, like the frontend's GPU buffer pool).
        if let Some((addr, query_mem)) = self.buffers.pop() {
            fos.mem_write(addr, 0, &data).expect("query upload");
            self.lent.push((seq, (addr, query_mem)));
            self.send_verify(verify, batch, first_id, seq, query_mem, fos);
            return;
        }
        let addr = fos.mem_alloc(batch * img);
        fos.mem_write(addr, 0, &data).expect("query upload");
        fos.memory_create(
            addr,
            batch * img,
            Perms::RW,
            move |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(query_mem) = res else {
                    return;
                };
                s.lent.push((seq, (addr, query_mem)));
                s.send_verify(verify, batch, first_id, seq, query_mem, fos);
            },
        );
    }

    fn send_verify(
        &mut self,
        verify: Cid,
        batch: u64,
        first_id: u64,
        seq: u64,
        query_mem: Cid,
        fos: &Fos<Self>,
    ) {
        fos.invoke_with(
            verify,
            vec![imm(batch), imm(first_id)],
            vec![query_mem],
            vec![(TAG_FV_REPLY, vec![imm(seq)])],
        );
    }
}

impl Service for FvClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.call(
            Syscall::KvGet {
                key: self.verify_key.clone(),
            },
            |s: &mut Self, res, fos| {
                s.verify_req = Some(res.cid());
                for _ in 0..s.in_flight.min(s.requests) {
                    s.issue_one(fos);
                }
            },
        );
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        if req.tag != TAG_FV_REPLY {
            return;
        }
        let seq = imm_at(&req.imms, 0).unwrap_or(0);
        let issued = self
            .pending_issue
            .iter()
            .position(|(s, _)| *s == seq)
            .map(|i| self.pending_issue.swap_remove(i).1)
            .unwrap_or(SimTime::ZERO);
        // The appended immediate holds the distance bytes.
        let distances = req.imms.get(1).cloned().unwrap_or_default();
        if let Some(i) = self.lent.iter().position(|(s, _)| *s == seq) {
            let (_, buf) = self.lent.swap_remove(i);
            self.buffers.push(buf);
        }
        let all_matched = !distances.is_empty() && distances.iter().all(|&d| d < MATCH_THRESHOLD);
        self.replies.push(distances.clone());
        let sample = FvSample {
            issued,
            completed: fos.now(),
            all_matched,
        };
        fos.telemetry_sample("app.fv.latency_ns", sample.latency().as_nanos());
        fos.telemetry_gauge("app.fv.inflight", self.pending_issue.len() as u64);
        self.samples.push(sample);
        self.issue_one(fos);
    }
}
