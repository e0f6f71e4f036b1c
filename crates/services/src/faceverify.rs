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

#![expect(
    clippy::expect_used,
    reason = "app state machine: phase invariant, must abort the experiment"
)]

use std::collections::VecDeque;

use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_devices::proto::{imm, imm_at, DevError};
use fractos_sim::{SimDuration, SimTime};

use crate::closed_loop::ClosedLoop;
use crate::matcher::{synth_faces_into, MATCH_THRESHOLD};

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

/// Number of pooled GPU buffers (concurrent requests in flight).
const POOL: usize = 4;

/// Registry key prefix of the GPU adaptor the frontend binds
/// (`"{GPU_KEY}.init"`).
pub(crate) const GPU_KEY: &str = "gpu";

/// Registry key the frontend publishes its verify Request under, and the
/// client looks it up by.
const VERIFY_KEY: &str = "fv.verify";

/// Registry key of the database read Request (published by the harness
/// after creating the DB file through the FS).
pub(crate) const DB_READ_KEY: &str = "fv.db_read";

/// Registry key of the output file's write Request (published when
/// `store_results` is set).
pub(crate) const OUT_WRITE_KEY: &str = "fv.out_write";

/// Configuration of the face-verification frontend.
#[derive(Debug, Clone)]
pub struct FvConfig {
    /// Bytes per image.
    pub img_bytes: u64,
    /// Largest batch a pooled buffer must fit.
    pub max_batch: u64,
    /// When set, results are not returned inline: the frontend chains the
    /// GPU output into a *composed* FS write (§3.4) on the output SSD, and
    /// the storage device invokes the client's continuation directly — the
    /// full Fig 2 ring (steps d–e).
    pub store_results: bool,
}

impl Default for FvConfig {
    fn default() -> Self {
        FvConfig {
            img_bytes: 4096,
            max_batch: 64,
            store_results: false,
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
        FaceVerifyFrontend {
            cfg,
            alloc_req: None,
            load_req: None,
            invoke_req: None,
            db_read_req: None,
            out_write_req: None,
            slots: Vec::new(),
            boot_allocs: 0,
            inflight: (0..POOL).map(|_| None).collect(),
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
            // Phase 0: gpu.init, looked up once its continuation exists. A
            // failure leaves the frontend unready, which deployment checks.
            0 => {
                let (tag, imms) = cont;
                let key = format!("{GPU_KEY}.init");
                let calls = vec![Syscall::new_request(tag, imms), Syscall::KvGet { key }];
                fos.chain(calls, |_s, res, fos| {
                    if let Ok(&[cont, init]) = res.as_deref() {
                        fos.invoke_with(init, vec![], vec![cont], vec![]);
                    }
                });
            }
            // Phase 1+2k: allocate input buffer for slot k; 2+2k: output.
            p if p >= 1 && p < 1 + 2 * POOL as u64 => {
                let alloc = self.alloc_req.expect("init done");
                let size = if (p - 1) % 2 == 0 {
                    self.in_buf_size()
                } else {
                    self.cfg.max_batch
                };
                fos.invoke_with(alloc, vec![imm(size)], vec![], vec![cont]);
            }
            // Final phase: load the kernel.
            p if p == 1 + 2 * POOL as u64 => {
                let load = self.load_req.expect("init done");
                let kernel = imm(crate::matcher::FACE_VERIFY_KERNEL);
                fos.invoke_with(load, vec![kernel], vec![], vec![cont]);
            }
            _ => unreachable!("bootstrap phase {phase}"),
        }
    }

    /// Bootstrap replies. An adaptor that cannot offer a context or a
    /// kernel answers without capabilities, and the frontend stays unready.
    fn on_boot_reply(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let phase = imm_at(&req.imms, 0).unwrap_or(u64::MAX);
        match phase {
            0 => {
                let [alloc, load] = req.caps[..] else {
                    return;
                };
                self.alloc_req = Some(alloc);
                self.load_req = Some(load);
                self.boot(1, fos);
            }
            p if p >= 1 && p < 1 + 2 * POOL as u64 => {
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
            p if p == 1 + 2 * POOL as u64 => {
                let Some(&invoke) = req.caps.first() else {
                    return;
                };
                self.invoke_req = Some(invoke);
                // Fetch the database read Request, publish verify, done.
                fos.kv_get(DB_READ_KEY, |s, res, fos| {
                    let SyscallResult::NewCid(db_read) = res else {
                        return;
                    };
                    s.db_read_req = Some(db_read);
                    fos.publish(VERIFY_KEY, TAG_FV_VERIFY, vec![], |s, res, _| {
                        s.ready = res.is_ok();
                    });
                });
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
        let view = |cid, offset, size, drop_perms| Syscall::MemoryDiminish {
            cid,
            offset,
            size,
            drop_perms,
        };
        let views = vec![
            // Query half, reference half, the whole input the kernel reads,
            // and the output.
            view(in_mem, 0, batch * img, Perms::NONE),
            view(in_mem, batch * img, batch * img, Perms::NONE),
            view(in_mem, 0, 2 * batch * img, Perms::WRITE),
            view(out_mem, 0, batch, Perms::NONE),
        ];
        // Every failure below answers the request empty: the slot was
        // marked busy and the request recorded by `on_verify`.
        fos.chain(views, move |s, res, fos| {
            let Ok(&[in_a, in_b, k_in, out_view]) = res.as_deref() else {
                s.fail_slot(slot, fos);
                return;
            };
            // The frontend's continuations, preset into the fully
            // pre-derived kernel Request.
            let cont = |tag| (tag, vec![imm(slot as u64)]);
            let conts = vec![cont(TAG_FV_GPU_DONE), cont(TAG_FV_ERR)];
            let (params, caps) = (vec![imm(batch), imm(img)], vec![k_in, out_view]);
            fos.derive_with(invoke_base, params, caps, conts, move |s, res, fos| {
                let Ok(&[_done, err, kernel_req]) = res.as_deref() else {
                    s.fail_slot(slot, fos);
                    return;
                };
                fos.memory_create_new(s.cfg.max_batch, Perms::RW, move |s, addr, res, fos| {
                    let Ok(out_local) = res else {
                        s.fail_slot(slot, fos);
                        return;
                    };
                    s.slots[slot].cache = Some(SlotCache {
                        batch,
                        in_a,
                        in_b,
                        kernel_req,
                        err,
                        out_local_addr: addr,
                        out_local,
                        out_view,
                    });
                    s.issue(slot, first_id, query_mem, fos);
                });
            });
        });
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
            let range = vec![imm(first_id * img), imm(batch * img)];
            let caps = vec![in_b, kernel_req, err];
            fos.invoke_with_or(db_read, range, caps, vec![], move |s, _err, fos| {
                s.fail_slot(slot, fos);
            });
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
        // A completion for a slot with no request in flight, or one whose
        // cache is being rebuilt, is stale.
        let (Some(inflight), Some(cache)) = (&self.inflight[slot], &self.slots[slot].cache) else {
            return;
        };
        let (batch, out_view) = (inflight.batch, cache.out_view);
        if let Some(out_write) = self.out_write_req {
            let caps = vec![out_view, inflight.reply, cache.err];
            // Distinct output region per slot so concurrent requests do
            // not clobber each other.
            let offset = slot as u64 * self.cfg.max_batch;
            self.inflight[slot] = None;
            self.slots[slot].busy = false;
            self.served += 1;
            let range = vec![imm(offset), imm(batch)];
            fos.request_derive(out_write, range, caps, move |s: &mut Self, res, fos| {
                if let SyscallResult::NewCid(w) = res {
                    fos.request_invoke(w, |_, res, _| debug_assert!(res.is_ok()));
                }
                s.admit_queued(fos);
            });
            return;
        }
        let (out_local, out_addr) = (cache.out_local, cache.out_local_addr);
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
            s.admit_queued(fos);
        });
    }

    /// A slot came free: admit one queued request, if any.
    fn admit_queued(&mut self, fos: &Fos<Self>) {
        if let Some(queued) = self.backlog.pop_front() {
            self.on_verify(queued, fos);
        }
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
        let Some(inflight) = self.inflight[slot].as_mut() else {
            return;
        };
        if !recoverable || inflight.attempts >= fractos_net::RETRY.fv_retries {
            self.fail_slot(slot, fos);
            return;
        }
        inflight.attempts += 1;
        let (first_id, query_mem) = (inflight.first_id, inflight.query_mem);
        let backoff = fractos_net::RETRY.rto(inflight.attempts - 1);
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
        self.admit_queued(fos);
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
    /// Identity range to draw from.
    pub id_range: u64,
    /// When the frontend runs in `store_results` mode, replies arrive from
    /// the output storage device and carry a byte count instead of the
    /// distances; set this so samples count as verified on receipt.
    pub expect_stored: bool,
    verify_req: Option<Cid>,
    /// Requests issued and in flight; a request's token is its `seq`.
    run: ClosedLoop,
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
            id_range: 256,
            expect_stored: false,
            verify_req: None,
            run: ClosedLoop::new(requests, in_flight),
            buffers: Vec::new(),
            lent: Vec::new(),
            samples: Vec::new(),
            replies: Vec::new(),
        }
    }

    fn issue_one(&mut self, fos: &Fos<Self>) {
        let Some(seq) = self.run.next(fos.now()) else {
            return;
        };
        // Each top-level verification request roots its own span tree.
        fos.trace_root();
        let verify = self.verify_req.expect("bootstrapped");
        let batch = self.batch;
        let img = self.img_bytes;
        // Deterministic but scattered id windows (random reads, like the
        // paper's workload — caches at any tier stay cold).
        let first_id = (seq * 53 + 17) % (self.id_range.saturating_sub(batch).max(1));

        // Build the query images: noisy captures of the claimed ids.
        let mut data = vec![0; (batch * img) as usize];
        synth_faces_into(first_id, img as usize, seq + 1, &mut data);
        fos.telemetry_count("app.fv.issued", 1);
        fos.telemetry_gauge("app.fv.inflight", self.run.outstanding());

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
                key: VERIFY_KEY.into(),
            },
            |s: &mut Self, res, fos| {
                s.verify_req = Some(res.cid());
                for _ in 0..s.run.prime() {
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
        let issued = self.run.complete(seq, fos.now()).unwrap_or(SimTime::ZERO);
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
        fos.telemetry_gauge("app.fv.inflight", self.run.outstanding());
        self.samples.push(sample);
        self.issue_one(fos);
    }
}
