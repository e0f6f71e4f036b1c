//! Multi-stage streaming pipeline used by the service-composition
//! experiment (§6.2, Fig 8).
//!
//! Each stage is a FractOS Process with one data buffer. Its Request takes
//! a destination Memory and a next Request: the stage moves its buffer's
//! bytes to the destination and invokes the continuation verbatim. The same
//! stage service serves all three drivers:
//!
//! * **star** (centralized app & data): the client copies data to the
//!   stage, invokes it, and receives data back — two data transfers per
//!   stage (`fractos-baselines`);
//! * **fast-star** (centralized control, direct data): the stage forwards
//!   its data directly to the next stage's buffer but control returns to
//!   the client each hop (`fractos-baselines`);
//! * **chain** (fully distributed): the client pre-wires the whole Request
//!   chain and the stages hand off data *and* control peer-to-peer — this
//!   module's [`ChainDriver`].

use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_devices::proto::{imm, imm_at};
use fractos_sim::SimTime;

/// Stage Request. Imms: `[size]`. Caps: `[destination Memory,
/// next Request]`.
pub const TAG_PIPE_STAGE: u64 = 0x0500;

/// Client reply tag.
pub const TAG_PIPE_REPLY: u64 = 0x0501;

/// Registry lookups of the first `stages` stages' Request and buffer, in
/// stage order: `[req 0, buf 0, req 1, buf 1, …]`.
pub fn stage_lookups(stages: usize) -> Vec<Syscall> {
    (0..stages)
        .flat_map(|i| ["req", "buf"].map(|what| format!("pipe.{i}.{what}")))
        .map(|key| Syscall::KvGet { key })
        .collect()
}

/// One pipeline stage Process.
pub struct PipelineStage {
    /// Stage index (for registry keys `pipe.{i}.req` / `pipe.{i}.buf`).
    pub index: usize,
    /// Buffer capacity.
    pub capacity: u64,
    buf_cid: Option<Cid>,
    /// Requests forwarded (tests).
    pub forwarded: u64,
    /// Data transfers re-attempted after a transient/integrity failure.
    pub retries: u64,
    /// Hand-offs that proceeded without a verified transfer (retry budget
    /// exhausted or continuation unreachable) — the chain still completes.
    pub degraded: u64,
}

impl PipelineStage {
    /// Creates a stage with a `capacity`-byte buffer.
    pub fn new(index: usize, capacity: u64) -> Self {
        PipelineStage {
            index,
            capacity,
            buf_cid: None,
            forwarded: 0,
            retries: 0,
            degraded: 0,
        }
    }

    /// Copies the stage buffer view into `dst`, retrying a failed transfer
    /// (e.g. an in-flight integrity violation) up to the policy's
    /// `stage_retries` times with doubling backoff, then hands control to
    /// `next` either way — a stalled stage must not wedge the whole chain
    /// (§3.6: faults become error continuations, not hangs).
    fn copy_and_forward(attempt: u32, view: Cid, dst: Cid, next: Cid, fos: &Fos<Self>) {
        fos.memory_copy(view, dst, move |s: &mut Self, res, fos| {
            if res != SyscallResult::Ok && attempt < fractos_net::RETRY.stage_retries {
                s.retries += 1;
                let backoff = fractos_net::RETRY.rto(attempt);
                fos.sleep(backoff, move |_s: &mut Self, fos| {
                    Self::copy_and_forward(attempt + 1, view, dst, next, fos);
                });
                return;
            }
            if res != SyscallResult::Ok {
                s.degraded += 1;
            }
            fos.call_ignore(Syscall::CapRevoke { cid: view });
            fos.request_invoke(next, |s: &mut Self, res, _| {
                if !res.is_ok() {
                    s.degraded += 1;
                }
            });
        });
    }
}

impl Service for PipelineStage {
    fn on_start(&mut self, fos: &Fos<Self>) {
        let index = self.index;
        let capacity = self.capacity;
        let addr = fos.mem_alloc(capacity);
        fos.memory_create(addr, capacity, Perms::RW, move |s: &mut Self, res, fos| {
            let SyscallResult::NewCid(buf) = res else {
                return;
            };
            s.buf_cid = Some(buf);
            fos.kv_put(&format!("pipe.{index}.buf"), buf, |_, res, _| {
                debug_assert!(res.is_ok());
            });
            let key = format!("pipe.{index}.req");
            fos.publish(&key, TAG_PIPE_STAGE, vec![], |_, res, _| {
                debug_assert!(res.is_ok());
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        if req.tag != TAG_PIPE_STAGE {
            return;
        }
        let Some(size) = imm_at(&req.imms, 0) else {
            return;
        };
        let [dst, next] = req.caps[..] else { return };
        let Some(buf) = self.buf_cid else { return };
        self.forwarded += 1;
        // Move `size` bytes of our buffer to the destination, then hand
        // control to whatever Request we were given — we do not know or
        // care who provides it (§3.4 encapsulation).
        fos.call(
            Syscall::MemoryDiminish {
                cid: buf,
                offset: 0,
                size,
                drop_perms: Perms::NONE,
            },
            move |_s: &mut Self, res, fos| {
                let SyscallResult::NewCid(view) = res else {
                    return;
                };
                Self::copy_and_forward(0, view, dst, next, fos);
            },
        );
    }
}

/// Drives the fully distributed (chain) pipeline and records latencies.
pub struct ChainDriver {
    /// Number of stages.
    pub stages: usize,
    /// Bytes streamed per iteration.
    pub size: u64,
    /// Iterations to run.
    pub iterations: u64,
    stage_reqs: Vec<Cid>,
    stage_bufs: Vec<Cid>,
    client_buf: Option<Cid>,
    started_at: SimTime,
    /// Completed iteration latencies.
    pub latencies: Vec<fractos_sim::SimDuration>,
    remaining: u64,
}

impl ChainDriver {
    /// Creates a driver for `stages` stages streaming `size` bytes.
    pub fn new(stages: usize, size: u64, iterations: u64) -> Self {
        ChainDriver {
            stages,
            size,
            iterations,
            stage_reqs: Vec::new(),
            stage_bufs: Vec::new(),
            client_buf: None,
            started_at: SimTime::ZERO,
            latencies: Vec::new(),
            remaining: iterations,
        }
    }

    /// Builds the Request chain back to front, then fires stage 0. The
    /// last stage's link mints the client's reply Request and delivers
    /// into the client sink.
    fn run_iteration(&mut self, fos: &Fos<Self>) {
        let Some(last) = self.stages.checked_sub(1) else {
            return;
        };
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.started_at = fos.now();
        let sink = vec![self.client_buf.expect("allocated")];
        let (base, size) = (self.stage_reqs[last], vec![imm(self.size)]);
        let reply = vec![(TAG_PIPE_REPLY, vec![])];
        fos.derive_with(base, size, sink, reply, move |s, res, fos| {
            if let Ok(&[_reply, link]) = res.as_deref() {
                s.build_link(last, link, fos);
            }
        });
    }

    /// Recursively derives stage `i-1`'s Request so that its destination is
    /// stage `i`'s buffer and its continuation is the already-built tail.
    fn build_link(&mut self, i: usize, next: Cid, fos: &Fos<Self>) {
        if i == 0 {
            // Chain complete: invoke the head.
            fos.request_invoke(next, |_, res, _| debug_assert!(res.is_ok()));
            return;
        }
        let (base, dst) = (self.stage_reqs[i - 1], self.stage_bufs[i]);
        fos.request_derive(
            base,
            vec![imm(self.size)],
            vec![dst, next],
            move |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(link) = res else {
                    return;
                };
                s.build_link(i - 1, link, fos);
            },
        );
    }
}

impl Service for ChainDriver {
    fn on_start(&mut self, fos: &Fos<Self>) {
        // Every stage's handles, then the client sink buffer, then go.
        fos.chain(stage_lookups(self.stages), |s: &mut Self, res, fos| {
            let handles = res.expect("pipeline stages published");
            for pair in handles.chunks(2) {
                s.stage_reqs.push(pair[0]);
                s.stage_bufs.push(pair[1]);
            }
            fos.memory_create_new(s.size, Perms::RW, |s: &mut Self, _addr, buf, fos| {
                s.client_buf = buf.ok();
                s.run_iteration(fos);
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        if req.tag != TAG_PIPE_REPLY {
            return;
        }
        self.latencies
            .push(fos.now().duration_since(self.started_at));
        self.run_iteration(fos);
    }
}

/// Drives the distributed *fork/join* pattern of §3.4: all stages are
/// invoked concurrently, each streaming its buffer into a disjoint region
/// of the client's sink and invoking the shared join continuation; the
/// iteration completes when the last stage reports in. The same Request
/// primitives that build chains build this data-flow shape — no new
/// mechanism (§3.4: "RPCs, distributed pipelines, or distributed fork/join
/// and data-flow patterns").
pub struct ForkJoinDriver {
    /// Number of stages forked per iteration.
    pub stages: usize,
    /// Bytes each stage streams.
    pub size: u64,
    /// Iterations to run.
    pub iterations: u64,
    stage_reqs: Vec<Cid>,
    sink_views: Vec<Cid>,
    pending: usize,
    started_at: SimTime,
    remaining: u64,
    /// Completed iteration latencies.
    pub latencies: Vec<fractos_sim::SimDuration>,
}

impl ForkJoinDriver {
    /// Creates a driver forking `stages` transfers of `size` bytes each.
    pub fn new(stages: usize, size: u64, iterations: u64) -> Self {
        ForkJoinDriver {
            stages,
            size,
            iterations,
            stage_reqs: Vec::new(),
            sink_views: Vec::new(),
            pending: 0,
            started_at: SimTime::ZERO,
            remaining: iterations,
            latencies: Vec::new(),
        }
    }

    /// One sink buffer with a disjoint writable view per stage, then go.
    fn carve_views(&mut self, fos: &Fos<Self>) {
        let total = self.size * self.stages as u64;
        fos.memory_create_new(total, Perms::RW, |s: &mut Self, _addr, sink, fos| {
            let Ok(sink) = sink else {
                return;
            };
            let size = s.size;
            let views = (0..s.stages as u64)
                .map(|i| Syscall::MemoryDiminish {
                    cid: sink,
                    offset: i * size,
                    size,
                    drop_perms: Perms::NONE,
                })
                .collect();
            fos.chain(views, |s: &mut Self, res, fos| {
                if let Ok(views) = res {
                    s.sink_views = views;
                    s.run_iteration(fos);
                }
            });
        });
    }

    fn run_iteration(&mut self, fos: &Fos<Self>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.started_at = fos.now();
        self.pending = self.stages;
        // One shared join continuation; every stage invokes it on
        // completion.
        fos.request_create_new(
            TAG_PIPE_REPLY,
            vec![],
            vec![],
            move |s: &mut Self, res, fos| {
                let join = res.cid();
                for i in 0..s.stages {
                    let base = s.stage_reqs[i];
                    let dst = s.sink_views[i];
                    fos.invoke_with(base, vec![imm(s.size)], vec![dst, join], vec![]);
                }
            },
        );
    }
}

impl Service for ForkJoinDriver {
    fn on_start(&mut self, fos: &Fos<Self>) {
        let lookups = (0..self.stages)
            .map(|i| Syscall::KvGet {
                key: format!("pipe.{i}.req"),
            })
            .collect();
        fos.chain(lookups, |s: &mut Self, res, fos| {
            s.stage_reqs = res.expect("pipeline stages published");
            s.carve_views(fos);
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        if req.tag != TAG_PIPE_REPLY {
            return;
        }
        self.pending -= 1;
        if self.pending == 0 {
            self.latencies
                .push(fos.now().duration_since(self.started_at));
            self.run_iteration(fos);
        }
    }
}
