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
            let retry = fos.retry_policy();
            if res != SyscallResult::Ok && attempt < retry.stage_retries {
                s.retries += 1;
                let backoff = retry.rto(attempt);
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
            fos.request_create_new(TAG_PIPE_STAGE, vec![], vec![], move |_s, res, fos| {
                fos.kv_put(&format!("pipe.{index}.req"), res.cid(), |_, res, _| {
                    debug_assert!(res.is_ok());
                });
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

    fn fetch_handles(&mut self, i: usize, fos: &Fos<Self>) {
        let stages = self.stages;
        if i == stages {
            // All handles in: allocate the client sink buffer and start.
            let size = self.size;
            let addr = fos.mem_alloc(size);
            fos.memory_create(addr, size, Perms::RW, |s: &mut Self, res, fos| {
                s.client_buf = Some(res.cid());
                s.run_iteration(fos);
            });
            return;
        }
        fos.call(
            Syscall::KvGet {
                key: format!("pipe.{i}.req"),
            },
            move |s: &mut Self, res, fos| {
                s.stage_reqs.push(res.cid());
                fos.call(
                    Syscall::KvGet {
                        key: format!("pipe.{i}.buf"),
                    },
                    move |s: &mut Self, res, fos| {
                        s.stage_bufs.push(res.cid());
                        s.fetch_handles(i + 1, fos);
                    },
                );
            },
        );
    }

    /// Builds the Request chain back to front, then fires stage 0.
    fn run_iteration(&mut self, fos: &Fos<Self>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.started_at = fos.now();
        let size = self.size;
        // Final continuation: the client's reply Request.
        fos.request_create_new(
            TAG_PIPE_REPLY,
            vec![],
            vec![],
            move |s: &mut Self, res, fos| {
                let reply = res.cid();
                s.build_link(s.stages, reply, size, fos);
            },
        );
    }

    /// Recursively derives stage `i-1`'s Request so that its destination is
    /// stage `i`'s buffer (or the client sink) and its continuation is the
    /// already-built tail.
    fn build_link(&mut self, i: usize, next: Cid, size: u64, fos: &Fos<Self>) {
        if i == 0 {
            // Chain complete: invoke the head.
            fos.request_invoke(next, |_, res, _| debug_assert!(res.is_ok()));
            return;
        }
        let dst = if i == self.stages {
            self.client_buf.expect("allocated")
        } else {
            self.stage_bufs[i]
        };
        let base = self.stage_reqs[i - 1];
        fos.request_derive(
            base,
            vec![imm(size)],
            vec![dst, next],
            move |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(link) = res else {
                    return;
                };
                s.build_link(i - 1, link, size, fos);
            },
        );
    }
}

impl Service for ChainDriver {
    fn on_start(&mut self, fos: &Fos<Self>) {
        self.fetch_handles(0, fos);
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
    sink: Option<Cid>,
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
            sink: None,
            sink_views: Vec::new(),
            pending: 0,
            started_at: SimTime::ZERO,
            remaining: iterations,
            latencies: Vec::new(),
        }
    }

    fn fetch_handles(&mut self, i: usize, fos: &Fos<Self>) {
        if i == self.stages {
            // One sink buffer with a disjoint writable view per stage.
            let total = self.size * self.stages as u64;
            let addr = fos.mem_alloc(total);
            fos.memory_create(addr, total, Perms::RW, |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(sink) = res else {
                    return;
                };
                s.sink = Some(sink);
                s.carve_views(0, fos);
            });
            return;
        }
        fos.call(
            Syscall::KvGet {
                key: format!("pipe.{i}.req"),
            },
            move |s: &mut Self, res, fos| {
                s.stage_reqs.push(res.cid());
                s.fetch_handles(i + 1, fos);
            },
        );
    }

    fn carve_views(&mut self, i: usize, fos: &Fos<Self>) {
        if i == self.stages {
            self.run_iteration(fos);
            return;
        }
        let sink = self.sink.expect("allocated");
        let size = self.size;
        fos.call(
            Syscall::MemoryDiminish {
                cid: sink,
                offset: i as u64 * size,
                size,
                drop_perms: Perms::NONE,
            },
            move |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(view) = res else {
                    return;
                };
                s.sink_views.push(view);
                s.carve_views(i + 1, fos);
            },
        );
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
        self.fetch_handles(0, fos);
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
