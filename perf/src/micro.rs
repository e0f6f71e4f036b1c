//! Closed loops over one syscall, RPC or device operation on the paper
//! testbed: the `core.*_host_ns` and `devices.*_host_ns` ladder rungs, and
//! the Table 3 anchors of the check stage.
//!
//! Each loop sets its world up, then times (host clock) a run of `ops`
//! back-to-back operations and also reports their mean simulated latency.

use std::time::Instant;

use fractos_baselines::raw::{Peer, PingPongClient, PingPongServer, Start};
use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_devices::proto::{imm, imm_at};
use fractos_devices::{BlockAdaptor, GpuAdaptor, GpuParams, NvmeParams, XorKernel};
use fractos_net::{Fabric, NetParams, Topology};
use fractos_sim::{build_runtime, Shared};

/// What a loop measured.
#[derive(Debug, Clone, Copy)]
pub struct LoopResult {
    /// Host nanoseconds per operation.
    pub host_ns: f64,
    /// Mean simulated latency per operation, in virtual microseconds.
    pub sim_us: f64,
}

type StartFn = Box<dyn FnOnce(&mut Script, &Fos<Script>) + Send>;
type RequestFn = Box<dyn FnMut(&mut Script, IncomingRequest, &Fos<Script>) + Send>;

/// A Process driven by closures, with the little state the loops need.
pub struct Script {
    start: Option<StartFn>,
    on_req: Option<RequestFn>,
    /// Capabilities collected during set-up, in the order the loop stored
    /// them.
    cids: Vec<Cid>,
    /// Operations still to issue.
    left: u64,
    done: u64,
    errors: u64,
    first: SimTime,
    last: SimTime,
}

impl Script {
    fn new(start: impl FnOnce(&mut Script, &Fos<Script>) + Send + 'static) -> Self {
        Script {
            start: Some(Box::new(start)),
            on_req: None,
            cids: Vec::new(),
            left: 0,
            done: 0,
            errors: 0,
            first: SimTime::ZERO,
            last: SimTime::ZERO,
        }
    }

    fn idle() -> Self {
        Script::new(|_, _| {})
    }

    fn on_request(
        mut self,
        f: impl FnMut(&mut Script, IncomingRequest, &Fos<Script>) + Send + 'static,
    ) -> Self {
        self.on_req = Some(Box::new(f));
        self
    }

    /// Counts one finished operation; true while more are due.
    fn finished_one(&mut self, now: SimTime) -> bool {
        self.done += 1;
        self.last = now;
        self.left -= 1;
        self.left > 0
    }
}

impl Service for Script {
    fn on_start(&mut self, fos: &Fos<Self>) {
        if let Some(f) = self.start.take() {
            f(self, fos);
        }
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        // Detached while it runs, so the handler may borrow `self`.
        if let Some(mut h) = self.on_req.take() {
            h(self, req, fos);
            self.on_req = Some(h);
        }
    }
}

/// Mints a continuation Request carrying `[selector]`, refines `target`
/// with `imms` and `caps ++ [continuation]`, and invokes it: the call
/// convention of every service and device adaptor (§3.4).
pub fn call_with_continuation<S: Service>(
    fos: &Fos<S>,
    tag: u64,
    selector: u64,
    target: Cid,
    imms: Vec<Payload>,
    mut caps: Vec<Cid>,
) {
    fos.request_create_new(tag, vec![imm(selector)], vec![], move |_s, res, fos| {
        let SyscallResult::NewCid(cont) = res else {
            return;
        };
        caps.push(cont);
        fos.request_derive(target, imms, caps, |_s, res, fos| {
            if let SyscallResult::NewCid(call) = res {
                fos.request_invoke(call, |_, _, _| {});
            }
        });
    });
}

/// Runs set-up to quiescence, then times `ops` operations of process `p`
/// started by `kick` inside the simulation.
fn timed_loop(
    tb: &mut Testbed,
    p: ProcId,
    ops: u64,
    kick: impl FnOnce(&mut Script, &Fos<Script>) + Send + 'static,
) -> LoopResult {
    tb.run();
    tb.fos_of::<Script>(p)
        .sleep(SimDuration::ZERO, move |s: &mut Script, fos| {
            s.left = ops;
            s.first = fos.now();
            kick(s, fos);
        });
    tb.poke(p);
    let t = Instant::now();
    tb.run();
    let wall_ns = t.elapsed().as_nanos() as f64;
    tb.with_service::<Script, _>(p, |s| {
        assert!(
            s.done == ops && s.errors == 0,
            "loop finished {} of {ops} operations with {} errors",
            s.done,
            s.errors
        );
        LoopResult {
            host_ns: wall_ns / ops as f64,
            sim_us: s.last.duration_since(s.first).as_micros_f64() / ops as f64,
        }
    })
}

const TAG: u64 = 0x7300;

/// Null syscalls against a Controller on the caller's node (Table 3 rows
/// 3–4).
pub fn null_syscall(ops: u64, ctrl_on_snic: bool) -> LoopResult {
    fn next(fos: &Fos<Script>) {
        fos.call(Syscall::Null, |s: &mut Script, res, fos| {
            s.errors += u64::from(!res.is_ok());
            if s.finished_one(fos.now()) {
                next(fos);
            }
        });
    }
    let mut tb = Testbed::paper(2);
    let ctrl = tb.add_controller(if ctrl_on_snic {
        CtrlPlacement::SmartNic(NodeId(0))
    } else {
        CtrlPlacement::HostCpu(NodeId(0))
    });
    let p = tb.add_process("client", cpu(0), ctrl, Script::idle());
    timed_loop(&mut tb, p, ops, |_, fos| next(fos))
}

/// Raw `ibv_rc_pingpong` loopback round trips (Table 3 rows 1–2): mean
/// simulated RTT in virtual microseconds.
pub fn raw_loopback_rtt_us(rounds: u64, server_on_snic: bool) -> f64 {
    let topology = Topology::paper_testbed();
    let params = NetParams::paper();
    let config = Testbed::runtime_config(&topology, &params, 1);
    let mut rt = build_runtime(RuntimeKind::SingleThreaded, &config);
    let fabric = Shared::new(Fabric::new(topology, params));
    let server_ep = if server_on_snic {
        Endpoint::snic(NodeId(0))
    } else {
        Endpoint::cpu(NodeId(0))
    };
    let server = rt.add_actor_on(
        0,
        "pp-server0",
        Box::new(PingPongServer::new(server_ep, fabric.clone())),
    );
    let peer = Peer {
        actor: server,
        endpoint: server_ep,
    };
    let client = rt.add_actor_on(
        0,
        "pp-client0",
        Box::new(PingPongClient::new(
            Endpoint::cpu(NodeId(0)),
            peer,
            rounds,
            fabric,
        )),
    );
    rt.post(SimDuration::ZERO, client, Start);
    rt.run();
    rt.with_actor::<PingPongClient, _>(client, |c| {
        assert_eq!(
            c.latencies.len() as u64,
            rounds,
            "every round trip completed"
        );
        c.latencies.iter().map(|d| d.as_micros_f64()).sum::<f64>() / rounds as f64
    })
}

/// Cross-node RPC with pre-exchanged Requests (Fig 6): the client refines
/// a base Request that already carries its reply and invokes it; the
/// server answers by invoking that reply.
pub fn rpc(ops: u64) -> LoopResult {
    fn issue(s: &Script, fos: &Fos<Script>) {
        fos.request_derive(s.cids[0], vec![imm(0xA5)], vec![], |s, res, fos| {
            let SyscallResult::NewCid(call) = res else {
                s.errors += 1;
                return;
            };
            fos.request_invoke(call, |s: &mut Script, res, _| {
                s.errors += u64::from(!res.is_ok());
            });
        });
    }
    let mut tb = Testbed::paper(5);
    let ctrls = tb.controllers_per_node(false);
    let server = Script::new(|_, fos| {
        fos.request_create_new(TAG, vec![], vec![], |_s, res, fos| {
            if let SyscallResult::NewCid(svc) = res {
                fos.kv_put("svc", svc, |_, _, _| {});
            }
        });
    })
    .on_request(|s, req, fos| match req.caps.first() {
        Some(&reply) => fos.request_invoke(reply, |_, _, _| {}),
        None => s.errors += 1,
    });
    let server = tb.add_process("server", cpu(0), ctrls[0], server);
    tb.start_process(server);
    tb.run();

    let client = Script::new(|_, fos| {
        fos.request_create_new(TAG, vec![], vec![], |_s, res, fos| {
            let SyscallResult::NewCid(reply) = res else {
                return;
            };
            fos.kv_get("svc", move |_s, res, fos| {
                let SyscallResult::NewCid(svc) = res else {
                    return;
                };
                fos.request_derive(svc, vec![], vec![reply], |s: &mut Script, res, _| {
                    if let SyscallResult::NewCid(base) = res {
                        s.cids.push(base);
                    }
                });
            });
        });
    })
    .on_request(|s, _req, fos| {
        if s.finished_one(fos.now()) {
            issue(s, fos);
        }
    });
    let client = tb.add_process("client", cpu(1), ctrls[1], client);
    tb.start_process(client);
    timed_loop(&mut tb, client, ops, |s, fos| issue(s, fos))
}

/// `memory_copy` of `size` bytes between buffers on two nodes (Fig 5).
pub fn memcopy(ops: u64, size: u64) -> LoopResult {
    fn next(s: &Script, fos: &Fos<Script>) {
        fos.memory_copy(s.cids[0], s.cids[1], |s: &mut Script, res, fos| {
            s.errors += u64::from(res != SyscallResult::Ok);
            if s.finished_one(fos.now()) {
                next(s, fos);
            }
        });
    }
    let mut tb = Testbed::paper(4);
    let ctrls = tb.controllers_per_node(false);
    let dst = Script::new(move |_, fos| {
        fos.memory_create_new(size, Perms::RW, |_s, _addr, cid, fos| {
            if let Ok(cid) = cid {
                fos.kv_put("dst", cid, |_, _, _| {});
            }
        });
    });
    let dst = tb.add_process("dst", cpu(2), ctrls[2], dst);
    tb.start_process(dst);
    tb.run();
    let src = Script::new(move |_, fos| {
        fos.memory_create_new(size, Perms::RW, |s: &mut Script, _addr, cid, fos| {
            let Ok(src) = cid else { return };
            s.cids.push(src);
            fos.kv_get("dst", |s: &mut Script, res, _| {
                if let SyscallResult::NewCid(dst) = res {
                    s.cids.push(dst);
                }
            });
        });
    });
    let src = tb.add_process("src", cpu(0), ctrls[0], src);
    tb.start_process(src);
    timed_loop(&mut tb, src, ops, |s, fos| next(s, fos))
}

/// Continuation selectors of the device loops.
const ON_SETUP: u64 = 0;
const ON_GPU_IN: u64 = 1;
const ON_GPU_OUT: u64 = 2;
const ON_GPU_LOADED: u64 = 3;
const ON_DONE: u64 = 8;
const ON_ERROR: u64 = 9;

/// Refines `base` with `imms` and `[bufs.., done, error]` into the Request
/// the loop invokes over and over; stored as `cids[0]`.
fn arm_device_loop(fos: &Fos<Script>, base: Cid, imms: Vec<Payload>, bufs: Vec<Cid>) {
    let mint = |selector| Syscall::RequestCreate {
        base: None,
        tag: TAG,
        imms: vec![imm(selector)],
        caps: vec![],
    };
    fos.call_all(
        vec![mint(ON_DONE), mint(ON_ERROR)],
        move |_s: &mut Script, conts, fos| {
            let [SyscallResult::NewCid(done), SyscallResult::NewCid(error)] = conts[..] else {
                return;
            };
            let mut caps = bufs;
            caps.extend([done, error]);
            fos.request_derive(base, imms, caps, |s: &mut Script, res, _| {
                if let SyscallResult::NewCid(op) = res {
                    s.cids.insert(0, op);
                }
            });
        },
    );
}

fn invoke_device_op(s: &Script, fos: &Fos<Script>) {
    fos.request_invoke(s.cids[0], |s: &mut Script, res, _| {
        s.errors += u64::from(!res.is_ok());
    });
}

/// Handles the completion side of a device loop; `false` for a selector
/// that belongs to the loop's own set-up.
fn device_completion(s: &mut Script, selector: Option<u64>, fos: &Fos<Script>) -> bool {
    match selector {
        Some(ON_DONE) => {
            if s.finished_one(fos.now()) {
                invoke_device_op(s, fos);
            }
        }
        Some(ON_ERROR) => s.errors += 1,
        _ => return false,
    }
    true
}

/// 16 KiB reads of one volume through the block adaptor alone: no file
/// system in front of it.
pub fn nvme_read_16k(ops: u64) -> LoopResult {
    const IO: u64 = 16 << 10;
    let mut tb = Testbed::paper(41);
    let ctrls = tb.controllers_per_node(false);
    let blk = BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk");
    let blk = tb.add_process("blk", cpu(0), ctrls[0], blk);
    tb.start_process(blk);
    tb.run();
    let client = Script::new(|_, fos| {
        fos.kv_get("blk.create_vol", |_s, res, fos| {
            if let SyscallResult::NewCid(create) = res {
                call_with_continuation(fos, TAG, ON_SETUP, create, vec![imm(1 << 20)], vec![]);
            }
        });
    })
    .on_request(|s, req, fos| {
        let selector = imm_at(&req.imms, 0);
        if device_completion(s, selector, fos) {
            return;
        }
        // Volume created: caps are its [read, write] Requests.
        let Some(&read) = req.caps.first() else {
            return;
        };
        fos.memory_create_new(IO, Perms::RW, move |_s, _addr, cid, fos| {
            if let Ok(buf) = cid {
                arm_device_loop(fos, read, vec![imm(0), imm(IO)], vec![buf]);
            }
        });
    });
    let client = tb.add_process("client", cpu(2), ctrls[2], client);
    tb.start_process(client);
    timed_loop(&mut tb, client, ops, |s, fos| invoke_device_op(s, fos))
}

/// Launches of a one-item XOR kernel over a 4 KiB buffer through the GPU
/// adaptor alone: no frontend in front of it.
pub fn gpu_launch(ops: u64) -> LoopResult {
    const KERNEL: u64 = 1;
    const BUF: u64 = 4096;
    let mut tb = Testbed::paper(31);
    let ctrls = tb.controllers_per_node(false);
    let adaptor =
        GpuAdaptor::new(GpuParams::default(), gpu(1), "gpu").with_kernel(KERNEL, XorKernel(0x5A));
    let adaptor = tb.add_process("gpu-adaptor", cpu(1), ctrls[1], adaptor);
    tb.start_process(adaptor);
    tb.run();
    // cids while setting up: [alloc, load, input, output].
    let client = Script::new(|_, fos| {
        fos.kv_get("gpu.init", |_s, res, fos| {
            if let SyscallResult::NewCid(init) = res {
                call_with_continuation(fos, TAG, ON_SETUP, init, vec![], vec![]);
            }
        });
    })
    .on_request(|s, req, fos| {
        let selector = imm_at(&req.imms, 0);
        if device_completion(s, selector, fos) {
            return;
        }
        s.cids.extend(&req.caps);
        match (selector, s.cids.len()) {
            (Some(ON_SETUP), 2) => {
                call_with_continuation(fos, TAG, ON_GPU_IN, s.cids[0], vec![imm(BUF)], vec![]);
            }
            (Some(ON_GPU_IN), 3) => {
                call_with_continuation(fos, TAG, ON_GPU_OUT, s.cids[0], vec![imm(BUF)], vec![]);
            }
            (Some(ON_GPU_OUT), 4) => {
                let load = s.cids[1];
                call_with_continuation(fos, TAG, ON_GPU_LOADED, load, vec![imm(KERNEL)], vec![]);
            }
            (Some(ON_GPU_LOADED), 5) => {
                let bufs = vec![s.cids[2], s.cids[3]];
                arm_device_loop(fos, s.cids[4], vec![imm(1)], bufs);
            }
            _ => s.errors += 1,
        }
    });
    let client = tb.add_process("client", cpu(2), ctrls[2], client);
    tb.start_process(client);
    timed_loop(&mut tb, client, ops, |s, fos| invoke_device_op(s, fos))
}
