//! rCUDA-style transparent GPU remoting (the Fig 9 / §6.5 comparator).
//!
//! rCUDA interposes CUDA driver calls and forwards each one to a daemon on
//! the GPU node (§6.3: "rCUDA accesses remote GPUs transparently by
//! interposing CUDA driver calls, whereas FractOS GPU service uses a single
//! roundtrip Request invocation per kernel invocation"). One kernel
//! execution therefore costs several network round trips — memcpy
//! host-to-device, kernel launch, synchronize, memcpy device-to-host — and
//! all data staged through the client's host memory.

use std::ops::Range;
use std::sync::Arc;

use fractos_devices::{GpuDevice, GpuParams, Kernel};
use fractos_net::params::PCIE_BANDWIDTH;
use fractos_net::{Endpoint, Fabric, TrafficClass};
use fractos_sim::{Actor, Ctx, IdMap, Msg, Shared, SimDuration, SimTime};

use crate::raw::{raw_send, Peer};

/// Per-driver-call daemon processing overhead: request parsing, transport,
/// and the CUDA driver call itself. rCUDA's forwarding path (interposition,
/// (de)marshalling, socket handling) costs markedly more per call than a
/// native driver call — the reason Fig 9 shows it well above FractOS's
/// single-round-trip invocation.
pub const DAEMON_CALL_OVERHEAD: SimDuration = SimDuration::from_micros(8);

/// Driver calls forwarded by the interposed CUDA library.
pub enum DriverCall {
    /// Copy bytes into device memory at a device offset.
    MemcpyH2D {
        /// Destination offset in the daemon's device buffer.
        offset: u64,
        /// The actual bytes.
        data: Vec<u8>,
        /// Reply routing: `(peer, token)`.
        reply: (Peer, u64),
    },
    /// Launch a kernel.
    Launch {
        /// Kernel id.
        kernel: u64,
        /// Kernel parameters.
        params: Vec<u64>,
        /// Input extent in device memory.
        input: (u64, u64),
        /// Output offset in device memory.
        out_offset: u64,
        /// Reply routing.
        reply: (Peer, u64),
    },
    /// Wait for the device to go idle.
    Synchronize {
        /// Reply routing.
        reply: (Peer, u64),
    },
    /// Copy bytes out of device memory.
    MemcpyD2H {
        /// Source offset.
        offset: u64,
        /// Byte count.
        len: u64,
        /// Reply routing.
        reply: (Peer, u64),
    },
}

/// The daemon's reply to a driver call.
pub struct DriverReply {
    /// Echoed token.
    pub token: u64,
    /// Data for `MemcpyD2H`, empty otherwise.
    pub data: Vec<u8>,
}

/// The rCUDA daemon on the GPU node.
pub struct RcudaServer {
    /// Where the daemon runs (the GPU node's host CPU).
    pub endpoint: Endpoint,
    fabric: Shared<Fabric>,
    /// The daemon handles driver calls serially (single dispatch thread —
    /// the throughput bottleneck the paper observes in Fig 13).
    busy_until: SimTime,
    device: GpuDevice,
    kernels: IdMap<u64, Arc<dyn Kernel>>,
    /// Simulated device memory (one flat buffer).
    dev_mem: Vec<u8>,
    /// Completion time of the last launched kernel.
    kernel_done_at: SimTime,
    /// Deferred kernel effect: `(input extent, params, kernel, out offset)`.
    pending_launch: Option<(u64, u64, Vec<u64>, u64, u64)>,
    /// Calls served (tests).
    pub calls: u64,
}

impl RcudaServer {
    /// Creates a daemon with `dev_mem_size` bytes of device memory.
    pub fn new(
        endpoint: Endpoint,
        fabric: Shared<Fabric>,
        params: GpuParams,
        dev_mem_size: u64,
    ) -> Self {
        RcudaServer {
            endpoint,
            fabric,
            busy_until: SimTime::ZERO,
            device: GpuDevice::new(params),
            kernels: IdMap::default(),
            dev_mem: vec![0; dev_mem_size as usize],
            kernel_done_at: SimTime::ZERO,
            pending_launch: None,
            calls: 0,
        }
    }

    /// Registers a kernel.
    pub fn with_kernel(mut self, id: u64, kernel: impl Kernel) -> Self {
        self.kernels.insert(id, Arc::new(kernel));
        self
    }

    /// Serial-daemon processing: returns the delay until `cost` of work
    /// completes, queueing behind earlier calls.
    fn charge(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
        let start = self.busy_until.max(now);
        let done = start + cost;
        self.busy_until = done;
        done.duration_since(now)
    }

    fn reply(
        &self,
        ctx: &mut Ctx<'_>,
        to: (Peer, u64),
        payload: u64,
        extra: SimDuration,
        data: Vec<u8>,
    ) {
        let fabric = self.fabric.clone();
        raw_send(
            ctx,
            &fabric,
            self.endpoint,
            to.0,
            payload,
            if payload > 256 {
                TrafficClass::Data
            } else {
                TrafficClass::Control
            },
            extra,
            DriverReply { token: to.1, data },
        );
    }

    /// The part of `[offset, offset + len)` that lies in device memory:
    /// cut at its end, and empty when `offset` is at or past it.
    fn extent(&self, offset: u64, len: u64) -> Range<usize> {
        let size = self.dev_mem.len();
        let start = usize::try_from(offset).map_or(size, |o| o.min(size));
        let end = usize::try_from(len).map_or(size, |l| start.saturating_add(l).min(size));
        start..end
    }

    /// Applies a finished launch's computation to device memory. The
    /// input extent was checked at launch; output past the end of device
    /// memory is dropped.
    fn retire_launch(&mut self) {
        if let Some((in_off, in_len, params, kernel, out_off)) = self.pending_launch.take() {
            if let Some(k) = self.kernels.get(&kernel) {
                let out = k.run(&self.dev_mem[self.extent(in_off, in_len)], &params);
                let dst = self.extent(out_off, out.len() as u64);
                let n = dst.len();
                self.dev_mem[dst].copy_from_slice(&out[..n]);
            }
        }
    }
}

impl Actor for RcudaServer {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let Ok(call) = msg.downcast::<DriverCall>() else {
            return;
        };
        let call = *call;
        self.calls += 1;
        match call {
            DriverCall::MemcpyH2D {
                offset,
                data,
                reply,
            } => {
                let dst = self.extent(offset, data.len() as u64);
                let n = dst.len();
                self.dev_mem[dst].copy_from_slice(&data[..n]);
                // H2D also crosses the daemon's PCIe to the device; the
                // fabric already charged the network, add the PCIe copy.
                let pcie = SimDuration::from_secs_f64(data.len() as f64 / PCIE_BANDWIDTH);
                let extra = self.charge(ctx.now(), DAEMON_CALL_OVERHEAD + pcie);
                self.reply(ctx, reply, 0, extra, Vec::new());
            }
            DriverCall::Launch {
                kernel,
                params,
                input,
                out_offset,
                reply,
            } => {
                let items = self
                    .kernels
                    .get(&kernel)
                    .map_or(1, |k| k.items(input.1, &params));
                // A launch whose input lies outside device memory, or that
                // would end past the virtual timeline, is refused like an
                // invalid launch configuration: nothing runs.
                let input_fits = self.extent(input.0, input.1).len() as u64 == input.1;
                if let Some(delay) = input_fits
                    .then(|| self.device.execute(ctx.now(), items))
                    .flatten()
                {
                    self.kernel_done_at = ctx.now() + delay;
                    self.pending_launch = Some((input.0, input.1, params, kernel, out_offset));
                }
                // Launch returns immediately (asynchronous in CUDA).
                let extra = self.charge(ctx.now(), DAEMON_CALL_OVERHEAD);
                self.reply(ctx, reply, 0, extra, Vec::new());
            }
            DriverCall::Synchronize { reply } => {
                let wait = self.kernel_done_at.saturating_duration_since(ctx.now());
                self.retire_launch();
                let extra = self.charge(ctx.now(), DAEMON_CALL_OVERHEAD) + wait;
                self.reply(ctx, reply, 0, extra, Vec::new());
            }
            DriverCall::MemcpyD2H { offset, len, reply } => {
                let data = self.dev_mem[self.extent(offset, len)].to_vec();
                let pcie = SimDuration::from_secs_f64(len as f64 / PCIE_BANDWIDTH);
                let extra = self.charge(ctx.now(), DAEMON_CALL_OVERHEAD + pcie);
                self.reply(ctx, reply, len, extra, data);
            }
        }
    }
}

/// Client-side helper that sequences driver calls with continuations keyed
/// by token; embed it in baseline frontends.
pub struct RcudaClient {
    /// The client's endpoint.
    pub endpoint: Endpoint,
    /// The daemon.
    pub server: Peer,
    fabric: Shared<Fabric>,
    next_token: u64,
}

impl RcudaClient {
    /// Creates the client half.
    pub fn new(endpoint: Endpoint, server: Peer, fabric: Shared<Fabric>) -> Self {
        RcudaClient {
            endpoint,
            server,
            fabric,
            next_token: 0,
        }
    }

    /// Issues one driver call; the reply comes back to `ctx.self_id()` as a
    /// [`DriverReply`] with the returned token.
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        build: impl FnOnce((Peer, u64)) -> DriverCall,
    ) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let me = Peer {
            actor: ctx.self_id(),
            endpoint: self.endpoint,
        };
        let call = build((me, token));
        let (size, class) = match &call {
            DriverCall::MemcpyH2D { data, .. } => (data.len() as u64, TrafficClass::Data),
            DriverCall::Launch { .. } => (64, TrafficClass::Control),
            DriverCall::Synchronize { .. } => (16, TrafficClass::Control),
            DriverCall::MemcpyD2H { .. } => (32, TrafficClass::Control),
        };
        let fabric = self.fabric.clone();
        raw_send(
            ctx,
            &fabric,
            self.endpoint,
            self.server,
            size,
            class,
            SimDuration::ZERO,
            call,
        );
        token
    }

    /// Issues call number `step` (counted from zero, below [`KERNEL_CALLS`])
    /// of the sequence one kernel execution costs through the interposed
    /// runtime, for a batch of `batch` image pairs of `img` bytes each:
    /// the host-to-device copy of `input()` (both halves of every pair),
    /// [`INTERPOSITION_CALLS`] cheap forwarded calls, launch, synchronize,
    /// and the device-to-host copy of the `batch` result bytes.
    pub fn kernel_call(
        &mut self,
        ctx: &mut Ctx<'_>,
        step: u64,
        batch: u64,
        img: u64,
        input: impl FnOnce() -> Vec<u8>,
    ) -> u64 {
        let launch = 1 + INTERPOSITION_CALLS;
        self.call(ctx, |reply| match step {
            0 => DriverCall::MemcpyH2D {
                offset: 0,
                data: input(),
                reply,
            },
            s if s == launch => DriverCall::Launch {
                kernel: fractos_services::FACE_VERIFY_KERNEL,
                params: vec![batch, img],
                input: (0, 2 * batch * img),
                out_offset: 2 * batch * img,
                reply,
            },
            s if s == launch + 2 => DriverCall::MemcpyD2H {
                offset: 2 * batch * img,
                len: batch,
                reply,
            },
            // Runtime chatter before the launch, the real wait after it.
            _ => DriverCall::Synchronize { reply },
        })
    }
}

/// Extra small driver-call round trips per kernel execution, modelling the
/// chatter a transparently interposed CUDA runtime forwards besides the
/// four essential calls (context queries, stream state, attribute reads —
/// the reason the paper's Fig 9 shows rCUDA well above FractOS's single
/// round trip per invocation).
pub const INTERPOSITION_CALLS: u64 = 8;

/// Driver calls per kernel execution: see [`RcudaClient::kernel_call`].
pub const KERNEL_CALLS: u64 = 4 + INTERPOSITION_CALLS;

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use fractos_devices::XorKernel;
    use fractos_net::{NetParams, NodeId, Topology};
    use fractos_sim::{ActorId, Runtime, RuntimeExt, Sim};

    /// A driver that runs the canonical verify sequence and checks data.
    struct Driver {
        client: RcudaClient,
        tokens: IdMap<u64, u64>,
        pub result: Vec<u8>,
        pub done: bool,
    }

    struct Go;

    impl Actor for Driver {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            if msg.downcast_ref::<Go>().is_some() {
                let t = self.client.call(ctx, |reply| DriverCall::MemcpyH2D {
                    offset: 0,
                    data: vec![0x0F; 32],
                    reply,
                });
                self.tokens.insert(t, 0);
                return;
            }
            let reply = msg.downcast::<DriverReply>().expect("reply");
            let phase = self.tokens.remove(&reply.token).expect("known token");
            match phase {
                0 => {
                    let t = self.client.call(ctx, |reply| DriverCall::Launch {
                        kernel: 1,
                        params: vec![1],
                        input: (0, 32),
                        out_offset: 64,
                        reply,
                    });
                    self.tokens.insert(t, 1);
                }
                1 => {
                    let t = self
                        .client
                        .call(ctx, |reply| DriverCall::Synchronize { reply });
                    self.tokens.insert(t, 2);
                }
                2 => {
                    let t = self.client.call(ctx, |reply| DriverCall::MemcpyD2H {
                        offset: 64,
                        len: 32,
                        reply,
                    });
                    self.tokens.insert(t, 3);
                }
                3 => {
                    self.result = reply.data;
                    self.done = true;
                }
                _ => unreachable!(),
            }
        }
    }

    /// A driver call waiting for its reply routing.
    type Call = Box<dyn FnOnce((Peer, u64)) -> DriverCall>;

    /// Issues its calls one after another, each once the previous one
    /// replied, and keeps every reply's data.
    struct Script {
        client: RcudaClient,
        calls: VecDeque<Call>,
        replies: Vec<Vec<u8>>,
    }

    impl Actor for Script {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            if let Ok(reply) = msg.downcast::<DriverReply>() {
                self.replies.push(reply.data);
            }
            if let Some(build) = self.calls.pop_front() {
                self.client.call(ctx, build);
            }
        }
    }

    /// Two actors on the paper testbed: a 1 KiB daemon with the XOR kernel
    /// as kernel 1 on node 1, and `client` on node 2 bound to it.
    fn daemon_and<A: Actor + 'static>(
        sim: &mut Sim,
        client: impl FnOnce(RcudaClient) -> A,
    ) -> (Shared<Fabric>, ActorId, ActorId) {
        let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
        let server_ep = Endpoint::cpu(NodeId(1));
        let server = sim.add_actor_on(
            1,
            "rcuda",
            Box::new(
                RcudaServer::new(server_ep, fabric.clone(), GpuParams::default(), 1024)
                    .with_kernel(1, XorKernel(0xFF)),
            ),
        );
        let peer = Peer {
            actor: server,
            endpoint: server_ep,
        };
        let rc = RcudaClient::new(Endpoint::cpu(NodeId(2)), peer, fabric.clone());
        let driver = sim.add_actor_on(2, "driver", Box::new(client(rc)));
        (fabric, server, driver)
    }

    #[test]
    fn out_of_range_driver_calls_reply_and_touch_nothing() {
        let launch = |input: (u64, u64), out_offset: u64| {
            move |reply| DriverCall::Launch {
                kernel: 1,
                params: vec![1],
                input,
                out_offset,
                reply,
            }
        };
        let h2d = |offset: u64| {
            move |reply| DriverCall::MemcpyH2D {
                offset,
                data: vec![0xAB; 32],
                reply,
            }
        };
        let d2h = |offset: u64, len: u64| move |reply| DriverCall::MemcpyD2H { offset, len, reply };
        let sync = |reply| DriverCall::Synchronize { reply };
        let calls: Vec<Call> = vec![
            Box::new(h2d(1024)),
            Box::new(h2d(4096)),
            Box::new(h2d(u64::MAX)),
            Box::new(d2h(1024, 32)),
            Box::new(d2h(u64::MAX - 1, 16)),
            // Input past the end, straddling it, and overflowing `u64`:
            // refused, so the XOR kernel never writes its 0xFF bytes.
            Box::new(launch((4096, 16), 0)),
            Box::new(sync),
            Box::new(launch((1000, 100), 0)),
            Box::new(sync),
            Box::new(launch((u64::MAX, 16), 0)),
            Box::new(sync),
            // Input in range, output past the end: runs, writes nothing.
            Box::new(launch((0, 32), 4096)),
            Box::new(sync),
        ];
        let n = calls.len();
        let mut sim = Sim::new(5);
        let (_, server, driver) = daemon_and(&mut sim, |client| Script {
            client,
            calls: calls.into(),
            replies: Vec::new(),
        });
        sim.post(SimDuration::ZERO, driver, Go);
        sim.run();
        sim.with_actor::<Script, _>(driver, |d| {
            assert_eq!(d.replies.len(), n);
            assert!(d.replies.iter().all(Vec::is_empty));
        });
        sim.with_actor::<RcudaServer, _>(server, |s| {
            assert_eq!(s.calls, n as u64);
            assert!(s.dev_mem.iter().all(|&b| b == 0));
        });
    }

    #[test]
    fn rcuda_sequence_computes_and_takes_four_round_trips() {
        let mut sim = Sim::new(5);
        let (fabric, server, driver) = daemon_and(&mut sim, |client| Driver {
            client,
            tokens: IdMap::default(),
            result: Vec::new(),
            done: false,
        });
        sim.post(SimDuration::ZERO, driver, Go);
        sim.run();
        sim.with_actor::<Driver, _>(driver, |d| {
            assert!(d.done);
            assert_eq!(d.result, vec![0xF0; 32]);
        });
        sim.with_actor::<RcudaServer, _>(server, |s| assert_eq!(s.calls, 4));
        // Four round trips cross the network (eight messages).
        assert_eq!(fabric.borrow().stats().network_msgs(), 8);
    }
}
