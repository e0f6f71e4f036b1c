//! `mesh64` / `mesh64_sharded`: cross-node RPC through one Controller per
//! node, with no device or service code.
//!
//! Every node hosts an echo Process and a closed-loop client (one RPC in
//! flight). An operation is one RPC: the client stamps its 4 KiB buffer,
//! mints a reply Request, refines the peer's echo Request with its Memory
//! capability and the reply, and invokes it; the echo Process
//! `memory_copy`s the buffer into its own memory and replies with a
//! checksum of what arrived.

use std::collections::VecDeque;

use fractos_cap::{Cid, ControllerAddr, Perms};
use fractos_core::prelude::*;
use fractos_devices::proto::{imm, imm_at};
use fractos_net::{NetParams, NodeConfig, Topology, TrafficStats};

use super::{
    ctrl_counters, make_runtime, settle, start_stagger_ns, Backend, LayerCounters, Outcome,
    SplitMix64, World,
};
use crate::traced::TraceHandle;

const TAG_ECHO: u64 = 0x7100;
const TAG_REPLY: u64 = 0x7101;
const BUF_BYTES: u64 = 4096;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step over a 64-bit word. Folding words instead of bytes
/// keeps the generator's own checksum near 1 µs per RPC, far below the
/// ~16 µs the stack under test spends on it.
fn fold(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME)
}

fn checksum(bytes: &[u8]) -> u64 {
    bytes.chunks_exact(8).fold(FNV_OFFSET, |s, w| {
        fold(s, u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
    })
}

fn echo_key(node: u32) -> String {
    format!("echo.{node}")
}

/// Copies each caller's buffer into its own and replies with the checksum.
/// Requests are served one at a time so that a reply always describes the
/// bytes of its own request, however many clients pick this peer at once.
struct Echo {
    node: u32,
    buf_addr: u64,
    buf: Option<Cid>,
    ready: bool,
    busy: bool,
    waiting: VecDeque<(Cid, Cid)>,
    served: u64,
    errors: u64,
    last_sum: u64,
}

impl Echo {
    fn new(node: u32) -> Self {
        Echo {
            node,
            buf_addr: 0,
            buf: None,
            ready: false,
            busy: false,
            waiting: VecDeque::new(),
            served: 0,
            errors: 0,
            last_sum: 0,
        }
    }

    fn serve_next(&mut self, fos: &Fos<Self>) {
        let Some(buf) = self.buf else { return };
        let Some((src, cont)) = self.waiting.pop_front() else {
            self.busy = false;
            return;
        };
        self.busy = true;
        fos.memory_copy(src, buf, move |s: &mut Self, res, fos| {
            match fos.mem_read(s.buf_addr, 0, BUF_BYTES) {
                Ok(data) if res.is_ok() => {
                    s.last_sum = checksum(data.as_slice());
                    s.served += 1;
                    fos.reply_via(cont, vec![imm(s.last_sum)], vec![]);
                }
                // No reply: the client's operation never completes and is
                // counted as failed.
                _ => s.errors += 1,
            }
            s.serve_next(fos);
        });
    }
}

impl Service for Echo {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.memory_create_new(BUF_BYTES, Perms::RW, |s: &mut Self, addr, cid, fos| {
            s.buf_addr = addr;
            s.buf = cid.ok();
            fos.request_create_new(TAG_ECHO, vec![], vec![], |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(req) = res else {
                    return;
                };
                fos.kv_put(&echo_key(s.node), req, |s: &mut Self, res, _| {
                    s.ready = res.is_ok() && s.buf.is_some();
                });
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let (TAG_ECHO, &[src, cont]) = (req.tag, req.caps.as_slice()) else {
            self.errors += 1;
            return;
        };
        self.waiting.push_back((src, cont));
        if !self.busy {
            self.serve_next(fos);
        }
    }
}

/// The closed-loop RPC client of one node.
struct Client {
    node: u32,
    nodes: u32,
    rpcs: u64,
    rng: SplitMix64,
    buf_addr: u64,
    buf: Option<Cid>,
    /// Echo Request of every peer, indexed by node (own slot unused).
    echo: Vec<Option<Cid>>,
    /// Checksum state after all but the last word of the buffer.
    prefix: u64,
    ready: bool,
    issued: u64,
    expect: u64,
    issued_at: SimTime,
    lat_ns: Vec<u64>,
    bad_replies: u64,
    errors: u64,
}

impl Client {
    fn new(node: u32, nodes: u32, rpcs: u64, seed: u64) -> Self {
        Client {
            node,
            nodes,
            rpcs,
            rng: SplitMix64(seed ^ (u64::from(node) << 32)),
            buf_addr: 0,
            buf: None,
            echo: vec![None; nodes as usize],
            prefix: 0,
            ready: false,
            issued: 0,
            expect: 0,
            issued_at: SimTime::ZERO,
            lat_ns: Vec::with_capacity(rpcs as usize),
            bad_replies: 0,
            errors: 0,
        }
    }

    fn issue(&mut self, fos: &Fos<Self>) {
        if self.issued >= self.rpcs {
            return;
        }
        let peer = (u64::from(self.node) + 1 + self.rng.below(u64::from(self.nodes) - 1))
            % u64::from(self.nodes);
        let (Some(mem), Some(echo)) = (self.buf, self.echo[peer as usize]) else {
            self.errors += 1;
            return;
        };
        // The last word changes on every RPC, so a stale or foreign copy at
        // the peer cannot produce the expected checksum.
        let stamp = self.issued;
        self.issued += 1;
        if fos
            .mem_write(self.buf_addr, BUF_BYTES - 8, &stamp.to_le_bytes())
            .is_err()
        {
            self.errors += 1;
            return;
        }
        self.expect = fold(self.prefix, stamp);
        self.issued_at = fos.now();
        fos.request_create_new(
            TAG_REPLY,
            vec![imm(stamp)],
            vec![],
            move |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(reply) = res else {
                    s.errors += 1;
                    return;
                };
                fos.request_derive(echo, vec![], vec![mem, reply], |s: &mut Self, res, fos| {
                    let SyscallResult::NewCid(call) = res else {
                        s.errors += 1;
                        return;
                    };
                    fos.request_invoke(call, |s: &mut Self, res, _| {
                        if !res.is_ok() {
                            s.errors += 1;
                        }
                    });
                });
            },
        );
    }
}

impl Service for Client {
    /// Set-up: register and fill the buffer, then look every peer up.
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.memory_create_new(BUF_BYTES, Perms::RW, |s: &mut Self, addr, cid, fos| {
            let mut data = Vec::with_capacity(BUF_BYTES as usize);
            while data.len() < BUF_BYTES as usize {
                data.extend_from_slice(&s.rng.next().to_le_bytes());
            }
            if fos.mem_write(addr, 0, &data).is_err() {
                return;
            }
            s.buf_addr = addr;
            s.buf = cid.ok();
            s.prefix = checksum(&data[..data.len() - 8]);
            let peers: Vec<u32> = (0..s.nodes).filter(|&p| p != s.node).collect();
            let lookups = peers
                .iter()
                .map(|&p| Syscall::KvGet { key: echo_key(p) })
                .collect();
            fos.call_all(lookups, move |s: &mut Self, results, _| {
                for (&p, res) in peers.iter().zip(&results) {
                    if let SyscallResult::NewCid(cid) = res {
                        s.echo[p as usize] = Some(*cid);
                    }
                }
                s.ready = s.buf.is_some() && peers.iter().all(|&p| s.echo[p as usize].is_some());
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let stamp = imm_at(&req.imms, 0);
        let sum = imm_at(&req.imms, 1);
        let current = self.issued.checked_sub(1);
        if req.tag == TAG_REPLY && stamp.is_some() && stamp == current && sum == Some(self.expect) {
            self.lat_ns
                .push(fos.now().duration_since(self.issued_at).as_nanos());
        } else {
            self.bad_replies += 1;
        }
        self.issue(fos);
    }
}

struct MeshWorld {
    tb: Testbed,
    ctrls: Vec<ControllerAddr>,
    servers: Vec<ProcId>,
    clients: Vec<ProcId>,
    rpcs: u64,
    seed: u64,
}

pub fn build(
    nodes: u32,
    rpcs: u64,
    backend: Backend,
    seed: u64,
    traced: bool,
) -> (Box<dyn World>, Option<TraceHandle>) {
    assert!(nodes >= 2, "a mesh needs a peer to call");
    let mut topology = Topology::new();
    for i in 0..nodes {
        topology.add_node(NodeConfig::cpu_only(&format!("n{i}")));
    }
    let params = NetParams::paper();
    let (rt, handle) = make_runtime(backend, &topology, &params, seed, traced);
    let mut tb = Testbed::with_runtime(topology, params, rt);
    let ctrls = tb.controllers_per_node(false);

    let servers: Vec<ProcId> = (0..nodes)
        .map(|i| tb.add_process(&echo_key(i), cpu(i), ctrls[i as usize], Echo::new(i)))
        .collect();
    tb.start_all();
    tb.run();
    for &p in &servers {
        assert!(
            tb.with_service::<Echo, _>(p, |e| e.ready),
            "echo bootstrap failed"
        );
    }

    let clients: Vec<ProcId> = (0..nodes)
        .map(|i| {
            let client = Client::new(i, nodes, rpcs, seed);
            let p = tb.add_process(&format!("client.{i}"), cpu(i), ctrls[i as usize], client);
            tb.start_process(p);
            p
        })
        .collect();
    tb.run();
    for &p in &clients {
        assert!(
            tb.with_service::<Client, _>(p, |c| c.ready),
            "client bootstrap failed"
        );
    }
    settle(&mut tb, clients[0]);
    tb.reset_traffic();

    let world = MeshWorld {
        tb,
        ctrls,
        servers,
        clients,
        rpcs,
        seed,
    };
    (Box::new(world), handle)
}

impl World for MeshWorld {
    fn rt(&mut self) -> &mut dyn Runtime {
        self.tb.sim.as_mut()
    }

    fn traffic(&self) -> TrafficStats {
        self.tb.traffic()
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        self.tb.enable_telemetry(period);
    }

    fn start(&mut self) {
        let mut rng = SplitMix64(self.seed);
        for &p in &self.clients {
            let delay = SimDuration::from_nanos(start_stagger_ns(&mut rng));
            self.tb
                .fos_of::<Client>(p)
                .sleep(delay, |s: &mut Client, fos| s.issue(fos));
            self.tb.poke(p);
        }
    }

    fn finish(&mut self) -> Outcome {
        let mut out = Outcome {
            attempted: self.rpcs * self.clients.len() as u64,
            output_digest: FNV_OFFSET,
            ..Outcome::default()
        };
        out.lat_ns.reserve(out.attempted as usize);
        let mut verified = 0;
        for &p in &self.clients {
            self.tb.with_service::<Client, _>(p, |c| {
                // A reply is only recorded once its checksum matched; an
                // error or a bad reply stops the client, so the shortfall
                // covers every way an RPC can fail.
                verified += c.lat_ns.len() as u64;
                out.lat_ns.extend_from_slice(&c.lat_ns);
                out.output_digest = fold(out.output_digest, c.expect);
            });
        }
        let mut served = 0;
        let mut stale_buffers = 0;
        for &p in &self.servers {
            let (addr, last_sum, n) = self
                .tb
                .with_service::<Echo, _>(p, |e| (e.buf_addr, e.last_sum, e.served));
            served += n;
            // The server's buffer must still hold what it last checksummed.
            let held = self.tb.mem.borrow().read(p, addr, 0, BUF_BYTES);
            if n > 0 && held.map(|d| checksum(&d)) != Ok(last_sum) {
                stale_buffers += 1;
            }
        }
        out.failed = (out.attempted - verified)
            .max(out.attempted.abs_diff(served))
            .max(stale_buffers);
        out
    }

    fn counters(&mut self) -> LayerCounters {
        let procs: Vec<ProcId> = self.servers.iter().chain(&self.clients).copied().collect();
        ctrl_counters(&mut self.tb, &self.ctrls, &procs)
    }
}
