//! Runners for the §6.1 micro-benchmarks (Table 3, Figs 5–7).

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "bench script: measurement harness must abort loudly on protocol breaks"
)]

use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_core::CtrlPlacement;
use fractos_net::{Endpoint, Fabric, NetParams, Topology};
use fractos_sim::{Shared, Sim, SimRng, SimTime};

use crate::scripts::{mean_gap_us, Script};

/// Iterations per measured point.
pub const ITERS: u64 = 32;

/// Raw `ibv_rc_pingpong` loopback RTT (Table 3 rows 1–2), in µs.
pub fn raw_loopback_rtt(server_on_snic: bool) -> f64 {
    use fractos_baselines::raw::{Peer, PingPongClient, PingPongServer, Start};

    let mut sim = Sim::new(1);
    let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
    let server_ep = if server_on_snic {
        Endpoint::snic(NodeId(0))
    } else {
        Endpoint::cpu(NodeId(0))
    };
    let server = sim.add_actor_on(
        0,
        "pp-server",
        Box::new(PingPongServer::new(server_ep, fabric.clone())),
    );
    let client = sim.add_actor_on(
        0,
        "pp-client",
        Box::new(PingPongClient::new(
            Endpoint::cpu(NodeId(0)),
            Peer {
                actor: server,
                endpoint: server_ep,
            },
            ITERS,
            fabric.clone(),
        )),
    );
    sim.post(fractos_sim::SimDuration::ZERO, client, Start);
    sim.run();
    sim.with_actor::<PingPongClient, _>(client, |c| {
        c.latencies.iter().map(|d| d.as_micros_f64()).sum::<f64>() / c.latencies.len() as f64
    })
}

/// FractOS null-syscall RTT (Table 3 rows 3–4), in µs.
pub fn null_op_rtt(ctrl_on_snic: bool) -> f64 {
    let mut tb = Testbed::paper(2);
    let ctrl = tb.add_controller(if ctrl_on_snic {
        CtrlPlacement::SmartNic(NodeId(0))
    } else {
        CtrlPlacement::HostCpu(NodeId(0))
    });
    let p = tb.add_process(
        "client",
        cpu(0),
        ctrl,
        Script::new(|_s, fos| {
            fn next(s: &mut Script, fos: &Fos<Script>) {
                if s.stamps.len() as u64 > ITERS {
                    return;
                }
                fos.call(Syscall::Null, |s: &mut Script, _res, fos| {
                    s.stamps.push(fos.now());
                    next(s, fos);
                });
            }
            next(_s, fos);
        }),
    );
    tb.start_process(p);
    tb.run();
    tb.with_service::<Script, _>(p, |s| mean_gap_us(&s.stamps))
}

/// Raw one-sided RDMA write latency between two nodes, in µs (Fig 5
/// baseline).
pub fn raw_rdma_write(size: u64) -> f64 {
    let mut fabric = Fabric::new(Topology::paper_testbed(), NetParams::paper());
    let mut rng = SimRng::new(3);
    let mut total = 0.0;
    for i in 0..ITERS {
        // Space iterations far apart so they do not queue on the links.
        let t = SimTime::from_nanos(i * 1_000_000_000);
        let d = fabric.rdma_write(
            t,
            &mut rng,
            Endpoint::cpu(NodeId(0)),
            Endpoint::cpu(NodeId(2)),
            size,
        );
        total += d.as_micros_f64();
    }
    total / ITERS as f64
}

/// `memory_copy` latency between buffers on two different nodes, in µs
/// (Fig 5). `third_party` enables the "HW copies" NIC offload model.
pub fn memcopy_latency(size: u64, ctrl_on_snic: bool, third_party: bool) -> f64 {
    let mut tb = Testbed::paper(4);
    if third_party {
        tb.fabric.borrow_mut().params_mut().third_party_rdma = true;
    }
    let ctrls = tb.controllers_per_node(ctrl_on_snic);

    // Destination buffer on node 2.
    let dst = tb.add_process(
        "dst",
        cpu(2),
        ctrls[2],
        Script::new(move |_s, fos| {
            fos.memory_create_new(size, Perms::RW, |_s, _a, cid, fos| {
                fos.kv_put("dst", cid.unwrap(), |_, res, _| assert!(res.is_ok()));
            });
        }),
    );
    tb.start_process(dst);
    tb.run();

    // Source + driver on node 0.
    let src = tb.add_process(
        "src",
        cpu(0),
        ctrls[0],
        Script::new(move |_s, fos| {
            fn next(s: &mut Script, src: Cid, dst: Cid, fos: &Fos<Script>) {
                if s.stamps.len() as u64 > ITERS {
                    return;
                }
                fos.memory_copy(src, dst, move |s: &mut Script, res, fos| {
                    assert_eq!(res, SyscallResult::Ok);
                    s.stamps.push(fos.now());
                    next(s, src, dst, fos);
                });
            }
            // The source buffer, then the destination's, then the loop.
            let (addr, perms) = (fos.mem_alloc(size), Perms::RW);
            let create = Syscall::MemoryCreate { addr, size, perms };
            let lookup = Syscall::KvGet { key: "dst".into() };
            fos.chain(vec![create, lookup], |s, res, fos| {
                let bufs = res.unwrap();
                s.stamps.push(fos.now());
                next(s, bufs[0], bufs[1], fos);
            });
        }),
    );
    tb.start_process(src);
    tb.run();
    tb.with_service::<Script, _>(src, |s| mean_gap_us(&s.stamps))
}

/// Request-invocation RPC latency (Fig 6), in µs.
///
/// The client pre-creates its reply Request and pre-delegates it into a
/// service-side base Request (the paper "exchanges Requests ahead of time
/// to avoid delegations"); each measured call then derives with the
/// immediate payload and invokes, and the server answers by invoking the
/// preset reply verbatim.
pub fn rpc_latency(two_nodes: bool, ctrl_on_snic: bool, arg_bytes: usize) -> f64 {
    let mut tb = Testbed::paper(5);
    let ctrls = tb.controllers_per_node(ctrl_on_snic);
    let server_node = 0u32;
    let client_node = if two_nodes { 1 } else { 0 };

    const TAG_SVC: u64 = 1;
    const TAG_REPLY: u64 = 2;

    // Server: publish; on request, invoke the preset reply (caps[0]).
    let server = tb.add_process(
        "server",
        cpu(server_node),
        ctrls[server_node as usize],
        Script::new(|_s, fos| {
            fos.publish("svc", TAG_SVC, vec![], |_, res, _| assert!(res.is_ok()));
        })
        .with_handler(|_s, req, fos| {
            fos.request_invoke(req.caps[0], |_, res, _| debug_assert!(res.is_ok()));
        }),
    );
    tb.start_process(server);
    tb.run();

    fn issue(base: Cid, arg_bytes: usize, fos: &Fos<Script>) {
        fos.invoke_with(base, vec![vec![0xA5; arg_bytes].into()], vec![], vec![]);
    }

    // Client: one-time setup (reply creation + delegation into the base),
    // then the measured derive+invoke loop driven from the reply handler.
    let client = tb.add_process(
        "client",
        cpu(client_node),
        ctrls[client_node as usize],
        Script::new(move |_s, fos| {
            let reply = Syscall::new_request(TAG_REPLY, vec![]);
            let lookup = Syscall::KvGet { key: "svc".into() };
            fos.chain(vec![reply, lookup], move |_s, res, fos| {
                let handles = res.unwrap();
                let (reply, svc) = (handles[0], handles[1]);
                fos.request_derive(svc, vec![], vec![reply], move |s, res, fos| {
                    let base = res.cid();
                    s.cids.push(base);
                    s.stamps.push(fos.now());
                    issue(base, arg_bytes, fos);
                });
            });
        })
        .with_handler(move |s, _req, fos| {
            s.stamps.push(fos.now());
            if (s.stamps.len() as u64) <= ITERS {
                issue(s.cids[0], arg_bytes, fos);
            }
        }),
    );
    tb.start_process(client);
    tb.run();
    tb.with_service::<Script, _>(client, |s| mean_gap_us(&s.stamps))
}

/// RPC round trip with `ncaps` delegated Memory capabilities as arguments
/// (Fig 7 left), in µs.
pub fn delegation_rtt(ncaps: usize, ctrl_on_snic: bool) -> f64 {
    let mut tb = Testbed::paper(6);
    let ctrls = tb.controllers_per_node(ctrl_on_snic);

    const TAG_SVC: u64 = 1;
    const TAG_REPLY: u64 = 2;

    let server = tb.add_process(
        "server",
        cpu(0),
        ctrls[0],
        Script::new(|_s, fos| {
            fos.publish("svc", TAG_SVC, vec![], |_, res, _| assert!(res.is_ok()));
        })
        .with_handler(|_s, req, fos| {
            // The reply continuation is the last capability argument.
            fos.request_invoke(*req.caps.last().expect("reply"), |_, res, _| {
                debug_assert!(res.is_ok())
            });
        }),
    );
    tb.start_process(server);
    tb.run();

    fn issue(s: &Script, fos: &Fos<Script>) {
        // cids[0] = svc base, cids[1..=n] = memories, last = reply.
        fos.invoke_with(s.cids[0], vec![], s.cids[1..].to_vec(), vec![]);
    }

    let client = tb.add_process(
        "client",
        cpu(1),
        ctrls[1],
        Script::new(move |_s, fos| {
            // Look up the service, create the argument memories and the
            // reply, then loop.
            let mut calls = vec![Syscall::KvGet { key: "svc".into() }];
            for _ in 0..ncaps {
                let (addr, size, perms) = (fos.mem_alloc(4096), 4096, Perms::RW);
                calls.push(Syscall::MemoryCreate { addr, size, perms });
            }
            calls.push(Syscall::new_request(TAG_REPLY, vec![]));
            fos.chain(calls, |s: &mut Script, res, fos| {
                s.cids = res.unwrap();
                s.stamps.push(fos.now());
                issue(s, fos);
            });
        })
        .with_handler(move |s, _req, fos| {
            s.stamps.push(fos.now());
            if (s.stamps.len() as u64) <= ITERS {
                issue(s, fos);
            }
        }),
    );
    tb.start_process(client);
    tb.run();
    tb.with_service::<Script, _>(client, |s| mean_gap_us(&s.stamps))
}

/// Total time to revoke `n` capabilities (Fig 7 right), in µs.
///
/// `shared_tree = false` is the traditional layout (one revocation tree per
/// capability → `n` revocations); `shared_tree = true` is the
/// FractOS-optimized layout (all delegations reference one indirection
/// object → a single revocation).
pub fn revoke_latency(n: usize, shared_tree: bool, ctrl_on_snic: bool) -> f64 {
    let mut tb = Testbed::paper(8);
    let ctrls = tb.controllers_per_node(ctrl_on_snic);

    // Owner creates the base memory object on node 0.
    let owner = tb.add_process(
        "owner",
        cpu(0),
        ctrls[0],
        Script::new(move |_s, fos| {
            fos.memory_create_new(4096, Perms::RW, move |s: &mut Script, _a, cid, fos| {
                let base = cid.unwrap();
                s.cids.push(base);
                // One indirection object everything points at, or one
                // separately revocable node per capability.
                let nodes = if shared_tree { 1 } else { n };
                let revtrees = vec![Syscall::CapCreateRevtree { cid: base }; nodes];
                fos.chain(revtrees, move |s: &mut Script, res, fos| {
                    s.cids.extend(res.unwrap());
                    let (key, published) = if shared_tree {
                        ("obj", s.cids[1])
                    } else {
                        ("ready", base)
                    };
                    fos.kv_put(key, published, |_, res, _| assert!(res.is_ok()));
                });
            });
        }),
    );
    tb.start_process(owner);
    tb.run();

    // Revoke from the owner and time it.
    let fos = tb.fos_of::<Script>(owner);
    let victims: Vec<Cid> = tb.with_service::<Script, _>(owner, |s| {
        if shared_tree {
            vec![s.cids[1]]
        } else {
            s.cids[1..=n].to_vec()
        }
    });
    let t0 = tb.now();
    // Sequential revocations, like an application freeing blocks one by
    // one. Each completion stamps; the measured window ends at the last
    // revocation *reply* (the out-of-band cleanup broadcast runs after and
    // is not latency-critical, §3.5).
    fn revoke_seq(fos: &Fos<Script>, mut rest: Vec<Cid>) {
        let Some(cid) = rest.pop() else { return };
        fos.call(
            Syscall::CapRevoke { cid },
            move |s: &mut Script, res, fos| {
                assert!(res.is_ok(), "revoke failed: {res:?}");
                s.stamps.push(fos.now());
                revoke_seq(fos, rest);
            },
        );
    }
    revoke_seq(&fos, victims);
    tb.poke(owner);
    tb.run();
    let last = tb.with_service::<Script, _>(owner, |s| *s.stamps.last().expect("revoked"));
    last.duration_since(t0).as_micros_f64()
}
