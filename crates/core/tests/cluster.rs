//! End-to-end tests of the FractOS OS layer on a simulated cluster.
//!
//! These exercise the full message protocol: bootstrap via the KV registry,
//! Request creation/refinement/invocation across Controllers, real-byte
//! memory copies, revocation and its immediacy, monitors, and failure
//! translation.

use fractos_cap::{CapError, Cid, Perms};
use fractos_core::prelude::*;
use fractos_core::testbed::CtrlPlacement;
use fractos_core::{PlanPath, VerifyError, VerifyErrorKind};

/// A service that publishes one Request endpoint and records deliveries.
struct Recorder {
    tag: u64,
    key: &'static str,
    received: Vec<IncomingRequest>,
    monitor_cbs: Vec<MonitorCb>,
}

impl Recorder {
    fn new(tag: u64, key: &'static str) -> Self {
        Recorder {
            tag,
            key,
            received: Vec::new(),
            monitor_cbs: Vec::new(),
        }
    }
}

impl Service for Recorder {
    fn on_start(&mut self, fos: &Fos<Self>) {
        let key = self.key;
        fos.request_create_new(self.tag, vec![], vec![], move |_s, res, fos| {
            fos.kv_put(key, res.cid(), |_, res, _| assert!(res.is_ok()));
        });
    }
    fn on_request(&mut self, req: IncomingRequest, _fos: &Fos<Self>) {
        self.received.push(req);
    }
    fn on_monitor(&mut self, cb: MonitorCb, _fos: &Fos<Self>) {
        self.monitor_cbs.push(cb);
    }
}

/// A scriptable client: runs a closure at start.
struct Script {
    results: Vec<SyscallResult>,
    cids: Vec<Cid>,
    #[allow(clippy::type_complexity)]
    script: Option<Box<dyn FnOnce(&mut Script, &Fos<Script>) + Send>>,
}

impl Script {
    fn new(f: impl FnOnce(&mut Script, &Fos<Script>) + Send + 'static) -> Self {
        Script {
            results: Vec::new(),
            cids: Vec::new(),
            script: Some(Box::new(f)),
        }
    }
}

impl Service for Script {
    fn on_start(&mut self, fos: &Fos<Self>) {
        if let Some(f) = self.script.take() {
            f(self, fos);
        }
    }
    fn on_request(&mut self, _req: IncomingRequest, _fos: &Fos<Self>) {}
}

fn two_ctrl_testbed() -> (Testbed, Vec<fractos_cap::ControllerAddr>) {
    let mut tb = Testbed::paper(7);
    let ctrls = tb.controllers_per_node(false);
    (tb, ctrls)
}

#[test]
fn cross_node_invoke_delivers_imms_and_caps() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    let svc = tb.add_process("svc", cpu(0), ctrls[0], Recorder::new(9, "svc"));
    let cli = tb.add_process(
        "cli",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.memory_create_new(64, Perms::RW, |_s, _addr, mem, fos| {
                let mem = mem.unwrap();
                fos.kv_get("svc", move |_s, res, fos| {
                    let base = res.cid();
                    // Refine with an immediate and the memory capability.
                    fos.request_derive(
                        base,
                        vec![b"hello".to_vec().into()],
                        vec![mem],
                        |s: &mut Script, res, fos| {
                            let derived = res.cid();
                            s.cids.push(derived);
                            fos.request_invoke(derived, |s: &mut Script, res, _| {
                                s.results.push(res);
                            });
                        },
                    );
                });
            });
        }),
    );
    tb.start_process(svc);
    tb.run();
    tb.start_process(cli);
    tb.run();

    tb.with_service::<Script, _>(cli, |s| {
        assert_eq!(s.results, vec![SyscallResult::Ok]);
    });
    tb.with_service::<Recorder, _>(svc, |r| {
        assert_eq!(r.received.len(), 1);
        let req = &r.received[0];
        assert_eq!(req.tag, 9);
        assert_eq!(req.imms, vec![b"hello".to_vec()]);
        assert_eq!(req.caps.len(), 1);
    });
}

/// `invoke_with` and `reply_via` are the two halves of one call: the callee
/// sees the caller's capabilities followed by the minted continuations in
/// the order given, and answering through one of them reaches the caller
/// with that continuation's preset arguments first.
#[test]
fn invoke_with_appends_continuations_in_order_and_reply_via_answers() {
    struct AnswerLast;
    impl Service for AnswerLast {
        fn on_start(&mut self, fos: &Fos<Self>) {
            fos.request_create_new(9, vec![], vec![], |_s, res, fos| {
                fos.kv_put("svc", res.cid(), |_, res, _| assert!(res.is_ok()));
            });
        }
        fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
            assert_eq!(req.imms, vec![b"ping".to_vec()]);
            assert_eq!(req.caps.len(), 3, "memory, then both continuations");
            fos.reply_via(req.caps[2], vec![b"pong".to_vec().into()], vec![]);
        }
    }
    struct Caller(Vec<IncomingRequest>);
    impl Service for Caller {
        fn on_start(&mut self, fos: &Fos<Self>) {
            fos.memory_create_new(64, Perms::RW, |_s, _addr, mem, fos| {
                let mem = mem.unwrap();
                fos.kv_get("svc", move |_s, res, fos| {
                    fos.invoke_with(
                        res.cid(),
                        vec![b"ping".to_vec().into()],
                        vec![mem],
                        vec![
                            (21, vec![b"first".to_vec().into()]),
                            (22, vec![b"second".to_vec().into()]),
                        ],
                    );
                });
            });
        }
        fn on_request(&mut self, req: IncomingRequest, _fos: &Fos<Self>) {
            self.0.push(req);
        }
    }
    let (mut tb, ctrls) = two_ctrl_testbed();
    let svc = tb.add_process("svc", cpu(0), ctrls[0], AnswerLast);
    let cli = tb.add_process("cli", cpu(1), ctrls[1], Caller(Vec::new()));
    tb.start_process(svc);
    tb.run();
    tb.start_process(cli);
    tb.run();
    tb.with_service::<Caller, _>(cli, |c| {
        assert_eq!(c.0.len(), 1, "answered once, through one continuation");
        assert_eq!(c.0[0].tag, 22);
        assert_eq!(c.0[0].imms, vec![b"second".to_vec(), b"pong".to_vec()]);
    });
}

#[test]
fn memory_copy_moves_real_bytes_across_nodes() {
    let (mut tb, ctrls) = two_ctrl_testbed();

    // Destination process on node 0 registers a buffer and publishes it.
    let dst = tb.add_process(
        "dst",
        cpu(0),
        ctrls[0],
        Script::new(|_, fos| {
            fos.memory_create_new(32, Perms::RW, |s: &mut Script, addr, cid, fos| {
                let cid = cid.unwrap();
                s.cids.push(cid);
                // Remember the address via results hack: store in cids only.
                let _ = addr;
                fos.kv_put("dst.buf", cid, |_, res, _| assert!(res.is_ok()));
            });
        }),
    );
    tb.start_process(dst);
    tb.run();
    // Find the dst buffer address for later verification.
    let dst_addr = {
        let mem = tb.mem.borrow();
        // First allocation of this process starts at 0x1000.
        let _ = &mem;
        0x1000u64
    };

    // Source process on node 1 writes a pattern and copies it over.
    let src = tb.add_process(
        "src",
        cpu(1),
        ctrls[1],
        Script::new(move |_, fos| {
            fos.memory_create_new(32, Perms::RW, move |_s, addr, cid, fos| {
                let src_cid = cid.unwrap();
                fos.mem_write(addr, 0, &[0xAB; 32]).unwrap();
                fos.kv_get("dst.buf", move |_s, res, fos| {
                    let dst_cid = res.cid();
                    fos.memory_copy(src_cid, dst_cid, |s: &mut Script, res, _| {
                        s.results.push(res);
                    });
                });
            });
        }),
    );
    tb.start_process(src);
    tb.run();

    tb.with_service::<Script, _>(src, |s| {
        assert_eq!(s.results, vec![SyscallResult::Ok]);
    });
    // The destination process's memory now holds the pattern.
    let bytes = tb.mem.borrow().read(dst, dst_addr, 0, 32).unwrap();
    assert_eq!(bytes, vec![0xAB; 32]);
}

#[test]
fn diminish_narrows_extent_and_permissions() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    let p = tb.add_process(
        "p",
        cpu(0),
        ctrls[0],
        Script::new(|_, fos| {
            fos.memory_create_new(64, Perms::RW, |_s, _addr, cid, fos| {
                let cid = cid.unwrap();
                fos.call(
                    Syscall::MemoryDiminish {
                        cid,
                        offset: 16,
                        size: 16,
                        drop_perms: Perms::WRITE,
                    },
                    |s: &mut Script, res, fos| {
                        let view = res.cid();
                        s.cids.push(view);
                        // Writing through the read-only view must fail: we
                        // test via memory_copy into it.
                        fos.memory_create_new(16, Perms::RW, move |_s, addr, c2, fos| {
                            let c2 = c2.unwrap();
                            fos.mem_write(addr, 0, &[1; 16]).unwrap();
                            fos.memory_copy(c2, view, |s: &mut Script, res, _| {
                                s.results.push(res);
                            });
                        });
                    },
                );
            });
        }),
    );
    tb.start_process(p);
    tb.run();
    tb.with_service::<Script, _>(p, |s| {
        // The copy is now rejected by the static pre-dispatch verifier
        // (missing WRITE on the destination snapshot) before any byte moves.
        assert_eq!(
            s.results,
            vec![SyscallResult::Err(FosError::Verify(VerifyError {
                kind: VerifyErrorKind::MissingPerm(Perms::WRITE),
                path: PlanPath::default(),
            }))],
            "copy into a read-only view must be rejected"
        );
    });
}

#[test]
fn revocation_is_immediate_for_data_plane() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    // Owner publishes a buffer; client gets it, owner revokes, client copy
    // must fail.
    let owner = tb.add_process(
        "owner",
        cpu(0),
        ctrls[0],
        Script::new(|_, fos| {
            fos.memory_create_new(16, Perms::RW, |s: &mut Script, _addr, cid, fos| {
                let cid = cid.unwrap();
                s.cids.push(cid);
                fos.kv_put("buf", cid, |_, _, _| {});
            });
        }),
    );
    tb.start_process(owner);
    tb.run();

    let client = tb.add_process(
        "client",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            // Pre-create the destination buffer so capability indices stay
            // stable across the later cleanup broadcast.
            fos.memory_create_new(16, Perms::RW, |s: &mut Script, _a, c, fos| {
                s.cids.push(c.unwrap());
                fos.kv_get("buf", |s: &mut Script, res, _| {
                    s.cids.push(res.cid());
                });
            });
        }),
    );
    tb.start_process(client);
    tb.run();

    // Owner revokes its capability (the root object).
    let owner_cid = tb.with_service::<Script, _>(owner, |s| s.cids[0]);
    let fos = tb.fos_of::<Script>(owner);
    fos.call(Syscall::CapRevoke { cid: owner_cid }, |s, res, _| {
        s.results.push(res)
    });
    tb.poke(owner);
    // Run just past the revocation but *before* the 100 µs cleanup
    // broadcast lands at the peer: revocation must already be effective.
    let deadline = tb.now() + fractos_sim::SimDuration::from_micros(20);
    tb.run_until(deadline);
    tb.with_service::<Script, _>(owner, |s| {
        assert!(matches!(s.results[0], SyscallResult::Value(_)));
    });

    // Client still holds its (now dangling) capability and tries to copy
    // out of the revoked buffer: the window check at the owner rejects it.
    let (dst_cid, src_cid) = tb.with_service::<Script, _>(client, |s| (s.cids[0], s.cids[1]));
    let fos = tb.fos_of::<Script>(client);
    fos.memory_copy(src_cid, dst_cid, |s: &mut Script, res, _| {
        s.results.push(res);
    });
    tb.poke(client);
    tb.run();
    tb.with_service::<Script, _>(client, |s| {
        assert_eq!(
            s.results[0],
            SyscallResult::Err(FosError::WindowInvalid),
            "copy through revoked capability must fail immediately"
        );
    });

    // After the cleanup broadcast, the dangling capability is gone from the
    // client's space entirely.
    let fos = tb.fos_of::<Script>(client);
    fos.memory_copy(src_cid, dst_cid, |s: &mut Script, res, _| {
        s.results.push(res);
    });
    tb.poke(client);
    tb.run();
    tb.with_service::<Script, _>(client, |s| {
        assert!(
            matches!(s.results[1], SyscallResult::Err(FosError::Cap(_))),
            "after cleanup the cid is dangling, got {:?}",
            s.results[1]
        );
    });
}

#[test]
fn revtree_node_revocation_spares_the_parent() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    let p = tb.add_process(
        "p",
        cpu(0),
        ctrls[0],
        Script::new(|_, fos| {
            fos.memory_create_new(16, Perms::RW, |_s, _a, cid, fos| {
                let root = cid.unwrap();
                fos.call(
                    Syscall::CapCreateRevtree { cid: root },
                    move |s: &mut Script, res, fos| {
                        let node = res.cid();
                        s.cids.push(root);
                        s.cids.push(node);
                        fos.call(
                            Syscall::CapRevoke { cid: node },
                            |s: &mut Script, res, _| {
                                s.results.push(res);
                            },
                        );
                    },
                );
            });
        }),
    );
    tb.start_process(p);
    tb.run();

    // Parent window still valid: a self-copy through the root succeeds.
    let root = tb.with_service::<Script, _>(p, |s| {
        assert!(matches!(s.results[0], SyscallResult::Value(1)));
        s.cids[0]
    });
    let fos = tb.fos_of::<Script>(p);
    fos.memory_create_new(16, Perms::RW, move |_s, _a, c, fos| {
        let c = c.unwrap();
        fos.memory_copy(root, c, |s: &mut Script, res, _| s.results.push(res));
    });
    tb.poke(p);
    tb.run();
    tb.with_service::<Script, _>(p, |s| {
        assert_eq!(s.results[1], SyscallResult::Ok);
    });
}

#[test]
fn monitor_delegate_fires_when_clients_revoke() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    // Service creates a request, arms monitor_delegate, publishes it.
    let svc = tb.add_process(
        "svc",
        cpu(0),
        ctrls[0],
        Script::new(|_, fos| {
            fos.request_create_new(1, vec![], vec![], |_s, res, fos| {
                let cid = res.cid();
                fos.call(
                    Syscall::MonitorDelegate {
                        cid,
                        callback_id: 42,
                    },
                    move |_s, res, fos| {
                        assert!(res.is_ok());
                        fos.kv_put("svc.req", cid, |_, _, _| {});
                    },
                );
            });
        }),
    );
    tb.start_process(svc);
    tb.run();

    // Client obtains the request (delegation mints a monitored child).
    let cli = tb.add_process(
        "cli",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.kv_get("svc.req", |s: &mut Script, res, _| {
                s.cids.push(res.cid());
            });
        }),
    );
    tb.start_process(cli);
    tb.run();

    // Client revokes its own (child) capability → service gets the callback.
    let ccid = tb.with_service::<Script, _>(cli, |s| s.cids[0]);
    let fos = tb.fos_of::<Script>(cli);
    fos.call(Syscall::CapRevoke { cid: ccid }, |_, _, _| {});
    tb.poke(cli);
    tb.run();

    // The Script service records monitors? Script has no on_monitor — use a
    // fresh check: monitor events land in on_monitor of Script's default
    // impl (ignored). Instead check from the service side via a Recorder.
    // This test asserts the protocol ran without errors; the Recorder-based
    // variant below checks delivery.
}

#[test]
fn monitor_delegate_callback_is_delivered() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    let svc = tb.add_process("svc", cpu(0), ctrls[0], Recorder::new(1, "svc.req"));
    tb.start_process(svc);
    tb.run();

    // Arm the monitor on the service's published request.
    let fos = tb.fos_of::<Recorder>(svc);
    fos.call(
        Syscall::KvGet {
            key: "svc.req".into(),
        },
        |_s, res, fos| {
            // The service re-fetches its own cap; arm monitoring on the
            // original cid 0 instead (first created capability).
            let _ = res;
            fos.call(
                Syscall::MonitorDelegate {
                    cid: Cid(0),
                    callback_id: 7,
                },
                |_, res, _| assert!(res.is_ok()),
            );
        },
    );
    tb.poke(svc);
    tb.run();

    let cli = tb.add_process(
        "cli",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.kv_get("svc.req", |s: &mut Script, res, _| {
                s.cids.push(res.cid());
            });
        }),
    );
    tb.start_process(cli);
    tb.run();

    let ccid = tb.with_service::<Script, _>(cli, |s| s.cids[0]);
    let fos = tb.fos_of::<Script>(cli);
    fos.call(Syscall::CapRevoke { cid: ccid }, |_, _, _| {});
    tb.poke(cli);
    tb.run();

    tb.with_service::<Recorder, _>(svc, |r| {
        assert_eq!(
            r.monitor_cbs,
            vec![MonitorCb::DelegateDrained { callback_id: 7 }]
        );
    });
}

#[test]
fn process_failure_translates_into_monitor_receive() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    // Provider publishes a request.
    let provider = tb.add_process("prov", cpu(0), ctrls[0], Recorder::new(1, "prov.req"));
    tb.start_process(provider);
    tb.run();

    // Watcher obtains it and arms monitor_receive: it wants to know when
    // the provider dies (failure → revocation → callback, §3.6).
    let watcher = tb.add_process("watch", cpu(1), ctrls[1], Recorder::new(2, "watch.req"));
    tb.start_process(watcher);
    tb.run();
    let fos = tb.fos_of::<Recorder>(watcher);
    fos.kv_get("prov.req", |_s, res, fos| {
        let cid = res.cid();
        fos.call(
            Syscall::MonitorReceive {
                cid,
                callback_id: 99,
            },
            |_, res, _| assert!(res.is_ok()),
        );
    });
    tb.poke(watcher);
    tb.run();

    // Kill the provider.
    tb.kill_process(provider);
    tb.run();

    tb.with_service::<Recorder, _>(watcher, |r| {
        assert_eq!(r.monitor_cbs, vec![MonitorCb::Receive { callback_id: 99 }]);
    });
}

#[test]
fn invoking_a_dead_process_request_fails() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    let svc = tb.add_process("svc", cpu(0), ctrls[0], Recorder::new(1, "svc.req"));
    tb.start_process(svc);
    tb.run();

    let cli = tb.add_process(
        "cli",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.kv_get("svc.req", |s: &mut Script, res, _| s.cids.push(res.cid()));
        }),
    );
    tb.start_process(cli);
    tb.run();

    tb.kill_process(svc);
    tb.run();

    let cid = tb.with_service::<Script, _>(cli, |s| s.cids[0]);
    let fos = tb.fos_of::<Script>(cli);
    fos.request_invoke(cid, |s, res, _| s.results.push(res));
    tb.poke(cli);
    tb.run();
    tb.with_service::<Script, _>(cli, |s| {
        assert!(
            matches!(
                s.results[0],
                SyscallResult::Err(FosError::ProcessFailed) | SyscallResult::Err(FosError::Cap(_))
            ),
            "got {:?}",
            s.results[0]
        );
    });
}

#[test]
fn controller_reboot_stales_old_capabilities() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    let svc = tb.add_process("svc", cpu(0), ctrls[0], Recorder::new(1, "svc.req"));
    tb.start_process(svc);
    tb.run();

    let cli = tb.add_process(
        "cli",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.kv_get("svc.req", |s: &mut Script, res, _| s.cids.push(res.cid()));
        }),
    );
    tb.start_process(cli);
    tb.run();

    // Reboot the service's controller: epoch bumps, objects vanish.
    tb.reboot_controller(ctrls[0]);
    tb.run();

    let cid = tb.with_service::<Script, _>(cli, |s| s.cids[0]);
    let fos = tb.fos_of::<Script>(cli);
    fos.request_invoke(cid, |s, res, _| s.results.push(res));
    tb.poke(cli);
    tb.run();
    tb.with_service::<Script, _>(cli, |s| {
        assert_eq!(
            s.results[0],
            SyscallResult::Err(FosError::Cap(CapError::StaleEpoch(fractos_cap::ObjectId(
                0
            )))),
            "stale-epoch detection must reject pre-reboot capabilities"
        );
    });
}

#[test]
fn controller_failure_fails_pending_ops_at_peers() {
    let (mut tb, ctrls) = two_ctrl_testbed();
    let svc = tb.add_process("svc", cpu(0), ctrls[0], Recorder::new(1, "svc.req"));
    tb.start_process(svc);
    tb.run();

    let cli = tb.add_process(
        "cli",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.kv_get("svc.req", |s: &mut Script, res, _| s.cids.push(res.cid()));
        }),
    );
    tb.start_process(cli);
    tb.run();

    // Kill controller 0 (which owns the request & hosts the registry), then
    // try to invoke: the client's controller must fail the op once the
    // watchdog tells it the peer is gone.
    tb.kill_controller(ctrls[0]);
    tb.run();

    let cid = tb.with_service::<Script, _>(cli, |s| s.cids[0]);
    let fos = tb.fos_of::<Script>(cli);
    fos.request_invoke(cid, |s, res, _| s.results.push(res));
    tb.poke(cli);
    tb.run();
    tb.with_service::<Script, _>(cli, |s| {
        assert!(
            matches!(
                s.results.first(),
                Some(SyscallResult::Err(FosError::ControllerUnreachable))
                    | Some(SyscallResult::Err(FosError::ProcessFailed))
                    | Some(SyscallResult::Err(FosError::Cap(_)))
            ),
            "got {:?}",
            s.results
        );
    });
}

#[test]
fn null_syscall_latency_matches_table3() {
    // Controller on the same CPU: 3.00 µs (Table 3).
    let mut tb = Testbed::paper(3);
    let ctrl = tb.add_controller(CtrlPlacement::HostCpu(NodeId(0)));
    let p = tb.add_process(
        "p",
        cpu(0),
        ctrl,
        Script::new(|_, fos| {
            fos.call(Syscall::Null, |s: &mut Script, res, _| s.results.push(res));
        }),
    );
    tb.start_process(p);
    let t0 = tb.now();
    tb.run();
    let us = tb.now().duration_since(t0).as_micros_f64();
    assert!((us - 3.0).abs() < 0.2, "null op took {us:.3} µs, want ≈3.0");

    // Controller on the SmartNIC: 4.50 µs.
    let mut tb = Testbed::paper(3);
    let ctrl = tb.add_controller(CtrlPlacement::SmartNic(NodeId(0)));
    let p = tb.add_process(
        "p",
        cpu(0),
        ctrl,
        Script::new(|_, fos| {
            fos.call(Syscall::Null, |s: &mut Script, res, _| s.results.push(res));
        }),
    );
    tb.start_process(p);
    let t0 = tb.now();
    tb.run();
    let us = tb.now().duration_since(t0).as_micros_f64();
    assert!(
        (us - 4.5).abs() < 0.3,
        "sNIC null op took {us:.3} µs, want ≈4.5"
    );
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = |seed| {
        let (mut tb, ctrls) = {
            let mut tb = Testbed::new(
                fractos_net::Topology::paper_testbed(),
                fractos_net::NetParams::paper_with_jitter(0.03),
                seed,
            );
            let ctrls = tb.controllers_per_node(false);
            (tb, ctrls)
        };
        let svc = tb.add_process("svc", cpu(0), ctrls[0], Recorder::new(9, "svc"));
        let cli = tb.add_process(
            "cli",
            cpu(1),
            ctrls[1],
            Script::new(|_, fos| {
                fos.kv_get("svc", |_s, res, fos| {
                    fos.request_invoke(res.cid(), |_, _, _| {});
                });
            }),
        );
        tb.start_process(svc);
        tb.run();
        tb.start_process(cli);
        tb.run();
        (tb.now(), tb.sim.steps(), tb.traffic().network_msgs())
    };
    assert_eq!(run(11), run(11));
    assert_ne!(run(11).0, run(12).0, "different seeds should jitter");
}

#[test]
fn congestion_window_serializes_syscalls() {
    let mut tb = Testbed::paper(5);
    let ctrl = tb.add_controller(CtrlPlacement::HostCpu(NodeId(0)));
    let p = tb.add_process(
        "p",
        cpu(0),
        ctrl,
        Script::new(|_, fos| {
            fos.set_window(1);
            for _ in 0..10 {
                fos.call(Syscall::Null, |s: &mut Script, res, _| s.results.push(res));
            }
        }),
    );
    tb.start_process(p);
    tb.run();
    tb.with_service::<Script, _>(p, |s| assert_eq!(s.results.len(), 10));
    // With window 1, ten null ops take ≈ 10 × 3 µs.
    let us = tb.now().as_micros_f64();
    assert!(us > 25.0, "window=1 must serialize: {us:.1} µs");
}

#[test]
fn call_all_joins_concurrent_syscalls_in_order() {
    let mut tb = Testbed::paper(6);
    let ctrl = tb.add_controller(CtrlPlacement::HostCpu(NodeId(0)));
    let p = tb.add_process(
        "p",
        cpu(0),
        ctrl,
        Script::new(|_, fos| {
            // Three concurrent creates: results must come back in call
            // order regardless of completion interleaving.
            let a1 = fos.mem_alloc(16);
            let a2 = fos.mem_alloc(32);
            fos.call_all(
                vec![
                    Syscall::MemoryCreate {
                        addr: a1,
                        size: 16,
                        perms: Perms::RW,
                    },
                    Syscall::Null,
                    Syscall::MemoryCreate {
                        addr: a2,
                        size: 32,
                        perms: Perms::READ,
                    },
                ],
                |s: &mut Script, results, _| {
                    assert_eq!(results.len(), 3);
                    assert!(matches!(results[0], SyscallResult::NewCid(_)));
                    assert_eq!(results[1], SyscallResult::Ok);
                    assert!(matches!(results[2], SyscallResult::NewCid(_)));
                    s.results.extend(results);
                },
            );
        }),
    );
    tb.start_process(p);
    tb.run();
    tb.with_service::<Script, _>(p, |s| assert_eq!(s.results.len(), 3));
}

#[test]
fn call_all_on_empty_input_still_completes() {
    let mut tb = Testbed::paper(6);
    let ctrl = tb.add_controller(CtrlPlacement::HostCpu(NodeId(0)));
    let p = tb.add_process(
        "p",
        cpu(0),
        ctrl,
        Script::new(|_, fos| {
            fos.call_all(vec![], |s: &mut Script, results, _| {
                assert!(results.is_empty());
                s.results.push(SyscallResult::Ok);
            });
        }),
    );
    tb.start_process(p);
    tb.run();
    tb.with_service::<Script, _>(p, |s| assert_eq!(s.results.len(), 1));
}

#[test]
fn remote_diminish_creates_view_at_the_owner() {
    // The diminish of a capability owned by another Controller executes at
    // the owner and the view comes back usable.
    let (mut tb, ctrls) = two_ctrl_testbed();
    let owner = tb.add_process(
        "owner",
        cpu(0),
        ctrls[0],
        Script::new(|_, fos| {
            fos.memory_create_new(64, Perms::RW, |_s, addr, cid, fos| {
                let cid = cid.unwrap();
                fos.mem_write(addr, 16, &[7; 16]).unwrap();
                fos.kv_put("big", cid, |_, res, _| assert!(res.is_ok()));
            });
        }),
    );
    tb.start_process(owner);
    tb.run();

    let client = tb.add_process(
        "client",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.kv_get("big", |_s, res, fos| {
                let big = res.cid();
                // Remote-owned capability: diminish to the middle 16 bytes.
                fos.call(
                    Syscall::MemoryDiminish {
                        cid: big,
                        offset: 16,
                        size: 16,
                        drop_perms: Perms::WRITE,
                    },
                    |_s, res, fos| {
                        let view = res.cid();
                        // Copy the view into a local buffer and verify.
                        fos.memory_create_new(
                            16,
                            Perms::RW,
                            move |s: &mut Script, addr, c, fos| {
                                let local = c.unwrap();
                                let _ = addr;
                                s.cids.push(local);
                                fos.memory_copy(view, local, |s: &mut Script, res, _| {
                                    s.results.push(res);
                                });
                            },
                        );
                    },
                );
            });
        }),
    );
    tb.start_process(client);
    tb.run();
    tb.with_service::<Script, _>(client, |s| {
        assert_eq!(s.results, vec![SyscallResult::Ok]);
    });
    // The copied bytes are the pattern written at offset 16.
    let bytes = tb.mem.borrow().read(client, 0x1000, 0, 16).unwrap();
    assert_eq!(bytes, vec![7; 16]);
}

#[test]
fn node_failure_implicitly_revokes_through_use() {
    // When a whole node (Controller included) fails, monitor state at the
    // dead owner is gone; §3.6's mechanism is *implicit* revocation —
    // capabilities pointing at the dead Controller fail fast on use once
    // the watchdog has spread the news.
    let (mut tb, ctrls) = two_ctrl_testbed();
    let svc = tb.add_process("svc", cpu(0), ctrls[0], Recorder::new(1, "svc.req"));
    tb.start_process(svc);
    tb.run();

    let holder = tb.add_process(
        "holder",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.kv_get("svc.req", |s: &mut Script, res, _| s.cids.push(res.cid()));
        }),
    );
    tb.start_process(holder);
    tb.run();

    // Node 0 dies: its Controller and the service go down together.
    tb.kill_node(NodeId(0));
    tb.run();

    let cid = tb.with_service::<Script, _>(holder, |s| s.cids[0]);
    let fos = tb.fos_of::<Script>(holder);
    fos.request_invoke(cid, |s, res, _| s.results.push(res));
    tb.poke(holder);
    tb.run();
    tb.with_service::<Script, _>(holder, |s| {
        assert!(
            matches!(
                s.results[0],
                SyscallResult::Err(FosError::ControllerUnreachable)
                    | SyscallResult::Err(FosError::ProcessFailed)
                    | SyscallResult::Err(FosError::Cap(_))
            ),
            "use after node failure must fail fast, got {:?}",
            s.results[0]
        );
    });
}

#[test]
fn capspace_quota_is_enforced() {
    let mut tb = Testbed::paper(6);
    let ctrl = tb.add_controller(CtrlPlacement::HostCpu(NodeId(0)));
    let p = tb.add_process(
        "p",
        cpu(0),
        ctrl,
        Script::new(|_, fos| {
            for _ in 0..4 {
                let addr = fos.mem_alloc(16);
                fos.memory_create(addr, 16, Perms::RW, |s: &mut Script, res, _| {
                    s.results.push(res);
                });
            }
        }),
    );
    tb.set_capspace_quota(p, 2);
    tb.start_process(p);
    tb.run();
    tb.with_service::<Script, _>(p, |s| {
        let ok = s.results.iter().filter(|r| r.is_ok()).count();
        let exhausted = s
            .results
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    SyscallResult::Err(FosError::Cap(CapError::SpaceExhausted))
                )
            })
            .count();
        assert_eq!(ok, 2, "exactly quota-many creations succeed");
        assert_eq!(exhausted, 2, "the rest hit the quota");
    });
}

#[test]
fn watchdog_detects_silent_controller_failure() {
    // No harness notifications: the watchdog's pings miss, it declares the
    // Controller dead, and peers run failure translation on their own.
    let (mut tb, ctrls) = two_ctrl_testbed();
    let svc = tb.add_process("svc", cpu(0), ctrls[0], Recorder::new(1, "svc.req"));
    tb.start_process(svc);
    tb.run();

    let holder = tb.add_process(
        "holder",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.kv_get("svc.req", |s: &mut Script, res, _| s.cids.push(res.cid()));
        }),
    );
    tb.start_process(holder);
    tb.run();

    let wd = tb.start_watchdog(NodeId(2));
    // Kill controller 0 without telling anyone.
    tb.kill_controller_silently(ctrls[0]);
    // Run long enough for missed pings to accumulate (3 × 200 µs + slack).
    let deadline = tb.now() + fractos_sim::SimDuration::from_millis(3);
    tb.run_until(deadline);

    tb.sim
        .with_actor::<fractos_core::WatchdogActor, _>(wd, |w| {
            assert_eq!(
                w.detected,
                vec![ctrls[0]],
                "watchdog must detect the failure"
            );
        });

    // Peers learned on their own: uses now fail fast.
    let cid = tb.with_service::<Script, _>(holder, |s| s.cids[0]);
    let fos = tb.fos_of::<Script>(holder);
    fos.request_invoke(cid, |s, res, _| s.results.push(res));
    tb.poke(holder);
    let deadline = tb.now() + fractos_sim::SimDuration::from_millis(1);
    tb.run_until(deadline);
    tb.with_service::<Script, _>(holder, |s| {
        assert!(
            matches!(s.results.first(), Some(SyscallResult::Err(_))),
            "use after detected failure must error, got {:?}",
            s.results
        );
    });
}

#[test]
fn revocation_racing_with_inflight_copy_is_safe() {
    // A revocation that lands while a large copy is in flight must leave
    // the system consistent: the copy either completed (data landed before
    // the revoke took effect at the owner) or failed with WindowInvalid —
    // and a *subsequent* copy always fails.
    let (mut tb, ctrls) = two_ctrl_testbed();
    let owner = tb.add_process(
        "owner",
        cpu(0),
        ctrls[0],
        Script::new(|_, fos| {
            fos.memory_create_new(256 * 1024, Perms::RW, |s: &mut Script, _a, cid, fos| {
                let cid = cid.unwrap();
                s.cids.push(cid);
                fos.kv_put("buf", cid, |_, _, _| {});
            });
        }),
    );
    tb.start_process(owner);
    tb.run();

    let client = tb.add_process(
        "client",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.memory_create_new(256 * 1024, Perms::RW, |s: &mut Script, _a, c, fos| {
                s.cids.push(c.unwrap());
                fos.kv_get("buf", |s: &mut Script, res, _| s.cids.push(res.cid()));
            });
        }),
    );
    tb.start_process(client);
    tb.run();

    // Fire the copy and the revoke "simultaneously".
    let (dst, src) = tb.with_service::<Script, _>(client, |s| (s.cids[0], s.cids[1]));
    let cfos = tb.fos_of::<Script>(client);
    cfos.memory_copy(src, dst, |s: &mut Script, res, _| s.results.push(res));
    tb.poke(client);

    let owner_cid = tb.with_service::<Script, _>(owner, |s| s.cids[0]);
    let ofos = tb.fos_of::<Script>(owner);
    ofos.call(Syscall::CapRevoke { cid: owner_cid }, |s, res, _| {
        assert!(res.is_ok());
        s.results.push(res);
    });
    tb.poke(owner);
    tb.run();

    let first = tb.with_service::<Script, _>(client, |s| s.results[0].clone());
    assert!(
        matches!(
            first,
            SyscallResult::Ok | SyscallResult::Err(FosError::WindowInvalid)
        ),
        "racing copy must complete or fail cleanly, got {first:?}"
    );

    // A fresh copy after the revoke settles must fail.
    let cfos = tb.fos_of::<Script>(client);
    cfos.memory_copy(src, dst, |s: &mut Script, res, _| s.results.push(res));
    tb.poke(client);
    tb.run();
    tb.with_service::<Script, _>(client, |s| {
        assert!(
            matches!(s.results[1], SyscallResult::Err(_)),
            "post-revocation copy must fail, got {:?}",
            s.results[1]
        );
    });
}

#[test]
fn revoking_a_base_request_kills_all_derived_requests() {
    // Refinements join the base's revocation tree (§3.4/§3.5): revoking
    // the provider's base endpoint invalidates every derived Request a
    // client pre-built from it.
    let (mut tb, ctrls) = two_ctrl_testbed();
    let svc = tb.add_process("svc", cpu(0), ctrls[0], Recorder::new(1, "svc.req"));
    tb.start_process(svc);
    tb.run();

    let cli = tb.add_process(
        "cli",
        cpu(1),
        ctrls[1],
        Script::new(|_, fos| {
            fos.kv_get("svc.req", |_s, res, fos| {
                let base = res.cid();
                fos.request_derive(
                    base,
                    vec![vec![1].into()],
                    vec![],
                    |s: &mut Script, res, fos| {
                        let d1 = res.cid();
                        s.cids.push(d1);
                        // A second-level refinement too.
                        fos.request_derive(
                            d1,
                            vec![vec![2].into()],
                            vec![],
                            |s: &mut Script, res, _| {
                                s.cids.push(res.cid());
                            },
                        );
                    },
                );
            });
        }),
    );
    tb.start_process(cli);
    tb.run();

    // The provider revokes its base endpoint (cid 0, its first object).
    let fos = tb.fos_of::<Recorder>(svc);
    fos.call(Syscall::CapRevoke { cid: Cid(0) }, |_, res, _| {
        assert!(res.is_ok())
    });
    tb.poke(svc);
    // Stop before the cleanup broadcast scrubs the client's cids so the
    // invoke exercises owner-side rejection.
    let deadline = tb.now() + fractos_sim::SimDuration::from_micros(20);
    tb.run_until(deadline);

    let (d1, d2) = tb.with_service::<Script, _>(cli, |s| (s.cids[0], s.cids[1]));
    let fos = tb.fos_of::<Script>(cli);
    fos.request_invoke(d1, |s, res, _| s.results.push(res));
    fos.request_invoke(d2, |s, res, _| s.results.push(res));
    tb.poke(cli);
    tb.run();
    tb.with_service::<Script, _>(cli, |s| {
        for r in &s.results {
            assert!(
                matches!(r, SyscallResult::Err(FosError::Cap(CapError::Revoked(_)))),
                "derived request must be revoked with the base, got {r:?}"
            );
        }
        assert_eq!(s.results.len(), 2);
    });
}
