//! End-to-end tests of the GPU and block-device adaptors on a simulated
//! cluster: real bytes flow client → device → client through the FractOS
//! Request machinery.

use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_devices::proto::{imm, imm_at, DevError};
use fractos_devices::{BlockAdaptor, GpuAdaptor, GpuParams, NvmeParams, XorKernel};
use fractos_net::FaultPlan;

/// Client tag for reply continuations.
const TAG_REPLY: u64 = 0x9000;

/// A GPU client that drives the full bootstrap: init → alloc in+out → load
/// → upload input → invoke → download output.
struct GpuClient {
    phase: u32,
    alloc_req: Option<Cid>,
    load_req: Option<Cid>,
    in_mem: Option<Cid>,
    out_mem: Option<Cid>,
    invoke_req: Option<Cid>,
    local_in: Option<(u64, Cid)>,
    local_out: Option<(u64, Cid)>,
    pub done: bool,
    pub result: Payload,
}

impl GpuClient {
    fn new() -> Self {
        GpuClient {
            phase: 0,
            alloc_req: None,
            load_req: None,
            in_mem: None,
            out_mem: None,
            invoke_req: None,
            local_in: None,
            local_out: None,
            done: false,
            result: Payload::empty(),
        }
    }

    /// Makes a reply continuation and runs `f` with its cid.
    fn with_cont(
        fos: &Fos<Self>,
        phase: u64,
        f: impl FnOnce(&mut Self, Cid, &Fos<Self>) + Send + 'static,
    ) {
        fos.request_create_new(TAG_REPLY, vec![imm(phase)], vec![], move |s, res, fos| {
            f(s, res.cid(), fos);
        });
    }
}

const N: u64 = 64;

impl Service for GpuClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        // Phase 0: fetch gpu.init and invoke it with a continuation.
        fos.kv_get("gpu.init", |_s, res, fos| {
            let init = res.cid();
            GpuClient::with_cont(fos, 0, move |_s, cont, fos| {
                fos.request_derive(init, vec![], vec![cont], |_s, res, fos| {
                    fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                });
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        assert_eq!(req.tag, TAG_REPLY);
        let phase = imm_at(&req.imms, 0).unwrap();
        match phase {
            0 => {
                // Reply to init: [alloc_req, load_req].
                self.alloc_req = Some(req.caps[0]);
                self.load_req = Some(req.caps[1]);
                let alloc = req.caps[0];
                // Phase 1: allocate the input buffer.
                GpuClient::with_cont(fos, 1, move |_s, cont, fos| {
                    fos.request_derive(alloc, vec![imm(N)], vec![cont], |_s, res, fos| {
                        fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                    });
                });
            }
            1 => {
                self.in_mem = Some(req.caps[0]);
                let alloc = self.alloc_req.unwrap();
                GpuClient::with_cont(fos, 2, move |_s, cont, fos| {
                    fos.request_derive(alloc, vec![imm(N)], vec![cont], |_s, res, fos| {
                        fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                    });
                });
            }
            2 => {
                self.out_mem = Some(req.caps[0]);
                let load = self.load_req.unwrap();
                // Phase 3: load kernel 7 (the XOR kernel).
                GpuClient::with_cont(fos, 3, move |_s, cont, fos| {
                    fos.request_derive(load, vec![imm(7)], vec![cont], |_s, res, fos| {
                        fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                    });
                });
            }
            3 => {
                self.invoke_req = Some(req.caps[0]);
                // Phase 4: upload input data (pattern 0..N) into GPU memory.
                let addr = fos.mem_alloc(N);
                let data: Vec<u8> = (0..N as u8).collect();
                fos.mem_write(addr, 0, &data).unwrap();
                let in_mem = self.in_mem.unwrap();
                fos.memory_create(addr, N, Perms::RW, move |s: &mut Self, res, fos| {
                    let local = res.cid();
                    s.local_in = Some((addr, local));
                    fos.memory_copy(local, in_mem, move |s: &mut Self, res, fos| {
                        assert_eq!(res, SyscallResult::Ok);
                        // Phase 5: invoke the kernel with success/error conts.
                        let invoke = s.invoke_req.unwrap();
                        let in_mem = s.in_mem.unwrap();
                        let out_mem = s.out_mem.unwrap();
                        GpuClient::with_cont(fos, 5, move |_s, success, fos| {
                            GpuClient::with_cont(fos, 99, move |_s, error, fos| {
                                fos.request_derive(
                                    invoke,
                                    vec![imm(1)], // one work item
                                    vec![in_mem, out_mem, success, error],
                                    |_s, res, fos| {
                                        fos.request_invoke(res.cid(), |_, res, _| {
                                            assert!(res.is_ok())
                                        });
                                    },
                                );
                            });
                        });
                    });
                });
            }
            5 => {
                // Kernel done; download the output.
                let out_mem = self.out_mem.unwrap();
                let addr = fos.mem_alloc(N);
                fos.memory_create(addr, N, Perms::RW, move |s: &mut Self, res, fos| {
                    let local = res.cid();
                    s.local_out = Some((addr, local));
                    fos.memory_copy(out_mem, local, move |s: &mut Self, res, fos| {
                        assert_eq!(res, SyscallResult::Ok);
                        let (addr, _) = s.local_out.unwrap();
                        s.result = fos.mem_read(addr, 0, N).unwrap();
                        s.done = true;
                    });
                });
            }
            99 => panic!("GPU kernel invocation signalled an error"),
            other => panic!("unexpected phase {other}"),
        }
        let _ = self.phase;
    }
}

#[test]
fn gpu_pipeline_computes_real_bytes() {
    let mut tb = Testbed::paper(21);
    let ctrls = tb.controllers_per_node(false);
    let gpu_adaptor =
        GpuAdaptor::new(GpuParams::default(), gpu(1), "gpu").with_kernel(7, XorKernel(0x5A));
    let gpu_proc = tb.add_process("gpu-adaptor", cpu(1), ctrls[1], gpu_adaptor);
    tb.start_process(gpu_proc);
    tb.run();

    let client = tb.add_process("client", cpu(2), ctrls[2], GpuClient::new());
    tb.start_process(client);
    tb.run();

    tb.with_service::<GpuClient, _>(client, |c| {
        assert!(c.done, "pipeline did not finish");
        let want: Vec<u8> = (0..N as u8).map(|b| b ^ 0x5A).collect();
        assert_eq!(c.result, want, "GPU output must be the XOR of the input");
    });
    tb.with_service::<GpuAdaptor, _>(gpu_proc, |a| {
        assert_eq!(a.invocations, 1);
        assert_eq!(a.device().kernels_executed(), 1);
    });
}

/// A block client: create volume, write a pattern, read it back.
struct BlkClient {
    read_req: Option<Cid>,
    write_req: Option<Cid>,
    buf: Option<(u64, Cid)>,
    pub done: bool,
    pub read_back: Payload,
}

impl BlkClient {
    fn new() -> Self {
        BlkClient {
            read_req: None,
            write_req: None,
            buf: None,
            done: false,
            read_back: Payload::empty(),
        }
    }
}

const IO: u64 = 4096;

impl Service for BlkClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.kv_get("blk.create_vol", |_s, res, fos| {
            let create = res.cid();
            fos.request_create_new(TAG_REPLY, vec![imm(0)], vec![], move |_s, res, fos| {
                let cont = res.cid();
                fos.request_derive(create, vec![imm(1 << 20)], vec![cont], |_s, res, fos| {
                    fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                });
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let phase = imm_at(&req.imms, 0).unwrap();
        match phase {
            0 => {
                // [vol id imm], caps: [read_req, write_req].
                self.read_req = Some(req.caps[0]);
                self.write_req = Some(req.caps[1]);
                // Write phase: upload a pattern.
                let addr = fos.mem_alloc(IO);
                let data: Vec<u8> = (0..IO).map(|i| (i % 251) as u8).collect();
                fos.mem_write(addr, 0, &data).unwrap();
                let wreq = self.write_req.unwrap();
                fos.memory_create(addr, IO, Perms::RW, move |s: &mut Self, res, fos| {
                    let src = res.cid();
                    s.buf = Some((addr, src));
                    fos.request_create_new(TAG_REPLY, vec![imm(1)], vec![], move |_s, res, fos| {
                        let success = res.cid();
                        fos.request_create_new(
                            TAG_REPLY,
                            vec![imm(98)],
                            vec![],
                            move |_s, res, fos| {
                                let error = res.cid();
                                fos.request_derive(
                                    wreq,
                                    vec![imm(8192), imm(IO)], // offset, size
                                    vec![src, success, error],
                                    |_s, res, fos| {
                                        fos.request_invoke(res.cid(), |_, res, _| {
                                            assert!(res.is_ok())
                                        });
                                    },
                                );
                            },
                        );
                    });
                });
            }
            1 => {
                // Write complete; read it back into a fresh buffer.
                let rreq = self.read_req.unwrap();
                let addr = fos.mem_alloc(IO);
                fos.memory_create(addr, IO, Perms::RW, move |s: &mut Self, res, fos| {
                    let dst = res.cid();
                    s.buf = Some((addr, dst));
                    fos.request_create_new(TAG_REPLY, vec![imm(2)], vec![], move |_s, res, fos| {
                        let success = res.cid();
                        fos.request_create_new(
                            TAG_REPLY,
                            vec![imm(97)],
                            vec![],
                            move |_s, res, fos| {
                                let error = res.cid();
                                fos.request_derive(
                                    rreq,
                                    vec![imm(8192), imm(IO)],
                                    vec![dst, success, error],
                                    |_s, res, fos| {
                                        fos.request_invoke(res.cid(), |_, res, _| {
                                            assert!(res.is_ok())
                                        });
                                    },
                                );
                            },
                        );
                    });
                });
            }
            2 => {
                let (addr, _) = self.buf.unwrap();
                self.read_back = fos.mem_read(addr, 0, IO).unwrap();
                self.done = true;
            }
            97 | 98 => panic!("block op error, phase {phase}"),
            other => panic!("unexpected phase {other}"),
        }
    }
}

#[test]
fn block_adaptor_roundtrips_data() {
    let mut tb = Testbed::paper(22);
    let ctrls = tb.controllers_per_node(false);
    let blk = BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk");
    let blk_proc = tb.add_process("blk-adaptor", cpu(0), ctrls[0], blk);
    tb.start_process(blk_proc);
    tb.run();

    let client = tb.add_process("client", cpu(2), ctrls[2], BlkClient::new());
    tb.start_process(client);
    tb.run();

    tb.with_service::<BlkClient, _>(client, |c| {
        assert!(c.done, "block pipeline did not finish");
        let want: Vec<u8> = (0..IO).map(|i| (i % 251) as u8).collect();
        assert_eq!(c.read_back, want);
    });
    tb.with_service::<BlockAdaptor, _>(blk_proc, |a| {
        assert_eq!(a.completed, 2);
        assert_eq!(a.device().ops, 2);
    });
}

/// The DAX composition property: a third party that receives the delegated
/// per-volume read Request can use it directly — and a revoked one fails.
#[test]
fn delegated_volume_request_is_directly_usable() {
    let mut tb = Testbed::paper(23);
    let ctrls = tb.controllers_per_node(false);
    let blk = BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk");
    let blk_proc = tb.add_process("blk-adaptor", cpu(0), ctrls[0], blk);
    tb.start_process(blk_proc);
    tb.run();

    // First client creates the volume and publishes the read Request for a
    // third party (simulating the FS handing DAX Requests to its client).
    struct Creator;
    impl Service for Creator {
        fn on_start(&mut self, fos: &Fos<Self>) {
            fos.kv_get("blk.create_vol", |_s, res, fos| {
                let create = res.cid();
                fos.request_create_new(TAG_REPLY, vec![], vec![], move |_s, res, fos| {
                    let cont = res.cid();
                    fos.request_derive(create, vec![imm(65536)], vec![cont], |_s, res, fos| {
                        fos.request_invoke(res.cid(), |_, _, _| {});
                    });
                });
            });
        }
        fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
            // caps: [read, write] → publish the read Request.
            fos.kv_put("vol.read", req.caps[0], |_, res, _| assert!(res.is_ok()));
        }
    }
    let creator = tb.add_process("creator", cpu(2), ctrls[2], Creator);
    tb.start_process(creator);
    tb.run();

    // Third party reads through the delegated Request.
    struct Third {
        pub ok: bool,
    }
    impl Service for Third {
        fn on_start(&mut self, fos: &Fos<Self>) {
            fos.kv_get("vol.read", |_s, res, fos| {
                let rreq = res.cid();
                let addr = fos.mem_alloc(512);
                fos.memory_create(addr, 512, Perms::RW, move |_s, res, fos| {
                    let dst = res.cid();
                    fos.request_create_new(TAG_REPLY, vec![imm(1)], vec![], move |_s, res, fos| {
                        let success = res.cid();
                        fos.request_create_new(
                            TAG_REPLY,
                            vec![imm(9)],
                            vec![],
                            move |_s, res, fos| {
                                let error = res.cid();
                                fos.request_derive(
                                    rreq,
                                    vec![imm(0), imm(512)],
                                    vec![dst, success, error],
                                    |_s, res, fos| {
                                        fos.request_invoke(res.cid(), |_, res, _| {
                                            assert!(res.is_ok())
                                        });
                                    },
                                );
                            },
                        );
                    });
                });
            });
        }
        fn on_request(&mut self, req: IncomingRequest, _fos: &Fos<Self>) {
            assert_eq!(imm_at(&req.imms, 0), Some(1), "success continuation");
            self.ok = true;
        }
    }
    let third = tb.add_process("third", cpu(1), ctrls[1], Third { ok: false });
    tb.start_process(third);
    tb.run();
    tb.with_service::<Third, _>(third, |t| assert!(t.ok, "DAX-style direct read failed"));
}

/// Two tenants share the GPU adaptor; revoking one tenant's handles reaps
/// only that tenant's context.
#[test]
fn gpu_contexts_are_isolated_between_tenants() {
    struct Tenant {
        name: &'static str,
        pub alloc_req: Option<Cid>,
        pub got_context: bool,
    }
    impl Service for Tenant {
        fn on_start(&mut self, fos: &Fos<Self>) {
            let name = self.name;
            fos.kv_get("gpu.init", move |_s, res, fos| {
                let init = res.cid();
                fos.request_create_new(
                    TAG_REPLY,
                    vec![],
                    vec![],
                    move |_s: &mut Self, res, fos| {
                        let cont = res.cid();
                        fos.request_derive(init, vec![], vec![cont], |_s, res, fos| {
                            fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                        });
                    },
                );
                let _ = name;
            });
        }
        fn on_request(&mut self, req: IncomingRequest, _fos: &Fos<Self>) {
            // Init reply: [alloc, load].
            self.alloc_req = Some(req.caps[0]);
            self.got_context = true;
        }
    }

    let mut tb = Testbed::paper(29);
    let ctrls = tb.controllers_per_node(false);
    let gpu_adaptor = GpuAdaptor::new(GpuParams::default(), gpu(1), "gpu");
    let gpu_proc = tb.add_process("gpu-adaptor", cpu(1), ctrls[1], gpu_adaptor);
    tb.start_process(gpu_proc);
    tb.run();

    let a = tb.add_process(
        "tenant-a",
        cpu(0),
        ctrls[0],
        Tenant {
            name: "a",
            alloc_req: None,
            got_context: false,
        },
    );
    tb.start_process(a);
    tb.run();
    let b = tb.add_process(
        "tenant-b",
        cpu(2),
        ctrls[2],
        Tenant {
            name: "b",
            alloc_req: None,
            got_context: false,
        },
    );
    tb.start_process(b);
    tb.run();

    tb.with_service::<Tenant, _>(a, |t| assert!(t.got_context));
    tb.with_service::<Tenant, _>(b, |t| assert!(t.got_context));
    tb.with_service::<GpuAdaptor, _>(gpu_proc, |g| assert_eq!(g.reaped_contexts, 0));

    // Tenant A revokes its alloc handle: only A's context is reaped.
    let a_alloc = tb.with_service::<Tenant, _>(a, |t| t.alloc_req.unwrap());
    let fos = tb.fos_of::<Tenant>(a);
    fos.call(Syscall::CapRevoke { cid: a_alloc }, |_, res, _| {
        assert!(res.is_ok())
    });
    tb.poke(a);
    tb.run();
    tb.with_service::<GpuAdaptor, _>(gpu_proc, |g| {
        assert_eq!(g.reaped_contexts, 1, "exactly tenant A's context reaped");
    });

    // Tenant B's handle still works: allocate a buffer through it.
    let b_alloc = tb.with_service::<Tenant, _>(b, |t| t.alloc_req.unwrap());
    let fos = tb.fos_of::<Tenant>(b);
    fos.request_create_new(
        TAG_REPLY,
        vec![imm(1)],
        vec![],
        move |_s: &mut Tenant, res, fos| {
            let cont = res.cid();
            fos.request_derive(b_alloc, vec![imm(4096)], vec![cont], |_s, res, fos| {
                fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
            });
        },
    );
    tb.poke(b);
    tb.run();
    tb.with_service::<GpuAdaptor, _>(gpu_proc, |g| {
        assert_eq!(g.reaped_contexts, 1, "tenant B unaffected");
    });
}

/// Explicit context teardown through the `TAG_GPU_FINI` RPC.
#[test]
fn gpu_context_teardown_rpc() {
    use fractos_devices::proto::TAG_GPU_FINI;

    struct Client {
        pub alloc_req: Option<Cid>,
    }
    impl Service for Client {
        fn on_start(&mut self, fos: &Fos<Self>) {
            fos.kv_get("gpu.init", |_s, res, fos| {
                let init = res.cid();
                fos.request_create_new(
                    TAG_REPLY,
                    vec![],
                    vec![],
                    move |_s: &mut Self, res, fos| {
                        let cont = res.cid();
                        fos.request_derive(init, vec![], vec![cont], |_s, res, fos| {
                            fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                        });
                    },
                );
            });
        }
        fn on_request(&mut self, req: IncomingRequest, _fos: &Fos<Self>) {
            // Init reply: keep the per-context alloc handle. The alloc
            // against the torn-down context is answered without one.
            if let Some(&alloc) = req.caps.first() {
                self.alloc_req = Some(alloc);
            }
        }
    }

    let mut tb = Testbed::paper(33);
    let ctrls = tb.controllers_per_node(false);
    let gpu_adaptor = GpuAdaptor::new(GpuParams::default(), gpu(1), "gpu");
    let gpu_proc = tb.add_process("gpu-adaptor", cpu(1), ctrls[1], gpu_adaptor);
    tb.start_process(gpu_proc);
    tb.run();
    let client = tb.add_process("client", cpu(0), ctrls[0], Client { alloc_req: None });
    tb.start_process(client);
    tb.run();
    tb.with_service::<Client, _>(client, |c| assert!(c.alloc_req.is_some()));

    // The adaptor itself can create-and-invoke its own FINI request (the
    // paper's cleanup RPC is provider-defined).
    let fos = tb.fos_of::<GpuAdaptor>(gpu_proc);
    fos.request_create_new(
        TAG_GPU_FINI,
        vec![fractos_devices::proto::imm(1)],
        vec![],
        |_s, res, fos| {
            fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
        },
    );
    tb.poke(gpu_proc);
    tb.run();

    // Allocating against the torn-down context allocates nothing.
    let alloc = tb.with_service::<Client, _>(client, |c| c.alloc_req.unwrap());
    let fos = tb.fos_of::<Client>(client);
    fos.request_create_new(
        TAG_REPLY,
        vec![imm(7)],
        vec![],
        move |_s: &mut Client, res, fos| {
            let cont = res.cid();
            fos.request_derive(alloc, vec![imm(4096)], vec![cont], |_s, res, fos| {
                fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
            });
        },
    );
    tb.poke(client);
    tb.run();
    tb.with_service::<GpuAdaptor, _>(gpu_proc, |a| {
        assert_eq!(a.invocations, 0, "no kernel ran");
    });
}

// ---------------------------------------------------------------------------
// Typed error continuations: malformed requests and injected device faults.
// ---------------------------------------------------------------------------

/// Makes a reply continuation carrying `phase` and runs `f` with its cid
/// (the generic sibling of [`GpuClient::with_cont`]).
fn reply_cont<S: Service>(
    fos: &Fos<S>,
    phase: u64,
    f: impl FnOnce(&mut S, Cid, &Fos<S>) + Send + 'static,
) {
    fos.request_create_new(TAG_REPLY, vec![imm(phase)], vec![], move |s, res, fos| {
        f(s, res.cid(), fos);
    });
}

/// Makes a success/error continuation pair and hands both cids to `f`.
fn io_pair<S: Service>(
    fos: &Fos<S>,
    ok: u64,
    err: u64,
    f: impl FnOnce(&mut S, Cid, Cid, &Fos<S>) + Send + 'static,
) {
    fos.request_create_new(TAG_REPLY, vec![imm(ok)], vec![], move |_s, res, fos| {
        let success = res.cid();
        fos.request_create_new(TAG_REPLY, vec![imm(err)], vec![], move |s, res, fos| {
            f(s, success, res.cid(), fos);
        });
    });
}

/// A block client that fires deliberately malformed reads and records the
/// typed error code each error continuation carries.
struct MalformedBlk {
    pub errs: Vec<(u64, u64)>,
    pub dropped_replied: bool,
}

impl Service for MalformedBlk {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.kv_get("blk.create_vol", |_s, res, fos| {
            let create = res.cid();
            fos.request_create_new(TAG_REPLY, vec![imm(0)], vec![], move |_s, res, fos| {
                let cont = res.cid();
                fos.request_derive(create, vec![imm(65536)], vec![cont], |_s, res, fos| {
                    fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                });
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let phase = imm_at(&req.imms, 0).unwrap();
        match phase {
            0 => {
                let rreq = req.caps[0];
                // (a) Correct caps, missing offset/size imms → BadRequest.
                io_pair(fos, 10, 90, move |_s, success, error, fos| {
                    fos.request_derive(
                        rreq,
                        vec![],
                        vec![error, success, error],
                        |_s, res, fos| {
                            fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                        },
                    );
                });
                // (b) Size beyond the staging pool → TooLarge.
                let too_big = fractos_devices::nvme::STAGING_BUF_SIZE + 1;
                io_pair(fos, 11, 91, move |_s, success, error, fos| {
                    fos.request_derive(
                        rreq,
                        vec![imm(0), imm(too_big)],
                        vec![error, success, error],
                        |_s, res, fos| {
                            fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                        },
                    );
                });
                // (c) Offset beyond the 64 KiB volume → Bounds.
                io_pair(fos, 12, 92, move |_s, success, error, fos| {
                    fos.request_derive(
                        rreq,
                        vec![imm(1 << 20), imm(512)],
                        vec![error, success, error],
                        |_s, res, fos| {
                            fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                        },
                    );
                });
                // (d) Wrong capability count → the request is silently
                // dropped (no identifiable error continuation to reply on).
                io_pair(fos, 13, 93, move |_s, success, _error, fos| {
                    fos.request_derive(
                        rreq,
                        vec![imm(0), imm(512)],
                        vec![success, success],
                        |_s, res, fos| {
                            fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                        },
                    );
                });
                // (e) An extent whose end overflows a u64 → Bounds, for a
                // read and for a write of real bytes.
                let past_u64 = vec![imm(u64::MAX - 255), imm(512)];
                let read_args = past_u64.clone();
                io_pair(fos, 14, 94, move |_s, success, error, fos| {
                    fos.request_derive(
                        rreq,
                        read_args,
                        vec![error, success, error],
                        |_s, res, fos| {
                            fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                        },
                    );
                });
                let wreq = req.caps[1];
                let addr = fos.mem_alloc(512);
                fos.memory_create(addr, 512, Perms::RW, move |_s: &mut Self, res, fos| {
                    let src = res.cid();
                    io_pair(fos, 15, 95, move |_s, success, error, fos| {
                        fos.request_derive(
                            wreq,
                            past_u64,
                            vec![src, success, error],
                            |_s, res, fos| {
                                fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                            },
                        );
                    });
                });
            }
            90..=92 | 94 | 95 => self
                .errs
                .push((phase, imm_at(&req.imms, 1).unwrap_or(u64::MAX))),
            13 | 93 => self.dropped_replied = true,
            other => panic!("unexpected reply phase {other}"),
        }
    }
}

#[test]
fn malformed_block_requests_reply_typed_codes() {
    let mut tb = Testbed::paper(41);
    let ctrls = tb.controllers_per_node(false);
    let blk = BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk");
    let blk_proc = tb.add_process("blk-adaptor", cpu(0), ctrls[0], blk);
    tb.start_process(blk_proc);
    tb.run();

    let client = tb.add_process(
        "client",
        cpu(2),
        ctrls[2],
        MalformedBlk {
            errs: Vec::new(),
            dropped_replied: false,
        },
    );
    tb.start_process(client);
    tb.run();

    tb.with_service::<MalformedBlk, _>(client, |c| {
        let code = |p: u64| c.errs.iter().find(|(ph, _)| *ph == p).map(|&(_, c)| c);
        assert_eq!(code(90), Some(DevError::BadRequest.code()));
        assert_eq!(code(91), Some(DevError::TooLarge.code()));
        assert_eq!(code(92), Some(DevError::Bounds.code()));
        assert_eq!(code(94), Some(DevError::Bounds.code()), "read past u64");
        assert_eq!(code(95), Some(DevError::Bounds.code()), "write past u64");
        assert!(
            !c.dropped_replied,
            "wrong-cap-count request must be dropped without a reply"
        );
    });
    // The adaptor survived all of it and completed no I/O.
    tb.with_service::<BlockAdaptor, _>(blk_proc, |a| assert_eq!(a.completed, 0));
}

/// A block client that runs a write and then a read under an injected
/// device-fault plan and records the typed codes the error continuations
/// carry (no retry: this observes the raw adaptor contract).
struct ChaosBlk {
    read_req: Option<Cid>,
    pub write_err: Option<u64>,
    pub read_err: Option<u64>,
}

impl Service for ChaosBlk {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.kv_get("blk.create_vol", |_s, res, fos| {
            let create = res.cid();
            fos.request_create_new(TAG_REPLY, vec![imm(0)], vec![], move |_s, res, fos| {
                let cont = res.cid();
                fos.request_derive(create, vec![imm(65536)], vec![cont], |_s, res, fos| {
                    fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                });
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let phase = imm_at(&req.imms, 0).unwrap();
        match phase {
            0 => {
                self.read_req = Some(req.caps[0]);
                let wreq = req.caps[1];
                let addr = fos.mem_alloc(IO);
                let data: Vec<u8> = (0..IO).map(|i| (i % 253) as u8 + 1).collect();
                fos.mem_write(addr, 0, &data).unwrap();
                fos.memory_create(addr, IO, Perms::RW, move |_s: &mut Self, res, fos| {
                    let src = res.cid();
                    io_pair(fos, 1, 98, move |_s, success, error, fos| {
                        fos.request_derive(
                            wreq,
                            vec![imm(0), imm(IO)],
                            vec![src, success, error],
                            |_s, res, fos| {
                                fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                            },
                        );
                    });
                });
            }
            98 => {
                // Torn write detected by the adaptor's read-back envelope.
                self.write_err = imm_at(&req.imms, 1);
                let rreq = self.read_req.unwrap();
                let addr = fos.mem_alloc(IO);
                fos.memory_create(addr, IO, Perms::RW, move |_s: &mut Self, res, fos| {
                    let dst = res.cid();
                    io_pair(fos, 2, 97, move |_s, success, error, fos| {
                        fos.request_derive(
                            rreq,
                            vec![imm(0), imm(IO)],
                            vec![dst, success, error],
                            |_s, res, fos| {
                                fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                            },
                        );
                    });
                });
            }
            97 => self.read_err = imm_at(&req.imms, 1),
            1 => panic!("write must fail under a p=1.0 torn-write plan"),
            2 => panic!("read must fail under a p=1.0 read-error plan"),
            other => panic!("unexpected reply phase {other}"),
        }
    }
}

#[test]
fn injected_nvme_faults_reply_typed_codes() {
    let mut tb = Testbed::paper(43);
    let plan = FaultPlan::new()
        .nvme_torn_writes(nvme(0), 1.0)
        .nvme_read_errors(nvme(0), 1.0);
    tb.install_fault_plan(plan, 43);
    let ctrls = tb.controllers_per_node(false);
    let blk = BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk");
    let blk_proc = tb.add_process("blk-adaptor", cpu(0), ctrls[0], blk);
    tb.start_process(blk_proc);
    tb.run();

    let client = tb.add_process(
        "client",
        cpu(2),
        ctrls[2],
        ChaosBlk {
            read_req: None,
            write_err: None,
            read_err: None,
        },
    );
    tb.start_process(client);
    tb.run();

    tb.with_service::<ChaosBlk, _>(client, |c| {
        assert_eq!(
            c.write_err,
            Some(DevError::Integrity.code()),
            "torn write must surface as an integrity-envelope violation"
        );
        assert_eq!(
            c.read_err,
            Some(DevError::Media.code()),
            "injected media read error must carry the Media code"
        );
    });
    let stats = tb.traffic();
    let faults = stats.device_faults_at(nvme(0));
    assert!(faults.torn >= 1, "torn-write counter must tick");
    assert!(faults.failed >= 1, "media-failure counter must tick");
    let _ = blk_proc;
}

/// A minimal GPU client: init → alloc one buffer → load kernel 7 → invoke,
/// recording success or the typed error code. `mode` selects the failure
/// shape: 0 = well-formed, 1 = non-memory input capability, 2 = wrong
/// capability count, 3 = launch parameters `[u64::MAX, 4096]`, then a
/// well-formed launch once the error arrives.
struct GpuFault {
    alloc_req: Option<Cid>,
    load_req: Option<Cid>,
    mem: Option<Cid>,
    invoke: Option<Cid>,
    mode: u8,
    pub ok: bool,
    pub err_code: Option<u64>,
}

impl GpuFault {
    fn new(mode: u8) -> Self {
        GpuFault {
            alloc_req: None,
            load_req: None,
            mem: None,
            invoke: None,
            mode,
            ok: false,
            err_code: None,
        }
    }

    /// Invokes the loaded kernel once, shaped by `mode`, with fresh
    /// continuations.
    fn launch(&self, fos: &Fos<Self>) {
        let (invoke, mem, mode) = (self.invoke.unwrap(), self.mem.unwrap(), self.mode);
        reply_cont(fos, 5, move |_s, success, fos| {
            reply_cont(fos, 99, move |_s, error, fos| {
                let caps = match mode {
                    // Non-memory input: the error continuation
                    // itself stands in for a buffer.
                    1 => vec![error, mem, success, error],
                    // Wrong capability count: silently dropped.
                    2 => vec![mem, success],
                    _ => vec![mem, mem, success, error],
                };
                let params = match mode {
                    3 => vec![imm(u64::MAX), imm(4096)],
                    _ => vec![imm(1)],
                };
                fos.request_derive(invoke, params, caps, |_s, res, fos| {
                    fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                });
            });
        });
    }
}

impl Service for GpuFault {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.kv_get("gpu.init", |_s, res, fos| {
            let init = res.cid();
            fos.request_create_new(TAG_REPLY, vec![imm(0)], vec![], move |_s, res, fos| {
                let cont = res.cid();
                fos.request_derive(init, vec![], vec![cont], |_s, res, fos| {
                    fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                });
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let phase = imm_at(&req.imms, 0).unwrap();
        match phase {
            0 => {
                self.alloc_req = Some(req.caps[0]);
                self.load_req = Some(req.caps[1]);
                let alloc = req.caps[0];
                reply_cont(fos, 1, move |_s, cont, fos| {
                    fos.request_derive(alloc, vec![imm(N)], vec![cont], |_s, res, fos| {
                        fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                    });
                });
            }
            1 => {
                self.mem = Some(req.caps[0]);
                let load = self.load_req.unwrap();
                reply_cont(fos, 2, move |_s, cont, fos| {
                    fos.request_derive(load, vec![imm(7)], vec![cont], |_s, res, fos| {
                        fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                    });
                });
            }
            2 => {
                self.invoke = Some(req.caps[0]);
                self.launch(fos);
            }
            5 => self.ok = true,
            99 => {
                self.err_code = imm_at(&req.imms, 1);
                if self.mode == 3 {
                    self.mode = 0;
                    self.launch(fos);
                }
            }
            other => panic!("unexpected reply phase {other}"),
        }
    }
}

/// Boots a GPU adaptor plus a [`GpuFault`] client under `plan` and returns
/// (success, error code, completed invocations, per-device fault counters).
fn run_gpu_fault(
    seed: u64,
    plan: FaultPlan,
    mode: u8,
) -> (bool, Option<u64>, u64, fractos_net::DeviceFaultCounter) {
    let mut tb = Testbed::paper(seed);
    tb.install_fault_plan(plan, seed);
    let ctrls = tb.controllers_per_node(false);
    let gpu_adaptor =
        GpuAdaptor::new(GpuParams::default(), gpu(1), "gpu").with_kernel(7, XorKernel(0x5A));
    let gpu_proc = tb.add_process("gpu-adaptor", cpu(1), ctrls[1], gpu_adaptor);
    tb.start_process(gpu_proc);
    tb.run();

    let client = tb.add_process("client", cpu(2), ctrls[2], GpuFault::new(mode));
    tb.start_process(client);
    tb.run();

    let (ok, err) = tb.with_service::<GpuFault, _>(client, |c| (c.ok, c.err_code));
    let invocations = tb.with_service::<GpuAdaptor, _>(gpu_proc, |a| a.invocations);
    let faults = tb.traffic().device_faults_at(gpu(1));
    (ok, err, invocations, faults)
}

#[test]
fn injected_gpu_launch_failure_replies_typed_code() {
    let plan = FaultPlan::new().gpu_launch_errors(gpu(1), 1.0);
    let (ok, err, invocations, faults) = run_gpu_fault(47, plan, 0);
    assert!(!ok);
    assert_eq!(err, Some(DevError::Launch.code()));
    assert_eq!(invocations, 0, "nothing executes on a failed launch");
    assert!(faults.failed >= 1, "launch-failure counter must tick");
}

#[test]
fn injected_gpu_output_corruption_is_detected() {
    let plan = FaultPlan::new().gpu_output_corruption(gpu(1), 1.0);
    let (ok, err, invocations, faults) = run_gpu_fault(53, plan, 0);
    assert!(!ok);
    assert_eq!(
        err,
        Some(DevError::Integrity.code()),
        "ECC-style output corruption must surface as an integrity violation"
    );
    assert_eq!(invocations, 0, "a corrupted invocation does not count");
    assert!(faults.corrupted >= 1, "corruption counter must tick");
}

#[test]
fn gpu_non_memory_input_replies_bad_buffer() {
    let (ok, err, invocations, _) = run_gpu_fault(59, FaultPlan::new(), 1);
    assert!(!ok);
    assert_eq!(err, Some(DevError::BadBuffer.code()));
    assert_eq!(invocations, 0);
}

#[test]
fn gpu_launch_past_the_timeline_replies_too_large() {
    let (ok, err, invocations, _) = run_gpu_fault(67, FaultPlan::new(), 3);
    assert_eq!(err, Some(DevError::TooLarge.code()));
    assert!(ok, "the adaptor survives and runs the next launch");
    assert_eq!(invocations, 1);
}

#[test]
fn gpu_wrong_cap_count_is_silently_dropped() {
    let (ok, err, invocations, _) = run_gpu_fault(61, FaultPlan::new(), 2);
    assert!(!ok, "no success reply for a dropped request");
    assert_eq!(err, None, "no error reply either: the request is dropped");
    assert_eq!(invocations, 0);
}

/// A block client holding one derived read Request (`[dst, success,
/// error]` bound), invoked by the harness once the adaptor's capability
/// space is nearly full; counts the replies on each continuation.
struct SqueezedBlk {
    read: Option<Cid>,
    pub ok: u32,
    pub errs: Vec<Option<u64>>,
}

impl Service for SqueezedBlk {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.kv_get("blk.create_vol", |_s, res, fos| {
            let create = res.cid();
            reply_cont(fos, 0, move |_s, cont, fos| {
                fos.request_derive(create, vec![imm(65536)], vec![cont], |_s, res, fos| {
                    fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                });
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        match imm_at(&req.imms, 0).unwrap() {
            0 => {
                let rreq = req.caps[0];
                let addr = fos.mem_alloc(IO);
                fos.memory_create(addr, IO, Perms::RW, move |_s: &mut Self, res, fos| {
                    let dst = res.cid();
                    io_pair(fos, 1, 99, move |_s, success, error, fos| {
                        let caps = vec![dst, success, error];
                        fos.request_derive(rreq, vec![imm(0), imm(IO)], caps, |s, res, _| {
                            s.read = Some(res.cid());
                        });
                    });
                });
            }
            1 => self.ok += 1,
            99 => self.errs.push(imm_at(&req.imms, 1)),
            other => panic!("unexpected reply phase {other}"),
        }
    }
}

/// A read whose three capabilities fill the adaptor's capability space
/// fails at the staging-view diminish, the first mint of its path: the
/// error continuation still fires (bare, since the space has no room for a
/// derived reply either) and the staging slot returns to the pool.
#[test]
fn block_read_with_a_full_capspace_answers_its_error_continuation() {
    let mut tb = Testbed::paper(47);
    let ctrls = tb.controllers_per_node(false);
    let blk = BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk");
    let blk_proc = tb.add_process("blk-adaptor", cpu(0), ctrls[0], blk);
    tb.start_process(blk_proc);
    tb.run();
    let squeezed = SqueezedBlk {
        read: None,
        ok: 0,
        errs: Vec::new(),
    };
    let client = tb.add_process("client", cpu(2), ctrls[2], squeezed);
    tb.start_process(client);
    tb.run();

    let held = tb.with_controller(ctrls[0], |c| c.capspace_len(blk_proc));
    tb.set_capspace_quota(blk_proc, held + 3);
    let read = tb.with_service::<SqueezedBlk, _>(client, |c| c.read.expect("read derived"));
    let fos = tb.fos_of::<SqueezedBlk>(client);
    fos.request_invoke(read, |_, res, _| assert!(res.is_ok()));
    tb.poke(client);
    tb.run();

    tb.with_service::<SqueezedBlk, _>(client, |c| {
        assert_eq!(c.ok, 0, "the read cannot have succeeded");
        assert_eq!(c.errs.len(), 1, "the error continuation must fire once");
        let transfer = Some(DevError::Transfer.code());
        assert!(
            c.errs[0].is_none() || c.errs[0] == transfer,
            "error carried {:?}",
            c.errs[0]
        );
    });
    tb.with_service::<BlockAdaptor, _>(blk_proc, |a| {
        assert_eq!(a.staging_busy(), 0, "the staging slot leaked");
        assert_eq!(a.completed, 0);
    });
}

/// Alloc and load Requests of a torn-down context answer their
/// continuations without capabilities instead of leaving them pending.
#[test]
fn gpu_requests_naming_an_unknown_context_are_answered() {
    use fractos_devices::proto::TAG_GPU_FINI;

    /// Init reply (phase 0) keeps the alloc and load handles; the phase-1
    /// and phase-2 replies record how many capabilities they carried.
    struct Client {
        handles: Option<(Cid, Cid)>,
        pub answered: Vec<(u64, usize)>,
    }
    impl Service for Client {
        fn on_start(&mut self, fos: &Fos<Self>) {
            fos.kv_get("gpu.init", |_s, res, fos| {
                let init = res.cid();
                reply_cont(fos, 0, move |_s, cont, fos| {
                    fos.request_derive(init, vec![], vec![cont], |_s, res, fos| {
                        fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                    });
                });
            });
        }
        fn on_request(&mut self, req: IncomingRequest, _fos: &Fos<Self>) {
            match imm_at(&req.imms, 0).unwrap() {
                0 => self.handles = Some((req.caps[0], req.caps[1])),
                phase => self.answered.push((phase, req.caps.len())),
            }
        }
    }

    let mut tb = Testbed::paper(53);
    let ctrls = tb.controllers_per_node(false);
    let gpu_adaptor =
        GpuAdaptor::new(GpuParams::default(), gpu(1), "gpu").with_kernel(7, XorKernel(1));
    let gpu_proc = tb.add_process("gpu-adaptor", cpu(1), ctrls[1], gpu_adaptor);
    tb.start_process(gpu_proc);
    tb.run();
    let client = tb.add_process(
        "client",
        cpu(0),
        ctrls[0],
        Client {
            handles: None,
            answered: Vec::new(),
        },
    );
    tb.start_process(client);
    tb.run();

    // Tear the context down through the adaptor's own FINI Request.
    let fos = tb.fos_of::<GpuAdaptor>(gpu_proc);
    fos.request_create_new(TAG_GPU_FINI, vec![imm(1)], vec![], |_s, res, fos| {
        fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
    });
    tb.poke(gpu_proc);
    tb.run();

    let (alloc, load) = tb.with_service::<Client, _>(client, |c| c.handles.expect("init"));
    let fos = tb.fos_of::<Client>(client);
    for (phase, req, arg) in [(1, alloc, 4096), (2, load, 7)] {
        reply_cont(&fos, phase, move |_s, cont, fos| {
            fos.request_derive(req, vec![imm(arg)], vec![cont], |_s, res, fos| {
                fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
            });
        });
    }
    tb.poke(client);
    tb.run();

    tb.with_service::<Client, _>(client, |c| {
        let mut answered = c.answered.clone();
        answered.sort_unstable();
        assert_eq!(answered, [(1, 0), (2, 0)], "both answered, empty-handed");
    });
    tb.with_service::<GpuAdaptor, _>(gpu_proc, |a| {
        assert_eq!(a.setup_failures, 2);
        assert_eq!(a.invocations, 0);
    });
}
