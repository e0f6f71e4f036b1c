//! Negative fixtures for the static request-program verifier: each known
//! defect class must be rejected with its typed [`VerifyErrorKind`], and
//! the rejection must also surface end-to-end as `FosError::Verify` when
//! a Process invokes a defective plan on a live cluster.

use fractos_cap::{CapRef, ObjectId, ObjectTable};
use fractos_core::prelude::*;
use fractos_core::types::{Arg, CapArg, MemoryDesc, ObjPayload, RequestDesc};
use fractos_core::{
    verify_plan, verify_syscall, verify_table, PlanPath, PlanStep, VerifyErrorKind,
};

const CTRL: ControllerAddr = ControllerAddr(0);

fn table() -> ObjectTable<ObjPayload> {
    ObjectTable::new(CTRL)
}

fn mem(perms: Perms, off: u64, size: u64) -> MemoryDesc {
    MemoryDesc {
        proc: ProcId(1),
        location: Endpoint::cpu(NodeId(0)),
        addr: 0x1000,
        view_off: off,
        size,
        perms,
    }
}

fn request(args: Vec<Arg>) -> ObjPayload {
    ObjPayload::Request(RequestDesc {
        provider: ProcId(1),
        tag: 7,
        args,
    })
}

fn cap_arg(cap: CapRef) -> Arg {
    Arg::Cap(CapArg { cap, mem: None })
}

#[test]
fn dangling_cap_rejected() {
    let mut t = table();
    // The argument references an object id never created in this table.
    let probe = t.create(ProcId(1).token(), request(vec![]));
    let ghost = CapRef {
        object: ObjectId(0xDEAD),
        ..probe
    };
    let root = t.create(ProcId(1).token(), request(vec![cap_arg(ghost)]));
    let e = verify_plan(&t, root).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::DanglingCap);
    // The diagnostic names the argument index the walk descended through.
    assert!(e.to_string().contains("arg[0]"), "got: {e}");
}

#[test]
fn revoked_cap_rejected() {
    let mut t = table();
    let m = t.create(ProcId(1).token(), ObjPayload::Memory(mem(Perms::RW, 0, 64)));
    let root = t.create(ProcId(1).token(), request(vec![cap_arg(m)]));
    t.revoke(m.object).expect("revocable");
    let e = verify_plan(&t, root).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::RevokedCap);
}

#[test]
fn stale_epoch_cap_rejected() {
    let mut t = table();
    let m = t.create(ProcId(1).token(), ObjPayload::Memory(mem(Perms::RW, 0, 64)));
    t.reboot();
    // A root built in the *new* epoch still carrying the old-epoch Memory
    // cap: the use-after-reboot must be caught.
    let root = t.create(ProcId(1).token(), request(vec![cap_arg(m)]));
    let e = verify_plan(&t, root).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::StaleEpoch);
}

#[test]
fn perm_escalating_snapshot_rejected() {
    let mut t = table();
    let m = t.create(
        ProcId(1).token(),
        ObjPayload::Memory(mem(Perms::READ, 0, 64)),
    );
    let root = t.create(
        ProcId(1).token(),
        request(vec![Arg::Cap(CapArg {
            cap: m,
            // Snapshot claims RW; the live object grants READ only.
            mem: Some(mem(Perms::RW, 0, 64)),
        })]),
    );
    let e = verify_plan(&t, root).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::PrivilegeEscalation);
}

#[test]
fn perm_escalating_derivation_rejected() {
    let mut t = table();
    let parent = t.create(
        ProcId(1).token(),
        ObjPayload::Memory(mem(Perms::READ, 0, 64)),
    );
    // The table's derive() does not inspect payloads, so a forged child
    // claiming WRITE its parent never granted can exist; the verifier
    // walks the derivation edge and rejects it.
    let child = t
        .derive(
            parent.object,
            ProcId(1).token(),
            ObjPayload::Memory(mem(Perms::RW, 0, 32)),
        )
        .expect("derivable");
    let root = t.create(ProcId(1).token(), request(vec![cap_arg(child)]));
    let e = verify_plan(&t, root).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::PrivilegeEscalation);
}

#[test]
fn out_of_bounds_view_rejected() {
    let mut t = table();
    let parent = t.create(
        ProcId(1).token(),
        ObjPayload::Memory(mem(Perms::RW, 16, 16)),
    );
    // Same permissions, but the view reaches outside the parent extent.
    let child = t
        .derive(
            parent.object,
            ProcId(1).token(),
            ObjPayload::Memory(mem(Perms::RW, 8, 16)),
        )
        .expect("derivable");
    let root = t.create(ProcId(1).token(), request(vec![cap_arg(child)]));
    let e = verify_plan(&t, root).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::PrivilegeEscalation);
}

#[test]
fn cyclic_continuation_chain_rejected() {
    let mut t = table();
    let a = t.create(ProcId(1).token(), request(vec![]));
    let b = t.create(ProcId(1).token(), request(vec![cap_arg(a)]));
    // Close the loop a -> b -> a through the payload editor.
    match t.payload_mut(a) {
        Ok(ObjPayload::Request(ra)) => ra.args.push(cap_arg(b)),
        other => panic!("payload editable, got {other:?}"),
    }
    let e = verify_plan(&t, a).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::CyclicContinuation);
    let e = verify_plan(&t, b).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::CyclicContinuation);
}

#[test]
fn revoked_arg_after_a_clean_continuation_names_the_root_argument() {
    let mut t = table();
    let m = t.create(ProcId(1).token(), ObjPayload::Memory(mem(Perms::RW, 0, 64)));
    let clean = t.create(ProcId(1).token(), request(vec![]));
    let root = t.create(ProcId(1).token(), request(vec![cap_arg(clean), cap_arg(m)]));
    t.revoke(m.object).expect("revocable");
    let e = verify_plan(&t, root).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::RevokedCap);
    // arg[0] descended into `clean` and came back: the path names only
    // the root and the argument that failed.
    assert_eq!(
        e.path,
        PlanPath(vec![PlanStep {
            object: root.object,
            arg: Some(1),
        }])
    );
}

#[test]
fn cycle_at_depth_two_names_both_steps() {
    let mut t = table();
    let a = t.create(ProcId(1).token(), request(vec![]));
    let b = t.create(ProcId(1).token(), request(vec![cap_arg(a)]));
    match t.payload_mut(a) {
        Ok(ObjPayload::Request(ra)) => ra.args.push(cap_arg(b)),
        other => panic!("payload editable, got {other:?}"),
    }
    let e = verify_plan(&t, a).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::CyclicContinuation);
    assert_eq!(
        e.path,
        PlanPath(vec![
            PlanStep {
                object: a.object,
                arg: Some(0),
            },
            PlanStep {
                object: b.object,
                arg: Some(0),
            },
        ])
    );
    assert_eq!(
        e.path.to_string(),
        format!("obj#{} / arg[0] -> obj#{} / arg[0]", a.object.0, b.object.0)
    );
}

#[test]
fn self_cycle_rejected() {
    let mut t = table();
    let a = t.create(ProcId(1).token(), request(vec![]));
    match t.payload_mut(a) {
        Ok(ObjPayload::Request(ra)) => ra.args.push(cap_arg(a)),
        other => panic!("payload editable, got {other:?}"),
    }
    let e = verify_plan(&t, a).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::CyclicContinuation);
}

#[test]
fn shared_continuation_diamond_verifies() {
    // a -> {b, c} -> d (d shared): a DAG, not a cycle — must pass.
    let mut t = table();
    let d = t.create(ProcId(1).token(), request(vec![]));
    let b = t.create(ProcId(1).token(), request(vec![cap_arg(d)]));
    let c = t.create(ProcId(1).token(), request(vec![cap_arg(d)]));
    let a = t.create(ProcId(1).token(), request(vec![cap_arg(b), cap_arg(c)]));
    let report = verify_plan(&t, a).expect("diamond is acyclic");
    assert_eq!(report.nodes, 4, "d must be verified once, not twice");
}

#[test]
fn refinement_must_extend_append_only() {
    let mut t = table();
    let base = t.create(
        ProcId(1).token(),
        request(vec![Arg::Imm(vec![1].into()), Arg::Imm(vec![2].into())]),
    );
    // A proper refinement extends the base: verifies.
    let good = t
        .derive(
            base.object,
            ProcId(1).token(),
            request(vec![
                Arg::Imm(vec![1].into()),
                Arg::Imm(vec![2].into()),
                Arg::Imm(vec![3].into()),
            ]),
        )
        .expect("derivable");
    verify_plan(&t, good).expect("append-only refinement verifies");
    // A forged refinement that rewrites the base prefix: rejected.
    let forged = t
        .derive(
            base.object,
            ProcId(1).token(),
            request(vec![Arg::Imm(vec![9].into()), Arg::Imm(vec![2].into())]),
        )
        .expect("derivable");
    let e = verify_plan(&t, forged).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::RefinementViolation);
}

#[test]
fn missing_write_perm_on_copy_rejected() {
    let sc = Syscall::MemoryCopy {
        src: Cid(0),
        dst: Cid(1),
    };
    let e = verify_syscall(&sc, |cid| {
        Some(if cid == Cid(0) {
            mem(Perms::RW, 0, 16)
        } else {
            mem(Perms::READ, 0, 16)
        })
    })
    .unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::MissingPerm(Perms::WRITE));
}

#[test]
fn missing_read_perm_on_copy_rejected() {
    let sc = Syscall::MemoryCopy {
        src: Cid(0),
        dst: Cid(1),
    };
    let e = verify_syscall(&sc, |_| Some(mem(Perms::WRITE, 0, 16))).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::MissingPerm(Perms::READ));
}

#[test]
fn verify_table_sweeps_every_live_plan() {
    let mut t = table();
    let m = t.create(ProcId(1).token(), ObjPayload::Memory(mem(Perms::RW, 0, 64)));
    t.create(ProcId(1).token(), request(vec![cap_arg(m)]));
    t.create(ProcId(2).token(), request(vec![]));
    assert_eq!(verify_table(&t).expect("all clean"), 2);
    // Revoke the Memory: the plan that carries it must now fail the sweep.
    t.revoke(m.object).expect("revocable");
    let e = verify_table(&t).unwrap_err();
    assert_eq!(e.kind, VerifyErrorKind::RevokedCap);
}

/// End-to-end: a Request whose argument capability is revoked after the
/// plan was built is rejected at submission with the typed verifier error
/// — the provider never sees the delivery.
#[test]
fn invoke_of_plan_with_revoked_arg_is_rejected() {
    struct Provider {
        delivered: u32,
    }
    impl Service for Provider {
        fn on_start(&mut self, fos: &Fos<Self>) {
            fos.request_create_new(0x77, vec![], vec![], |_s, res, fos| {
                fos.kv_put("svc", res.cid(), |_, _, _| {});
            });
        }
        fn on_request(&mut self, _req: IncomingRequest, _fos: &Fos<Self>) {
            self.delivered += 1;
        }
    }

    #[derive(Default)]
    struct Client {
        buf: Option<Cid>,
        plan: Option<Cid>,
        invoke_result: Option<SyscallResult>,
    }
    impl Service for Client {
        fn on_start(&mut self, fos: &Fos<Self>) {
            // Build a plan carrying a Memory cap; the test revokes the
            // Memory *before* invoking.
            fos.memory_create_new(32, Perms::RW, |s: &mut Client, _addr, cid, fos| {
                let buf = cid.expect("created");
                s.buf = Some(buf);
                fos.kv_get("svc", move |_s: &mut Client, res, fos| {
                    fos.request_derive(res.cid(), vec![], vec![buf], |s: &mut Client, res, _| {
                        s.plan = Some(res.cid());
                    });
                });
            });
        }
        fn on_request(&mut self, _req: IncomingRequest, _fos: &Fos<Self>) {}
    }

    let mut tb = Testbed::paper(7);
    let ctrls = tb.controllers_per_node(false);
    let provider = tb.add_process("provider", cpu(0), ctrls[0], Provider { delivered: 0 });
    let client = tb.add_process("client", cpu(0), ctrls[0], Client::default());
    tb.start_process(provider);
    tb.run();
    tb.start_process(client);
    tb.run();

    // Everything built so far verifies clean, on every Controller.
    assert!(tb.verify_all_plans().expect("all plans verify") >= 2);

    let (buf, plan) = tb.with_service::<Client, _>(client, |c| {
        (c.buf.expect("buf built"), c.plan.expect("plan built"))
    });

    // Revoke the Memory argument, then invoke the plan.
    let fos = tb.fos_of::<Client>(client);
    fos.call(Syscall::CapRevoke { cid: buf }, |_, res, _| {
        assert!(res.is_ok(), "revoke must succeed, got {res:?}");
    });
    tb.poke(client);
    tb.run();

    let fos = tb.fos_of::<Client>(client);
    fos.request_invoke(plan, |s: &mut Client, res, _| {
        s.invoke_result = Some(res);
    });
    tb.poke(client);
    tb.run();

    tb.with_service::<Client, _>(client, |c| {
        match c.invoke_result.as_ref().expect("invoke completed") {
            SyscallResult::Err(FosError::Verify(v)) => {
                assert_eq!(v.kind, VerifyErrorKind::RevokedCap, "diagnostic: {v}");
            }
            other => panic!("expected Verify(RevokedCap), got {other:?}"),
        }
    });
    tb.with_service::<Provider, _>(provider, |p| {
        assert_eq!(p.delivered, 0, "defective plan must never be delivered");
    });
}
