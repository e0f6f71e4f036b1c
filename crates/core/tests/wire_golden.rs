//! Byte-exact pin of the wire format: FNV-1a over `wire_size()` and
//! `to_bytes()` of every variant of every `Wire` type, with `Ok`/`Err`,
//! `Some`/`None`, empty and non-empty vectors and `u64::MAX` operands.
//!
//! Every byte the traffic accounting counts comes from these encodings, so
//! a codec refactor must leave this digest unchanged. Re-capture only in a
//! change that means to alter the protocol, and say so.

use fractos_cap::{CapError, CapRef, Cid, ControllerAddr, Epoch, ObjectId, Perms};
use fractos_core::messages::{DeriveOp, MonitorKind, PeerOp};
use fractos_core::types::{
    Arg, CapArg, FosError, IncomingRequest, MemoryDesc, MonitorCb, ProcId, RequestDesc, Syscall,
    SyscallResult,
};
use fractos_core::verify::{PlanPath, PlanStep, VerifyError, VerifyErrorKind};
use fractos_core::wire::Wire;
use fractos_net::{Endpoint, Location, NodeId, Payload, TopologyError};
use fractos_sim::TraceCtx;

/// Captured by running this test at commit a3ef8ae, before the codec was
/// declared by layout instead of by hand-mirrored encode/decode pairs.
const WIRE_GOLDEN: u64 = 0x9dcb_b84d_46b7_5644;

const MAX: u64 = u64::MAX;

fn put<T: Wire>(corpus: &mut Vec<u8>, v: &T) {
    let bytes = v.to_bytes();
    assert_eq!(v.wire_size(), bytes.len() as u64);
    corpus.extend_from_slice(&v.wire_size().to_le_bytes());
    corpus.extend_from_slice(&bytes);
}

fn cref(n: u64) -> CapRef {
    CapRef {
        ctrl: ControllerAddr(u32::MAX),
        epoch: Epoch(MAX),
        object: ObjectId(n),
    }
}

fn endpoints() -> Vec<Endpoint> {
    vec![
        Endpoint::new(NodeId(u32::MAX), Location::HostCpu),
        Endpoint::new(NodeId(1), Location::SmartNic),
        Endpoint::new(NodeId(2), Location::Gpu(u8::MAX)),
        Endpoint::new(NodeId(3), Location::Nvme(7)),
    ]
}

fn memdesc(location: Endpoint) -> MemoryDesc {
    MemoryDesc {
        proc: ProcId(u32::MAX),
        location,
        addr: MAX,
        view_off: MAX - 1,
        size: MAX - 2,
        perms: Perms::RW,
    }
}

fn cap_args() -> Vec<CapArg> {
    let mut out = vec![CapArg {
        cap: cref(MAX),
        mem: None,
    }];
    for ep in endpoints() {
        out.push(CapArg {
            cap: cref(1),
            mem: Some(memdesc(ep)),
        });
    }
    out
}

fn imms() -> [Vec<Payload>; 2] {
    [
        vec![],
        vec![
            Payload::empty(),
            vec![1, 2, 3].into(),
            vec![0xff; 40].into(),
        ],
    ]
}

fn cids() -> [Vec<Cid>; 2] {
    [vec![], vec![Cid(0), Cid(u32::MAX)]]
}

fn errors() -> Vec<FosError> {
    let mut out = vec![
        FosError::WrongObjectKind,
        FosError::OutOfBounds,
        FosError::PermissionDenied,
        FosError::SizeMismatch,
        FosError::NoSuchKey,
        FosError::ControllerUnreachable,
        FosError::ProcessFailed,
        FosError::Topology(TopologyError::UnknownNode(NodeId(0))),
        FosError::Topology(TopologyError::UnknownNode(NodeId(9))),
        FosError::Topology(TopologyError::MissingComponent(Endpoint::gpu(NodeId(4)))),
        FosError::WindowInvalid,
        FosError::IntegrityViolation,
    ];
    for c in [
        CapError::NoSuchObject(ObjectId(MAX)),
        CapError::Revoked(ObjectId(1)),
        CapError::StaleEpoch(ObjectId(MAX - 1)),
        CapError::BadCid(Cid(u32::MAX)),
        CapError::SpaceExhausted,
        CapError::PermissionDenied,
        CapError::HasChildren(ObjectId(2)),
        CapError::AlreadyMonitored(ObjectId(3)),
    ] {
        out.push(FosError::Cap(c));
    }
    let paths = [
        PlanPath(vec![]),
        PlanPath(vec![
            PlanStep {
                object: ObjectId(MAX),
                arg: Some(u32::MAX),
            },
            PlanStep {
                object: ObjectId(5),
                arg: None,
            },
        ]),
    ];
    for kind in [
        VerifyErrorKind::DanglingCap,
        VerifyErrorKind::RevokedCap,
        VerifyErrorKind::StaleEpoch,
        VerifyErrorKind::CyclicContinuation,
        VerifyErrorKind::PrivilegeEscalation,
        VerifyErrorKind::RefinementViolation,
        VerifyErrorKind::MissingPerm(Perms::WRITE),
        VerifyErrorKind::MissingPerm(Perms::RW),
        VerifyErrorKind::WrongObjectKind,
    ] {
        for path in &paths {
            out.push(FosError::Verify(VerifyError {
                kind,
                path: path.clone(),
            }));
        }
    }
    out
}

fn syscalls() -> Vec<Syscall> {
    let mut out = vec![
        Syscall::Null,
        Syscall::MemoryCreate {
            addr: MAX,
            size: MAX,
            perms: Perms::READ,
        },
        Syscall::MemoryDiminish {
            cid: Cid(u32::MAX),
            offset: MAX,
            size: MAX,
            drop_perms: Perms::NONE,
        },
        Syscall::MemoryCopy {
            src: Cid(1),
            dst: Cid(u32::MAX),
        },
        Syscall::RequestInvoke { cid: Cid(2) },
        Syscall::CapCreateRevtree { cid: Cid(3) },
        Syscall::CapRevoke { cid: Cid(4) },
        Syscall::MonitorDelegate {
            cid: Cid(5),
            callback_id: MAX,
        },
        Syscall::MonitorReceive {
            cid: Cid(6),
            callback_id: MAX - 1,
        },
        Syscall::MemoryStat { cid: Cid(7) },
        Syscall::KvPut {
            key: String::new(),
            cid: Cid(8),
        },
        Syscall::KvPut {
            key: "gpu.init".into(),
            cid: Cid(9),
        },
        Syscall::KvGet { key: String::new() },
        Syscall::KvGet {
            key: "fs.open".into(),
        },
    ];
    for base in [None, Some(Cid(u32::MAX))] {
        for imms in imms() {
            for caps in cids() {
                out.push(Syscall::RequestCreate {
                    base,
                    tag: MAX,
                    imms: imms.clone(),
                    caps,
                });
            }
        }
    }
    out
}

fn results() -> Vec<SyscallResult> {
    let mut out = vec![
        SyscallResult::Ok,
        SyscallResult::NewCid(Cid(u32::MAX)),
        SyscallResult::Value(MAX),
        SyscallResult::Stat {
            addr: MAX,
            off: MAX - 1,
            size: MAX - 2,
        },
    ];
    out.extend(errors().into_iter().map(SyscallResult::Err));
    out
}

fn request_descs() -> Vec<RequestDesc> {
    let mut args: Vec<Arg> = imms()[1].iter().cloned().map(Arg::Imm).collect();
    args.extend(cap_args().into_iter().map(Arg::Cap));
    vec![
        RequestDesc {
            provider: ProcId(0),
            tag: MAX,
            args: vec![],
        },
        RequestDesc {
            provider: ProcId(u32::MAX),
            tag: 7,
            args,
        },
    ]
}

fn incoming() -> Vec<IncomingRequest> {
    let mut out = Vec::new();
    for imms in imms() {
        for caps in cids() {
            out.push(IncomingRequest {
                tag: MAX,
                imms: imms.clone(),
                caps,
            });
        }
    }
    out
}

fn derive_ops() -> Vec<DeriveOp> {
    let mut out = vec![
        DeriveOp::Diminish {
            offset: MAX,
            size: MAX - 1,
            drop_perms: Perms::WRITE,
        },
        DeriveOp::Revtree,
    ];
    for imms in imms() {
        for caps in [vec![], cap_args()] {
            out.push(DeriveOp::Refine {
                imms: imms.clone(),
                caps,
            });
        }
    }
    out
}

fn monitor_cbs() -> [MonitorCb; 2] {
    [
        MonitorCb::DelegateDrained { callback_id: MAX },
        MonitorCb::Receive { callback_id: 1 },
    ]
}

fn peer_ops() -> Vec<PeerOp> {
    let reply_to = ControllerAddr(u32::MAX);
    let token = MAX;
    let unit_results = || {
        let mut v: Vec<Result<(), FosError>> = vec![Ok(())];
        v.extend(errors().into_iter().map(Err));
        v
    };
    let cap_results = || {
        let mut v: Vec<Result<CapArg, FosError>> = cap_args().into_iter().map(Ok).collect();
        v.extend(errors().into_iter().map(Err));
        v
    };
    let mut out = vec![
        PeerOp::Invoke {
            req: cref(MAX),
            reply_to,
            token,
        },
        PeerOp::Delegate {
            obj: cref(1),
            to: ProcId(u32::MAX),
            reply_to,
            token,
        },
        PeerOp::Revoke {
            obj: cref(2),
            reply_to,
            token,
        },
        PeerOp::Cleanup { objs: vec![] },
        PeerOp::Cleanup {
            objs: vec![cref(3), cref(MAX)],
        },
        PeerOp::FailProcess {
            proc: ProcId(u32::MAX),
        },
        PeerOp::KvGet {
            key: "x.y".into(),
            to: ProcId(5),
            reply_to,
            token,
        },
    ];
    for op in derive_ops() {
        out.push(PeerOp::Derive {
            obj: cref(4),
            op,
            creator: ProcId(u32::MAX),
            reply_to,
            token,
        });
    }
    for kind in [MonitorKind::Delegate, MonitorKind::Receive] {
        out.push(PeerOp::Monitor {
            obj: cref(5),
            kind,
            watcher: ProcId(6),
            callback_id: MAX,
            reply_to,
            token,
        });
    }
    for cb in monitor_cbs() {
        out.push(PeerOp::MonitorEvent {
            proc: ProcId(u32::MAX),
            cb,
        });
    }
    for cap in cap_args() {
        out.push(PeerOp::KvPut {
            key: String::new(),
            cap,
            reply_to,
            token,
        });
    }
    for result in unit_results() {
        out.push(PeerOp::InvokeAck {
            token,
            result: result.clone(),
        });
        out.push(PeerOp::MonitorAck {
            token,
            result: result.clone(),
        });
        out.push(PeerOp::KvPutAck { token, result });
    }
    for result in cap_results() {
        out.push(PeerOp::DeriveAck {
            token,
            result: result.clone(),
        });
        out.push(PeerOp::DelegateAck {
            token,
            result: result.clone(),
        });
        out.push(PeerOp::KvGetAck { token, result });
    }
    let mut revoke_results: Vec<Result<u64, FosError>> = vec![Ok(0), Ok(MAX)];
    revoke_results.extend(errors().into_iter().map(Err));
    for result in revoke_results {
        out.push(PeerOp::RevokeAck { token, result });
    }
    out
}

#[test]
fn every_wire_type_matches_the_golden_digest() {
    let mut corpus = Vec::new();
    put(&mut corpus, &cref(MAX));
    put(&mut corpus, &TraceCtx::NONE);
    put(
        &mut corpus,
        &TraceCtx {
            trace: MAX,
            span: 1,
        },
    );
    for p in [Perms::NONE, Perms::READ, Perms::WRITE, Perms::RW] {
        put(&mut corpus, &p);
    }
    put(&mut corpus, &Cid(u32::MAX));
    for ep in endpoints() {
        put(&mut corpus, &ep);
        put(&mut corpus, &memdesc(ep));
    }
    for c in cap_args() {
        put(&mut corpus, &c);
        put(&mut corpus, &Arg::Cap(c));
    }
    for imm in &imms()[1] {
        put(&mut corpus, &Arg::Imm(imm.clone()));
    }
    for d in request_descs() {
        put(&mut corpus, &d);
    }
    for sc in syscalls() {
        put(&mut corpus, &sc);
    }
    for e in errors() {
        put(&mut corpus, &e);
    }
    for r in results() {
        put(&mut corpus, &r);
    }
    for r in incoming() {
        put(&mut corpus, &r);
    }
    for k in [MonitorKind::Delegate, MonitorKind::Receive] {
        put(&mut corpus, &k);
    }
    for cb in monitor_cbs() {
        put(&mut corpus, &cb);
    }
    for op in derive_ops() {
        put(&mut corpus, &op);
    }
    for op in peer_ops() {
        put(&mut corpus, &op);
    }
    assert_eq!(
        fractos_core::fnv1a(&corpus),
        WIRE_GOLDEN,
        "the wire format changed ({} corpus bytes)",
        corpus.len()
    );
}
