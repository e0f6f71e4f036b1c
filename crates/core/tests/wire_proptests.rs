//! Property tests for the wire codec: every protocol value must survive an
//! encode/decode round trip, decoding never panics on garbage or on a
//! corrupted valid encoding, and every truncation is detected.
//!
//! Tier-1 runs the default 64 cases per property; CI's long run sets
//! `PROPTEST_CASES=4096`.

use proptest::prelude::*;

use fractos_cap::{CapError, CapRef, Cid, ControllerAddr, Epoch, ObjectId, Perms};
use fractos_core::messages::{DeriveOp, MonitorKind, PeerOp};
use fractos_core::types::{
    Arg, CapArg, FosError, IncomingRequest, MemoryDesc, MonitorCb, ProcId, RequestDesc, Syscall,
    SyscallResult,
};
use fractos_core::verify::{PlanPath, PlanStep, VerifyError, VerifyErrorKind};
use fractos_core::wire::Wire;
use fractos_net::{Endpoint, Location, NodeId, Payload, TopologyError};

fn arb_capref() -> impl Strategy<Value = CapRef> {
    (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(c, e, o)| CapRef {
        ctrl: ControllerAddr(c),
        epoch: Epoch(e),
        object: ObjectId(o),
    })
}

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<u32>(), 0u8..4, any::<u8>()).prop_map(|(n, kind, sub)| Endpoint {
        node: NodeId(n),
        loc: match kind {
            0 => Location::HostCpu,
            1 => Location::SmartNic,
            2 => Location::Gpu(sub),
            _ => Location::Nvme(sub),
        },
    })
}

fn arb_memdesc() -> impl Strategy<Value = MemoryDesc> {
    (
        any::<u32>(),
        arb_endpoint(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        0u8..4,
    )
        .prop_map(|(p, location, addr, view_off, size, perms)| MemoryDesc {
            proc: ProcId(p),
            location,
            addr,
            view_off,
            size,
            perms: Perms::from_bits(perms),
        })
}

fn arb_cap_arg() -> impl Strategy<Value = CapArg> {
    (arb_capref(), prop::option::of(arb_memdesc())).prop_map(|(cap, mem)| CapArg { cap, mem })
}

fn arb_imms() -> impl Strategy<Value = Vec<Payload>> {
    prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..32).prop_map(Payload::from),
        0..4,
    )
}

fn arb_arg() -> impl Strategy<Value = Arg> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64).prop_map(|v| Arg::Imm(v.into())),
        arb_cap_arg().prop_map(Arg::Cap),
    ]
}

fn arb_syscall() -> impl Strategy<Value = Syscall> {
    prop_oneof![
        Just(Syscall::Null),
        (any::<u64>(), any::<u64>(), 0u8..4).prop_map(|(addr, size, p)| Syscall::MemoryCreate {
            addr,
            size,
            perms: Perms::from_bits(p)
        }),
        (any::<u32>(), any::<u64>(), any::<u64>(), 0u8..4).prop_map(|(c, o, s, p)| {
            Syscall::MemoryDiminish {
                cid: Cid(c),
                offset: o,
                size: s,
                drop_perms: Perms::from_bits(p),
            }
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(a, b)| Syscall::MemoryCopy {
            src: Cid(a),
            dst: Cid(b)
        }),
        (
            prop::option::of(any::<u32>()),
            any::<u64>(),
            arb_imms(),
            prop::collection::vec(any::<u32>(), 0..4),
        )
            .prop_map(|(base, tag, imms, caps)| Syscall::RequestCreate {
                base: base.map(Cid),
                tag,
                imms,
                caps: caps.into_iter().map(Cid).collect(),
            }),
        any::<u32>().prop_map(|c| Syscall::RequestInvoke { cid: Cid(c) }),
        any::<u32>().prop_map(|c| Syscall::CapCreateRevtree { cid: Cid(c) }),
        any::<u32>().prop_map(|c| Syscall::CapRevoke { cid: Cid(c) }),
        (any::<u32>(), any::<u64>()).prop_map(|(c, cb)| Syscall::MonitorDelegate {
            cid: Cid(c),
            callback_id: cb
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(c, cb)| Syscall::MonitorReceive {
            cid: Cid(c),
            callback_id: cb
        }),
        any::<u32>().prop_map(|c| Syscall::MemoryStat { cid: Cid(c) }),
        ("[a-z.]{0,16}", any::<u32>()).prop_map(|(key, c)| Syscall::KvPut { key, cid: Cid(c) }),
        "[a-z.]{0,16}".prop_map(|key| Syscall::KvGet { key }),
    ]
}

/// Every `FosError` variant. `Topology` is generated with `NodeId(0)`
/// only: the node does not travel on the wire (the variant is its tag
/// alone), so any other node decodes as `NodeId(0)` by design — see
/// `topology_errors_decode_without_their_node`.
fn arb_fos_error() -> impl Strategy<Value = FosError> {
    let cap = (0u8..8, any::<u64>(), any::<u32>()).prop_map(|(k, o, c)| {
        let o = ObjectId(o);
        match k {
            0 => CapError::NoSuchObject(o),
            1 => CapError::Revoked(o),
            2 => CapError::StaleEpoch(o),
            3 => CapError::BadCid(Cid(c)),
            4 => CapError::SpaceExhausted,
            5 => CapError::PermissionDenied,
            6 => CapError::HasChildren(o),
            _ => CapError::AlreadyMonitored(o),
        }
    });
    let kind = (0u8..8, 0u8..4).prop_map(|(k, p)| match k {
        0 => VerifyErrorKind::DanglingCap,
        1 => VerifyErrorKind::RevokedCap,
        2 => VerifyErrorKind::StaleEpoch,
        3 => VerifyErrorKind::CyclicContinuation,
        4 => VerifyErrorKind::PrivilegeEscalation,
        5 => VerifyErrorKind::RefinementViolation,
        6 => VerifyErrorKind::MissingPerm(Perms::from_bits(p)),
        _ => VerifyErrorKind::WrongObjectKind,
    });
    let path = prop::collection::vec((any::<u64>(), prop::option::of(any::<u32>())), 0..4)
        .prop_map(|steps| {
            PlanPath(
                steps
                    .into_iter()
                    .map(|(o, arg)| PlanStep {
                        object: ObjectId(o),
                        arg,
                    })
                    .collect(),
            )
        });
    (0u8..12, cap, kind, path).prop_map(|(k, cap, kind, path)| match k {
        0 => FosError::Cap(cap),
        1 => FosError::WrongObjectKind,
        2 => FosError::OutOfBounds,
        3 => FosError::PermissionDenied,
        4 => FosError::SizeMismatch,
        5 => FosError::NoSuchKey,
        6 => FosError::ControllerUnreachable,
        7 => FosError::ProcessFailed,
        8 => FosError::Topology(TopologyError::UnknownNode(NodeId(0))),
        9 => FosError::WindowInvalid,
        10 => FosError::IntegrityViolation,
        _ => FosError::Verify(VerifyError { kind, path }),
    })
}

fn arb_result<T: Strategy>(ok: T) -> impl Strategy<Value = Result<T::Value, FosError>> {
    (any::<bool>(), ok, arb_fos_error())
        .prop_map(|(is_ok, v, e)| if is_ok { Ok(v) } else { Err(e) })
}

fn arb_syscall_result() -> impl Strategy<Value = SyscallResult> {
    (0u8..5, any::<u64>(), arb_fos_error()).prop_map(|(which, v, e)| match which {
        0 => SyscallResult::Ok,
        1 => SyscallResult::NewCid(Cid(v as u32)),
        2 => SyscallResult::Value(v),
        3 => SyscallResult::Stat {
            addr: v,
            off: v / 2,
            size: v / 3,
        },
        _ => SyscallResult::Err(e),
    })
}

fn arb_monitor_cb() -> impl Strategy<Value = MonitorCb> {
    (any::<bool>(), any::<u64>()).prop_map(|(drained, callback_id)| {
        if drained {
            MonitorCb::DelegateDrained { callback_id }
        } else {
            MonitorCb::Receive { callback_id }
        }
    })
}

fn arb_derive_op() -> impl Strategy<Value = DeriveOp> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), 0u8..4).prop_map(|(offset, size, p)| DeriveOp::Diminish {
            offset,
            size,
            drop_perms: Perms::from_bits(p),
        }),
        (arb_imms(), prop::collection::vec(arb_cap_arg(), 0..3))
            .prop_map(|(imms, caps)| DeriveOp::Refine { imms, caps }),
        Just(DeriveOp::Revtree),
    ]
}

/// Every `PeerOp` variant, with `Ok` and `Err` results.
fn arb_peer_op() -> impl Strategy<Value = PeerOp> {
    let ids = (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>());
    let results = (
        arb_result(Just(())),
        arb_result(arb_cap_arg()),
        arb_result(any::<u64>()),
    );
    let misc = (
        any::<bool>(),
        "[a-z.]{0,16}",
        arb_monitor_cb(),
        prop::collection::vec(arb_capref(), 0..4),
    );
    (
        0u8..17,
        arb_capref(),
        arb_derive_op(),
        arb_cap_arg(),
        ids,
        results,
        misc,
    )
        .prop_map(|(which, obj, op, cap, ids, results, misc)| {
            let (proc, reply_to, token, callback_id) =
                (ProcId(ids.0), ControllerAddr(ids.1), ids.2, ids.3);
            let (unit, capr, revoked) = results;
            let (delegate, key, cb, objs) = misc;
            match which {
                0 => PeerOp::Invoke {
                    req: obj,
                    reply_to,
                    token,
                },
                1 => PeerOp::InvokeAck {
                    token,
                    result: unit,
                },
                2 => PeerOp::Derive {
                    obj,
                    op,
                    creator: proc,
                    reply_to,
                    token,
                },
                3 => PeerOp::DeriveAck {
                    token,
                    result: capr,
                },
                4 => PeerOp::Delegate {
                    obj,
                    to: proc,
                    reply_to,
                    token,
                },
                5 => PeerOp::DelegateAck {
                    token,
                    result: capr,
                },
                6 => PeerOp::Revoke {
                    obj,
                    reply_to,
                    token,
                },
                7 => PeerOp::RevokeAck {
                    token,
                    result: revoked,
                },
                8 => PeerOp::Monitor {
                    obj,
                    kind: if delegate {
                        MonitorKind::Delegate
                    } else {
                        MonitorKind::Receive
                    },
                    watcher: proc,
                    callback_id,
                    reply_to,
                    token,
                },
                9 => PeerOp::MonitorAck {
                    token,
                    result: unit,
                },
                10 => PeerOp::MonitorEvent { proc, cb },
                11 => PeerOp::Cleanup { objs },
                12 => PeerOp::FailProcess { proc },
                13 => PeerOp::KvPut {
                    key,
                    cap,
                    reply_to,
                    token,
                },
                14 => PeerOp::KvPutAck {
                    token,
                    result: unit,
                },
                15 => PeerOp::KvGet {
                    key,
                    to: proc,
                    reply_to,
                    token,
                },
                _ => PeerOp::KvGetAck {
                    token,
                    result: capr,
                },
            }
        })
}

fn roundtrips<T: Wire + Clone + PartialEq + core::fmt::Debug>(v: &T) -> Result<(), TestCaseError> {
    let bytes = v.to_bytes();
    prop_assert_eq!(v.wire_size(), bytes.len() as u64);
    prop_assert_eq!(T::from_bytes(&bytes), Ok(v.clone()));
    Ok(())
}

/// A prefix of a valid encoding never decodes: decoding reads left to
/// right, so it runs out of bytes before it can finish.
fn truncation_fails<T: Wire + core::fmt::Debug>(v: &T, frac: f64) -> Result<(), TestCaseError> {
    let bytes = v.to_bytes();
    let cut = ((bytes.len() - 1) as f64 * frac) as usize;
    prop_assert!(
        T::from_bytes(&bytes[..cut]).is_err(),
        "{v:?} decoded from {cut} of {} bytes",
        bytes.len()
    );
    Ok(())
}

fn decode_every_type(bytes: &[u8]) {
    let _ = Syscall::from_bytes(bytes);
    let _ = SyscallResult::from_bytes(bytes);
    let _ = RequestDesc::from_bytes(bytes);
    let _ = IncomingRequest::from_bytes(bytes);
    let _ = CapRef::from_bytes(bytes);
    let _ = MemoryDesc::from_bytes(bytes);
    let _ = CapArg::from_bytes(bytes);
    let _ = FosError::from_bytes(bytes);
    let _ = PeerOp::from_bytes(bytes);
    let _ = DeriveOp::from_bytes(bytes);
    let _ = MonitorCb::from_bytes(bytes);
    let _ = MonitorKind::from_bytes(bytes);
}

proptest! {
    #[test]
    fn syscalls_roundtrip(sc in arb_syscall()) {
        roundtrips(&sc)?;
    }

    #[test]
    fn request_descs_roundtrip(
        provider in any::<u32>(),
        tag in any::<u64>(),
        args in prop::collection::vec(arb_arg(), 0..8),
    ) {
        roundtrips(&RequestDesc {
            provider: ProcId(provider),
            tag,
            args,
        })?;
    }

    #[test]
    fn incoming_requests_roundtrip(
        tag in any::<u64>(),
        imms in arb_imms(),
        caps in prop::collection::vec(any::<u32>(), 0..6),
    ) {
        roundtrips(&IncomingRequest {
            tag,
            imms,
            caps: caps.into_iter().map(Cid).collect(),
        })?;
    }

    #[test]
    fn results_roundtrip(res in arb_syscall_result()) {
        roundtrips(&res)?;
    }

    #[test]
    fn fos_errors_roundtrip(err in arb_fos_error()) {
        roundtrips(&err)?;
    }

    #[test]
    fn cap_args_roundtrip(cap in arb_cap_arg()) {
        roundtrips(&cap)?;
    }

    #[test]
    fn derive_ops_roundtrip(op in arb_derive_op()) {
        roundtrips(&op)?;
    }

    #[test]
    fn monitor_cbs_roundtrip(cb in arb_monitor_cb()) {
        roundtrips(&cb)?;
    }

    #[test]
    fn peer_ops_roundtrip(op in arb_peer_op()) {
        roundtrips(&op)?;
    }

    /// The loss `arb_fos_error` avoids, pinned: a topology error travels as
    /// its tag alone and comes back naming node 0.
    #[test]
    fn topology_errors_decode_without_their_node(node in any::<u32>()) {
        let err = FosError::Topology(TopologyError::UnknownNode(NodeId(node)));
        prop_assert_eq!(
            FosError::from_bytes(&err.to_bytes()),
            Ok(FosError::Topology(TopologyError::UnknownNode(NodeId(0))))
        );
    }

    /// Decoding arbitrary garbage must error or succeed — never panic.
    #[test]
    fn decoding_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        decode_every_type(&bytes);
    }

    /// Corrupting one byte of a valid encoding (a tag, a length, a count)
    /// must error or succeed — never panic, never reserve what a hostile
    /// count asks for.
    #[test]
    fn corrupted_encodings_never_panic(
        sc in arb_syscall(),
        op in arb_peer_op(),
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        for mut bytes in [sc.to_bytes(), op.to_bytes()] {
            let i = pos % bytes.len();
            bytes[i] = byte;
            decode_every_type(&bytes);
        }
    }

    /// Truncating a valid encoding always fails to decode (no silent
    /// partial reads).
    #[test]
    fn truncation_always_detected(
        sc in arb_syscall(),
        op in arb_peer_op(),
        err in arb_fos_error(),
        cap in arb_cap_arg(),
        cb in arb_monitor_cb(),
        dop in arb_derive_op(),
        frac in 0.0f64..1.0,
    ) {
        truncation_fails(&sc, frac)?;
        truncation_fails(&op, frac)?;
        truncation_fails(&err, frac)?;
        truncation_fails(&cap, frac)?;
        truncation_fails(&cb, frac)?;
        truncation_fails(&dop, frac)?;
    }
}
