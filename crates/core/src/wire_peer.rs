//! Wire layouts of the Controller ↔ Controller protocol.
//!
//! Everything Controllers exchange is serializable with the same
//! little-endian format as the syscall surface, declared the same way (see
//! [`crate::wire`]): the round-trip property tests prove there are no
//! in-memory-only shortcuts in the peer protocol either.
//! [`PeerOp::wire_size`](crate::messages::PeerOp) delegates to these
//! encodings, so traffic accounting uses real sizes.

use crate::messages::{DeriveOp, MonitorKind, PeerOp};
use crate::types::MonitorCb;
use crate::wire::wire;

wire! {
    enum MonitorKind { Delegate = 0, Receive = 1 }
    enum MonitorCb { DelegateDrained { callback_id } = 0, Receive { callback_id } = 1 }
    enum DeriveOp {
        Diminish { offset, size, drop_perms } = 0,
        Refine { imms, caps } = 1,
        Revtree = 2,
    }
    enum PeerOp {
        Invoke { req, reply_to, token } = 0,
        InvokeAck { token, result } = 1,
        Derive { obj, op, creator, reply_to, token } = 2,
        DeriveAck { token, result } = 3,
        Delegate { obj, to, reply_to, token } = 4,
        DelegateAck { token, result } = 5,
        Revoke { obj, reply_to, token } = 6,
        RevokeAck { token, result } = 7,
        Monitor { obj, kind, watcher, callback_id, reply_to, token } = 8,
        MonitorAck { token, result } = 9,
        MonitorEvent { proc, cb } = 10,
        Cleanup { objs } = 11,
        FailProcess { proc } = 12,
        KvPut { key, cap, reply_to, token } = 13,
        KvPutAck { token, result } = 14,
        KvGet { key, to, reply_to, token } = 15,
        KvGetAck { token, result } = 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CapArg, FosError, ProcId};
    use crate::wire::Wire;
    use fractos_cap::{CapRef, ControllerAddr, Epoch, ObjectId};

    fn cref(n: u64) -> CapRef {
        CapRef {
            ctrl: ControllerAddr(1),
            epoch: Epoch(2),
            object: ObjectId(n),
        }
    }

    #[test]
    fn peer_ops_roundtrip() {
        let ops = vec![
            PeerOp::Invoke {
                req: cref(1),
                reply_to: ControllerAddr(0),
                token: 9,
            },
            PeerOp::InvokeAck {
                token: 9,
                result: Err(FosError::ProcessFailed),
            },
            PeerOp::Derive {
                obj: cref(2),
                op: DeriveOp::Refine {
                    imms: vec![vec![1, 2, 3].into()],
                    caps: vec![CapArg {
                        cap: cref(3),
                        mem: None,
                    }],
                },
                creator: ProcId(4),
                reply_to: ControllerAddr(0),
                token: 10,
            },
            PeerOp::DeriveAck {
                token: 10,
                result: Ok(CapArg {
                    cap: cref(5),
                    mem: None,
                }),
            },
            PeerOp::Delegate {
                obj: cref(6),
                to: ProcId(7),
                reply_to: ControllerAddr(2),
                token: 11,
            },
            PeerOp::Revoke {
                obj: cref(8),
                reply_to: ControllerAddr(0),
                token: 12,
            },
            PeerOp::RevokeAck {
                token: 12,
                result: Ok(17),
            },
            PeerOp::Monitor {
                obj: cref(9),
                kind: MonitorKind::Delegate,
                watcher: ProcId(1),
                callback_id: 99,
                reply_to: ControllerAddr(0),
                token: 13,
            },
            PeerOp::MonitorEvent {
                proc: ProcId(1),
                cb: MonitorCb::Receive { callback_id: 5 },
            },
            PeerOp::Cleanup {
                objs: vec![cref(1), cref(2)],
            },
            PeerOp::FailProcess { proc: ProcId(3) },
            PeerOp::KvPut {
                key: "x.y".into(),
                cap: CapArg {
                    cap: cref(4),
                    mem: None,
                },
                reply_to: ControllerAddr(1),
                token: 14,
            },
            PeerOp::KvGet {
                key: "x.y".into(),
                to: ProcId(5),
                reply_to: ControllerAddr(1),
                token: 15,
            },
            PeerOp::KvGetAck {
                token: 15,
                result: Err(FosError::NoSuchKey),
            },
        ];
        for op in ops {
            let bytes = op.to_bytes();
            assert_eq!(PeerOp::from_bytes(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn garbage_never_panics() {
        for len in 0..64 {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let _ = PeerOp::from_bytes(&bytes);
        }
    }
}
