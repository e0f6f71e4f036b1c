//! Actor-level message types of the FractOS protocol.
//!
//! Three channels exist (§3.1–§3.2): Process ↔ Controller request/response
//! queues, Controller ↔ Controller peer links, and harness-injected fault
//! events. All of them ride the simulated fabric; sizes for traffic
//! accounting come from the [`crate::wire`] codec.

use fractos_cap::ControllerAddr;
use fractos_sim::{Payload, TraceCtx};

use crate::types::{CapArg, FosError, IncomingRequest, MonitorCb, ProcId, Syscall, SyscallResult};
use crate::wire::Wire;

/// Messages delivered to a Process actor.
#[derive(Debug)]
pub enum ProcMsg {
    /// Kick-off event posted by the testbed; triggers `Service::on_start`.
    Start,
    /// A message from the Process's Controller.
    FromCtrl {
        /// Wire-level sequence number (per Controller → Process channel);
        /// the Process suppresses duplicates by it.
        seq: u64,
        /// Causal trace context stamped by the sender. An out-of-band
        /// header extension: excluded from `wire_size` accounting so
        /// traffic counters are identical whether or not spans are on.
        tctx: TraceCtx,
        /// The payload.
        msg: CtrlToProc,
    },
    /// A local timer armed via `Fos::sleep` fired.
    Timer {
        /// Token identifying the armed continuation.
        token: u64,
    },
    /// Self-scheduled retransmit of a syscall whose previous transmit was
    /// lost (only armed while a fault plan is active).
    Retransmit {
        /// Completion token of the pending syscall.
        token: u64,
        /// The operation to re-send.
        sc: Syscall,
        /// Original sequence number (unchanged across retransmits).
        seq: u64,
        /// Transmit attempt about to be made (1-based after the original).
        attempt: u32,
    },
    /// Last-resort request timeout: if the syscall is still pending when
    /// this fires, it resolves to `FosError::ControllerUnreachable`.
    SyscallTimeout {
        /// Completion token of the pending syscall.
        token: u64,
    },
    /// Harness-injected Process failure.
    Kill,
}

/// Controller → Process messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlToProc {
    /// Completion of an asynchronous syscall.
    Reply {
        /// Token the Process attached to the syscall.
        token: u64,
        /// The outcome.
        result: SyscallResult,
    },
    /// Delivery of an invoked Request (the `request_receive` path).
    Deliver(IncomingRequest),
    /// A monitor callback (§3.6).
    Monitor(MonitorCb),
}

impl CtrlToProc {
    /// Serialized size for traffic accounting.
    pub fn wire_size(&self) -> u64 {
        match self {
            CtrlToProc::Reply { result, .. } => 8 + result.wire_size(),
            CtrlToProc::Deliver(req) => req.wire_size(),
            CtrlToProc::Monitor(_) => 16,
        }
    }
}

/// Messages delivered to a Controller actor.
#[derive(Debug)]
pub enum CtrlMsg {
    /// A syscall posted by a managed Process.
    FromProc {
        /// The issuing Process.
        proc: ProcId,
        /// Completion token to echo in the reply.
        token: u64,
        /// The operation.
        sc: Syscall,
        /// Wire-level sequence number (per Process → Controller channel);
        /// the Controller suppresses duplicates by it so retransmitted
        /// syscalls stay idempotent.
        seq: u64,
        /// Causal trace context (out-of-band header extension; excluded
        /// from traffic accounting).
        tctx: TraceCtx,
    },
    /// A peer-Controller operation.
    FromPeer {
        /// The sending Controller.
        from: ControllerAddr,
        /// The operation.
        op: PeerOp,
        /// Wire-level sequence number (per directed peer channel).
        seq: u64,
        /// Causal trace context (out-of-band header extension; excluded
        /// from traffic accounting).
        tctx: TraceCtx,
    },
    /// Self-scheduled retransmit of a Controller → Process message whose
    /// previous transmit was lost (only armed while faults are active).
    RetransmitProc {
        /// The destination Process.
        proc: ProcId,
        /// The payload to re-send.
        msg: CtrlToProc,
        /// Original sequence number (unchanged across retransmits).
        seq: u64,
        /// Transmit attempt about to be made (1-based after the original).
        attempt: u32,
        /// Trace context of the original transmit, so the retry stays in
        /// the originating request's span tree.
        tctx: TraceCtx,
    },
    /// Self-scheduled retransmit of a peer operation whose previous
    /// transmit was lost (only armed while faults are active).
    RetransmitPeer {
        /// The destination Controller.
        to: ControllerAddr,
        /// The operation to re-send.
        op: PeerOp,
        /// Original sequence number (unchanged across retransmits).
        seq: u64,
        /// Transmit attempt about to be made (1-based after the original).
        attempt: u32,
        /// Trace context of the original transmit, so the retry stays in
        /// the originating request's span tree.
        tctx: TraceCtx,
    },
    /// Last-resort ack timeout for a pending peer operation: if the op is
    /// still pending when this fires it resolves to
    /// `FosError::ControllerUnreachable`.
    AckTimeout {
        /// The pending-operation token.
        token: u64,
    },
    /// The watchdog observed a previously-declared-dead Controller answer
    /// pings again (a healed partition, not a real crash); peers may lift
    /// their unreachability verdict.
    PeerRecovered {
        /// The recovered Controller.
        peer: ControllerAddr,
    },
    /// The request/response channel to a managed Process was severed
    /// (Process failure detection, §3.6).
    ProcChannelSevered {
        /// The failed Process.
        proc: ProcId,
    },
    /// The watchdog reports a peer Controller (or its node) failed.
    PeerFailed {
        /// The failed Controller.
        peer: ControllerAddr,
    },
    /// Harness-injected Controller failure.
    Kill,
    /// Harness-injected Controller reboot (epoch advances; all prior
    /// capabilities become stale).
    Reboot,
    /// Liveness probe from the watchdog service (§3.6).
    Ping {
        /// The watchdog actor to answer.
        watchdog: fractos_sim::ActorId,
        /// Where the watchdog sits on the fabric.
        watchdog_ep: fractos_net::Endpoint,
        /// Sequence number to echo.
        seq: u64,
    },
}

/// Kinds of monitors (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorKind {
    /// `monitor_delegate`.
    Delegate,
    /// `monitor_receive`.
    Receive,
}

/// Derivation operations executed at an object's owner Controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeriveOp {
    /// `memory_diminish`.
    Diminish {
        /// Offset of the new view within the source view.
        offset: u64,
        /// Length of the new view.
        size: u64,
        /// Permissions to drop.
        drop_perms: fractos_cap::Perms,
    },
    /// Request refinement: append arguments to a derived Request.
    Refine {
        /// Immediate arguments to append.
        imms: Vec<Payload>,
        /// Already-delegation-resolved capability arguments to append.
        caps: Vec<CapArg>,
    },
    /// `cap_create_revtree`.
    Revtree,
}

/// Controller ↔ Controller operations.
///
/// Every variant that expects an answer carries `(reply_to, token)`; the
/// answer comes back as the corresponding `*Ack` with the same token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerOp {
    /// Forward `request_invoke` to the Request's owner (= provider's
    /// Controller).
    Invoke {
        /// The Request capability being invoked.
        req: fractos_cap::CapRef,
        /// Who to ack.
        reply_to: ControllerAddr,
        /// Ack token.
        token: u64,
    },
    /// Ack of [`PeerOp::Invoke`].
    InvokeAck {
        /// Echoed token.
        token: u64,
        /// Validation outcome.
        result: Result<(), FosError>,
    },
    /// Execute a derivation at the object's owner.
    Derive {
        /// The source object.
        obj: fractos_cap::CapRef,
        /// The derivation.
        op: DeriveOp,
        /// The Process registering the derived object (for failure
        /// cleanup).
        creator: ProcId,
        /// Who to ack.
        reply_to: ControllerAddr,
        /// Ack token.
        token: u64,
    },
    /// Ack of [`PeerOp::Derive`] with the new capability (and memory
    /// snapshot when applicable).
    DeriveAck {
        /// Echoed token.
        token: u64,
        /// The derived capability.
        result: Result<CapArg, FosError>,
    },
    /// Register a delegation of `obj` to Process `to` at the owner
    /// (mints a separately revocable child when a `monitor_delegate` is
    /// armed, §3.6).
    Delegate {
        /// The delegated object.
        obj: fractos_cap::CapRef,
        /// The delegatee Process.
        to: ProcId,
        /// Who to ack.
        reply_to: ControllerAddr,
        /// Ack token.
        token: u64,
    },
    /// Ack of [`PeerOp::Delegate`].
    DelegateAck {
        /// Echoed token.
        token: u64,
        /// The capability the delegatee should hold.
        result: Result<CapArg, FosError>,
    },
    /// Revoke an object at its owner.
    Revoke {
        /// The object to revoke.
        obj: fractos_cap::CapRef,
        /// Who to ack.
        reply_to: ControllerAddr,
        /// Ack token.
        token: u64,
    },
    /// Ack of [`PeerOp::Revoke`].
    RevokeAck {
        /// Echoed token.
        token: u64,
        /// Number of revocation-tree nodes invalidated.
        result: Result<u64, FosError>,
    },
    /// Arm a monitor at the object's owner.
    Monitor {
        /// The monitored object.
        obj: fractos_cap::CapRef,
        /// Which monitor.
        kind: MonitorKind,
        /// The watching Process.
        watcher: ProcId,
        /// Echoed in the callback.
        callback_id: u64,
        /// Who to ack.
        reply_to: ControllerAddr,
        /// Ack token.
        token: u64,
    },
    /// Ack of [`PeerOp::Monitor`].
    MonitorAck {
        /// Echoed token.
        token: u64,
        /// Outcome.
        result: Result<(), FosError>,
    },
    /// Route a monitor callback to the Controller managing `proc`.
    MonitorEvent {
        /// The watching Process.
        proc: ProcId,
        /// The callback.
        cb: MonitorCb,
    },
    /// Out-of-critical-path cleanup broadcast (§3.5): peers drop dangling
    /// capabilities referencing these revoked objects.
    Cleanup {
        /// Revoked objects.
        objs: Vec<fractos_cap::CapRef>,
    },
    /// Failure translation (§3.6): the named Process failed; revoke
    /// everything it registered or was delegated with monitoring.
    FailProcess {
        /// The failed Process.
        proc: ProcId,
    },
    /// Bootstrap registry: publish a capability.
    KvPut {
        /// Key.
        key: String,
        /// Published capability (with memory snapshot if applicable).
        cap: CapArg,
        /// Who to ack.
        reply_to: ControllerAddr,
        /// Ack token.
        token: u64,
    },
    /// Ack of [`PeerOp::KvPut`].
    KvPutAck {
        /// Echoed token.
        token: u64,
        /// Outcome.
        result: Result<(), FosError>,
    },
    /// Bootstrap registry: look up a capability for Process `to`.
    KvGet {
        /// Key.
        key: String,
        /// The Process that will receive the capability.
        to: ProcId,
        /// Who to ack.
        reply_to: ControllerAddr,
        /// Ack token.
        token: u64,
    },
    /// Ack of [`PeerOp::KvGet`].
    KvGetAck {
        /// Echoed token.
        token: u64,
        /// The capability to install, if found.
        result: Result<CapArg, FosError>,
    },
}

impl PeerOp {
    /// Short operation name (for traces and span labels).
    pub fn name(&self) -> &'static str {
        match self {
            PeerOp::Invoke { .. } => "invoke",
            PeerOp::InvokeAck { .. } => "invoke-ack",
            PeerOp::Derive { .. } => "derive",
            PeerOp::DeriveAck { .. } => "derive-ack",
            PeerOp::Delegate { .. } => "delegate",
            PeerOp::DelegateAck { .. } => "delegate-ack",
            PeerOp::Revoke { .. } => "revoke",
            PeerOp::RevokeAck { .. } => "revoke-ack",
            PeerOp::Monitor { .. } => "monitor",
            PeerOp::MonitorAck { .. } => "monitor-ack",
            PeerOp::MonitorEvent { .. } => "monitor-event",
            PeerOp::Cleanup { .. } => "cleanup",
            PeerOp::FailProcess { .. } => "fail-process",
            PeerOp::KvPut { .. } => "kv-put",
            PeerOp::KvPutAck { .. } => "kv-put-ack",
            PeerOp::KvGet { .. } => "kv-get",
            PeerOp::KvGetAck { .. } => "kv-get-ack",
        }
    }

    /// Serialized size (the real wire encoding; see `crate::wire_peer`).
    pub fn wire_size(&self) -> u64 {
        crate::wire::Wire::wire_size(self)
    }

    /// The pending-operation token a request-type op expects an ack for
    /// (`None` for acks and one-way ops). Senders arm last-resort ack
    /// timeouts by it while a fault plan is active.
    pub fn ack_token(&self) -> Option<u64> {
        match self {
            PeerOp::Invoke { token, .. }
            | PeerOp::Derive { token, .. }
            | PeerOp::Delegate { token, .. }
            | PeerOp::Revoke { token, .. }
            | PeerOp::Monitor { token, .. }
            | PeerOp::KvPut { token, .. }
            | PeerOp::KvGet { token, .. } => Some(*token),
            PeerOp::InvokeAck { .. }
            | PeerOp::DeriveAck { .. }
            | PeerOp::DelegateAck { .. }
            | PeerOp::RevokeAck { .. }
            | PeerOp::MonitorAck { .. }
            | PeerOp::KvPutAck { .. }
            | PeerOp::KvGetAck { .. }
            | PeerOp::MonitorEvent { .. }
            | PeerOp::Cleanup { .. }
            | PeerOp::FailProcess { .. } => None,
        }
    }

    /// Number of capabilities this message carries (for Fig 7 serialization
    /// cost accounting).
    pub fn cap_count(&self) -> u64 {
        match self {
            PeerOp::Derive {
                op: DeriveOp::Refine { caps, .. },
                ..
            } => caps.len() as u64,
            PeerOp::Delegate { .. }
            | PeerOp::DelegateAck { result: Ok(_), .. }
            | PeerOp::DeriveAck { result: Ok(_), .. }
            | PeerOp::KvGetAck { result: Ok(_), .. }
            | PeerOp::KvPut { .. } => 1,
            _ => 0,
        }
    }
}

/// Size of a Process→Controller syscall message for traffic accounting.
pub fn syscall_msg_size(sc: &Syscall) -> u64 {
    8 /* token */ + 4 /* proc */ + sc.wire_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractos_cap::{CapRef, Cid, ControllerAddr, Epoch, ObjectId};

    fn cref() -> CapRef {
        CapRef {
            ctrl: ControllerAddr(1),
            epoch: Epoch(0),
            object: ObjectId(2),
        }
    }

    #[test]
    fn sizes_are_positive_and_scale() {
        let small = PeerOp::Invoke {
            req: cref(),
            reply_to: ControllerAddr(0),
            token: 1,
        };
        assert!(small.wire_size() > 0);

        let big = PeerOp::Derive {
            obj: cref(),
            op: DeriveOp::Refine {
                imms: vec![vec![0; 1000].into()],
                caps: vec![],
            },
            creator: ProcId(0),
            reply_to: ControllerAddr(0),
            token: 2,
        };
        assert!(big.wire_size() > 1000);
    }

    #[test]
    fn cap_counts() {
        let op = PeerOp::Delegate {
            obj: cref(),
            to: ProcId(1),
            reply_to: ControllerAddr(0),
            token: 0,
        };
        assert_eq!(op.cap_count(), 1);
        let op = PeerOp::Derive {
            obj: cref(),
            op: DeriveOp::Refine {
                imms: vec![],
                caps: vec![
                    CapArg {
                        cap: cref(),
                        mem: None,
                    },
                    CapArg {
                        cap: cref(),
                        mem: None,
                    },
                ],
            },
            creator: ProcId(0),
            reply_to: ControllerAddr(0),
            token: 0,
        };
        assert_eq!(op.cap_count(), 2);
    }

    #[test]
    fn syscall_size_includes_payload() {
        let null = syscall_msg_size(&Syscall::Null);
        let imm = syscall_msg_size(&Syscall::RequestCreate {
            base: None,
            tag: 0,
            imms: vec![vec![0; 4096].into()],
            caps: vec![Cid(0)],
        });
        assert!(imm > null + 4096);
    }

    #[test]
    fn ctrl_to_proc_sizes() {
        let r = CtrlToProc::Reply {
            token: 1,
            result: SyscallResult::Ok,
        };
        assert!(r.wire_size() >= 9);
        let d = CtrlToProc::Deliver(IncomingRequest {
            tag: 0,
            imms: vec![vec![0; 100].into()],
            caps: vec![],
        });
        assert!(d.wire_size() > 100);
    }
}
