//! Core value types of the FractOS OS layer.
//!
//! The two programming abstractions of the paper (§3.1) are *Memory* and
//! *Request* objects. Their descriptors are the payloads stored in the
//! per-Controller capability tables; the syscall surface (Table 1) operates
//! on them through `cid` indices.

use core::fmt;

use fractos_cap::{CapError, CapRef, Cid, Perms};
use fractos_net::{Endpoint, Payload, TopologyError};

/// Globally unique Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The capability-layer token for this Process.
    pub fn token(self) -> fractos_cap::ProcessToken {
        fractos_cap::ProcessToken(self.0 as u64)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Descriptor of a registered Memory object (or a diminished view of one).
///
/// The `window` field identifies the memory window (rkey analogue) that the
/// owner Controller invalidates on revocation; RDMA-time checks consult it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryDesc {
    /// Process whose physical memory backs the object.
    pub proc: ProcId,
    /// Where that Process (and hence the memory) lives.
    pub location: Endpoint,
    /// Start address of the backing region within the owning Process's
    /// address space.
    pub addr: u64,
    /// Byte offset of this view inside the backing region (non-zero for
    /// views made by `memory_diminish`).
    pub view_off: u64,
    /// Length in bytes of this view.
    pub size: u64,
    /// Permissions of this view.
    pub perms: Perms,
}

/// One argument of a Request: an immediate value or a capability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Arg {
    /// Immediate bytes, delivered verbatim to the receiver. The
    /// [`Payload`] handle clones by reference count, so forwarding an
    /// immediate through a chain of Requests never copies the bytes.
    Imm(Payload),
    /// A delegated capability; carries a Memory snapshot when the
    /// capability references memory, so data-plane operations need no
    /// owner round trip (the window check enforces revocation).
    Cap(CapArg),
}

/// A capability argument inside a Request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapArg {
    /// The (possibly delegation-minted) reference.
    pub cap: CapRef,
    /// Snapshot of the memory descriptor if this is a Memory capability.
    pub mem: Option<MemoryDesc>,
}

/// A Controller's capability-space slot is indexed by its reference.
impl AsRef<CapRef> for CapArg {
    fn as_ref(&self) -> &CapRef {
        &self.cap
    }
}

/// Descriptor of a Request object (§3.3–§3.4).
///
/// Initialized arguments are immutable; derivation may only *append*
/// arguments (the refinement security property of §3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestDesc {
    /// The Process that serves invocations of this Request.
    pub provider: ProcId,
    /// Provider-chosen tag identifying which RPC endpoint this is
    /// (conventionally the first immediate in the paper's prototype).
    pub tag: u64,
    /// Arguments accumulated across the derivation chain, in order.
    pub args: Vec<Arg>,
}

/// Payload stored in the capability tables: every FractOS object is a
/// Memory or a Request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjPayload {
    /// A Memory object.
    Memory(MemoryDesc),
    /// A Request object.
    Request(RequestDesc),
}

impl ObjPayload {
    /// The memory descriptor, if this is a Memory object.
    pub fn as_memory(&self) -> Option<&MemoryDesc> {
        match self {
            ObjPayload::Memory(m) => Some(m),
            ObjPayload::Request(_) => None,
        }
    }

    /// The request descriptor, if this is a Request object.
    pub fn as_request(&self) -> Option<&RequestDesc> {
        match self {
            ObjPayload::Request(r) => Some(r),
            ObjPayload::Memory(_) => None,
        }
    }
}

/// The asynchronous syscall set (Table 1 plus the bootstrap KV service and
/// a null op used by the Table 3 benchmark).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Syscall {
    /// No-op round trip (Table 3 latency benchmark).
    Null,
    /// `memory_create(addr, size, perms)`.
    MemoryCreate {
        /// Start of the registered buffer in the caller's memory.
        addr: u64,
        /// Buffer length.
        size: u64,
        /// Granted permissions.
        perms: Perms,
    },
    /// `memory_diminish(cid, offset, size, drop_perms)`.
    MemoryDiminish {
        /// Source Memory capability.
        cid: Cid,
        /// Offset of the new view inside the source view.
        offset: u64,
        /// Length of the new view.
        size: u64,
        /// Permissions to drop.
        drop_perms: Perms,
    },
    /// `memory_copy(cid1, cid2)` — copy all bytes of `src` into `dst`.
    MemoryCopy {
        /// Source Memory capability.
        src: Cid,
        /// Destination Memory capability.
        dst: Cid,
    },
    /// `request_create(...)`: new Request (no `base`) or derived/refined
    /// Request (`base` given). Arguments are appended in order.
    RequestCreate {
        /// Base Request to refine, if any.
        base: Option<Cid>,
        /// Provider tag (only meaningful for new Requests).
        tag: u64,
        /// Immediate arguments to append.
        imms: Vec<Payload>,
        /// Capability arguments to append (delegated to the provider).
        caps: Vec<Cid>,
    },
    /// `request_invoke(cid)`.
    RequestInvoke {
        /// The Request capability to invoke.
        cid: Cid,
    },
    /// `cap_create_revtree(cid)`.
    CapCreateRevtree {
        /// Capability to derive a separately revocable node from.
        cid: Cid,
    },
    /// `cap_revoke(cid)`.
    CapRevoke {
        /// Capability to revoke (invalidates its whole subtree).
        cid: Cid,
    },
    /// `monitor_delegate(cid, callback_id)` (§3.6).
    MonitorDelegate {
        /// Capability whose future delegations should be monitored.
        cid: Cid,
        /// Echoed back in the `monitor_delegate_cb`.
        callback_id: u64,
    },
    /// `monitor_receive(cid, callback_id)` (§3.6).
    MonitorReceive {
        /// Capability whose revocation should be monitored.
        cid: Cid,
        /// Echoed back in the `monitor_receive_cb`.
        callback_id: u64,
    },
    /// Owner-side introspection: the Process backing a Memory object may ask
    /// for its address/extent to access it locally (device adaptors use this
    /// to reach buffers handed to them by capability).
    MemoryStat {
        /// The Memory capability to inspect.
        cid: Cid,
    },
    /// Bootstrap/discovery: publish a capability under a name.
    KvPut {
        /// Registry key.
        key: String,
        /// Capability to publish.
        cid: Cid,
    },
    /// Bootstrap/discovery: look up a published capability.
    KvGet {
        /// Registry key.
        key: String,
    },
}

impl Syscall {
    /// `request_create` of a brand-new Request this Process provides, with
    /// `imms` preset and no capability arguments.
    pub fn new_request(tag: u64, imms: Vec<Payload>) -> Syscall {
        Syscall::RequestCreate {
            base: None,
            tag,
            imms,
            caps: vec![],
        }
    }

    /// Short operation name (for traces and span labels).
    pub fn name(&self) -> &'static str {
        &self.counter()["ctrl.ops.".len()..]
    }

    /// Name of the Controller's per-operation counter, `ctrl.ops.<name>`.
    pub fn counter(&self) -> &'static str {
        match self {
            Syscall::Null => "ctrl.ops.null",
            Syscall::MemoryCreate { .. } => "ctrl.ops.memory_create",
            Syscall::MemoryDiminish { .. } => "ctrl.ops.memory_diminish",
            Syscall::MemoryCopy { .. } => "ctrl.ops.memory_copy",
            Syscall::RequestCreate { .. } => "ctrl.ops.request_create",
            Syscall::RequestInvoke { .. } => "ctrl.ops.request_invoke",
            Syscall::CapCreateRevtree { .. } => "ctrl.ops.cap_create_revtree",
            Syscall::CapRevoke { .. } => "ctrl.ops.cap_revoke",
            Syscall::MonitorDelegate { .. } => "ctrl.ops.monitor_delegate",
            Syscall::MonitorReceive { .. } => "ctrl.ops.monitor_receive",
            Syscall::MemoryStat { .. } => "ctrl.ops.memory_stat",
            Syscall::KvPut { .. } => "ctrl.ops.kv_put",
            Syscall::KvGet { .. } => "ctrl.ops.kv_get",
        }
    }
}

/// Result of a syscall, delivered asynchronously on the Process's channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyscallResult {
    /// Success with no value.
    Ok,
    /// Success returning a new capability index.
    NewCid(Cid),
    /// Success returning a numeric value (e.g. `cap_revoke` returns the
    /// number of revocation-tree nodes invalidated).
    Value(u64),
    /// Success of `memory_stat`: location of the view in the caller's own
    /// memory.
    Stat {
        /// Base address of the backing region.
        addr: u64,
        /// Offset of the view inside the region.
        off: u64,
        /// Length of the view.
        size: u64,
    },
    /// Failure.
    Err(FosError),
}

impl SyscallResult {
    /// Unwraps the new capability index.
    ///
    /// # Panics
    ///
    /// Panics if the result is not `NewCid` — used by code that knows the
    /// syscall kind it issued.
    pub fn cid(&self) -> Cid {
        match self {
            SyscallResult::NewCid(cid) => *cid,
            other => panic!("expected NewCid, got {other:?}"),
        }
    }

    /// Whether the result is a success.
    pub fn is_ok(&self) -> bool {
        !matches!(self, SyscallResult::Err(_))
    }

    /// Converts into a `Result`, mapping all success forms to `Ok`.
    pub fn into_result(self) -> Result<Option<Cid>, FosError> {
        match self {
            SyscallResult::Ok | SyscallResult::Value(_) | SyscallResult::Stat { .. } => Ok(None),
            SyscallResult::NewCid(cid) => Ok(Some(cid)),
            SyscallResult::Err(e) => Err(e),
        }
    }

    /// Unwraps a `Stat` result into `(addr, off, size)`.
    ///
    /// # Panics
    ///
    /// Panics if the result is not `Stat`.
    pub fn stat(&self) -> (u64, u64, u64) {
        match self {
            SyscallResult::Stat { addr, off, size } => (*addr, *off, *size),
            other => panic!("expected Stat, got {other:?}"),
        }
    }

    /// Unwraps a numeric value result.
    ///
    /// # Panics
    ///
    /// Panics if the result is not `Value`.
    pub fn value(&self) -> u64 {
        match self {
            SyscallResult::Value(v) => *v,
            other => panic!("expected Value, got {other:?}"),
        }
    }
}

/// A Request delivered to its provider (the `request_receive` descriptor of
/// Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncomingRequest {
    /// Provider tag of the invoked Request.
    pub tag: u64,
    /// Immediate arguments, in derivation order.
    pub imms: Vec<Payload>,
    /// Capability arguments, inserted into the receiver's capability space.
    pub caps: Vec<Cid>,
}

/// Monitor callback events (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorCb {
    /// `monitor_delegate_cb{callback_id}`.
    DelegateDrained {
        /// The id registered with `monitor_delegate`.
        callback_id: u64,
    },
    /// `monitor_receive_cb{callback_id}`.
    Receive {
        /// The id registered with `monitor_receive`.
        callback_id: u64,
    },
}

/// OS-layer errors surfaced to Processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FosError {
    /// Capability-layer failure (revoked, stale, bad cid, ...).
    Cap(CapError),
    /// The capability does not reference the kind of object the syscall
    /// needs (e.g. `memory_copy` on a Request).
    WrongObjectKind,
    /// Memory operation outside the view's extent.
    OutOfBounds,
    /// Memory permissions do not allow the operation.
    PermissionDenied,
    /// Source and destination views have different sizes.
    SizeMismatch,
    /// The named key is not in the registry.
    NoSuchKey,
    /// The target Controller is unreachable (failed).
    ControllerUnreachable,
    /// The target Process has failed.
    ProcessFailed,
    /// The topology rejected an endpoint.
    Topology(TopologyError),
    /// The RDMA window was invalidated (object revoked at its owner).
    WindowInvalid,
    /// An integrity envelope over the payload failed to verify at a
    /// consumption boundary (the bytes differ from what the producer
    /// stamped — corruption, a torn write, or a faulty device output).
    IntegrityViolation,
    /// The static Request-program verifier rejected the plan before
    /// dispatch (submission- or admission-side, see [`crate::verify`]).
    Verify(crate::verify::VerifyError),
}

impl From<CapError> for FosError {
    fn from(e: CapError) -> Self {
        FosError::Cap(e)
    }
}

impl From<crate::verify::VerifyError> for FosError {
    fn from(e: crate::verify::VerifyError) -> Self {
        FosError::Verify(e)
    }
}

impl fmt::Display for FosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FosError::Cap(e) => write!(f, "capability error: {e}"),
            FosError::WrongObjectKind => write!(f, "wrong object kind"),
            FosError::OutOfBounds => write!(f, "memory access out of bounds"),
            FosError::PermissionDenied => write!(f, "permission denied"),
            FosError::SizeMismatch => write!(f, "memory view size mismatch"),
            FosError::NoSuchKey => write!(f, "no such registry key"),
            FosError::ControllerUnreachable => write!(f, "controller unreachable"),
            FosError::ProcessFailed => write!(f, "process failed"),
            FosError::Topology(e) => write!(f, "topology error: {e}"),
            FosError::WindowInvalid => write!(f, "memory window invalidated"),
            FosError::IntegrityViolation => write!(f, "payload integrity violation"),
            FosError::Verify(e) => write!(f, "static verification failed: {e}"),
        }
    }
}

impl std::error::Error for FosError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_names() {
        assert_eq!(Syscall::Null.name(), "null");
        assert_eq!(Syscall::Null.counter(), "ctrl.ops.null");
        assert_eq!(
            Syscall::MemoryCopy {
                src: Cid(0),
                dst: Cid(1)
            }
            .name(),
            "memory_copy"
        );
    }

    #[test]
    fn result_conversions() {
        assert_eq!(SyscallResult::Ok.into_result(), Ok(None));
        assert_eq!(
            SyscallResult::NewCid(Cid(3)).into_result(),
            Ok(Some(Cid(3)))
        );
        assert!(SyscallResult::Err(FosError::NoSuchKey)
            .into_result()
            .is_err());
        assert_eq!(SyscallResult::NewCid(Cid(3)).cid(), Cid(3));
    }

    #[test]
    #[should_panic(expected = "expected NewCid")]
    fn cid_on_err_panics() {
        SyscallResult::Ok.cid();
    }

    #[test]
    fn payload_accessors() {
        let mem = ObjPayload::Memory(MemoryDesc {
            proc: ProcId(1),
            location: Endpoint::cpu(fractos_net::NodeId(0)),
            addr: 0,
            view_off: 0,
            size: 16,
            perms: Perms::RW,
        });
        assert!(mem.as_memory().is_some());
        assert!(mem.as_request().is_none());
    }
}
