//! Static verification of Request programs (§3.3–§3.4 least privilege,
//! checked *before* dispatch).
//!
//! A FractOS execution plan is a continuation DAG of Request objects: the
//! root Request's capability arguments may themselves reference Request
//! objects (continuations handed to the provider), which in turn carry
//! their own arguments. Today's runtime catches a malformed or
//! over-privileged plan only mid-flight, as a typed error at the operation
//! that trips over it. This module checks the whole plan statically:
//!
//! 1. **Resolution** — every capability embedded in the plan resolves at
//!    its owner: the object exists ([`VerifyErrorKind::DanglingCap`]), is
//!    not revoked ([`VerifyErrorKind::RevokedCap`]) and its epoch is live
//!    ([`VerifyErrorKind::StaleEpoch`], no use-after-reboot).
//! 2. **Shape** — the continuation graph is acyclic
//!    ([`VerifyErrorKind::CyclicContinuation`]). Reachability is by
//!    construction: the walk *defines* the plan as everything reachable
//!    from the root, so an unreachable node cannot be part of the plan.
//! 3. **Privilege monotonicity** — along every derivation edge a child
//!    never holds more than its parent granted (§3.3): a diminished
//!    Memory view must stay within its parent's extent and permissions
//!    ([`VerifyErrorKind::PrivilegeEscalation`]), a refined Request must
//!    extend its base append-only with the same provider and tag
//!    ([`VerifyErrorKind::RefinementViolation`], §3.4), and a Memory
//!    snapshot carried in an argument must not claim permissions the live
//!    object does not grant.
//! 4. **Syscall permissions** — [`verify_syscall`] checks the read/write
//!    permissions a syscall needs against the caller's capability space
//!    before the operation is attempted ([`VerifyErrorKind::MissingPerm`]).
//!
//! Verification is *pure*: it reads the owner's [`ObjectTable`] and
//! charges no simulated time, sends no messages and records no spans, so
//! enabling it perturbs neither latency anchors nor traces. Capabilities
//! owned by a *remote* Controller are skipped (and counted in
//! [`PlanReport::remote_skipped`]): each Controller verifies what it owns,
//! which is exactly the paper's owner-centric trust argument — running the
//! same check at submission and again at admission gives defense in depth
//! without a global view.

use core::fmt;

use fractos_cap::{CapError, CapRef, Cid, ObjectId, ObjectTable, Perms};

use crate::types::{Arg, MemoryDesc, ObjPayload, RequestDesc, Syscall};

/// What went wrong, as a typed diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// A capability in the plan references an object its owner does not
    /// have (a dangling reference).
    DanglingCap,
    /// A capability in the plan references a revoked object
    /// (use-after-revoke).
    RevokedCap,
    /// A capability was minted under an earlier reboot epoch of its owner
    /// and is implicitly revoked (§3.6).
    StaleEpoch,
    /// The continuation graph contains a cycle: a Request reaches itself
    /// through its own argument chain.
    CyclicContinuation,
    /// A node holds privilege its derivation parent never granted: a
    /// Memory view wider (in extent or permissions) than its parent, or a
    /// snapshot claiming permissions the live object does not hold.
    PrivilegeEscalation,
    /// A derived Request does not extend its base append-only (§3.4), or
    /// changes the provider/tag of the base.
    RefinementViolation,
    /// A syscall requires a permission the capability does not hold
    /// (e.g. `memory_copy` needs READ on the source, WRITE on the
    /// destination).
    MissingPerm(Perms),
    /// The plan expects one kind of object (Memory/Request) and found the
    /// other.
    WrongObjectKind,
}

impl fmt::Display for VerifyErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyErrorKind::DanglingCap => write!(f, "dangling capability"),
            VerifyErrorKind::RevokedCap => write!(f, "revoked capability"),
            VerifyErrorKind::StaleEpoch => write!(f, "stale-epoch capability"),
            VerifyErrorKind::CyclicContinuation => write!(f, "cyclic continuation chain"),
            VerifyErrorKind::PrivilegeEscalation => write!(f, "privilege escalation"),
            VerifyErrorKind::RefinementViolation => write!(f, "refinement violation"),
            VerifyErrorKind::MissingPerm(p) => write!(f, "missing permission {p:?}"),
            VerifyErrorKind::WrongObjectKind => write!(f, "wrong object kind"),
        }
    }
}

/// One step of the path from the plan root to the offending node: which
/// object the walk was in, and which argument index it descended through
/// (`None` for the root itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStep {
    /// Object the walk visited.
    pub object: ObjectId,
    /// Argument index descended through to reach the *next* step, if any.
    pub arg: Option<u32>,
}

/// Span-style context: the chain of plan nodes and argument indices from
/// the root to the defect, so a diagnostic reads like
/// `obj#3 / arg[2] -> obj#9 / arg[0] -> obj#12: revoked capability`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanPath(pub Vec<PlanStep>);

impl fmt::Display for PlanPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "obj#{}", step.object.0)?;
            if let Some(a) = step.arg {
                write!(f, " / arg[{a}]")?;
            }
        }
        Ok(())
    }
}

/// A rejected plan: the typed defect plus where in the plan it sits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The defect.
    pub kind: VerifyErrorKind,
    /// Root-to-defect chain of plan nodes.
    pub path: PlanPath,
}

impl VerifyError {
    fn new(kind: VerifyErrorKind, path: PlanPath) -> Self {
        VerifyError { kind, path }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan rejected at {}: {}", self.path, self.kind)
    }
}

impl std::error::Error for VerifyError {}

/// What a successful verification covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanReport {
    /// Request nodes visited (the root plus every continuation).
    pub nodes: u32,
    /// Capability arguments checked for liveness.
    pub caps_checked: u32,
    /// Capability arguments owned by other Controllers, skipped here and
    /// verified at their owner on admission.
    pub remote_skipped: u32,
}

fn cap_err_kind(e: CapError) -> VerifyErrorKind {
    match e {
        CapError::NoSuchObject(_) | CapError::BadCid(_) => VerifyErrorKind::DanglingCap,
        CapError::Revoked(_) => VerifyErrorKind::RevokedCap,
        CapError::StaleEpoch(_) => VerifyErrorKind::StaleEpoch,
        _ => VerifyErrorKind::DanglingCap,
    }
}

/// Verifies the Request plan rooted at `root` against its owner's table.
///
/// A `root` owned by a *different* Controller than `table` carries no
/// local plan state: it is skipped entirely (counted in
/// [`PlanReport::remote_skipped`]) and verified by its owner on admission.
/// Nested capabilities owned by other Controllers are skipped the same
/// way.
pub fn verify_plan(
    table: &ObjectTable<ObjPayload>,
    root: CapRef,
) -> Result<PlanReport, VerifyError> {
    let mut report = PlanReport::default();
    if root.ctrl != table.ctrl() {
        report.remote_skipped += 1;
        return Ok(report);
    }
    let mut steps = vec![PlanStep {
        object: root.object,
        arg: None,
    }];
    let desc = resolve_request(table, root, &steps)?;
    let mut visited = Vec::new();
    walk_request(table, root, desc, &mut steps, &mut visited, &mut report)?;
    Ok(report)
}

/// The rejection of the plan node (or argument) `path` ends at. The
/// happy path never builds a [`PlanPath`]; a rejection copies the walk's
/// step stack once.
fn reject(kind: VerifyErrorKind, path: &[PlanStep]) -> VerifyError {
    VerifyError::new(kind, PlanPath(path.to_vec()))
}

fn resolve_request<'t>(
    table: &'t ObjectTable<ObjPayload>,
    cap: CapRef,
    path: &[PlanStep],
) -> Result<&'t RequestDesc, VerifyError> {
    table
        .check(cap)
        .map_err(|e| reject(cap_err_kind(e), path))?;
    match table.resolve(cap) {
        Ok(ObjPayload::Request(r)) => Ok(r),
        Ok(ObjPayload::Memory(_)) => Err(reject(VerifyErrorKind::WrongObjectKind, path)),
        Err(e) => Err(reject(cap_err_kind(e), path)),
    }
}

/// Walks the Request `desc` and, depth first, every continuation it
/// carries, over borrowed descriptors. `steps` is the path from the root
/// to `desc`; the last step's `arg` is the argument being checked. It
/// doubles as the set of Requests on the current path, and is the path a
/// rejection reports.
fn walk_request<'t>(
    table: &'t ObjectTable<ObjPayload>,
    cap: CapRef,
    desc: &'t RequestDesc,
    steps: &mut Vec<PlanStep>,
    visited: &mut Vec<ObjectId>,
    report: &mut PlanReport,
) -> Result<(), VerifyError> {
    report.nodes += 1;
    check_refinement_chain(table, cap, desc, steps)?;
    for (i, arg) in desc.args.iter().enumerate() {
        let Arg::Cap(ca) = arg else { continue };
        if ca.cap.ctrl != table.ctrl() {
            // Owned elsewhere: that Controller verifies it on admission.
            report.remote_skipped += 1;
            continue;
        }
        report.caps_checked += 1;
        if let Some(last) = steps.last_mut() {
            last.arg = Some(i as u32);
        }
        table
            .check(ca.cap)
            .map_err(|e| reject(cap_err_kind(e), steps))?;
        match table.resolve(ca.cap) {
            Ok(ObjPayload::Memory(live)) => {
                check_memory_arg(table, ca.cap, ca.mem.as_ref(), live, steps)?;
            }
            Ok(ObjPayload::Request(nested)) => {
                if steps.iter().any(|s| s.object == ca.cap.object) {
                    return Err(reject(VerifyErrorKind::CyclicContinuation, steps));
                }
                if visited.contains(&ca.cap.object) {
                    // Shared continuation (diamond in the DAG): already
                    // verified through another path.
                    continue;
                }
                steps.push(PlanStep {
                    object: ca.cap.object,
                    arg: None,
                });
                walk_request(table, ca.cap, nested, steps, visited, report)?;
                steps.pop();
                visited.push(ca.cap.object);
            }
            Err(e) => return Err(reject(cap_err_kind(e), steps)),
        }
    }
    Ok(())
}

/// A Memory argument is sound if its snapshot (the descriptor riding the
/// Request so the data plane needs no owner round trip) claims no more
/// than the live object grants, and the live object claims no more than
/// its derivation parent granted.
fn check_memory_arg(
    table: &ObjectTable<ObjPayload>,
    cap: CapRef,
    snap: Option<&MemoryDesc>,
    live: &MemoryDesc,
    path: &[PlanStep],
) -> Result<(), VerifyError> {
    if let Some(snap) = snap {
        if !live.perms.contains(snap.perms) {
            return Err(reject(VerifyErrorKind::PrivilegeEscalation, path));
        }
    }
    // Walk derivation edges up to the root, proving monotonicity at each.
    let mut child = live;
    let mut id = match table.resolve_owner_object(cap) {
        Ok(id) => id,
        Err(e) => return Err(reject(cap_err_kind(e), path)),
    };
    loop {
        let parent_id = match table.parent_of(id) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()),
            Err(e) => return Err(reject(cap_err_kind(e), path)),
        };
        let parent_ref = CapRef {
            ctrl: table.ctrl(),
            epoch: cap.epoch,
            object: parent_id,
        };
        match table.resolve(parent_ref) {
            Ok(ObjPayload::Memory(parent)) => {
                if !parent.perms.contains(child.perms) {
                    return Err(reject(VerifyErrorKind::PrivilegeEscalation, path));
                }
                let child_end = child.view_off.saturating_add(child.size);
                let parent_end = parent.view_off.saturating_add(parent.size);
                if child.view_off < parent.view_off
                    || child_end > parent_end
                    || child.proc != parent.proc
                    || child.addr != parent.addr
                {
                    return Err(reject(VerifyErrorKind::PrivilegeEscalation, path));
                }
                child = parent;
                id = parent_id;
            }
            // A Memory derived from a Request makes no sense; a revtree
            // indirection node shares the same owner object, so resolve
            // lands on the same payload and terminates via parent_of.
            Ok(ObjPayload::Request(_)) => {
                return Err(reject(VerifyErrorKind::WrongObjectKind, path))
            }
            Err(_) => return Ok(()), // parent revoked away already: child is the root view now
        }
    }
}

/// A derived Request must extend its base append-only with the same
/// provider and tag (§3.4's refinement security property).
fn check_refinement_chain(
    table: &ObjectTable<ObjPayload>,
    cap: CapRef,
    desc: &RequestDesc,
    path: &[PlanStep],
) -> Result<(), VerifyError> {
    let id = match table.resolve_owner_object(cap) {
        Ok(id) => id,
        Err(e) => return Err(reject(cap_err_kind(e), path)),
    };
    let parent_id = match table.parent_of(id) {
        Ok(Some(p)) => p,
        Ok(None) => return Ok(()),
        Err(e) => return Err(reject(cap_err_kind(e), path)),
    };
    let parent_ref = CapRef {
        ctrl: table.ctrl(),
        epoch: cap.epoch,
        object: parent_id,
    };
    match table.resolve(parent_ref) {
        Ok(ObjPayload::Request(base)) => {
            let prefix_ok =
                desc.args.len() >= base.args.len() && desc.args[..base.args.len()] == base.args[..];
            if !prefix_ok || desc.provider != base.provider || desc.tag != base.tag {
                return Err(reject(VerifyErrorKind::RefinementViolation, path));
            }
            Ok(())
        }
        // A Request derived from a Memory object is malformed.
        Ok(ObjPayload::Memory(_)) => Err(reject(VerifyErrorKind::WrongObjectKind, path)),
        Err(_) => Ok(()), // base already cleaned up: nothing left to compare
    }
}

/// Checks the read/write permissions a syscall needs against the caller's
/// capability snapshots, before the operation is dispatched.
///
/// `lookup` resolves a `cid` in the calling Process's capability space to
/// its Memory snapshot, if it has one; `None` means the capability either
/// does not resolve (the runtime rejects it with its own typed error) or
/// is not Memory-backed — both outside this check's scope.
pub fn verify_syscall(
    sc: &Syscall,
    mut lookup: impl FnMut(Cid) -> Option<MemoryDesc>,
) -> Result<(), VerifyError> {
    match sc {
        Syscall::MemoryCopy { src, dst } => {
            if let Some(s) = lookup(*src) {
                if !s.perms.can_read() {
                    return Err(VerifyError::new(
                        VerifyErrorKind::MissingPerm(Perms::READ),
                        PlanPath::default(),
                    ));
                }
            }
            if let Some(d) = lookup(*dst) {
                if !d.perms.can_write() {
                    return Err(VerifyError::new(
                        VerifyErrorKind::MissingPerm(Perms::WRITE),
                        PlanPath::default(),
                    ));
                }
            }
            Ok(())
        }
        Syscall::MemoryDiminish {
            cid, offset, size, ..
        } => {
            if let Some(s) = lookup(*cid) {
                if offset.saturating_add(*size) > s.size {
                    return Err(VerifyError::new(
                        VerifyErrorKind::PrivilegeEscalation,
                        PlanPath::default(),
                    ));
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Verifies every live Request object in `table` as a plan root.
///
/// This is the library entry point harnesses use to prove that *every*
/// application plan in a running cluster verifies clean; returns the
/// number of plans checked or the first defect found.
pub fn verify_table(table: &ObjectTable<ObjPayload>) -> Result<usize, VerifyError> {
    let epoch = table.epoch();
    let mut checked = 0;
    for id in table.live_objects() {
        let cap = CapRef {
            ctrl: table.ctrl(),
            epoch,
            object: id,
        };
        if matches!(table.resolve(cap), Ok(ObjPayload::Request(_))) {
            verify_plan(table, cap)?;
            checked += 1;
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CapArg;
    use fractos_cap::{ControllerAddr, Epoch};
    use fractos_net::{Endpoint, NodeId};

    const CTRL: ControllerAddr = ControllerAddr(0);

    fn mem(perms: Perms, off: u64, size: u64) -> MemoryDesc {
        MemoryDesc {
            proc: crate::types::ProcId(1),
            location: Endpoint::cpu(NodeId(0)),
            addr: 0x1000,
            view_off: off,
            size,
            perms,
        }
    }

    fn table() -> ObjectTable<ObjPayload> {
        ObjectTable::new(CTRL)
    }

    fn req(provider: u32, tag: u64, args: Vec<Arg>) -> ObjPayload {
        ObjPayload::Request(RequestDesc {
            provider: crate::types::ProcId(provider),
            tag,
            args,
        })
    }

    #[test]
    fn empty_plan_verifies() {
        let mut t = table();
        let root = t.create(crate::types::ProcId(1).token(), req(1, 7, vec![]));
        let r = verify_plan(&t, root).unwrap();
        assert_eq!(r.nodes, 1);
        assert_eq!(r.caps_checked, 0);
    }

    #[test]
    fn plan_with_live_memory_verifies() {
        let mut t = table();
        let m = t.create(
            crate::types::ProcId(1).token(),
            ObjPayload::Memory(mem(Perms::RW, 0, 64)),
        );
        let root = t.create(
            crate::types::ProcId(1).token(),
            req(
                1,
                7,
                vec![Arg::Cap(CapArg {
                    cap: m,
                    mem: Some(mem(Perms::RW, 0, 64)),
                })],
            ),
        );
        let r = verify_plan(&t, root).unwrap();
        assert_eq!(r.caps_checked, 1);
    }

    #[test]
    fn snapshot_escalation_rejected() {
        let mut t = table();
        let m = t.create(
            crate::types::ProcId(1).token(),
            ObjPayload::Memory(mem(Perms::READ, 0, 64)),
        );
        let root = t.create(
            crate::types::ProcId(1).token(),
            req(
                1,
                7,
                vec![Arg::Cap(CapArg {
                    cap: m,
                    // Snapshot claims RW; the live object only grants READ.
                    mem: Some(mem(Perms::RW, 0, 64)),
                })],
            ),
        );
        let e = verify_plan(&t, root).unwrap_err();
        assert_eq!(e.kind, VerifyErrorKind::PrivilegeEscalation);
    }

    #[test]
    fn stale_epoch_rejected() {
        let mut t = table();
        let root = t.create(crate::types::ProcId(1).token(), req(1, 7, vec![]));
        let stale = CapRef {
            epoch: Epoch(root.epoch.0 + 1),
            ..root
        };
        let e = verify_plan(&t, stale).unwrap_err();
        assert_eq!(e.kind, VerifyErrorKind::StaleEpoch);
    }

    #[test]
    fn copy_without_write_perm_rejected() {
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
    fn error_display_reads_like_a_span() {
        let e = VerifyError::new(
            VerifyErrorKind::RevokedCap,
            PlanPath(vec![
                PlanStep {
                    object: ObjectId(3),
                    arg: Some(2),
                },
                PlanStep {
                    object: ObjectId(9),
                    arg: None,
                },
            ]),
        );
        assert_eq!(
            e.to_string(),
            "plan rejected at obj#3 / arg[2] -> obj#9: revoked capability"
        );
    }
}
