//! The FractOS Controller: the trusted OS layer (§3, §4).
//!
//! Controllers implement every trusted mechanism — capability tables, RPC
//! routing, address translation, memory copies, revocation, monitors and
//! failure translation. They run on host CPUs or SmartNICs as isolated
//! actors; Processes and peer Controllers reach them only through messages
//! on the simulated fabric.
//!
//! Protocol summary (owner-centric, §3.5):
//!
//! * every object lives at exactly one Controller (its owner);
//! * derivation (`memory_diminish`, Request refinement, `cap_create_revtree`)
//!   executes at the owner, keeping revocation subtrees local;
//! * delegation is registered at the owner with a single message, minting a
//!   separately revocable child when a `monitor_delegate` is armed;
//! * `request_invoke` is forwarded to the Request's owner, which is always
//!   the provider's Controller;
//! * revocation is an immediate local invalidation at the owner plus an
//!   out-of-critical-path cleanup broadcast;
//! * data movement (`memory_copy`) is one-sided RDMA through memory windows
//!   checked at access time — revoking memory invalidates its window at the
//!   owner, so no delegation tracking is needed.
//!
//! The actor is three separable parts:
//!
//! * **cost model** — `syscall_cost` and `peer_cost` price every
//!   operation (Table 3, Figs 6–7); `handle_syscall` and `handle_peer` charge that price once,
//!   before anything else happens in the event;
//! * **capability operations** — the `do_local_*` functions are the
//!   owner-side calls; a syscall on an object owned elsewhere goes through
//!   `forward_to_owner`, which sends the peer op and maps its ack back to
//!   the Process;
//! * **protocol driver** — `transmit_proc` / `transmit_peer` look up the
//!   destination, open the Control span, and hand the hop to
//!   `retry::reliable_send`, the one place that talks to the fabric's
//!   lossy send and knows the §3.6 retransmit policy.

use std::collections::{BTreeMap, HashMap, HashSet};

use fractos_cap::{CapRef, CapSpace, Cid, ControllerAddr, MonitorEvent, ObjectTable, Watcher};
use fractos_net::{ComputeDomain, Endpoint, Fabric, NetParams, Payload, SendOutcome, TrafficClass};
use fractos_sim::{Actor, Ctx, Msg, Shared, SimDuration, SimTime, SpanKind, TraceCtx};

use crate::directory::Directory;
use crate::memstore::MemoryStore;
use crate::messages::{CtrlMsg, CtrlToProc, DeriveOp, MonitorKind, PeerOp, ProcMsg};
use crate::retry::{reliable_send, DedupFilter, Hop, Sent, SeqGen};
use crate::types::{
    Arg, CapArg, FosError, IncomingRequest, MemoryDesc, MonitorCb, ObjPayload, ProcId, RequestDesc,
    Syscall, SyscallResult,
};

/// Delay before the revocation cleanup broadcast goes out (§3.5: "outside
/// the critical path").
pub const CLEANUP_DELAY: SimDuration = SimDuration::from_micros(100);

/// Values carried by peer acks.
#[derive(Debug)]
enum AckVal {
    None,
    Cap(CapArg),
    Count(u64),
}

impl AckVal {
    /// The carried capability, or `missing` when the ack holds none.
    fn cap_or(self, missing: FosError) -> Result<CapArg, FosError> {
        match self {
            AckVal::Cap(ca) => Ok(ca),
            _ => Err(missing),
        }
    }
}

type PendingCont =
    Box<dyn FnOnce(&mut ControllerActor, Result<AckVal, FosError>, &mut Ctx<'_>) + Send>;

/// Turns the owner's ack of a forwarded syscall into the reply for the
/// issuing Process.
type AckMap = fn(&mut ControllerActor, ProcId, Result<AckVal, FosError>) -> SyscallResult;

/// Continuation of a multi-capability delegation fan-in.
type DelegateDone =
    Box<dyn FnOnce(&mut ControllerActor, Result<Vec<CapArg>, FosError>, &mut Ctx<'_>) + Send>;

struct Pending {
    target: ControllerAddr,
    cont: PendingCont,
    /// Trace context active when the awaited op was issued; restored when
    /// the ack (or its timeout/failure verdict) completes, so continuations
    /// stay inside the originating request's span tree.
    tctx: TraceCtx,
}

/// The Controller actor.
pub struct ControllerActor {
    addr: ControllerAddr,
    endpoint: Endpoint,
    domain: ComputeDomain,
    registry: ControllerAddr,
    table: ObjectTable<ObjPayload>,
    // Iterated maps are BTreeMaps so sweep order (revocation fan-out,
    // pending-op failure, KV GC) is deterministic across runs and
    // backends; keyed-only maps below stay hashed.
    spaces: BTreeMap<ProcId, CapSpace>,
    snaps: BTreeMap<(ProcId, Cid), MemoryDesc>,
    dead_procs: HashSet<ProcId>,
    peers_dead: HashSet<ControllerAddr>,
    pending: BTreeMap<u64, Pending>,
    next_token: u64,
    /// Outgoing wire sequence numbers, one stream per Process channel.
    seq_proc: HashMap<ProcId, SeqGen>,
    /// Outgoing wire sequence numbers, one stream per peer channel.
    seq_peer: HashMap<ControllerAddr, SeqGen>,
    /// Duplicate suppression for arriving syscalls, per Process.
    seen_proc: HashMap<ProcId, DedupFilter>,
    /// Duplicate suppression for arriving peer ops, per sender.
    seen_peer: HashMap<ControllerAddr, DedupFilter>,
    kv: BTreeMap<String, CapArg>,
    busy_until: SimTime,
    /// Trace context of the event being handled (causal tracing; `NONE`
    /// outside traces and while span recording is disabled).
    cur: TraceCtx,
    dir: Shared<Directory>,
    fabric: Shared<Fabric>,
    mem: Shared<MemoryStore>,
    dead: bool,
    /// Timestamped capability-revocation milestones from `PeerFailed`
    /// handling: `(dead peer, revoked-at)`. Feeds the MTTR attribution.
    pub peer_revocations: Vec<(ControllerAddr, SimTime)>,
    /// Last pending-op depth published to the telemetry plane; gauges are
    /// emitted only on change so an idle Controller stays silent.
    tele_pending_last: Option<usize>,
}

impl ControllerActor {
    /// Creates a Controller. `registry` names the Controller hosting the
    /// bootstrap key/value service (usually address 0).
    pub fn new(
        addr: ControllerAddr,
        endpoint: Endpoint,
        domain: ComputeDomain,
        registry: ControllerAddr,
        dir: Shared<Directory>,
        fabric: Shared<Fabric>,
        mem: Shared<MemoryStore>,
    ) -> Self {
        ControllerActor {
            addr,
            endpoint,
            domain,
            registry,
            table: ObjectTable::new(addr),
            spaces: BTreeMap::new(),
            snaps: BTreeMap::new(),
            dead_procs: HashSet::new(),
            peers_dead: HashSet::new(),
            pending: BTreeMap::new(),
            next_token: 0,
            seq_proc: HashMap::new(),
            seq_peer: HashMap::new(),
            seen_proc: HashMap::new(),
            seen_peer: HashMap::new(),
            kv: BTreeMap::new(),
            busy_until: SimTime::ZERO,
            cur: TraceCtx::NONE,
            dir,
            fabric,
            mem,
            dead: false,
            peer_revocations: Vec::new(),
            tele_pending_last: None,
        }
    }

    /// This Controller's address.
    pub fn addr(&self) -> ControllerAddr {
        self.addr
    }

    /// Registers a Process as managed by this Controller (testbed wiring).
    pub fn adopt(&mut self, proc: ProcId) {
        self.spaces.insert(proc, CapSpace::new());
    }

    /// Caps the Process's capability space at `quota` slots (§4: "a set
    /// amount of memory for the capability space … can be capped via
    /// quotas"). Only effective before the Process holds capabilities.
    pub fn set_capspace_quota(&mut self, proc: ProcId, quota: usize) {
        if self.spaces.get(&proc).is_some_and(|s| s.is_empty()) {
            self.spaces.insert(proc, CapSpace::with_quota(quota));
        }
    }

    /// Read access to the object table (tests and harnesses).
    pub fn table(&self) -> &ObjectTable<ObjPayload> {
        &self.table
    }

    /// Number of peer operations still awaiting an ack (tests: a drained
    /// run must leave none behind).
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Whether this Controller currently considers `peer` failed (tests:
    /// a healed partition must clear the verdict via `PeerRecovered`).
    pub fn peer_dead(&self, peer: ControllerAddr) -> bool {
        self.peers_dead.contains(&peer)
    }

    /// Live entries in a Process's capability space (tests).
    pub fn capspace_len(&self, proc: ProcId) -> usize {
        self.spaces.get(&proc).map_or(0, |s| s.len())
    }

    /// Registry keys currently live on this Controller (tests).
    pub fn kv_keys(&self) -> Vec<String> {
        self.kv.keys().cloned().collect()
    }

    /// Whether `proc`'s capability space still holds any capability minted
    /// by `owner` (tests: must be false once `owner`'s death epoch stands —
    /// no capability may leak through a dead epoch).
    pub fn holds_cap_of(&self, proc: ProcId, owner: ControllerAddr) -> bool {
        self.spaces
            .get(&proc)
            .is_some_and(|s| s.iter().any(|(_, cap)| cap.ctrl == owner))
    }

    /// Estimated memory footprint of this Controller in bytes, using the
    /// prototype's published numbers (§4): 64 MB of RoCE buffers per
    /// managed Process, 64 MB per connected peer Controller, the capability
    /// spaces, and 24 B per revocation-tree object.
    pub fn memory_footprint(&self) -> u64 {
        const ROCE_PER_PROC: u64 = 64 << 20;
        const ROCE_PER_PEER: u64 = 64 << 20;
        const CAP_ENTRY: u64 = 24; // cid slot + reference
        const REVTREE_OBJ: u64 = 24; // "24 B per revocation tree object"
        let peers = self
            .dir
            .borrow()
            .all_ctrls()
            .into_iter()
            .filter(|&a| a != self.addr)
            .count() as u64;
        let caps: u64 = self.spaces.values().map(|s| s.len() as u64).sum();
        self.spaces.len() as u64 * ROCE_PER_PROC
            + peers * ROCE_PER_PEER
            + caps * CAP_ENTRY
            + self.table.len() as u64 * REVTREE_OBJ
    }

    // ------------------------------------------------------------------
    // Cost model helpers
    // ------------------------------------------------------------------

    /// Charges `cost` of processing on this Controller's (serial) cores and
    /// returns the delay from `now` until the work completes. In
    /// interrupt mode (§4), a Controller that has been idle longer than the
    /// polling window pays the wake-up latency first.
    // analyze: hot-path
    fn charge(&mut self, now: SimTime, cost: SimDuration) -> SimDuration {
        // Snapshot the three scalars we need instead of cloning the whole
        // params block: this runs on every message a Controller handles.
        let (interrupts, poll_window, wakeup) = {
            let fabric = self.fabric.borrow();
            let p = fabric.params();
            (p.controller_interrupts, p.poll_window, p.interrupt_wakeup)
        };
        let mut start = self.busy_until.max(now);
        if interrupts && now > self.busy_until && now.duration_since(self.busy_until) > poll_window
        {
            start += wakeup;
        }
        let done = start + cost;
        self.busy_until = done;
        done.duration_since(now)
    }

    fn handling(&self) -> SimDuration {
        self.fabric.borrow().params().fractos_handling(self.domain)
    }

    /// Controller time to handle one syscall, request plus reply (Table 3:
    /// twice the per-message handling `h`). `memory_copy` pays `h` up front
    /// and its data-plane work per chunk; `request_invoke` pays the sender
    /// half of the Fig 6 request-handling cost.
    // analyze: hot-path
    fn syscall_cost(&self, sc: &Syscall) -> SimDuration {
        let fabric = self.fabric.borrow();
        let params = fabric.params();
        match sc {
            Syscall::MemoryCopy { .. } => params.fractos_handling(self.domain),
            Syscall::RequestInvoke { .. } => params.request_handling(self.domain) / 2,
            _ => params.fractos_handling(self.domain) * 2,
        }
    }

    /// Controller time to handle one arriving peer op: the per-message
    /// handling `h`, plus the receiver-side deserialization `ser` for ops
    /// that carry capabilities (Fig 7); an invocation pays the receiver
    /// half of the Fig 6 request-handling cost instead of `h`.
    // analyze: hot-path
    fn peer_cost(&self, op: &PeerOp, ser: SimDuration) -> SimDuration {
        let fabric = self.fabric.borrow();
        let params = fabric.params();
        match op {
            PeerOp::Invoke { .. } => params.request_handling(self.domain) / 2 + ser,
            PeerOp::Derive { .. }
            | PeerOp::DeriveAck { .. }
            | PeerOp::Delegate { .. }
            | PeerOp::DelegateAck { .. }
            | PeerOp::KvPut { .. }
            | PeerOp::KvGetAck { .. } => params.fractos_handling(self.domain) + ser,
            PeerOp::InvokeAck { .. }
            | PeerOp::Revoke { .. }
            | PeerOp::RevokeAck { .. }
            | PeerOp::Monitor { .. }
            | PeerOp::MonitorAck { .. }
            | PeerOp::MonitorEvent { .. }
            | PeerOp::Cleanup { .. }
            | PeerOp::FailProcess { .. }
            | PeerOp::KvPutAck { .. }
            | PeerOp::KvGet { .. } => params.fractos_handling(self.domain),
        }
    }

    fn serialize_cost(&self, op: &PeerOp, crossing: bool) -> SimDuration {
        if !crossing {
            return SimDuration::ZERO;
        }
        let fabric = self.fabric.borrow();
        let params = fabric.params();
        match op {
            PeerOp::Invoke { .. } => params.request_serialize(self.domain) / 2,
            _ => params.cap_serialize(self.domain) / 2 * op.cap_count(),
        }
    }

    // ------------------------------------------------------------------
    // Messaging helpers
    // ------------------------------------------------------------------

    /// Base trace context of an outgoing message: a first transmit inside a
    /// trace opens a Control span covering the `extra` processing charge;
    /// retransmits reuse the context restored from the retry message.
    fn control_span(
        &self,
        ctx: &mut Ctx<'_>,
        attempt: u32,
        label: &str,
        extra: SimDuration,
    ) -> TraceCtx {
        if attempt == 0 && self.cur.is_some() {
            ctx.span(
                SpanKind::Control,
                label,
                self.cur,
                ctx.now(),
                ctx.now() + extra,
            )
        } else {
            self.cur
        }
    }

    fn send_proc(&mut self, ctx: &mut Ctx<'_>, proc: ProcId, msg: CtrlToProc, extra: SimDuration) {
        let seq = self.seq_proc.entry(proc).or_default().next_seq();
        self.transmit_proc(ctx, proc, msg, seq, 0, extra);
    }

    fn transmit_proc(
        &mut self,
        ctx: &mut Ctx<'_>,
        proc: ProcId,
        msg: CtrlToProc,
        seq: u64,
        attempt: u32,
        extra: SimDuration,
    ) {
        let (actor, ep, alive) = {
            let dir = self.dir.borrow();
            let Some(pe) = dir.proc(proc) else { return };
            (pe.actor, pe.endpoint, pe.alive)
        };
        if !alive || self.dead_procs.contains(&proc) {
            return;
        }
        let hop = Hop {
            from: self.endpoint,
            to: ep,
            size: msg.wire_size(),
            class: TrafficClass::Control,
            label: "ctrl->proc",
        };
        let label = match &msg {
            CtrlToProc::Reply { .. } => "reply",
            CtrlToProc::Deliver(_) => "deliver",
            CtrlToProc::Monitor(_) => "monitor",
        };
        let base = self.control_span(ctx, attempt, label, extra);
        match reliable_send(
            &self.fabric,
            ctx,
            &hop,
            base,
            extra,
            SimDuration::ZERO,
            attempt,
        ) {
            Sent::Delivered { tctx, delay, dup } => {
                let envelope = |msg| ProcMsg::FromCtrl { seq, tctx, msg };
                if let Some(d2) = dup {
                    ctx.send_after(d2, actor, envelope(msg.clone()));
                }
                ctx.send_after(delay, actor, envelope(msg));
            }
            Sent::Retry { after } => ctx.schedule_self(
                after,
                CtrlMsg::RetransmitProc {
                    proc,
                    msg,
                    seq,
                    attempt: attempt + 1,
                    tctx: base,
                },
            ),
            // The channel to the Process is unusable — same §3.6 verdict as
            // a severed channel.
            Sent::Exhausted => self.on_proc_severed(ctx, proc),
        }
    }

    fn reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        proc: ProcId,
        token: u64,
        result: SyscallResult,
        extra: SimDuration,
    ) {
        self.send_proc(ctx, proc, CtrlToProc::Reply { token, result }, extra);
    }

    fn peer_send(&mut self, ctx: &mut Ctx<'_>, to: ControllerAddr, op: PeerOp, extra: SimDuration) {
        let seq = self.seq_peer.entry(to).or_default().next_seq();
        self.transmit_peer(ctx, to, op, seq, 0, extra);
    }

    fn transmit_peer(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: ControllerAddr,
        op: PeerOp,
        seq: u64,
        attempt: u32,
        extra: SimDuration,
    ) {
        if to == self.addr {
            // Loopback peer op (e.g. registry co-located): handle directly
            // after the extra delay. No fabric hop — only a Control span.
            let tctx = self.control_span(ctx, attempt, op.name(), extra);
            let from = to;
            ctx.schedule_self(
                extra,
                CtrlMsg::FromPeer {
                    from,
                    op,
                    seq,
                    tctx,
                },
            );
            return;
        }
        let (actor, ep, alive) = {
            let dir = self.dir.borrow();
            let Some(ce) = dir.ctrl(to) else { return };
            (ce.actor, ce.endpoint, ce.alive)
        };
        if !alive || self.peers_dead.contains(&to) {
            // Fail any pending continuation waiting on this op's ack.
            self.fail_ops_to(ctx, to);
            return;
        }
        let ser = self.serialize_cost(&op, ep.node != self.endpoint.node);
        let size = op.wire_size();
        let hop = Hop {
            from: self.endpoint,
            to: ep,
            size,
            // Bulk payloads riding the control plane (e.g. large immediates
            // in a refinement) count as data traffic.
            class: if size > 1024 {
                TrafficClass::Data
            } else {
                TrafficClass::Control
            },
            label: "ctrl->ctrl",
        };
        let base = self.control_span(ctx, attempt, op.name(), extra);
        // Last-resort ack timeout for request-type ops: covers a lost or
        // abandoned return path that retransmits on this side cannot see.
        if attempt == 0 && self.fabric.borrow().has_faults() {
            if let Some(token) = op.ack_token() {
                let ack_timeout = self.fabric.borrow().params().retry.ack_timeout;
                ctx.schedule_self(ack_timeout, CtrlMsg::AckTimeout { token });
            }
        }
        match reliable_send(&self.fabric, ctx, &hop, base, extra, ser, attempt) {
            Sent::Delivered { tctx, delay, dup } => {
                let from = self.addr;
                let envelope = |op| CtrlMsg::FromPeer {
                    from,
                    op,
                    seq,
                    tctx,
                };
                if let Some(d2) = dup {
                    ctx.send_after(d2, actor, envelope(op.clone()));
                }
                ctx.send_after(delay, actor, envelope(op));
            }
            Sent::Retry { after } => ctx.schedule_self(
                after,
                CtrlMsg::RetransmitPeer {
                    to,
                    op,
                    seq,
                    attempt: attempt + 1,
                    tctx: base,
                },
            ),
            // Every operation pending on this peer resolves to
            // `ControllerUnreachable` (§3.6). Only the watchdog may declare
            // the peer dead.
            Sent::Exhausted => self.fail_ops_to(ctx, to),
        }
    }

    fn await_ack(&mut self, target: ControllerAddr, cont: PendingCont) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(
            token,
            Pending {
                target,
                cont,
                tctx: self.cur,
            },
        );
        token
    }

    fn complete_ack(&mut self, ctx: &mut Ctx<'_>, token: u64, result: Result<AckVal, FosError>) {
        if let Some(p) = self.pending.remove(&token) {
            // Run the continuation inside the trace that issued the op —
            // covers acks, ack timeouts and peer-failure verdicts alike.
            self.cur = p.tctx;
            (p.cont)(self, result, ctx);
        }
    }

    fn fail_ops_to(&mut self, ctx: &mut Ctx<'_>, target: ControllerAddr) {
        let tokens: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.target == target)
            .map(|(t, _)| *t)
            .collect();
        for t in tokens {
            self.complete_ack(ctx, t, Err(FosError::ControllerUnreachable));
        }
    }

    /// Forwards a syscall on an object owned elsewhere: sends the peer op
    /// `build(reply_to, token)` to `owner` after `extra`, and when its ack
    /// (or a failure verdict) arrives replies to the caller with `map` of
    /// it.
    fn forward_to_owner(
        &mut self,
        ctx: &mut Ctx<'_>,
        owner: ControllerAddr,
        extra: SimDuration,
        (proc, token): (ProcId, u64),
        map: AckMap,
        build: impl FnOnce(ControllerAddr, u64) -> PeerOp,
    ) {
        let ptoken = self.await_ack(
            owner,
            Box::new(move |this, ack, ctx| {
                let result = map(this, proc, ack);
                this.reply(ctx, proc, token, result, SimDuration::ZERO);
            }),
        );
        let op = build(self.addr, ptoken);
        self.peer_send(ctx, owner, op, extra);
    }

    /// The owner did it; nothing comes back.
    fn ack_done(&mut self, _: ProcId, ack: Result<AckVal, FosError>) -> SyscallResult {
        ack.map_or_else(SyscallResult::Err, |_| SyscallResult::Ok)
    }

    /// The owner revoked and reports how many tree nodes it invalidated.
    fn ack_count(&mut self, _: ProcId, ack: Result<AckVal, FosError>) -> SyscallResult {
        match ack {
            Ok(AckVal::Count(n)) => SyscallResult::Value(n),
            Ok(_) => SyscallResult::Ok,
            Err(e) => SyscallResult::Err(e),
        }
    }

    /// The owner derived a capability for `proc` to hold.
    fn ack_derived(&mut self, proc: ProcId, ack: Result<AckVal, FosError>) -> SyscallResult {
        let ca = ack.and_then(|v| v.cap_or(FosError::WrongObjectKind));
        self.installed(proc, ca)
    }

    /// The registry looked a capability up for `proc`.
    fn ack_lookup(&mut self, proc: ProcId, ack: Result<AckVal, FosError>) -> SyscallResult {
        let ca = ack.and_then(|v| v.cap_or(FosError::NoSuchKey));
        self.installed(proc, ca)
    }

    // ------------------------------------------------------------------
    // Capability-space helpers
    // ------------------------------------------------------------------

    fn resolve_cid(
        &self,
        proc: ProcId,
        cid: Cid,
    ) -> Result<(CapRef, Option<MemoryDesc>), FosError> {
        let space = self
            .spaces
            .get(&proc)
            .ok_or(FosError::Cap(fractos_cap::CapError::BadCid(cid)))?;
        let cap = space.get(cid)?;
        Ok((cap, self.snaps.get(&(proc, cid)).cloned()))
    }

    fn install_cap(&mut self, proc: ProcId, ca: CapArg) -> Result<Cid, FosError> {
        let space = self.spaces.get_mut(&proc).ok_or(FosError::ProcessFailed)?;
        let cid = space.insert(ca.cap)?;
        if let Some(m) = ca.mem {
            self.snaps.insert((proc, cid), m);
        } else {
            self.snaps.remove(&(proc, cid));
        }
        Ok(cid)
    }

    /// Installs a capability minted for `proc` into its space and reports
    /// the new index as the syscall's result.
    fn installed(&mut self, proc: ProcId, ca: Result<CapArg, FosError>) -> SyscallResult {
        ca.and_then(|ca| self.install_cap(proc, ca))
            .map_or_else(SyscallResult::Err, SyscallResult::NewCid)
    }

    // ------------------------------------------------------------------
    // Local (owner-side) object operations
    // ------------------------------------------------------------------

    fn snapshot_of(&self, cap: CapRef) -> Option<MemoryDesc> {
        self.table
            .resolve(cap)
            .ok()
            .and_then(|p| p.as_memory().cloned())
    }

    fn do_local_delegate(&mut self, cap: CapRef, to: ProcId) -> Result<CapArg, FosError> {
        self.table.check(cap)?;
        let new_ref = self.table.delegate(cap.object, to.token())?;
        let mem = self.snapshot_of(cap);
        if new_ref != cap {
            // A monitored-delegation child was minted; give it its own
            // memory window so revoking it cuts exactly this delegatee off.
            if let Some(desc) = &mem {
                self.mem.borrow_mut().register_window(new_ref, desc.clone());
            }
        }
        Ok(CapArg { cap: new_ref, mem })
    }

    fn do_local_diminish(
        &mut self,
        cap: CapRef,
        creator: ProcId,
        offset: u64,
        size: u64,
        drop_perms: fractos_cap::Perms,
    ) -> Result<CapArg, FosError> {
        self.table.check(cap)?;
        let src = self
            .table
            .resolve(cap)?
            .as_memory()
            .cloned()
            .ok_or(FosError::WrongObjectKind)?;
        if offset + size > src.size {
            return Err(FosError::OutOfBounds);
        }
        let desc = MemoryDesc {
            proc: src.proc,
            location: src.location,
            addr: src.addr,
            view_off: src.view_off + offset,
            size,
            perms: src.perms.diminish(drop_perms),
        };
        let new_ref = self.table.derive(
            cap.object,
            creator.token(),
            ObjPayload::Memory(desc.clone()),
        )?;
        self.mem.borrow_mut().register_window(new_ref, desc.clone());
        Ok(CapArg {
            cap: new_ref,
            mem: Some(desc),
        })
    }

    fn do_local_revtree(&mut self, cap: CapRef, creator: ProcId) -> Result<CapArg, FosError> {
        self.table.check(cap)?;
        let new_ref = self
            .table
            .create_revtree_node(cap.object, creator.token())?;
        let mem = self.snapshot_of(cap);
        if let Some(desc) = &mem {
            self.mem.borrow_mut().register_window(new_ref, desc.clone());
        }
        Ok(CapArg { cap: new_ref, mem })
    }

    fn do_local_revoke(&mut self, ctx: &mut Ctx<'_>, cap: CapRef) -> Result<u64, FosError> {
        self.table.check(cap)?;
        let outcome = self.table.revoke(cap.object)?;
        let epoch = self.table.epoch();
        {
            let mut mem = self.mem.borrow_mut();
            for id in &outcome.revoked {
                mem.invalidate_window(CapRef {
                    ctrl: self.addr,
                    epoch,
                    object: *id,
                });
            }
        }
        self.dispatch_monitor_events(ctx, &outcome.events);
        // Out-of-critical-path cleanup broadcast: peers drop dangling
        // capabilities referencing the invalidated objects.
        let refs: Vec<CapRef> = outcome
            .revoked
            .iter()
            .map(|id| CapRef {
                ctrl: self.addr,
                epoch,
                object: *id,
            })
            .collect();
        let peers = self.dir.borrow().all_ctrls();
        for peer in peers {
            if peer != self.addr && !self.peers_dead.contains(&peer) {
                self.peer_send(
                    ctx,
                    peer,
                    PeerOp::Cleanup { objs: refs.clone() },
                    CLEANUP_DELAY,
                );
            }
        }
        // Local cleanup of the owner's own bookkeeping.
        self.scrub_capspaces(&refs);
        Ok(outcome.nodes_visited() as u64)
    }

    fn scrub_capspaces(&mut self, revoked: &[CapRef]) {
        let dead: HashSet<CapRef> = revoked.iter().copied().collect();
        self.scrub_where(|cap| dead.contains(cap));
    }

    /// Drops every capability matching `dead` from the capability spaces of
    /// the Processes managed here and from the bootstrap registry.
    fn scrub_where(&mut self, dead: impl Fn(&CapRef) -> bool) {
        for (proc, space) in self.spaces.iter_mut() {
            let victims: Vec<Cid> = space
                .iter()
                .filter(|(_, cap)| dead(cap))
                .map(|(cid, _)| cid)
                .collect();
            for cid in victims {
                let _ = space.remove(cid);
                self.snaps.remove(&(*proc, cid));
            }
        }
        self.kv.retain(|_, ca| !dead(&ca.cap));
    }

    fn dispatch_monitor_events(&mut self, ctx: &mut Ctx<'_>, events: &[MonitorEvent]) {
        for ev in events {
            let (watcher, cb) = match ev {
                MonitorEvent::DelegateDrained(w) => (
                    *w,
                    MonitorCb::DelegateDrained {
                        callback_id: w.callback_id,
                    },
                ),
                MonitorEvent::Receive(w) => (
                    *w,
                    MonitorCb::Receive {
                        callback_id: w.callback_id,
                    },
                ),
            };
            let proc = ProcId(watcher.process.0 as u32);
            let managed_here = self.spaces.contains_key(&proc);
            if managed_here {
                let h = self.handling();
                let extra = self.charge(ctx.now(), h);
                self.send_proc(ctx, proc, CtrlToProc::Monitor(cb), extra);
            } else {
                let ctrl = self.dir.borrow().proc(proc).map(|p| p.ctrl);
                if let Some(ctrl) = ctrl {
                    self.peer_send(
                        ctx,
                        ctrl,
                        PeerOp::MonitorEvent { proc, cb },
                        SimDuration::ZERO,
                    );
                }
            }
        }
    }

    /// Registers delegation of `caps` to Process `to` (local mints inline,
    /// remote owners contacted in parallel), then runs `done` with the
    /// delegated capability arguments in their original order.
    fn delegate_seq(
        &mut self,
        ctx: &mut Ctx<'_>,
        caps: Vec<CapArg>,
        to: ProcId,
        done: DelegateDone,
    ) {
        let n = caps.len();
        // Shared fan-in state: result slots plus the final continuation.
        struct FanIn {
            slots: Vec<Option<CapArg>>,
            outstanding: usize,
            failed: Option<FosError>,
            done: Option<DelegateDone>,
        }
        impl FanIn {
            fn settle(state: &Shared<FanIn>, this: &mut ControllerActor, ctx: &mut Ctx<'_>) {
                let finished = {
                    let s = state.borrow();
                    s.outstanding == 0
                };
                if !finished {
                    return;
                }
                let (done, failed, slots) = {
                    let mut s = state.borrow_mut();
                    (s.done.take(), s.failed.take(), std::mem::take(&mut s.slots))
                };
                let Some(done) = done else { return };
                match failed {
                    Some(e) => done(this, Err(e), ctx),
                    // With no recorded failure every slot must be filled; an
                    // empty slot means a delegation ack was lost without an
                    // error, which surfaces as the peer being unreachable
                    // rather than a crash.
                    None => match slots.into_iter().collect::<Option<Vec<_>>>() {
                        Some(filled) => done(this, Ok(filled), ctx),
                        None => done(this, Err(FosError::ControllerUnreachable), ctx),
                    },
                }
            }
        }

        let state = Shared::named(
            "state",
            FanIn {
                slots: vec![None; n],
                outstanding: 0,
                failed: None,
                done: Some(done),
            },
        );

        // First pass: resolve local delegations inline and launch remote
        // ones in parallel.
        for (i, ca) in caps.into_iter().enumerate() {
            if ca.cap.ctrl == self.addr {
                match self.do_local_delegate(ca.cap, to) {
                    Ok(d) => state.borrow_mut().slots[i] = Some(d),
                    Err(e) => {
                        let mut s = state.borrow_mut();
                        if s.failed.is_none() {
                            s.failed = Some(e);
                        }
                    }
                }
                continue;
            }
            let owner = ca.cap.ctrl;
            state.borrow_mut().outstanding += 1;
            let st = state.clone();
            let token = self.await_ack(
                owner,
                Box::new(move |this, res, ctx| {
                    {
                        let mut s = st.borrow_mut();
                        s.outstanding -= 1;
                        match res {
                            Ok(AckVal::Cap(d)) => s.slots[i] = Some(d),
                            Ok(_) => {
                                if s.failed.is_none() {
                                    s.failed = Some(FosError::WrongObjectKind);
                                }
                            }
                            Err(e) => {
                                if s.failed.is_none() {
                                    s.failed = Some(e);
                                }
                            }
                        }
                    }
                    FanIn::settle(&st, this, ctx);
                }),
            );
            self.peer_send(
                ctx,
                owner,
                PeerOp::Delegate {
                    obj: ca.cap,
                    to,
                    reply_to: self.addr,
                    token,
                },
                SimDuration::ZERO,
            );
        }
        FanIn::settle(&state, self, ctx);
    }

    // ------------------------------------------------------------------
    // Syscall handling
    // ------------------------------------------------------------------

    fn handle_syscall(&mut self, ctx: &mut Ctx<'_>, proc: ProcId, token: u64, sc: Syscall) {
        ctx.metrics().incr(sc.counter());
        if self.dead_procs.contains(&proc) {
            return;
        }
        let cost = self.syscall_cost(&sc);
        let extra = self.charge(ctx.now(), cost);
        let outcome = self.exec_syscall(ctx, (proc, token), sc, extra);
        if let Some(result) = outcome.unwrap_or_else(|e| Some(SyscallResult::Err(e))) {
            self.reply(ctx, proc, token, result, extra);
        }
    }

    /// Runs one syscall whose handling charge `extra` is already paid.
    /// `Ok(Some(result))` and `Err(e)` are for the caller to reply after
    /// `extra`; `Ok(None)` means the reply goes out later — from the ack of
    /// an op forwarded to the object's owner, from a delegation fan-in, or
    /// (`memory_copy`) when the transfer completes.
    fn exec_syscall(
        &mut self,
        ctx: &mut Ctx<'_>,
        caller: (ProcId, u64),
        sc: Syscall,
        extra: SimDuration,
    ) -> Result<Option<SyscallResult>, FosError> {
        let (proc, token) = caller;
        Ok(match sc {
            Syscall::Null => Some(SyscallResult::Ok),
            Syscall::MemoryCreate { addr, size, perms } => {
                Some(self.sc_memory_create(proc, addr, size, perms))
            }
            Syscall::MemoryDiminish {
                cid,
                offset,
                size,
                drop_perms,
            } => {
                let op = DeriveOp::Diminish {
                    offset,
                    size,
                    drop_perms,
                };
                self.sc_derive(ctx, caller, cid, op, extra)?
            }
            Syscall::MemoryCopy { src, dst } => {
                let (result, after) = self.sc_memory_copy(ctx, proc, src, dst, extra)?;
                self.reply(ctx, proc, token, result, after);
                None
            }
            Syscall::RequestCreate {
                base,
                tag,
                imms,
                caps,
            } => {
                // Resolve capability arguments from the caller's space.
                let caps = caps
                    .into_iter()
                    .map(|cid| {
                        let (cap, mem) = self.resolve_cid(proc, cid)?;
                        Ok(CapArg { cap, mem })
                    })
                    .collect::<Result<Vec<_>, FosError>>()?;
                match base {
                    Some(base) => {
                        self.sc_derive(ctx, caller, base, DeriveOp::Refine { imms, caps }, extra)?
                    }
                    None => {
                        // New Request provided by the caller itself; it
                        // already holds the argument capabilities, so no
                        // delegation registration is needed.
                        let desc = RequestDesc {
                            provider: proc,
                            tag,
                            args: imms
                                .into_iter()
                                .map(Arg::Imm)
                                .chain(caps.into_iter().map(Arg::Cap))
                                .collect(),
                        };
                        let cap = self.table.create(proc.token(), ObjPayload::Request(desc));
                        Some(self.installed(proc, Ok(CapArg { cap, mem: None })))
                    }
                }
            }
            Syscall::RequestInvoke { cid } => self.sc_request_invoke(ctx, caller, cid, extra)?,
            Syscall::CapCreateRevtree { cid } => {
                self.sc_derive(ctx, caller, cid, DeriveOp::Revtree, extra)?
            }
            Syscall::CapRevoke { cid } => {
                let (obj, _) = self.resolve_cid(proc, cid)?;
                if obj.ctrl == self.addr {
                    Some(SyscallResult::Value(self.do_local_revoke(ctx, obj)?))
                } else {
                    self.forward_to_owner(
                        ctx,
                        obj.ctrl,
                        extra,
                        caller,
                        Self::ack_count,
                        |reply_to, token| PeerOp::Revoke {
                            obj,
                            reply_to,
                            token,
                        },
                    );
                    None
                }
            }
            Syscall::MonitorDelegate { cid, callback_id } => {
                self.sc_monitor(ctx, caller, cid, MonitorKind::Delegate, callback_id, extra)?
            }
            Syscall::MonitorReceive { cid, callback_id } => {
                self.sc_monitor(ctx, caller, cid, MonitorKind::Receive, callback_id, extra)?
            }
            Syscall::MemoryStat { cid } => {
                let (_, snap) = self.resolve_cid(proc, cid)?;
                let desc = snap.ok_or(FosError::WrongObjectKind)?;
                // Only the backing Process may learn raw addresses.
                if desc.proc != proc {
                    return Err(FosError::PermissionDenied);
                }
                Some(SyscallResult::Stat {
                    addr: desc.addr,
                    off: desc.view_off,
                    size: desc.size,
                })
            }
            Syscall::KvPut { key, cid } => {
                let (cap, mem) = self.resolve_cid(proc, cid)?;
                let cap = CapArg { cap, mem };
                if self.addr == self.registry {
                    self.kv.insert(key, cap);
                    Some(SyscallResult::Ok)
                } else {
                    self.forward_to_owner(
                        ctx,
                        self.registry,
                        extra,
                        caller,
                        Self::ack_done,
                        |reply_to, token| PeerOp::KvPut {
                            key,
                            cap,
                            reply_to,
                            token,
                        },
                    );
                    None
                }
            }
            Syscall::KvGet { key } => {
                if self.addr == self.registry {
                    self.kv_get_local(ctx, &key, proc, extra, move |this, found, ctx, after| {
                        this.reply_installed(ctx, caller, found, after)
                    });
                } else {
                    self.forward_to_owner(
                        ctx,
                        self.registry,
                        extra,
                        caller,
                        Self::ack_lookup,
                        |reply_to, token| PeerOp::KvGet {
                            key,
                            to: proc,
                            reply_to,
                            token,
                        },
                    );
                }
                None
            }
        })
    }

    /// Replies to `caller` with the index of a capability minted for it.
    fn reply_installed(
        &mut self,
        ctx: &mut Ctx<'_>,
        (proc, token): (ProcId, u64),
        ca: Result<CapArg, FosError>,
        after: SimDuration,
    ) {
        let result = self.installed(proc, ca);
        self.reply(ctx, proc, token, result, after);
    }

    /// A derivation syscall (`memory_diminish`, `cap_create_revtree`,
    /// Request refinement): executes at the owner of the object behind
    /// `cid`, which may be this Controller.
    fn sc_derive(
        &mut self,
        ctx: &mut Ctx<'_>,
        caller: (ProcId, u64),
        cid: Cid,
        op: DeriveOp,
        extra: SimDuration,
    ) -> Result<Option<SyscallResult>, FosError> {
        let creator = caller.0;
        let (obj, _) = self.resolve_cid(creator, cid)?;
        if obj.ctrl == self.addr {
            self.derive_local(
                ctx,
                obj,
                op,
                creator,
                extra,
                move |this, derived, ctx, after| this.reply_installed(ctx, caller, derived, after),
            );
        } else {
            self.forward_to_owner(
                ctx,
                obj.ctrl,
                extra,
                caller,
                Self::ack_derived,
                |reply_to, token| PeerOp::Derive {
                    obj,
                    op,
                    creator,
                    reply_to,
                    token,
                },
            );
        }
        Ok(None)
    }

    /// Owner-side derivation. `done` receives the derived capability and the
    /// delay after which to announce it: `extra` when derived inline, none
    /// when a refinement first had to register delegations.
    fn derive_local(
        &mut self,
        ctx: &mut Ctx<'_>,
        obj: CapRef,
        op: DeriveOp,
        creator: ProcId,
        extra: SimDuration,
        done: impl FnOnce(&mut Self, Result<CapArg, FosError>, &mut Ctx<'_>, SimDuration)
            + Send
            + 'static,
    ) {
        match op {
            DeriveOp::Diminish {
                offset,
                size,
                drop_perms,
            } => {
                let derived = self.do_local_diminish(obj, creator, offset, size, drop_perms);
                done(self, derived, ctx, extra);
            }
            DeriveOp::Revtree => {
                let derived = self.do_local_revtree(obj, creator);
                done(self, derived, ctx, extra);
            }
            DeriveOp::Refine { imms, caps } => {
                self.refine_local(ctx, obj, creator, imms, caps, |this, derived, ctx| {
                    done(this, derived, ctx, SimDuration::ZERO)
                });
            }
        }
    }

    fn sc_memory_create(
        &mut self,
        proc: ProcId,
        addr: u64,
        size: u64,
        perms: fractos_cap::Perms,
    ) -> SyscallResult {
        let proc_ep = match self.dir.borrow().proc(proc) {
            Some(pe) => pe.endpoint,
            None => return SyscallResult::Err(FosError::ProcessFailed),
        };
        // The buffer must exist and be large enough. Device memory (e.g. a
        // GPU buffer allocated by its adaptor) keeps its device placement.
        let location = {
            let mem = self.mem.borrow();
            match mem.region_size(proc, addr) {
                Some(rs) if rs >= size => mem.region_location(proc, addr).unwrap_or(proc_ep),
                _ => return SyscallResult::Err(FosError::OutOfBounds),
            }
        };
        let desc = MemoryDesc {
            proc,
            location,
            addr,
            view_off: 0,
            size,
            perms,
        };
        let cap = self
            .table
            .create(proc.token(), ObjPayload::Memory(desc.clone()));
        self.mem.borrow_mut().register_window(cap, desc.clone());
        let mem = Some(desc);
        self.installed(proc, Ok(CapArg { cap, mem }))
    }

    /// `memory_copy`: moves the bytes, models the transfer, and returns the
    /// result to reply with together with the delay until the transfer
    /// completes. An `Err` is a rejection before any byte moved; it costs
    /// only the handling charge.
    fn sc_memory_copy(
        &mut self,
        ctx: &mut Ctx<'_>,
        proc: ProcId,
        src: Cid,
        dst: Cid,
        handled: SimDuration,
    ) -> Result<(SyscallResult, SimDuration), FosError> {
        let (src_ref, src_snap) = self.resolve_cid(proc, src)?;
        let (dst_ref, dst_snap) = self.resolve_cid(proc, dst)?;
        let (Some(src_desc), Some(dst_desc)) = (src_snap, dst_snap) else {
            return Err(FosError::WrongObjectKind);
        };
        let size = src_desc.size;
        if dst_desc.size < size {
            return Err(FosError::SizeMismatch);
        }

        // Static pre-dispatch verification (§3.3): the copy's permission
        // requirements are provable from the capability snapshots alone, so
        // a doomed copy is rejected before any byte moves. The rejection
        // costs the same single handling charge as the runtime error path
        // it replaces; only the counters differ.
        let sc = Syscall::MemoryCopy { src, dst };
        let verdict = crate::verify::verify_syscall(&sc, |c| {
            if c == src {
                Some(src_desc.clone())
            } else if c == dst {
                Some(dst_desc.clone())
            } else {
                None
            }
        });
        if let Err(v) = verdict {
            self.fabric
                .borrow_mut()
                .note_verify(|s| s.record_verify_reject());
            return Err(FosError::Verify(v));
        }

        // Move the actual bytes through the windows (one-sided access with
        // validity, permission and bounds checks at the owner side).
        let mut data = self.mem.borrow().rdma_read_window(src_ref, 0, size)?;
        // Data-plane corruption: on links the armed plan names, one bit of
        // the payload may flip in flight (data class only — the control
        // plane keeps the drop model). The source checksum is the
        // producer-side integrity envelope; it is captured before the flip
        // so the destination read-back below can catch the corruption.
        let (src_node, dst_node) = (src_desc.location.node, dst_desc.location.node);
        let src_sum = {
            let mut fabric = self.fabric.borrow_mut();
            if fabric.corrupts_data(src_node, dst_node) {
                let sum = crate::integrity::fnv1a(&data);
                if let Some(bit) = fabric.corrupt_payload(src_node, dst_node) {
                    crate::integrity::flip_bit(&mut data, bit);
                }
                Some(sum)
            } else {
                None
            }
        };
        self.mem.borrow_mut().rdma_write_window(dst_ref, 0, &data)?;

        // Latency model. Snapshot the scalar knobs up front: `charge` and
        // the per-chunk `send`s below need the fabric lock themselves, so
        // a params borrow cannot stay alive across the loop — and cloning
        // the whole block per syscall is what this path used to pay.
        let (third_party_rdma, local_oneway, proc_cost, db_threshold, db_chunk, bounce_bw, e2e) = {
            let fabric = self.fabric.borrow();
            let p = fabric.params();
            (
                p.third_party_rdma,
                p.local_oneway,
                p.memcopy_proc(self.domain),
                p.double_buffer_threshold,
                p.double_buffer_chunk,
                p.bounce_memcpy_bw(self.domain),
                p.end_to_end_integrity,
            )
        };
        let extra = if third_party_rdma {
            // "HW copies" (Fig 5): the NIC moves data directly between the
            // two processes; the Controller only orchestrates.
            let start = ctx.now() + handled;
            let copy = {
                let mut fabric = self.fabric.borrow_mut();
                fabric.rdma_write(start, ctx.rng(), src_desc.location, dst_desc.location, size)
            };
            let done = start + copy + local_oneway;
            done.duration_since(ctx.now())
        } else {
            // Bounce buffers in the Controller with double buffering above
            // the threshold (§4, §6.1). All chunk-read requests are posted
            // back to back (the source's egress link serializes the
            // responses); each chunk's write is posted as soon as its read
            // has landed and been processed (the destination link
            // serializes the writes); a single completion closes the
            // transfer. The Controller pays processing per chunk on its
            // (serial) cores.
            let chunk = if size > db_threshold {
                db_chunk.min(size)
            } else {
                size.max(1)
            };
            let t0 = ctx.now() + handled;
            let mut last_write_arrival = t0;
            let mut off = 0u64;
            while off < size {
                let n = chunk.min(size - off);
                // One-sided read: tiny request now, bulk response queued on
                // the source-side links.
                let (req, resp) = {
                    let mut fabric = self.fabric.borrow_mut();
                    let req = fabric.send(
                        t0,
                        ctx.rng(),
                        self.endpoint,
                        src_desc.location,
                        32,
                        TrafficClass::Control,
                    );
                    let resp = fabric.send(
                        t0 + req,
                        ctx.rng(),
                        src_desc.location,
                        self.endpoint,
                        n,
                        TrafficClass::Data,
                    );
                    (req, resp)
                };
                let read_landed = t0 + req + resp;
                // Chunk processing on the Controller cores: request
                // bookkeeping plus two memcpys through the bounce buffers.
                let chunk_cpu = proc_cost + NetParams::bounce_memcpy_at(bounce_bw, n);
                let processed = read_landed + self.charge(read_landed, chunk_cpu);
                // One-sided write: bulk data queued on the path to the
                // destination.
                let wr = {
                    let mut fabric = self.fabric.borrow_mut();
                    fabric.send(
                        processed,
                        ctx.rng(),
                        self.endpoint,
                        dst_desc.location,
                        n,
                        TrafficClass::Data,
                    )
                };
                last_write_arrival = last_write_arrival.max(processed + wr);
                off += n;
            }
            // Final completion (write ack) back to the Controller.
            let ack = {
                let mut fabric = self.fabric.borrow_mut();
                fabric.send(
                    last_write_arrival,
                    ctx.rng(),
                    dst_desc.location,
                    self.endpoint,
                    0,
                    TrafficClass::Control,
                )
            };
            (last_write_arrival + ack).duration_since(ctx.now())
        };
        // The whole orchestrated transfer is one aggregate Data span; the
        // per-chunk fabric sends above are link reservations, not messages.
        let data_span = if self.cur.is_some() {
            ctx.span(
                SpanKind::Data,
                "memcpy",
                self.cur,
                ctx.now(),
                ctx.now() + extra,
            )
        } else {
            TraceCtx::NONE
        };
        // Integrity envelope at the consumption boundary: re-read the
        // destination and compare against the producer-side checksum. This
        // models the NIC's inline CRC engine, so it adds no simulated
        // time; it only runs on links the plan can corrupt, keeping clean
        // runs byte-identical. A mismatch surfaces as a typed error — the
        // corrupted bytes stay in the destination, exactly as they would
        // on real hardware, and the caller decides whether to retry.
        if e2e {
            if let Some(sum) = src_sum {
                let back = { self.mem.borrow().rdma_read_window(dst_ref, 0, size) };
                if !back.is_ok_and(|b| crate::integrity::fnv1a(&b) == sum) {
                    if data_span.is_some() {
                        let at = ctx.now() + extra;
                        ctx.span(
                            SpanKind::Integrity,
                            "integrity-violation",
                            data_span,
                            at,
                            at,
                        );
                    }
                    return Ok((SyscallResult::Err(FosError::IntegrityViolation), extra));
                }
            }
        }
        Ok((SyscallResult::Ok, extra))
    }

    /// Owner-side Request refinement: register delegation of the appended
    /// capability arguments to the provider, then derive the refined object.
    fn refine_local(
        &mut self,
        ctx: &mut Ctx<'_>,
        base: CapRef,
        creator: ProcId,
        imms: Vec<Payload>,
        cap_args: Vec<CapArg>,
        done: impl FnOnce(&mut Self, Result<CapArg, FosError>, &mut Ctx<'_>) + Send + 'static,
    ) {
        if let Err(e) = self.table.check(base) {
            done(self, Err(e.into()), ctx);
            return;
        }
        let Some(base_desc) = self
            .table
            .resolve(base)
            .ok()
            .and_then(|p| p.as_request().cloned())
        else {
            done(self, Err(FosError::WrongObjectKind), ctx);
            return;
        };
        let provider = base_desc.provider;
        self.delegate_seq(
            ctx,
            cap_args,
            provider,
            Box::new(move |this, res, ctx| match res {
                Err(e) => done(this, Err(e), ctx),
                Ok(delegated) => {
                    let mut desc = base_desc;
                    desc.args.extend(imms.into_iter().map(Arg::Imm));
                    desc.args.extend(delegated.into_iter().map(Arg::Cap));
                    match this
                        .table
                        .derive(base.object, creator.token(), ObjPayload::Request(desc))
                    {
                        Ok(cap) => done(this, Ok(CapArg { cap, mem: None }), ctx),
                        Err(e) => done(this, Err(e.into()), ctx),
                    }
                }
            }),
        );
    }

    fn sc_request_invoke(
        &mut self,
        ctx: &mut Ctx<'_>,
        caller: (ProcId, u64),
        cid: Cid,
        extra: SimDuration,
    ) -> Result<Option<SyscallResult>, FosError> {
        let (req, _) = self.resolve_cid(caller.0, cid)?;
        // Submission-time verification (§3.3): the submitting Controller
        // statically checks what is provable from its own table before
        // dispatch. A remote root carries no local plan state — it is
        // skipped here and re-verified by the owner on admission (defense
        // in depth). Verification is free in simulated time.
        self.fabric
            .borrow_mut()
            .note_verify(|s| s.record_verify_submission());
        if let Err(v) = crate::verify::verify_plan(&self.table, req) {
            self.fabric
                .borrow_mut()
                .note_verify(|s| s.record_verify_reject());
            return Err(FosError::Verify(v));
        }
        if req.ctrl == self.addr {
            self.do_local_invoke(ctx, req, extra)?;
            return Ok(Some(SyscallResult::Ok));
        }
        self.forward_to_owner(
            ctx,
            req.ctrl,
            extra,
            caller,
            Self::ack_done,
            |reply_to, token| PeerOp::Invoke {
                req,
                reply_to,
                token,
            },
        );
        Ok(None)
    }

    /// Owner-side invocation: deliver the Request to its provider Process.
    fn do_local_invoke(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: CapRef,
        extra: SimDuration,
    ) -> Result<(), FosError> {
        self.table.check(req)?;
        let desc = self
            .table
            .resolve(req)?
            .as_request()
            .cloned()
            .ok_or(FosError::WrongObjectKind)?;
        let provider = desc.provider;
        let alive = self.dir.borrow().proc(provider).is_some_and(|p| p.alive)
            && !self.dead_procs.contains(&provider);
        if !alive {
            return Err(FosError::ProcessFailed);
        }
        // Admission-time verification: the owner re-walks the full
        // continuation plan against its own (authoritative) table before
        // delivering — the submitting Controller's check may have been
        // shallow (remote root) or raced a revocation in flight.
        self.fabric
            .borrow_mut()
            .note_verify(|s| s.record_verify_admission());
        if let Err(v) = crate::verify::verify_plan(&self.table, req) {
            self.fabric
                .borrow_mut()
                .note_verify(|s| s.record_verify_reject());
            return Err(FosError::Verify(v));
        }
        let mut imms = Vec::new();
        let mut cids = Vec::new();
        for arg in &desc.args {
            match arg {
                Arg::Imm(b) => imms.push(b.clone()),
                Arg::Cap(ca) => cids.push(self.install_cap(provider, ca.clone())?),
            }
        }
        self.send_proc(
            ctx,
            provider,
            CtrlToProc::Deliver(IncomingRequest {
                tag: desc.tag,
                imms,
                caps: cids,
            }),
            extra,
        );
        Ok(())
    }

    fn sc_monitor(
        &mut self,
        ctx: &mut Ctx<'_>,
        caller: (ProcId, u64),
        cid: Cid,
        kind: MonitorKind,
        callback_id: u64,
        extra: SimDuration,
    ) -> Result<Option<SyscallResult>, FosError> {
        let watcher = caller.0;
        let (obj, _) = self.resolve_cid(watcher, cid)?;
        if obj.ctrl == self.addr {
            self.do_local_monitor(obj, kind, watcher, callback_id)?;
            return Ok(Some(SyscallResult::Ok));
        }
        self.forward_to_owner(
            ctx,
            obj.ctrl,
            extra,
            caller,
            Self::ack_done,
            |reply_to, token| PeerOp::Monitor {
                obj,
                kind,
                watcher,
                callback_id,
                reply_to,
                token,
            },
        );
        Ok(None)
    }

    fn do_local_monitor(
        &mut self,
        cap: CapRef,
        kind: MonitorKind,
        watcher: ProcId,
        callback_id: u64,
    ) -> Result<(), FosError> {
        self.table.check(cap)?;
        let w = Watcher {
            process: watcher.token(),
            callback_id,
        };
        match kind {
            MonitorKind::Delegate => self.table.monitor_delegate(cap.object, w)?,
            MonitorKind::Receive => self.table.monitor_receive(cap.object, w)?,
        }
        Ok(())
    }

    /// Registry lookup of `key` on behalf of Process `to`. `done` receives
    /// the capability `to` should hold and the delay after which to
    /// announce it: `extra` on a miss, none once the delegation to `to` is
    /// registered at the capability's owner.
    fn kv_get_local(
        &mut self,
        ctx: &mut Ctx<'_>,
        key: &str,
        to: ProcId,
        extra: SimDuration,
        done: impl FnOnce(&mut Self, Result<CapArg, FosError>, &mut Ctx<'_>, SimDuration)
            + Send
            + 'static,
    ) {
        let Some(ca) = self.kv.get(key).cloned() else {
            return done(self, Err(FosError::NoSuchKey), ctx, extra);
        };
        self.delegate_seq(
            ctx,
            vec![ca],
            to,
            Box::new(move |this, res, ctx| {
                done(this, res.map(|mut v| v.remove(0)), ctx, SimDuration::ZERO)
            }),
        );
    }

    // ------------------------------------------------------------------
    // Peer-op handling
    // ------------------------------------------------------------------

    fn handle_peer(&mut self, ctx: &mut Ctx<'_>, from: ControllerAddr, op: PeerOp) {
        // Receiver-side (de)serialization cost.
        let crossing = match self.dir.borrow().ctrl(from) {
            Some(ce) => ce.endpoint.node != self.endpoint.node,
            None => false,
        };
        let ser = self.serialize_cost(&op, crossing);
        let cost = self.peer_cost(&op, ser);
        let extra = self.charge(ctx.now(), cost);

        match op {
            PeerOp::Invoke {
                req,
                reply_to,
                token,
            } => {
                let result = self.do_local_invoke(ctx, req, extra);
                self.peer_send(ctx, reply_to, PeerOp::InvokeAck { token, result }, extra);
            }
            PeerOp::Derive {
                obj,
                op,
                creator,
                reply_to,
                token,
            } => self.derive_local(
                ctx,
                obj,
                op,
                creator,
                extra,
                move |this, result, ctx, after| {
                    this.peer_send(ctx, reply_to, PeerOp::DeriveAck { token, result }, after)
                },
            ),
            PeerOp::Delegate {
                obj,
                to,
                reply_to,
                token,
            } => {
                let result = self.do_local_delegate(obj, to);
                self.peer_send(ctx, reply_to, PeerOp::DelegateAck { token, result }, extra);
            }
            PeerOp::Revoke {
                obj,
                reply_to,
                token,
            } => {
                let result = self.do_local_revoke(ctx, obj);
                self.peer_send(ctx, reply_to, PeerOp::RevokeAck { token, result }, extra);
            }
            PeerOp::Monitor {
                obj,
                kind,
                watcher,
                callback_id,
                reply_to,
                token,
            } => {
                let result = self.do_local_monitor(obj, kind, watcher, callback_id);
                self.peer_send(ctx, reply_to, PeerOp::MonitorAck { token, result }, extra);
            }
            PeerOp::KvPut {
                key,
                cap,
                reply_to,
                token,
            } => {
                self.kv.insert(key, cap);
                let result = Ok(());
                self.peer_send(ctx, reply_to, PeerOp::KvPutAck { token, result }, extra);
            }
            PeerOp::KvGet {
                key,
                to,
                reply_to,
                token,
            } => self.kv_get_local(ctx, &key, to, extra, move |this, result, ctx, after| {
                this.peer_send(ctx, reply_to, PeerOp::KvGetAck { token, result }, after)
            }),
            PeerOp::InvokeAck { token, result }
            | PeerOp::MonitorAck { token, result }
            | PeerOp::KvPutAck { token, result } => {
                self.complete_ack(ctx, token, result.map(|()| AckVal::None))
            }
            PeerOp::DeriveAck { token, result }
            | PeerOp::DelegateAck { token, result }
            | PeerOp::KvGetAck { token, result } => {
                self.complete_ack(ctx, token, result.map(AckVal::Cap))
            }
            PeerOp::RevokeAck { token, result } => {
                self.complete_ack(ctx, token, result.map(AckVal::Count))
            }
            PeerOp::MonitorEvent { proc, cb } => {
                self.send_proc(ctx, proc, CtrlToProc::Monitor(cb), extra)
            }
            PeerOp::Cleanup { objs } => self.scrub_capspaces(&objs),
            PeerOp::FailProcess { proc } => self.fail_process_local(ctx, proc),
        }
    }

    // ------------------------------------------------------------------
    // Failure translation (§3.6)
    // ------------------------------------------------------------------

    /// Local part of Process-failure translation: revoke everything the
    /// Process registered with *this* Controller and drop its capability
    /// space.
    fn fail_process_local(&mut self, ctx: &mut Ctx<'_>, proc: ProcId) {
        let outcome = self.table.fail_process(proc.token());
        let epoch = self.table.epoch();
        {
            let mut mem = self.mem.borrow_mut();
            for id in &outcome.revoked {
                mem.invalidate_window(CapRef {
                    ctrl: self.addr,
                    epoch,
                    object: *id,
                });
            }
        }
        self.dispatch_monitor_events(ctx, &outcome.events);
        if self.spaces.remove(&proc).is_some() {
            self.dead_procs.insert(proc);
            self.snaps.retain(|(p, _), _| *p != proc);
        }
    }

    /// Full Process-failure translation at the managing Controller: local
    /// cleanup plus a broadcast so every owner revokes the Process's
    /// objects.
    fn on_proc_severed(&mut self, ctx: &mut Ctx<'_>, proc: ProcId) {
        self.dir.borrow_mut().kill_proc(proc);
        self.mem.borrow_mut().invalidate_proc_windows(proc);
        self.fail_process_local(ctx, proc);
        let peers = self.dir.borrow().all_ctrls();
        for peer in peers {
            if peer != self.addr && !self.peers_dead.contains(&peer) {
                self.peer_send(ctx, peer, PeerOp::FailProcess { proc }, SimDuration::ZERO);
            }
        }
    }

    /// A reboot: the epoch advances and all volatile state is gone.
    fn lose_state(&mut self) {
        self.table.reboot();
        self.spaces.clear();
        self.snaps.clear();
        self.kv.clear();
        self.pending.clear();
        self.dead_procs.clear();
    }

    fn on_peer_failed(&mut self, ctx: &mut Ctx<'_>, peer: ControllerAddr) {
        if !self.peers_dead.insert(peer) {
            return;
        }
        self.fail_ops_to(ctx, peer);
        // All Processes the dead Controller managed are considered failed
        // (§3.6); translate locally.
        let procs = self.dir.borrow().procs_of(peer);
        for proc in procs {
            self.mem.borrow_mut().invalidate_proc_windows(proc);
            self.fail_process_local(ctx, proc);
        }
        // Every capability the dead Controller minted is revoked with its
        // death epoch: scrub it from the capability spaces of the Processes
        // managed here (later use yields a typed BadCid verdict, never a
        // silent hang on the dead owner) and from the bootstrap registry,
        // so lookups can never hand out a dead instance's capability.
        self.scrub_where(|cap| cap.ctrl == peer);
        self.peer_revocations.push((peer, ctx.now()));
        if ctx.spans_enabled() {
            ctx.span(
                SpanKind::Recovery,
                "revoke",
                TraceCtx::NONE,
                ctx.now(),
                ctx.now(),
            );
        }
    }
}

impl Actor for ControllerActor {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        // A message of any other type is a harness wiring bug; dropping it
        // is safer than unwinding mid-event (poisoned shared state).
        let Ok(msg) = msg.downcast::<CtrlMsg>() else {
            return;
        };
        let msg = *msg;
        if self.dead {
            // A dead Controller neither processes nor replies; reboots
            // arrive as CtrlMsg::Reboot.
            if let CtrlMsg::Reboot = msg {
                self.dead = false;
                self.lose_state();
                self.dir.borrow_mut().revive_ctrl(self.addr);
            }
            return;
        }
        // Each event starts outside any trace; the matching arm restores
        // the context carried by its envelope or pending record.
        self.cur = TraceCtx::NONE;
        match msg {
            CtrlMsg::FromProc {
                proc,
                token,
                sc,
                seq,
                tctx,
            } => {
                if !self.seen_proc.entry(proc).or_default().fresh(seq) {
                    // Duplicate transmit of an already-processed syscall.
                    return;
                }
                self.cur = tctx;
                if ctx.trace_enabled() {
                    ctx.trace(format!("{} syscall {} from {}", self.addr, sc.name(), proc));
                }
                self.handle_syscall(ctx, proc, token, sc);
            }
            CtrlMsg::FromPeer {
                from,
                op,
                seq,
                tctx,
            } => {
                if !self.seen_peer.entry(from).or_default().fresh(seq) {
                    return;
                }
                self.cur = tctx;
                if ctx.trace_enabled() {
                    ctx.trace(format!(
                        "{} peer-op from {}: {}",
                        self.addr,
                        from,
                        op.name()
                    ));
                }
                self.handle_peer(ctx, from, op)
            }
            CtrlMsg::RetransmitProc {
                proc,
                msg,
                seq,
                attempt,
                tctx,
            } => {
                self.cur = tctx;
                self.transmit_proc(ctx, proc, msg, seq, attempt, SimDuration::ZERO)
            }
            CtrlMsg::RetransmitPeer {
                to,
                op,
                seq,
                attempt,
                tctx,
            } => {
                self.cur = tctx;
                self.transmit_peer(ctx, to, op, seq, attempt, SimDuration::ZERO)
            }
            CtrlMsg::AckTimeout { token } => {
                if let Some(p) = self.pending.get(&token) {
                    if p.tctx.is_some() {
                        let t = p.tctx;
                        ctx.span(SpanKind::Fault, "ack-timeout", t, ctx.now(), ctx.now());
                    }
                    self.complete_ack(ctx, token, Err(FosError::ControllerUnreachable));
                }
            }
            CtrlMsg::ProcChannelSevered { proc } => self.on_proc_severed(ctx, proc),
            CtrlMsg::PeerFailed { peer } => self.on_peer_failed(ctx, peer),
            CtrlMsg::PeerRecovered { peer } => {
                // The watchdog saw the peer answer pings again: the outage
                // was a partition, not a crash. New operations may flow;
                // operations failed meanwhile stay failed.
                self.peers_dead.remove(&peer);
            }
            CtrlMsg::Kill => {
                self.dead = true;
                self.dir.borrow_mut().kill_ctrl(self.addr);
            }
            // Reboot of a live Controller: same state loss.
            CtrlMsg::Reboot => self.lose_state(),
            CtrlMsg::Ping {
                watchdog,
                watchdog_ep,
                seq,
            } => {
                // Pongs are droppable and never retransmitted: their loss
                // IS the watchdog's failure signal (§3.6).
                let outcome = self.fabric.borrow_mut().try_send(
                    ctx.now(),
                    ctx.rng(),
                    self.endpoint,
                    watchdog_ep,
                    16,
                    TrafficClass::Control,
                );
                if let SendOutcome::Delivered(delay) = outcome {
                    ctx.send_after(
                        delay,
                        watchdog,
                        crate::watchdog::WatchdogMsg::Pong {
                            from: self.addr,
                            seq,
                        },
                    );
                }
            }
        }
        // Publish the pending-op depth after every event that may have
        // changed it. This actor is the only writer of its series, so
        // last-value-per-window bucketing is deterministic on both backends.
        if ctx.telemetry_enabled() {
            let depth = self.pending.len();
            if self.tele_pending_last != Some(depth) {
                self.tele_pending_last = Some(depth);
                let series = format!("ctrl.{}.pending_ops", self.addr);
                ctx.telemetry_gauge(&series, depth as u64);
            }
        }
    }
}
