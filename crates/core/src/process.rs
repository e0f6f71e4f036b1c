//! The Process runtime and the `libfractos` user API.
//!
//! A FractOS Process is a user-level program connected to exactly one
//! Controller through an asynchronous request/response queue pair (§3.1).
//! Application logic implements [`Service`]; the [`Fos`] handle issues
//! syscalls in continuation-passing style — the paper notes that execution
//! in FractOS "is, in fact, a distributed form of the continuation-passing
//! style (CPS) model", and its prototype builds a bespoke promise/future
//! library for the same purpose (§4). Continuations receive `&mut S`, so
//! services keep plain owned state without interior mutability.
//!
//! Two methods carry the §3.4 call/return idiom so services do not spell
//! out the syscalls: [`Fos::invoke_with`] calls a Request, minting the
//! continuations the callee answers through, and [`Fos::reply_via`]
//! answers by invoking the continuation it was handed.

use std::collections::{HashMap, VecDeque};

use fractos_cap::{Cid, Perms};
use fractos_net::{Endpoint, Payload, TrafficClass};
use fractos_sim::{
    Actor, Ctx, Msg, Shared, SimDuration, SimTime, SpanKind, TelemetryKind, TraceCtx,
};

use crate::directory::Directory;
use crate::memstore::MemoryStore;
use crate::messages::{syscall_msg_size, CtrlMsg, CtrlToProc, ProcMsg};
use crate::retry::{reliable_send, DedupFilter, Hop, Sent, SeqGen};
use crate::types::{FosError, IncomingRequest, MonitorCb, ProcId, Syscall, SyscallResult};

/// Application logic of a FractOS Process (user service or device adaptor).
///
/// All methods run inside the simulation; they must not block. Asynchrony is
/// expressed by issuing syscalls with continuations through [`Fos`]. The
/// `Send` bound lets runtime backends host the enclosing Process actor on a
/// worker thread.
pub trait Service: Send + 'static {
    /// Called once when the Process starts.
    fn on_start(&mut self, fos: &Fos<Self>)
    where
        Self: Sized,
    {
        let _ = fos;
    }

    /// Called when a Request this Process provides is invoked.
    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>)
    where
        Self: Sized;

    /// Called when a monitor callback arrives (§3.6).
    fn on_monitor(&mut self, cb: MonitorCb, fos: &Fos<Self>)
    where
        Self: Sized,
    {
        let _ = (cb, fos);
    }
}

type Cont<S> = Box<dyn FnOnce(&mut S, SyscallResult, &Fos<S>) + Send>;
type TimerCont<S> = Box<dyn FnOnce(&mut S, &Fos<S>) + Send>;

enum Out {
    Syscall {
        token: u64,
        sc: Syscall,
    },
    Timer {
        token: u64,
        delay: SimDuration,
        /// Device label for span attribution (`Fos::sleep_dev`); `None` for
        /// plain timers, which silently thread the current trace context
        /// through to the continuation instead of opening a Device span.
        dev: Option<&'static str>,
    },
    /// A buffered telemetry point (`Fos::telemetry_*`), drained into the
    /// engine's telemetry store on the next flush. Only ever queued while
    /// the telemetry plane is enabled.
    Telemetry {
        series: String,
        kind: TelemetryKind,
    },
}

struct FosInner<S> {
    proc: ProcId,
    now: SimTime,
    next_token: u64,
    conts: HashMap<u64, Cont<S>>,
    timers: HashMap<u64, TimerCont<S>>,
    out: Vec<Out>,
    // Congestion control (§4): bounded outstanding syscalls; excess queues.
    outstanding: u32,
    window: u32,
    backlog: VecDeque<(u64, Syscall)>,
    mem: Shared<MemoryStore>,
    fabric: Shared<fractos_net::Fabric>,
    /// Mirror of `Ctx::telemetry_enabled`, refreshed on every delivery.
    /// `Fos::telemetry_*` are complete no-ops while this is false, so a
    /// disabled run allocates nothing (zero-perturbation invariant).
    telemetry_on: bool,
    // --- causal tracing (all no-ops while span recording is off) ---
    /// Trace context the currently-running handler descends from.
    cur: TraceCtx,
    /// The next posted syscall roots a new trace (`Fos::trace_root`).
    root_armed: bool,
    /// Per-pending-syscall span context (parents retransmits/timeouts and
    /// chains continuations when a reply carries no context).
    sc_ctx: HashMap<u64, TraceCtx>,
    /// Context to restore when an armed timer fires.
    timer_ctx: HashMap<u64, TraceCtx>,
}

/// Handle through which a [`Service`] uses FractOS.
///
/// Cheap to clone; all clones refer to the same Process.
pub struct Fos<S> {
    inner: Shared<FosInner<S>>,
}

impl<S> Clone for Fos<S> {
    fn clone(&self) -> Self {
        Fos {
            inner: self.inner.clone(),
        }
    }
}

impl<S: Service> Fos<S> {
    /// This Process's id.
    pub fn proc_id(&self) -> ProcId {
        self.inner.borrow().proc
    }

    /// Current virtual time (updated on every delivery to this Process).
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// The retry policy carried on the fabric parameters. Services use
    /// the application-level budgets (`fs_io_retries`, `fv_retries`,
    /// `stage_retries`); the syscall transport reads the rest itself.
    pub fn retry_policy(&self) -> fractos_net::RetryPolicy {
        self.inner.borrow().fabric.borrow().params().retry
    }

    /// Sets the congestion-control window: the maximum number of
    /// simultaneously outstanding syscalls (further calls queue FIFO).
    pub fn set_window(&self, window: u32) {
        self.inner.borrow_mut().window = window.max(1);
    }

    /// Issues an asynchronous syscall; `k` runs when the reply arrives.
    pub fn call(
        &self,
        sc: Syscall,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + Send + 'static,
    ) {
        let mut inner = self.inner.borrow_mut();
        let token = inner.next_token;
        inner.next_token += 1;
        inner.conts.insert(token, Box::new(k));
        if inner.outstanding < inner.window {
            inner.outstanding += 1;
            inner.out.push(Out::Syscall { token, sc });
        } else {
            inner.backlog.push_back((token, sc));
        }
    }

    /// Issues a syscall and ignores its result.
    pub fn call_ignore(&self, sc: Syscall) {
        self.call(sc, |_, _, _| {});
    }

    /// Issues several syscalls concurrently and runs `k` once with all the
    /// results, in call order — the fan-in (`join`) combinator of the
    /// paper's promise/future library (§4).
    pub fn call_all(
        &self,
        calls: Vec<Syscall>,
        k: impl FnOnce(&mut S, Vec<SyscallResult>, &Fos<S>) + Send + 'static,
    ) {
        let n = calls.len();
        if n == 0 {
            // Degenerate join: complete via a null syscall so `k` still
            // runs from a continuation context.
            self.call(Syscall::Null, move |s, _res, fos| k(s, Vec::new(), fos));
            return;
        }
        struct Join<S> {
            slots: Vec<Option<SyscallResult>>,
            left: usize,
            #[allow(clippy::type_complexity)]
            k: Option<Box<dyn FnOnce(&mut S, Vec<SyscallResult>, &Fos<S>) + Send>>,
        }
        let join = Shared::named(
            "state",
            Join {
                slots: vec![None; n],
                left: n,
                k: Some(Box::new(k)),
            },
        );
        for (i, sc) in calls.into_iter().enumerate() {
            let join = join.clone();
            self.call(sc, move |s, res, fos| {
                let done = {
                    let mut j = join.borrow_mut();
                    j.slots[i] = Some(res);
                    j.left -= 1;
                    j.left == 0
                };
                if done {
                    let (k, slots) = {
                        let mut j = join.borrow_mut();
                        (j.k.take(), std::mem::take(&mut j.slots))
                    };
                    if let Some(k) = k {
                        // `left` hit zero, so every slot holds a result; a
                        // hole would mean a completion fired twice — fill it
                        // with a typed error instead of unwinding.
                        let results = slots
                            .into_iter()
                            .map(|r| {
                                r.unwrap_or(SyscallResult::Err(FosError::ControllerUnreachable))
                            })
                            .collect();
                        k(s, results, fos);
                    }
                }
            });
        }
    }

    /// Arms a local timer; `k` runs after `delay` of virtual time. Used by
    /// device adaptors to model device service times.
    pub fn sleep(&self, delay: SimDuration, k: impl FnOnce(&mut S, &Fos<S>) + Send + 'static) {
        self.arm_timer(delay, None, k);
    }

    /// Like [`Fos::sleep`], but labels the wait as device processing time
    /// for latency attribution: with span recording enabled, the interval
    /// becomes a `Device` span (e.g. `"gpu.exec"`, `"nvme.read"`) in the
    /// invoking request's trace. Identical to `sleep` when recording is off.
    pub fn sleep_dev(
        &self,
        delay: SimDuration,
        label: &'static str,
        k: impl FnOnce(&mut S, &Fos<S>) + Send + 'static,
    ) {
        self.arm_timer(delay, Some(label), k);
    }

    fn arm_timer(
        &self,
        delay: SimDuration,
        dev: Option<&'static str>,
        k: impl FnOnce(&mut S, &Fos<S>) + Send + 'static,
    ) {
        let mut inner = self.inner.borrow_mut();
        let token = inner.next_token;
        inner.next_token += 1;
        inner.timers.insert(token, Box::new(k));
        inner.out.push(Out::Timer { token, delay, dev });
    }

    /// True while the runtime's telemetry plane is enabled (refreshed on
    /// every delivery to this Process). Services use this to skip building
    /// expensive series names when nobody is sampling.
    pub fn telemetry_enabled(&self) -> bool {
        self.inner.borrow().telemetry_on
    }

    /// Records a telemetry counter delta under `series`. A no-op (no
    /// allocation, no queued output) while the telemetry plane is disabled.
    pub fn telemetry_count(&self, series: &str, delta: u64) {
        self.telemetry(series, TelemetryKind::Count(delta));
    }

    /// Records a telemetry gauge level under `series`. Gauge series must be
    /// single-writer (one Process per series name) for cross-backend
    /// determinism; see `fractos_sim::telemetry`. No-op while disabled.
    pub fn telemetry_gauge(&self, series: &str, value: u64) {
        self.telemetry(series, TelemetryKind::Gauge(value));
    }

    /// Records one telemetry sample (e.g. a request latency in nanoseconds)
    /// under `series`. No-op while disabled.
    pub fn telemetry_sample(&self, series: &str, value: u64) {
        self.telemetry(series, TelemetryKind::Sample(value));
    }

    fn telemetry(&self, series: &str, kind: TelemetryKind) {
        let mut inner = self.inner.borrow_mut();
        if inner.telemetry_on {
            inner.out.push(Out::Telemetry {
                series: series.to_string(),
                kind,
            });
        }
    }

    /// Marks the next syscall this Process posts as the root of a new trace:
    /// one top-level Request, one root span. Root creation is explicit —
    /// traffic outside an armed root (boot, background chatter) records no
    /// spans — so span trees correspond 1:1 with requests. Has no observable
    /// effect while span recording is disabled on the runtime.
    pub fn trace_root(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.cur = TraceCtx::NONE;
        inner.root_armed = true;
    }

    /// Allocates a buffer in this Process's (simulated) memory.
    pub fn mem_alloc(&self, size: u64) -> u64 {
        let inner = self.inner.borrow();
        let proc = inner.proc;
        let mem = inner.mem.clone();
        drop(inner);
        let addr = mem.borrow_mut().alloc(proc, size);
        addr
    }

    /// Allocates a buffer physically placed at a device endpoint (adaptors
    /// managing device memory, e.g. GPU buffers).
    pub fn mem_alloc_at(&self, size: u64, location: Endpoint) -> u64 {
        let inner = self.inner.borrow();
        let proc = inner.proc;
        let mem = inner.mem.clone();
        drop(inner);
        let addr = mem.borrow_mut().alloc_at(proc, size, location);
        addr
    }

    /// `memory_stat`: resolve a Memory capability backed by this Process's
    /// own memory to `(addr, off, size)`.
    pub fn memory_stat(
        &self,
        cid: Cid,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + Send + 'static,
    ) {
        self.call(Syscall::MemoryStat { cid }, k);
    }

    /// The service-reply idiom: derive the received continuation Request
    /// with result arguments and invoke it (§3.4 — a reply *is* the
    /// invocation of a continuation).
    pub fn reply_via(&self, cont: Cid, imms: Vec<Payload>, caps: Vec<Cid>) {
        self.request_derive(cont, imms, caps, |_s, res, fos| {
            // A failed derivation means the continuation was revoked or its
            // holder died; there is nobody left to answer.
            if let SyscallResult::NewCid(cid) = res {
                fos.request_invoke(cid, |_, _, _| {});
            }
        });
    }

    /// The service-call idiom, the other half of [`Fos::reply_via`]: mint
    /// one continuation Request per `(tag, imms)` of `conts`, derive `target`
    /// with `imms` and `caps` followed by those continuations in order, and
    /// invoke the derived Request (§3.4 — a call hands the callee the
    /// Requests it returns through). The syscalls go out one after the
    /// other: each create, then the derive, then the invoke.
    ///
    /// # Panics
    ///
    /// The caller holds `target` and provides the continuations itself, so
    /// a create or derive that mints no capability is a bug in the caller
    /// and panics; use [`Fos::request_derive`] where `target` may be revoked.
    pub fn invoke_with(
        &self,
        target: Cid,
        imms: Vec<Payload>,
        mut caps: Vec<Cid>,
        mut conts: Vec<(u64, Vec<Payload>)>,
    ) {
        if conts.is_empty() {
            self.request_derive(target, imms, caps, |_s, res, fos| {
                fos.request_invoke(res.cid(), |_, res, _| debug_assert!(res.is_ok()));
            });
            return;
        }
        let (tag, cont_imms) = conts.remove(0);
        self.request_create_new(tag, cont_imms, vec![], move |_s, res, fos| {
            caps.push(res.cid());
            fos.invoke_with(target, imms, caps, conts);
        });
    }

    /// Writes into this Process's own memory (ordinary local access, not a
    /// syscall).
    pub fn mem_write(&self, addr: u64, offset: u64, data: &[u8]) -> Result<(), FosError> {
        let inner = self.inner.borrow();
        let proc = inner.proc;
        let mem = inner.mem.clone();
        drop(inner);
        let r = mem.borrow_mut().write(proc, addr, offset, data);
        r
    }

    /// Reads from this Process's own memory. The bytes come back as a
    /// [`Payload`], so forwarding them into a reply or a derived Request
    /// costs a reference-count bump, not a copy.
    pub fn mem_read(&self, addr: u64, offset: u64, len: u64) -> Result<Payload, FosError> {
        let inner = self.inner.borrow();
        let proc = inner.proc;
        let mem = inner.mem.clone();
        drop(inner);
        let r = mem.borrow().read(proc, addr, offset, len);
        r.map(Payload::from)
    }

    /// Draws the fault-plan decision for the next operation of class `op`
    /// on the device this adaptor fronts. Deterministic (hashed from the
    /// plan seed and the per-device op index, not this Process's RNG);
    /// returns `None` when no plan names the device. Device adaptors call
    /// this once per media/launch operation, in their own serial order, so
    /// the sequence replays bit-identically on both runtime backends.
    pub fn device_fault(
        &self,
        device: Endpoint,
        op: fractos_net::DeviceOp,
    ) -> fractos_net::DeviceFaultOutcome {
        let inner = self.inner.borrow();
        let fabric = inner.fabric.clone();
        drop(inner);
        let outcome = fabric.borrow_mut().device_fault(device, op);
        outcome
    }

    // ---- Table 1 convenience wrappers -------------------------------

    /// `memory_create`: registers `[addr, addr+size)` and continues with the
    /// new Memory capability.
    pub fn memory_create(
        &self,
        addr: u64,
        size: u64,
        perms: Perms,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + Send + 'static,
    ) {
        self.call(Syscall::MemoryCreate { addr, size, perms }, k);
    }

    /// Allocates a fresh buffer and registers it in one step, continuing
    /// with `(addr, cid)`.
    pub fn memory_create_new(
        &self,
        size: u64,
        perms: Perms,
        k: impl FnOnce(&mut S, u64, Result<Cid, FosError>, &Fos<S>) + Send + 'static,
    ) {
        let addr = self.mem_alloc(size);
        self.memory_create(addr, size, perms, move |s, res, fos| {
            // A successful MemoryCreate always mints a cid; an Ok reply
            // without one is a protocol violation, surfaced as a typed
            // error rather than a panic.
            let r = res
                .into_result()
                .and_then(|c| c.ok_or(FosError::WrongObjectKind));
            k(s, addr, r, fos);
        });
    }

    /// `memory_copy(src, dst)`.
    pub fn memory_copy(
        &self,
        src: Cid,
        dst: Cid,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + Send + 'static,
    ) {
        self.call(Syscall::MemoryCopy { src, dst }, k);
    }

    /// `request_create` for a brand-new Request this Process provides.
    pub fn request_create_new(
        &self,
        tag: u64,
        imms: Vec<Payload>,
        caps: Vec<Cid>,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + Send + 'static,
    ) {
        self.call(
            Syscall::RequestCreate {
                base: None,
                tag,
                imms,
                caps,
            },
            k,
        );
    }

    /// `request_create` deriving (refining) an existing Request.
    pub fn request_derive(
        &self,
        base: Cid,
        imms: Vec<Payload>,
        caps: Vec<Cid>,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + Send + 'static,
    ) {
        self.call(
            Syscall::RequestCreate {
                base: Some(base),
                tag: 0,
                imms,
                caps,
            },
            k,
        );
    }

    /// `request_invoke(cid)`.
    pub fn request_invoke(
        &self,
        cid: Cid,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + Send + 'static,
    ) {
        self.call(Syscall::RequestInvoke { cid }, k);
    }

    /// Publish a capability in the bootstrap registry.
    pub fn kv_put(
        &self,
        key: &str,
        cid: Cid,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + Send + 'static,
    ) {
        self.call(
            Syscall::KvPut {
                key: key.to_string(),
                cid,
            },
            k,
        );
    }

    /// Look up a capability from the bootstrap registry.
    pub fn kv_get(
        &self,
        key: &str,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + Send + 'static,
    ) {
        self.call(
            Syscall::KvGet {
                key: key.to_string(),
            },
            k,
        );
    }
}

/// The simulation actor hosting one Process: its [`Service`] logic plus the
/// channel to its Controller.
pub struct ProcessActor<S: Service> {
    service: S,
    fos: Fos<S>,
    proc: ProcId,
    endpoint: Endpoint,
    dir: Shared<Directory>,
    fabric: Shared<fractos_net::Fabric>,
    dead: bool,
    /// Outgoing wire sequence numbers on the syscall channel.
    seq_gen: SeqGen,
    /// Duplicate suppression for messages from the Controller.
    seen: DedupFilter,
}

/// Virtual time a Controller needs to notice a severed Process channel.
pub const CHANNEL_SEVER_DETECT: SimDuration = SimDuration::from_micros(10);

impl<S: Service> ProcessActor<S> {
    /// Creates the actor. `proc` and `endpoint` must match the directory
    /// registration (the testbed builder guarantees this).
    pub fn new(
        service: S,
        proc: ProcId,
        endpoint: Endpoint,
        dir: Shared<Directory>,
        fabric: Shared<fractos_net::Fabric>,
        mem: Shared<MemoryStore>,
    ) -> Self {
        let fos = Fos {
            inner: Shared::named(
                "inner",
                FosInner {
                    proc,
                    now: SimTime::ZERO,
                    next_token: 0,
                    conts: HashMap::new(),
                    timers: HashMap::new(),
                    out: Vec::new(),
                    outstanding: 0,
                    window: 256,
                    backlog: VecDeque::new(),
                    mem,
                    fabric: fabric.clone(),
                    telemetry_on: false,
                    cur: TraceCtx::NONE,
                    root_armed: false,
                    sc_ctx: HashMap::new(),
                    timer_ctx: HashMap::new(),
                },
            ),
        };
        ProcessActor {
            service,
            fos,
            proc,
            endpoint,
            dir,
            fabric,
            dead: false,
            seq_gen: SeqGen::new(),
            seen: DedupFilter::new(),
        }
    }

    /// Number of syscalls whose continuations are still pending (tests: a
    /// drained run must leave none behind).
    pub fn pending_syscalls(&self) -> usize {
        self.fos.inner.borrow().conts.len()
    }

    /// Number of backlogged (window-throttled) syscalls (tests).
    pub fn backlogged(&self) -> usize {
        self.fos.inner.borrow().backlog.len()
    }

    /// Read-only access to the service (harness inspection between events).
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Mutable access to the service (harness inspection between events).
    pub fn service_mut(&mut self) -> &mut S {
        &mut self.service
    }

    /// The user-API handle (harnesses use it to seed initial work).
    pub fn fos(&self) -> Fos<S> {
        self.fos.clone()
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let drained: Vec<Out> = {
                let mut inner = self.fos.inner.borrow_mut();
                std::mem::take(&mut inner.out)
            };
            if drained.is_empty() {
                return;
            }
            for out in drained {
                match out {
                    Out::Syscall { token, sc } => {
                        if ctx.spans_enabled() {
                            let (parent, rooting) = {
                                let mut inner = self.fos.inner.borrow_mut();
                                let rooting = inner.root_armed;
                                inner.root_armed = false;
                                (inner.cur, rooting)
                            };
                            // Spans are recorded only inside an active trace;
                            // roots come solely from `Fos::trace_root`.
                            if rooting || parent.is_some() {
                                let parent = if rooting { TraceCtx::NONE } else { parent };
                                let t = ctx.span(
                                    SpanKind::Syscall,
                                    sc.name(),
                                    parent,
                                    ctx.now(),
                                    ctx.now(),
                                );
                                self.fos.inner.borrow_mut().sc_ctx.insert(token, t);
                            }
                        }
                        self.post_syscall(ctx, token, sc);
                    }
                    Out::Telemetry { series, kind } => match kind {
                        TelemetryKind::Count(d) => ctx.telemetry_count(&series, d),
                        TelemetryKind::Gauge(v) => ctx.telemetry_gauge(&series, v),
                        TelemetryKind::Sample(v) => ctx.telemetry_sample(&series, v),
                    },
                    Out::Timer { token, delay, dev } => {
                        // A labeled sleep is device busy time: count it at
                        // arming, in virtual nanoseconds, so per-device
                        // utilization falls out of the window series.
                        if let Some(label) = dev {
                            if ctx.telemetry_enabled() {
                                let series = format!("dev.{label}.busy_ns");
                                ctx.telemetry_count(&series, delay.as_nanos());
                            }
                        }
                        if ctx.spans_enabled() {
                            let cur = self.fos.inner.borrow().cur;
                            let t = match dev {
                                // A labeled sleep models device time: the
                                // whole wait is a Device span (the timer
                                // fires exactly at its end).
                                Some(label) if cur.is_some() => ctx.span(
                                    SpanKind::Device,
                                    label,
                                    cur,
                                    ctx.now(),
                                    ctx.now() + delay,
                                ),
                                _ => cur,
                            };
                            if t.is_some() {
                                self.fos.inner.borrow_mut().timer_ctx.insert(token, t);
                            }
                        }
                        ctx.schedule_self(delay, ProcMsg::Timer { token });
                    }
                }
            }
        }
    }

    fn post_syscall(&mut self, ctx: &mut Ctx<'_>, token: u64, sc: Syscall) {
        let seq = self.seq_gen.next_seq();
        self.transmit_syscall(ctx, token, sc, seq, 0);
    }

    fn transmit_syscall(
        &mut self,
        ctx: &mut Ctx<'_>,
        token: u64,
        sc: Syscall,
        seq: u64,
        attempt: u32,
    ) {
        // A Process or Controller missing from the directory behaves like
        // an unreachable Controller: the QP errors out locally.
        let entry = {
            let dir = self.dir.borrow();
            dir.proc(self.proc)
                .and_then(|pe| dir.ctrl(pe.ctrl))
                .map(|ce| (ce.actor, ce.endpoint, ce.alive))
        };
        let Some((ctrl_actor, ctrl_ep, ctrl_alive)) = entry else {
            self.deliver_reply(token, SyscallResult::Err(FosError::ControllerUnreachable));
            return;
        };
        if !ctrl_alive {
            // The QP to a failed Controller errors out locally.
            self.deliver_reply(token, SyscallResult::Err(FosError::ControllerUnreachable));
            return;
        }
        let hop = Hop {
            from: self.endpoint,
            to: ctrl_ep,
            size: syscall_msg_size(&sc),
            class: TrafficClass::Control,
            label: "proc->ctrl",
        };
        if attempt == 0 && self.fabric.borrow().has_faults() {
            // Last-resort request timeout: covers replies the Controller
            // could not get back to us despite its own retries.
            let timeout = self.fabric.borrow().params().retry.syscall_timeout;
            ctx.schedule_self(timeout, ProcMsg::SyscallTimeout { token });
        }
        // Base span context of this syscall (set by `flush` when the call
        // was posted inside an active trace); `NONE` outside traces. The
        // envelope carries the hop's propagation span so the Controller
        // parents its own work under the arriving hop.
        let base = self
            .fos
            .inner
            .borrow()
            .sc_ctx
            .get(&token)
            .copied()
            .unwrap_or(TraceCtx::NONE);
        let zero = SimDuration::ZERO;
        match reliable_send(&self.fabric, ctx, &hop, base, zero, zero, attempt) {
            Sent::Delivered { tctx, delay, dup } => {
                let proc = self.proc;
                let envelope = |sc| CtrlMsg::FromProc {
                    proc,
                    token,
                    sc,
                    seq,
                    tctx,
                };
                if let Some(d2) = dup {
                    ctx.send_after(d2, ctrl_actor, envelope(sc.clone()));
                }
                ctx.send_after(delay, ctrl_actor, envelope(sc));
            }
            Sent::Retry { after } => ctx.schedule_self(
                after,
                ProcMsg::Retransmit {
                    token,
                    sc,
                    seq,
                    attempt: attempt + 1,
                },
            ),
            // Resolve the syscall with the §3.6 verdict instead of hanging
            // the continuation.
            Sent::Exhausted => {
                self.deliver_reply(token, SyscallResult::Err(FosError::ControllerUnreachable))
            }
        }
    }

    fn deliver_reply(&mut self, token: u64, result: SyscallResult) {
        let fos = self.fos.clone();
        let (cont, next) = {
            let mut inner = fos.inner.borrow_mut();
            let sctx = inner.sc_ctx.remove(&token);
            // A token with no continuation was already resolved (e.g. a
            // real reply racing a timeout verdict): nothing to do, and the
            // window accounting must not be decremented twice.
            let Some(cont) = inner.conts.remove(&token) else {
                return;
            };
            // Replies that arrive without a wire context (local error
            // verdicts, timeouts) still continue the issuing trace.
            if inner.cur.is_none() {
                if let Some(t) = sctx {
                    inner.cur = t;
                }
            }
            inner.outstanding = inner.outstanding.saturating_sub(1);
            let next = if inner.outstanding < inner.window {
                inner.backlog.pop_front()
            } else {
                None
            };
            if next.is_some() {
                inner.outstanding += 1;
            }
            (cont, next)
        };
        if let Some((tok, sc)) = next {
            fos.inner
                .borrow_mut()
                .out
                .push(Out::Syscall { token: tok, sc });
        }
        cont(&mut self.service, result, &fos);
    }
}

impl<S: Service> Actor for ProcessActor<S> {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        if self.dead {
            return;
        }
        // A message of any other type is a harness wiring bug; dropping it
        // is safer than unwinding mid-event (poisoned shared state).
        let Ok(msg) = msg.downcast::<ProcMsg>() else {
            return;
        };
        let msg = *msg;
        {
            // Each event starts outside any trace; the matching arm below
            // restores the context carried by the envelope or timer.
            let mut inner = self.fos.inner.borrow_mut();
            inner.now = ctx.now();
            inner.telemetry_on = ctx.telemetry_enabled();
            inner.cur = TraceCtx::NONE;
        }
        match msg {
            ProcMsg::Start => {
                let fos = self.fos.clone();
                self.service.on_start(&fos);
            }
            ProcMsg::FromCtrl { seq, tctx, msg } => {
                if !self.seen.fresh(seq) {
                    // Duplicate transmit of an already-delivered message.
                    return;
                }
                self.fos.inner.borrow_mut().cur = tctx;
                match msg {
                    CtrlToProc::Reply { token, result } => {
                        self.deliver_reply(token, result);
                    }
                    CtrlToProc::Deliver(req) => {
                        if ctx.trace_enabled() {
                            ctx.trace(format!("{} deliver tag={:#x}", self.proc, req.tag));
                        }
                        if tctx.is_some() {
                            let t = ctx.span(
                                SpanKind::Deliver,
                                "on_request",
                                tctx,
                                ctx.now(),
                                ctx.now(),
                            );
                            self.fos.inner.borrow_mut().cur = t;
                        }
                        let fos = self.fos.clone();
                        self.service.on_request(req, &fos);
                    }
                    CtrlToProc::Monitor(cb) => {
                        let fos = self.fos.clone();
                        self.service.on_monitor(cb, &fos);
                    }
                }
            }
            ProcMsg::Retransmit {
                token,
                sc,
                seq,
                attempt,
            } => {
                // Only retransmit while the syscall is still unresolved; a
                // timeout verdict may have raced the retry timer.
                if self.fos.inner.borrow().conts.contains_key(&token) {
                    self.transmit_syscall(ctx, token, sc, seq, attempt);
                }
            }
            ProcMsg::SyscallTimeout { token } => {
                if ctx.spans_enabled() && self.fos.inner.borrow().conts.contains_key(&token) {
                    let base = self
                        .fos
                        .inner
                        .borrow()
                        .sc_ctx
                        .get(&token)
                        .copied()
                        .unwrap_or(TraceCtx::NONE);
                    if base.is_some() {
                        ctx.span(
                            SpanKind::Fault,
                            "syscall-timeout",
                            base,
                            ctx.now(),
                            ctx.now(),
                        );
                    }
                }
                self.deliver_reply(token, SyscallResult::Err(FosError::ControllerUnreachable));
            }
            ProcMsg::Timer { token } => {
                let fos = self.fos.clone();
                let cont = {
                    let mut inner = fos.inner.borrow_mut();
                    if let Some(t) = inner.timer_ctx.remove(&token) {
                        inner.cur = t;
                    }
                    inner.timers.remove(&token)
                };
                if let Some(k) = cont {
                    k(&mut self.service, &fos);
                }
            }
            ProcMsg::Kill => {
                self.dead = true;
                self.dir.borrow_mut().kill_proc(self.proc);
                let mem_proc = self.proc;
                // The node's NIC tears the QP down; the Controller notices
                // after a short detection delay (§3.6).
                let ctrl_actor = {
                    let dir = self.dir.borrow();
                    dir.proc(self.proc)
                        .and_then(|pe| dir.ctrl(pe.ctrl))
                        .map(|c| c.actor)
                };
                if let Some(ctrl) = ctrl_actor {
                    ctx.send_after(
                        CHANNEL_SEVER_DETECT,
                        ctrl,
                        CtrlMsg::ProcChannelSevered { proc: mem_proc },
                    );
                }
                return;
            }
        }
        self.flush(ctx);
    }
}

/// A minimal service that does nothing; useful as a pure syscall client in
/// tests and benches when combined with [`ProcessActor::fos`].
#[derive(Debug, Default)]
pub struct NullService;

impl Service for NullService {
    fn on_request(&mut self, _req: IncomingRequest, _fos: &Fos<Self>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_fabric() -> Shared<fractos_net::Fabric> {
        Shared::named(
            "fabric",
            fractos_net::Fabric::new(
                fractos_net::Topology::paper_testbed(),
                fractos_net::NetParams::paper(),
            ),
        )
    }

    #[test]
    fn fos_queues_syscalls_beyond_window() {
        let mem = Shared::named("mem", MemoryStore::new());
        let inner = FosInner::<NullService> {
            proc: ProcId(0),
            now: SimTime::ZERO,
            next_token: 0,
            conts: HashMap::new(),
            timers: HashMap::new(),
            out: Vec::new(),
            outstanding: 0,
            window: 2,
            backlog: VecDeque::new(),
            mem,
            fabric: test_fabric(),
            telemetry_on: false,
            cur: TraceCtx::NONE,
            root_armed: false,
            sc_ctx: HashMap::new(),
            timer_ctx: HashMap::new(),
        };
        let fos = Fos {
            inner: Shared::named("inner", inner),
        };
        for _ in 0..5 {
            fos.call(Syscall::Null, |_, _, _| {});
        }
        let i = fos.inner.borrow();
        assert_eq!(i.out.len(), 2, "only window-many go out");
        assert_eq!(i.backlog.len(), 3);
        assert_eq!(i.conts.len(), 5);
    }

    #[test]
    fn mem_helpers_roundtrip() {
        let mem = Shared::named("mem", MemoryStore::new());
        let inner = FosInner::<NullService> {
            proc: ProcId(3),
            now: SimTime::ZERO,
            next_token: 0,
            conts: HashMap::new(),
            timers: HashMap::new(),
            out: Vec::new(),
            outstanding: 0,
            window: 8,
            backlog: VecDeque::new(),
            mem,
            fabric: test_fabric(),
            telemetry_on: false,
            cur: TraceCtx::NONE,
            root_armed: false,
            sc_ctx: HashMap::new(),
            timer_ctx: HashMap::new(),
        };
        let fos = Fos {
            inner: Shared::named("inner", inner),
        };
        let addr = fos.mem_alloc(16);
        fos.mem_write(addr, 2, b"xy").unwrap();
        assert_eq!(fos.mem_read(addr, 2, 2).unwrap(), b"xy");
        assert_eq!(fos.proc_id(), ProcId(3));
    }
}
