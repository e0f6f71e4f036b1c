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
//! The library's two combinators are [`Fos::call_all`], the join, and
//! [`Fos::chain`], the sequence: syscalls issued one after the other,
//! each once the previous one has replied, ending in one continuation that
//! gets every minted capability or the first failure. Services are written
//! against the idioms built on the chain rather than against nested
//! per-syscall closures:
//!
//! * [`Fos::reply_via`] — answer a call by invoking the continuation it
//!   handed over (§3.4: a reply *is* an invocation);
//! * [`Fos::invoke_with`] — call a Request: mint the continuations the
//!   callee answers through, derive, invoke. [`Fos::invoke_with_or`] is
//!   the same call with an error continuation, and [`Fos::derive_with`]
//!   stops before the invoke and hands back the derived Request;
//! * [`Fos::publish`] — create a Request and put it in the bootstrap
//!   registry.

use std::collections::VecDeque;

use fractos_cap::{CapError, Cid, Perms};
use fractos_net::{Endpoint, Payload, TrafficClass, RETRY};
use fractos_sim::{
    Actor, Ctx, IdMap, Msg, Shared, SimDuration, SimTime, SpanKind, TelemetryKind, TraceCtx,
};

use crate::directory::Directory;
use crate::memstore::MemoryStore;
use crate::messages::{syscall_msg_size, CtrlMsg, CtrlToProc, ProcMsg};
use crate::retry::{reliable_send, Channel, Hop, Sent};
use crate::types::{FosError, IncomingRequest, MonitorCb, ProcId, Syscall, SyscallResult};

/// Application logic of a FractOS Process (user service or device adaptor).
///
/// All methods run inside the simulation; they must not block. Asynchrony is
/// expressed by issuing syscalls with continuations through [`Fos`].
pub trait Service: 'static {
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

type Cont<S> = Box<dyn FnOnce(&mut S, SyscallResult, &Fos<S>)>;
type TimerCont<S> = Box<dyn FnOnce(&mut S, &Fos<S>)>;
type ChainCont<S> = Box<dyn FnOnce(&mut S, Result<Vec<Cid>, FosError>, &Fos<S>)>;
type JoinCont<S> = Box<dyn FnOnce(&mut S, Vec<SyscallResult>, &Fos<S>)>;

/// One link of a chain: the next syscall, built once every link before it
/// has replied, from the capabilities they minted. A link that cannot be
/// built ends the chain with its error.
type Link = Box<dyn FnOnce(&[Cid]) -> Result<Syscall, FosError>>;

fn fixed(sc: Syscall) -> Link {
    Box::new(move |_| Ok(sc))
}

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
    now: SimTime,
    next_token: u64,
    /// Pending syscalls: the continuation and the span context the call
    /// was posted under, which parents its retransmits and timeouts and
    /// chains the continuation when the reply carries no context (`NONE`
    /// outside traces).
    conts: IdMap<u64, (Cont<S>, TraceCtx)>,
    /// Armed timers: the continuation and the context to restore when the
    /// timer fires.
    timers: IdMap<u64, (TimerCont<S>, TraceCtx)>,
    out: Vec<Out>,
    // Congestion control (§4): bounded outstanding syscalls; excess queues.
    outstanding: u32,
    window: u32,
    backlog: VecDeque<(u64, Syscall)>,
    /// Mirror of `Ctx::telemetry_enabled`, refreshed on every delivery.
    /// `Fos::telemetry_*` are complete no-ops while this is false, so a
    /// disabled run allocates nothing (zero-perturbation invariant).
    telemetry_on: bool,
    // --- causal tracing (all no-ops while span recording is off) ---
    /// Trace context the currently-running handler descends from.
    cur: TraceCtx,
    /// The next posted syscall roots a new trace (`Fos::trace_root`).
    root_armed: bool,
}

/// Handle through which a [`Service`] uses FractOS.
///
/// Cheap to clone; all clones refer to the same Process. The substrate
/// handles sit beside the locked per-Process state, not inside it, so
/// every method takes at most one guard (see `fractos_sim::shared`).
pub struct Fos<S> {
    inner: Shared<FosInner<S>>,
    proc: ProcId,
    mem: Shared<MemoryStore>,
    fabric: Shared<fractos_net::Fabric>,
}

impl<S> Clone for Fos<S> {
    fn clone(&self) -> Self {
        Fos {
            inner: self.inner.clone(),
            proc: self.proc,
            mem: self.mem.clone(),
            fabric: self.fabric.clone(),
        }
    }
}

impl<S: Service> Fos<S> {
    fn new(proc: ProcId, mem: Shared<MemoryStore>, fabric: Shared<fractos_net::Fabric>) -> Self {
        Fos {
            inner: Shared::new(FosInner {
                now: SimTime::ZERO,
                next_token: 0,
                conts: IdMap::default(),
                timers: IdMap::default(),
                out: Vec::new(),
                outstanding: 0,
                window: 256,
                backlog: VecDeque::new(),
                telemetry_on: false,
                cur: TraceCtx::NONE,
                root_armed: false,
            }),
            proc,
            mem,
            fabric,
        }
    }

    /// Current virtual time (updated on every delivery to this Process).
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Sets the congestion-control window: the maximum number of
    /// simultaneously outstanding syscalls (further calls queue FIFO).
    pub fn set_window(&self, window: u32) {
        self.inner.borrow_mut().window = window.max(1);
    }

    /// Issues an asynchronous syscall; `k` runs when the reply arrives.
    pub fn call(&self, sc: Syscall, k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + 'static) {
        let mut inner = self.inner.borrow_mut();
        let token = inner.next_token;
        inner.next_token += 1;
        inner.conts.insert(token, (Box::new(k), TraceCtx::NONE));
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
        k: impl FnOnce(&mut S, Vec<SyscallResult>, &Fos<S>) + 'static,
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
            k: Option<JoinCont<S>>,
        }
        let join = Shared::new(Join {
            slots: vec![None; n],
            left: n,
            k: Some(Box::new(k)),
        });
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

    /// Issues `calls` one after the other, each only once the previous one
    /// has replied — the sequential (`then`) combinator of the paper's
    /// promise/future library (§4), the counterpart of [`Fos::call_all`].
    /// `k` runs once, with every capability the calls minted in call order,
    /// or with the first failure; the chain stops at that failure.
    pub fn chain(
        &self,
        calls: Vec<Syscall>,
        k: impl FnOnce(&mut S, Result<Vec<Cid>, FosError>, &Fos<S>) + 'static,
    ) {
        self.run_links(calls.into_iter().map(fixed).collect(), Box::new(k));
    }

    fn run_links(&self, mut links: VecDeque<Link>, k: ChainCont<S>) {
        // Nothing is minted before the first link, so it reads nothing.
        let done = match links.pop_front().map(|link| link(&[])) {
            Some(Ok(sc)) => return self.link(sc, links, Vec::new(), k),
            Some(Err(e)) => Err(e),
            None => Ok(Vec::new()),
        };
        // Degenerate chain: complete via a null syscall so `k` still runs
        // from a continuation context.
        self.call(Syscall::Null, move |s, _res, fos| k(s, done, fos));
    }

    fn link(&self, sc: Syscall, mut rest: VecDeque<Link>, mut minted: Vec<Cid>, k: ChainCont<S>) {
        self.call(sc, move |s, res, fos| {
            let next = match res {
                SyscallResult::Err(e) => Err(e),
                res => {
                    if let SyscallResult::NewCid(cid) = res {
                        minted.push(cid);
                    }
                    rest.pop_front().map(|link| link(&minted)).transpose()
                }
            };
            match next {
                Ok(Some(sc)) => fos.link(sc, rest, minted, k),
                Ok(None) => k(s, Ok(minted), fos),
                Err(e) => k(s, Err(e), fos),
            }
        });
    }

    /// Arms a local timer; `k` runs after `delay` of virtual time. Used by
    /// device adaptors to model device service times.
    pub fn sleep(&self, delay: SimDuration, k: impl FnOnce(&mut S, &Fos<S>) + 'static) {
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
        k: impl FnOnce(&mut S, &Fos<S>) + 'static,
    ) {
        self.arm_timer(delay, Some(label), k);
    }

    fn arm_timer(
        &self,
        delay: SimDuration,
        dev: Option<&'static str>,
        k: impl FnOnce(&mut S, &Fos<S>) + 'static,
    ) {
        let mut inner = self.inner.borrow_mut();
        let token = inner.next_token;
        inner.next_token += 1;
        inner.timers.insert(token, (Box::new(k), TraceCtx::NONE));
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
        self.mem.borrow_mut().alloc(self.proc, size)
    }

    /// Allocates a buffer physically placed at a device endpoint (adaptors
    /// managing device memory, e.g. GPU buffers).
    pub fn mem_alloc_at(&self, size: u64, location: Endpoint) -> u64 {
        self.mem.borrow_mut().alloc_at(self.proc, size, location)
    }

    /// `memory_stat`: resolve a Memory capability backed by this Process's
    /// own memory to `(addr, off, size)`.
    pub fn memory_stat(&self, cid: Cid, k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + 'static) {
        self.call(Syscall::MemoryStat { cid }, k);
    }

    /// The service-reply idiom: derive the received continuation Request
    /// with result arguments and invoke it (§3.4 — a reply *is* the
    /// invocation of a continuation).
    ///
    /// A failure means the continuation was revoked or its holder died, and
    /// there is nobody left to answer — except when this Process's own
    /// capability space is full: the continuation is intact then, so it is
    /// invoked bare and the caller resumes without the results.
    pub fn reply_via(&self, cont: Cid, imms: Vec<Payload>, caps: Vec<Cid>) {
        self.invoke_with_or(cont, imms, caps, vec![], move |_s, err, fos| {
            if err == FosError::Cap(CapError::SpaceExhausted) {
                fos.request_invoke(cont, |_, _, _| {});
            }
        });
    }

    /// The service-call idiom, the other half of [`Fos::reply_via`]: mint
    /// one continuation Request per `(tag, imms)` of `conts`, derive `target`
    /// with `imms` and `caps` followed by those continuations in order, and
    /// invoke the derived Request (§3.4 — a call hands the callee the
    /// Requests it returns through). The syscalls go out as one chain: each
    /// create, then the derive, then the invoke.
    ///
    /// # Panics
    ///
    /// The caller holds `target` and provides the continuations itself, so
    /// any failure is a bug in the caller and panics; use
    /// [`Fos::invoke_with_or`] where `target` may be revoked or unreachable.
    pub fn invoke_with(
        &self,
        target: Cid,
        imms: Vec<Payload>,
        caps: Vec<Cid>,
        conts: Vec<(u64, Vec<Payload>)>,
    ) {
        self.invoke_with_or(target, imms, caps, conts, |_s, err, _fos| {
            panic!("invoke_with: {err:?}")
        });
    }

    /// [`Fos::invoke_with`] that hands the first failure of its chain to
    /// `on_err` instead of panicking.
    pub fn invoke_with_or(
        &self,
        target: Cid,
        imms: Vec<Payload>,
        caps: Vec<Cid>,
        conts: Vec<(u64, Vec<Payload>)>,
        on_err: impl FnOnce(&mut S, FosError, &Fos<S>) + 'static,
    ) {
        let mut links = Self::derive_links(target, imms, caps, conts);
        // The derived Request is the last capability the chain minted.
        links.push_back(Box::new(|minted| {
            let cid = minted.last().copied().ok_or(FosError::WrongObjectKind)?;
            Ok(Syscall::RequestInvoke { cid })
        }));
        self.run_links(
            links,
            Box::new(move |s, done, fos| {
                if let Err(err) = done {
                    on_err(s, err, fos);
                }
            }),
        );
    }

    /// The first half of [`Fos::invoke_with`], for a caller that keeps the
    /// derived Request instead of invoking it: `k` receives the minted
    /// continuations followed by the derived Request, or the first failure.
    pub fn derive_with(
        &self,
        target: Cid,
        imms: Vec<Payload>,
        caps: Vec<Cid>,
        conts: Vec<(u64, Vec<Payload>)>,
        k: impl FnOnce(&mut S, Result<Vec<Cid>, FosError>, &Fos<S>) + 'static,
    ) {
        self.run_links(Self::derive_links(target, imms, caps, conts), Box::new(k));
    }

    /// The links shared by the `invoke_with` family: one create per
    /// continuation, then the derive that appends them to `caps`.
    fn derive_links(
        target: Cid,
        imms: Vec<Payload>,
        mut caps: Vec<Cid>,
        conts: Vec<(u64, Vec<Payload>)>,
    ) -> VecDeque<Link> {
        let mut links: VecDeque<Link> = conts
            .into_iter()
            .map(|(tag, imms)| fixed(Syscall::new_request(tag, imms)))
            .collect();
        links.push_back(Box::new(move |conts| {
            caps.extend_from_slice(conts);
            Ok(Syscall::RequestCreate {
                base: Some(target),
                tag: 0,
                imms,
                caps,
            })
        }));
        links
    }

    /// Publishes a new Request this Process provides under `key` in the
    /// bootstrap registry: `request_create`, then `kv_put`. `k` receives the
    /// published Request, or the first failure.
    pub fn publish(
        &self,
        key: &str,
        tag: u64,
        imms: Vec<Payload>,
        k: impl FnOnce(&mut S, Result<Vec<Cid>, FosError>, &Fos<S>) + 'static,
    ) {
        let key = key.to_string();
        let put: Link = Box::new(move |minted| {
            let cid = minted.first().copied().ok_or(FosError::WrongObjectKind)?;
            Ok(Syscall::KvPut { key, cid })
        });
        let links = VecDeque::from([fixed(Syscall::new_request(tag, imms)), put]);
        self.run_links(links, Box::new(k));
    }

    /// Writes into this Process's own memory (ordinary local access, not a
    /// syscall).
    pub fn mem_write(&self, addr: u64, offset: u64, data: &[u8]) -> Result<(), FosError> {
        self.mem.borrow_mut().write(self.proc, addr, offset, data)
    }

    /// Reads from this Process's own memory. The bytes are copied once,
    /// into a [`Payload`], so forwarding them into a reply or a derived
    /// Request costs a reference-count bump, not a copy.
    pub fn mem_read(&self, addr: u64, offset: u64, len: u64) -> Result<Payload, FosError> {
        self.mem
            .borrow()
            .slice(self.proc, addr, offset, len)
            .map(Payload::from)
    }

    /// Lends `len` bytes of this Process's own memory at `addr + offset` to
    /// `f`: [`Fos::mem_read`] without the copy. `f` must not reach this
    /// Process's memory through `Fos` again (the store is borrowed).
    pub fn with_mem<R>(
        &self,
        addr: u64,
        offset: u64,
        len: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, FosError> {
        self.mem.borrow().slice(self.proc, addr, offset, len).map(f)
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
        self.fabric.borrow_mut().device_fault(device, op)
    }

    // ---- Table 1 convenience wrappers -------------------------------

    /// `memory_create`: registers `[addr, addr+size)` and continues with the
    /// new Memory capability.
    pub fn memory_create(
        &self,
        addr: u64,
        size: u64,
        perms: Perms,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + 'static,
    ) {
        self.call(Syscall::MemoryCreate { addr, size, perms }, k);
    }

    /// Allocates a fresh buffer and registers it in one step, continuing
    /// with `(addr, cid)`.
    pub fn memory_create_new(
        &self,
        size: u64,
        perms: Perms,
        k: impl FnOnce(&mut S, u64, Result<Cid, FosError>, &Fos<S>) + 'static,
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
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + 'static,
    ) {
        self.call(Syscall::MemoryCopy { src, dst }, k);
    }

    /// `request_create` for a brand-new Request this Process provides.
    pub fn request_create_new(
        &self,
        tag: u64,
        imms: Vec<Payload>,
        caps: Vec<Cid>,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + 'static,
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
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + 'static,
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
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + 'static,
    ) {
        self.call(Syscall::RequestInvoke { cid }, k);
    }

    /// Publish a capability in the bootstrap registry.
    pub fn kv_put(
        &self,
        key: &str,
        cid: Cid,
        k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + 'static,
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
    pub fn kv_get(&self, key: &str, k: impl FnOnce(&mut S, SyscallResult, &Fos<S>) + 'static) {
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
    endpoint: Endpoint,
    dir: Shared<Directory>,
    dead: bool,
    /// Wire sequence state of the channel to the Controller.
    chan: Channel,
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
        ProcessActor {
            service,
            fos: Fos::new(proc, mem, fabric),
            endpoint,
            dir,
            dead: false,
            chan: Channel::default(),
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
                                if let Some(call) =
                                    self.fos.inner.borrow_mut().conts.get_mut(&token)
                                {
                                    call.1 = t;
                                }
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
                            if let Some(timer) = self.fos.inner.borrow_mut().timers.get_mut(&token)
                            {
                                timer.1 = t;
                            }
                        }
                        ctx.schedule_self(delay, ProcMsg::Timer { token });
                    }
                }
            }
        }
    }

    fn post_syscall(&mut self, ctx: &mut Ctx<'_>, token: u64, sc: Syscall) {
        let seq = self.chan.take_seq();
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
            dir.proc(self.fos.proc)
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
        if attempt == 0 && self.fos.fabric.borrow().has_faults() {
            // Last-resort request timeout: covers replies the Controller
            // could not get back to us despite its own retries.
            ctx.schedule_self(RETRY.syscall_timeout, ProcMsg::SyscallTimeout { token });
        }
        // Base span context of this syscall (set by `flush` when the call
        // was posted inside an active trace); `NONE` outside traces. The
        // envelope carries the hop's propagation span so the Controller
        // parents its own work under the arriving hop.
        let base = self.call_ctx(token).unwrap_or(TraceCtx::NONE);
        let zero = SimDuration::ZERO;
        match reliable_send(&self.fos.fabric, ctx, &hop, base, zero, zero, attempt) {
            Sent::Delivered { tctx, delay, dup } => {
                let proc = self.fos.proc;
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

    /// The span context syscall `token` was posted under, while pending.
    fn call_ctx(&self, token: u64) -> Option<TraceCtx> {
        self.fos.inner.borrow().conts.get(&token).map(|call| call.1)
    }

    fn deliver_reply(&mut self, token: u64, result: SyscallResult) {
        let cont = {
            let mut inner = self.fos.inner.borrow_mut();
            // A token with no continuation was already resolved (e.g. a
            // real reply racing a timeout verdict): nothing to do, and the
            // window accounting must not be decremented twice.
            let Some((cont, tctx)) = inner.conts.remove(&token) else {
                return;
            };
            // Replies that arrive without a wire context (local error
            // verdicts, timeouts) still continue the issuing trace.
            if inner.cur.is_none() && tctx.is_some() {
                inner.cur = tctx;
            }
            inner.outstanding = inner.outstanding.saturating_sub(1);
            if inner.outstanding < inner.window {
                if let Some((token, sc)) = inner.backlog.pop_front() {
                    inner.outstanding += 1;
                    inner.out.push(Out::Syscall { token, sc });
                }
            }
            cont
        };
        cont(&mut self.service, result, &self.fos);
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
            ProcMsg::Start => self.service.on_start(&self.fos),
            ProcMsg::FromCtrl { seq, tctx, msg } => {
                if !self.chan.seen.fresh(seq) {
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
                            ctx.trace(format!("{} deliver tag={:#x}", self.fos.proc, req.tag));
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
                        self.service.on_request(req, &self.fos);
                    }
                    CtrlToProc::Monitor(cb) => self.service.on_monitor(cb, &self.fos),
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
                if ctx.spans_enabled() {
                    if let Some(base) = self.call_ctx(token).filter(|t| t.is_some()) {
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
                let timer = self.fos.inner.borrow_mut().timers.remove(&token);
                if let Some((k, t)) = timer {
                    if t.is_some() {
                        self.fos.inner.borrow_mut().cur = t;
                    }
                    k(&mut self.service, &self.fos);
                }
            }
            ProcMsg::Kill => {
                self.dead = true;
                self.dir.borrow_mut().kill_proc(self.fos.proc);
                // The node's NIC tears the QP down; the Controller notices
                // after a short detection delay (§3.6).
                let ctrl_actor = {
                    let dir = self.dir.borrow();
                    dir.proc(self.fos.proc)
                        .and_then(|pe| dir.ctrl(pe.ctrl))
                        .map(|c| c.actor)
                };
                if let Some(ctrl) = ctrl_actor {
                    ctx.send_after(
                        CHANNEL_SEVER_DETECT,
                        ctrl,
                        CtrlMsg::ProcChannelSevered {
                            proc: self.fos.proc,
                        },
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

    fn test_fos(proc: ProcId) -> Fos<NullService> {
        let fabric = fractos_net::Fabric::new(
            fractos_net::Topology::paper_testbed(),
            fractos_net::NetParams::paper(),
        );
        Fos::new(proc, Shared::new(MemoryStore::new()), Shared::new(fabric))
    }

    #[test]
    fn fos_queues_syscalls_beyond_window() {
        let fos = test_fos(ProcId(0));
        fos.set_window(2);
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
        let fos = test_fos(ProcId(3));
        let addr = fos.mem_alloc(16);
        fos.mem_write(addr, 2, b"xy").unwrap();
        assert_eq!(fos.mem_read(addr, 2, 2).unwrap(), b"xy");
        assert_eq!(fos.proc, ProcId(3));
    }
}
