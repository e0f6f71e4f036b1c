//! Causal span recording: deterministic trace/span identifiers and the
//! per-engine span store behind `Runtime::enable_spans`/`take_spans`.
//!
//! # Design
//!
//! Every top-level request grows a *span tree*: the root span's own id doubles
//! as the trace id, and each child records the id of the span that caused it.
//! A [`TraceCtx`] (trace id + parent span id) rides on wire messages and
//! continuations so causality survives hops between actors, retransmits, and
//! timer-driven callbacks.
//!
//! # Determinism rules
//!
//! - Span ids are derived from `(store seed, actor id, per-actor counter)`
//!   through SplitMix64 — never from the live simulation RNG (recording a
//!   span consumes **zero** RNG draws) and never from the wall clock.
//! - Per-actor event processing order is identical on the single-threaded and
//!   sharded engines, so per-actor counters — and therefore ids — match
//!   bit-for-bit across backends.
//! - When recording is disabled the store is `None`: no ids are minted, no
//!   counters advance, no labels are formatted. Runs with recording off are
//!   byte-identical to runs on a build without the subsystem.
//!
//! The canonical output order (see [`SpanStore::take`]'s callers,
//! `Runtime::take_spans`) is `(start, end, actor, ord)`; `(actor, ord)` is
//! unique, so the order is total and backend-independent.

use std::fmt;

use crate::engine::ActorId;
use crate::idmap::IdMap;
use crate::rng::splitmix64;
use crate::time::SimTime;

/// A trace context carried on wire messages and continuations: the trace id
/// plus the id of the span that causally precedes whatever happens next.
///
/// The all-zero value ([`TraceCtx::NONE`]) means "no active trace"; a span
/// recorded under it starts a new trace whose id is the span's own id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// Trace id — the root span's id, shared by every span in the tree.
    pub trace: u64,
    /// Parent span id for the next span recorded under this context.
    pub span: u64,
}

impl TraceCtx {
    /// The empty context: no active trace.
    pub const NONE: TraceCtx = TraceCtx { trace: 0, span: 0 };

    /// Returns true if this context carries no active trace.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.span == 0
    }

    /// Returns true if this context carries an active trace.
    #[must_use]
    pub fn is_some(self) -> bool {
        self.span != 0
    }
}

impl fmt::Display for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}/{:016x}", self.trace, self.span)
    }
}

/// The phase of the request chain a span covers. Used by the critical-path
/// analyzer to attribute latency to network / device / control-plane time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A syscall posted by a process (zero-width marker at post time).
    Syscall,
    /// Control-plane handling time (validation, table walks, serial core).
    Control,
    /// Delivery of a request/continuation into a process.
    Deliver,
    /// Fabric serialization / link occupancy for one hop.
    FabricSer,
    /// Fabric propagation (base latency) for one hop.
    FabricProp,
    /// Bulk data movement (RDMA windows, memory-copy chunk loops).
    Data,
    /// Device-side processing modeled by an adaptor (GPU exec, NVMe media).
    Device,
    /// Waiting out a retransmit timeout after a lost message.
    Retransmit,
    /// An injected fault observed on the path (zero-width marker).
    Fault,
    /// An integrity-check failure (zero-width marker).
    Integrity,
    /// A crash-recovery phase (detect, declare, revoke, re-home,
    /// re-dispatch) recorded by the failure detector and its consumers.
    Recovery,
}

impl SpanKind {
    /// Stable lowercase name, used as the Chrome trace event category.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Syscall => "syscall",
            SpanKind::Control => "control",
            SpanKind::Deliver => "deliver",
            SpanKind::FabricSer => "fabric-ser",
            SpanKind::FabricProp => "fabric-prop",
            SpanKind::Data => "data",
            SpanKind::Device => "device",
            SpanKind::Retransmit => "retransmit",
            SpanKind::Fault => "fault",
            SpanKind::Integrity => "integrity",
            SpanKind::Recovery => "recovery",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded span: a named interval of virtual time on one actor, linked
/// into a per-request tree by `(trace, parent)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace id (the root span's id).
    pub trace: u64,
    /// This span's id (never zero).
    pub id: u64,
    /// Parent span id, or zero for a root span.
    pub parent: u64,
    /// Phase classification.
    pub kind: SpanKind,
    /// Human-readable label (e.g. the syscall name or link description).
    pub label: String,
    /// The actor that recorded the span.
    pub actor: ActorId,
    /// Per-actor creation index; `(actor, ord)` is unique and identical
    /// across backends, giving the canonical sort its total order.
    pub ord: u64,
    /// Start of the interval (virtual time).
    pub start: SimTime,
    /// End of the interval; equal to `start` for zero-width markers.
    pub end: SimTime,
}

impl SpanRecord {
    /// The context that makes further spans children of this one.
    #[must_use]
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            trace: self.trace,
            span: self.id,
        }
    }
}

impl fmt::Display for SpanRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} .. {}] {} {} {} ({:016x}/{:016x}<-{:016x})",
            self.start,
            self.end,
            self.actor,
            self.kind,
            self.label,
            self.trace,
            self.id,
            self.parent
        )
    }
}

/// Accumulates [`SpanRecord`]s for one engine (or one shard of the sharded
/// engine). Ids are minted from the store seed, the recording actor, and a
/// per-actor counter, so stores on different shards mint non-colliding ids
/// that match the single-threaded engine's bit-for-bit.
#[derive(Debug)]
pub struct SpanStore {
    seed: u64,
    counters: IdMap<u32, u64>,
    spans: Vec<SpanRecord>,
}

impl SpanStore {
    /// Creates an empty store. Every store of one run shares the run seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SpanStore {
            seed,
            counters: IdMap::default(),
            spans: Vec::new(),
        }
    }

    /// Mints the id for `(seed, actor, ord)`. Ids are never zero (zero is
    /// the "no parent" sentinel).
    fn mint(seed: u64, actor: ActorId, ord: u64) -> u64 {
        let lane = splitmix64(((actor.index() as u64) << 32) | 0x5157_0B5E);
        let id = splitmix64(splitmix64(seed ^ lane).wrapping_add(ord));
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Records a span on `actor` and returns the context for its children.
    ///
    /// When `parent` is [`TraceCtx::NONE`] the span starts a new trace rooted
    /// at itself.
    pub fn record(
        &mut self,
        actor: ActorId,
        kind: SpanKind,
        label: String,
        parent: TraceCtx,
        start: SimTime,
        end: SimTime,
    ) -> TraceCtx {
        let counter = self.counters.entry(actor.index() as u32).or_insert(0);
        let ord = *counter;
        *counter += 1;
        let id = SpanStore::mint(self.seed, actor, ord);
        let (trace, parent_id) = if parent.is_none() {
            (id, 0)
        } else {
            (parent.trace, parent.span)
        };
        self.spans.push(SpanRecord {
            trace,
            id,
            parent: parent_id,
            kind,
            label,
            actor,
            ord,
            start,
            end,
        });
        TraceCtx { trace, span: id }
    }

    /// Drains the recorded spans, leaving counters intact so later spans on
    /// the same store keep minting fresh ids.
    pub fn take(&mut self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.spans)
    }

    /// Number of spans currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Sorts spans into the canonical cross-backend order: `(start, end, actor,
/// ord)`. `(actor, ord)` is unique, so the order is total.
pub fn sort_canonical(spans: &mut [SpanRecord]) {
    spans.sort_by(|a, b| {
        (a.start, a.end, a.actor.index(), a.ord).cmp(&(b.start, b.end, b.actor.index(), b.ord))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let mut a = SpanStore::new(61);
        let mut b = SpanStore::new(61);
        for i in 0..64 {
            let actor = ActorId::from_raw(i % 5);
            let ca = a.record(
                actor,
                SpanKind::Control,
                "x".into(),
                TraceCtx::NONE,
                at(i as u64),
                at(i as u64),
            );
            let cb = b.record(
                actor,
                SpanKind::Control,
                "x".into(),
                TraceCtx::NONE,
                at(i as u64),
                at(i as u64),
            );
            assert_eq!(ca, cb);
            assert_ne!(ca.span, 0);
        }
        assert_eq!(a.take(), b.take());
    }

    #[test]
    fn root_span_defines_trace_id() {
        let mut s = SpanStore::new(7);
        let root = s.record(
            ActorId::from_raw(0),
            SpanKind::Syscall,
            "r".into(),
            TraceCtx::NONE,
            at(0),
            at(0),
        );
        assert_eq!(root.trace, root.span);
        let child = s.record(
            ActorId::from_raw(1),
            SpanKind::Control,
            "c".into(),
            root,
            at(1),
            at(2),
        );
        assert_eq!(child.trace, root.trace);
        let spans = s.take();
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, root.span);
    }

    #[test]
    fn ids_unique_across_actors_and_counters() {
        let mut s = SpanStore::new(99);
        let mut seen = crate::IdSet::default();
        for actor in 0..8u32 {
            for _ in 0..32 {
                let c = s.record(
                    ActorId::from_raw(actor),
                    SpanKind::Data,
                    "d".into(),
                    TraceCtx::NONE,
                    at(0),
                    at(0),
                );
                assert!(seen.insert(c.span), "duplicate span id");
            }
        }
    }

    #[test]
    fn take_preserves_counters() {
        let mut s = SpanStore::new(3);
        let a = s.record(
            ActorId::from_raw(0),
            SpanKind::Fault,
            "f".into(),
            TraceCtx::NONE,
            at(0),
            at(0),
        );
        s.take();
        let b = s.record(
            ActorId::from_raw(0),
            SpanKind::Fault,
            "f".into(),
            TraceCtx::NONE,
            at(0),
            at(0),
        );
        assert_ne!(a.span, b.span);
    }

    #[test]
    fn canonical_sort_is_total() {
        let mut s = SpanStore::new(5);
        s.record(
            ActorId::from_raw(1),
            SpanKind::Control,
            "b".into(),
            TraceCtx::NONE,
            at(5),
            at(9),
        );
        s.record(
            ActorId::from_raw(0),
            SpanKind::Control,
            "a".into(),
            TraceCtx::NONE,
            at(5),
            at(9),
        );
        s.record(
            ActorId::from_raw(0),
            SpanKind::Control,
            "c".into(),
            TraceCtx::NONE,
            at(1),
            at(2),
        );
        let mut spans = s.take();
        sort_canonical(&mut spans);
        assert_eq!(spans[0].label, "c");
        assert_eq!(spans[1].label, "a");
        assert_eq!(spans[2].label, "b");
    }
}
