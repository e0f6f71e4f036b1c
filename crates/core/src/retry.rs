//! Retransmission policy and duplicate suppression for control messages.
//!
//! The fabric's fault plan can drop control-plane messages
//! ([`fractos_net::Fabric::try_send`]). Every control channel therefore
//! carries wire-level sequence numbers (modeled inside the already-charged
//! 64-byte wire header, like a RoCE BTH PSN, so traffic accounting is
//! unchanged), and lost messages are retransmitted with exponential backoff
//! under a bounded retry budget. Receivers suppress duplicates with a
//! per-channel [`DedupFilter`], which keeps retransmitted Controller
//! operations idempotent. Each end of a channel keeps both halves of its
//! state in one `Channel` record: the next sequence number it sends and
//! the filter over the sequences it receives.
//!
//! The three control channels (Controller → Process, Controller →
//! Controller, Process → Controller) share one transmit step,
//! `reliable_send`: it makes the fabric call, records the hop's spans,
//! applies the presumed-lost duplicate rule and reports whether the message
//! was delivered, must be retried after a backoff, or exhausted its budget.
//! The channel's sender wraps its own envelope around that verdict.
//!
//! Exhausting the retry budget is translated into the existing §3.6 failure
//! verdicts by the caller (`ControllerUnreachable` for pending operations,
//! channel-severed translation for Processes) — it never *declares* a peer
//! dead; only the external watchdog does that.
//!
//! Timeouts and budgets (initial RTO, attempt caps, last-resort ack and
//! syscall timeouts) live in the constant [`fractos_net::RETRY`], read by
//! `reliable_send` and by the two places that arm a last-resort timeout.
//!
//! Sequence assignment and duplicate filtering are always on (they are
//! cheap and memory-bounded); retransmit and timeout timers are armed only
//! while a fault plan is active, so fault-free runs schedule no extra
//! events and stay bit-identical to a build without this layer.

use std::collections::BTreeSet;

use fractos_net::{Endpoint, Fabric, TrafficClass, RETRY};
use fractos_sim::{Ctx, Shared, SimDuration, SpanKind, TraceCtx};

/// One control-channel hop: who sends what to whom.
pub(crate) struct Hop {
    pub(crate) from: Endpoint,
    pub(crate) to: Endpoint,
    /// Payload bytes for traffic accounting.
    pub(crate) size: u64,
    pub(crate) class: TrafficClass,
    /// Span label naming the channel, e.g. `"ctrl->proc"`.
    pub(crate) label: &'static str,
}

/// Outcome of one transmit attempt. Delays count from `ctx.now()`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Sent {
    /// The fabric carried the message: deliver the envelope stamped with
    /// `tctx` after `delay`, and a copy after `dup` when the delivery was
    /// slow enough to be presumed lost and re-fired.
    Delivered {
        tctx: TraceCtx,
        delay: SimDuration,
        dup: Option<SimDuration>,
    },
    /// The message was dropped: transmit again (`attempt + 1`) after
    /// `after`.
    Retry { after: SimDuration },
    /// The message was dropped and the retry budget is spent.
    Exhausted,
}

/// Transmit attempt number `attempt` of one message over `hop`.
///
/// The message becomes ready `pre` after now (the sender's processing
/// charge) and departs `ser` later (its CPU serialization cost, re-paid on
/// every attempt). Under `base` — when inside a trace — a delivery records
/// a `FabricSer` span from ready to the end of link occupancy and a
/// `FabricProp` span (the returned `tctx`) for the wire share; a drop that
/// will be retried records a `Fault` and the `Retransmit` backoff.
///
/// A first transmit that takes longer than one RTO under an armed fault
/// plan is presumed lost by the sender and re-fired once; the receiver's
/// [`DedupFilter`] absorbs whichever copy lands second. The copy shares the
/// original's trace context and adds no spans.
pub(crate) fn reliable_send(
    fabric: &Shared<Fabric>,
    ctx: &mut Ctx<'_>,
    hop: &Hop,
    base: TraceCtx,
    pre: SimDuration,
    ser: SimDuration,
    attempt: u32,
) -> Sent {
    let ready = ctx.now() + pre;
    // The traversal is computed from the departure instant so it does not
    // double-queue behind this operation's own link reservations.
    let depart = ready + ser;
    let lead = pre + ser;
    let faults = fabric.borrow().has_faults();
    let transmit = |ctx: &mut Ctx<'_>| {
        fabric
            .borrow_mut()
            .try_send_parts(depart, ctx.rng(), hop.from, hop.to, hop.size, hop.class)
    };
    let Some((delay, prop)) = transmit(ctx) else {
        if attempt + 1 >= RETRY.max_attempts {
            return Sent::Exhausted;
        }
        let backoff = RETRY.rto(attempt);
        if base.is_some() {
            ctx.span(SpanKind::Fault, "drop", base, depart, depart);
            ctx.span(
                SpanKind::Retransmit,
                hop.label,
                base,
                depart,
                depart + backoff,
            );
        }
        return Sent::Retry {
            after: lead + backoff,
        };
    };
    let tctx = if base.is_some() {
        // Serialization (CPU cost, link occupancy, queueing) then
        // propagation (the wire share).
        let ser_end = depart + delay.saturating_sub(prop);
        let s = ctx.span(SpanKind::FabricSer, hop.label, base, ready, ser_end);
        ctx.span(SpanKind::FabricProp, hop.label, s, ser_end, depart + delay)
    } else {
        TraceCtx::NONE
    };
    let dup = if attempt == 0 && faults && delay > RETRY.rto(0) {
        transmit(ctx).map(|(d2, _)| lead + d2)
    } else {
        None
    };
    Sent::Delivered {
        tctx,
        delay: lead + delay,
        dup,
    }
}

/// One end of a control channel: the sequence numbers it sends and the
/// duplicate filter over the ones it receives.
#[derive(Debug, Default, Clone)]
pub(crate) struct Channel {
    /// Sequence number of the next message sent on this channel.
    pub(crate) next_seq: u64,
    /// Duplicate suppression for messages arriving on this channel.
    pub(crate) seen: DedupFilter,
}

impl Channel {
    /// Assigns the next outgoing sequence number.
    pub(crate) fn take_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }
}

/// Sliding-window duplicate filter over per-channel sequence numbers.
///
/// Tracks a contiguous frontier (`everything below `next` was delivered`)
/// plus the out-of-order set above it, so memory is bounded by the
/// reordering window plus the (finite) number of sequences whose every
/// transmit was lost.
#[derive(Debug, Default, Clone)]
pub struct DedupFilter {
    next: u64,
    pending: BTreeSet<u64>,
}

impl DedupFilter {
    /// An empty filter (no sequence seen yet).
    pub fn new() -> Self {
        DedupFilter::default()
    }

    /// Records a delivery. Returns `true` the first time `seq` is seen and
    /// `false` for duplicates.
    pub fn fresh(&mut self, seq: u64) -> bool {
        if seq < self.next {
            return false;
        }
        if !self.pending.insert(seq) {
            return false;
        }
        while self.pending.remove(&self.next) {
            self.next += 1;
        }
        true
    }

    /// Number of sequences seen above the contiguous frontier (tests).
    pub fn out_of_order(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractos_net::{FaultPlan, NetParams, NodeConfig, NodeId, Topology};
    use fractos_sim::{Actor, Msg, Runtime, RuntimeExt, Sim, SimTime, SpanRecord};

    const PRE: SimDuration = SimDuration::from_micros(2);
    const SER: SimDuration = SimDuration::from_micros(1);
    const LEAD: SimDuration = SimDuration::from_micros(3);

    /// Calls `reliable_send` for the attempt number each message carries —
    /// under a fresh root span when spans are on — and keeps the verdicts.
    struct Sender {
        fabric: Shared<Fabric>,
        got: Vec<Sent>,
    }

    impl Actor for Sender {
        fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let attempt = *msg.downcast::<u32>().expect("attempt number");
            let hop = Hop {
                from: Endpoint::cpu(NodeId(0)),
                to: Endpoint::cpu(NodeId(1)),
                size: 64,
                class: TrafficClass::Control,
                label: "a->b",
            };
            let now = ctx.now();
            let base = ctx.span(SpanKind::Syscall, "root", TraceCtx::NONE, now, now);
            let sent = reliable_send(&self.fabric, ctx, &hop, base, PRE, SER, attempt);
            self.got.push(sent);
        }
    }

    struct Run {
        got: Vec<Sent>,
        spans: Vec<SpanRecord>,
        /// Events the run delivered: one per posted attempt unless the
        /// function under test enqueued something itself.
        steps: u64,
        msgs: u64,
        drops: u64,
    }

    /// Two CPU nodes, one `Sender`; posts `attempts` one per microsecond.
    fn run(plan: Option<FaultPlan>, spans: bool, attempts: &[u32]) -> Run {
        let mut topo = Topology::new();
        topo.add_node(NodeConfig::cpu_only("a"));
        topo.add_node(NodeConfig::cpu_only("b"));
        let fabric = Shared::new(Fabric::new(topo, NetParams::paper()));
        if let Some(plan) = plan {
            fabric.borrow_mut().install_fault_plan(plan, 7);
        }
        let mut sim = Sim::new(7);
        if spans {
            sim.enable_spans();
        }
        let sender = Sender {
            fabric: fabric.clone(),
            got: Vec::new(),
        };
        let id = sim.add_actor("sender", Box::new(sender));
        for (i, &attempt) in attempts.iter().enumerate() {
            sim.post(SimDuration::from_micros(i as u64), id, attempt);
        }
        sim.run();
        let stats = fabric.borrow().stats().clone();
        Run {
            got: sim.with_actor::<Sender, _>(id, |s| std::mem::take(&mut s.got)),
            spans: sim.take_spans(),
            steps: sim.steps(),
            msgs: stats.network_msgs(),
            drops: stats.total_dropped(),
        }
    }

    /// A plan that drops the first `n` messages a → b.
    fn drop_first(n: u32) -> FaultPlan {
        (0..n).fold(FaultPlan::new(), |plan, _| {
            plan.one_shot(NodeId(0), NodeId(1), SimTime::ZERO)
        })
    }

    /// A plan that slows a → b enough for a delivery to outlast `rto(0)`.
    fn crawl() -> FaultPlan {
        let always = SimTime::from_nanos(u64::MAX);
        FaultPlan::new().degrade(NodeId(0), NodeId(1), SimTime::ZERO, always, 100.0)
    }

    #[test]
    fn fault_free_send_is_delivered_once_and_schedules_nothing() {
        let r = run(None, false, &[0]);
        let [Sent::Delivered { tctx, delay, dup }] = r.got[..] else {
            panic!("expected one delivery, got {:?}", r.got);
        };
        assert_eq!(tctx, TraceCtx::NONE, "no trace, no context");
        assert!(delay > LEAD, "delay counts from now: lead plus the wire");
        assert_eq!(dup, None);
        assert_eq!((r.steps, r.msgs, r.drops), (1, 1, 0));
    }

    #[test]
    fn drops_back_off_exponentially_then_exhaust_the_budget() {
        let attempts: Vec<u32> = (0..RETRY.max_attempts).collect();
        let r = run(Some(drop_first(RETRY.max_attempts)), false, &attempts);
        let (last, retried) = r.got.split_last().expect("verdicts");
        for (attempt, sent) in retried.iter().enumerate() {
            let backoff = SimDuration::from_micros(30 << attempt);
            assert_eq!(backoff, RETRY.rto(attempt as u32));
            assert_eq!(
                *sent,
                Sent::Retry {
                    after: LEAD + backoff
                }
            );
        }
        assert_eq!(*last, Sent::Exhausted);
        assert_eq!(r.steps, u64::from(RETRY.max_attempts), "no timer armed");
        assert_eq!((r.msgs, r.drops), (0, u64::from(RETRY.max_attempts)));
    }

    #[test]
    fn a_first_delivery_slower_than_one_rto_is_sent_twice() {
        let r = run(Some(crawl()), false, &[0, 1]);
        let rto = RETRY.rto(0);
        let [Sent::Delivered { delay, dup, .. }, Sent::Delivered { dup: redup, .. }] = r.got[..]
        else {
            panic!("expected two deliveries, got {:?}", r.got);
        };
        assert!(delay > LEAD + rto);
        assert!(dup.is_some_and(|d| d > LEAD + rto));
        assert_eq!(redup, None, "a retransmit is never duplicated");
        assert_eq!((r.steps, r.msgs), (2, 3));
    }

    #[test]
    fn a_fast_delivery_under_an_armed_plan_is_sent_once() {
        // The plan only slows the reverse direction.
        let always = SimTime::from_nanos(u64::MAX);
        let plan = FaultPlan::new().degrade(NodeId(1), NodeId(0), SimTime::ZERO, always, 100.0);
        let r = run(Some(plan), false, &[0]);
        let [Sent::Delivered { dup, .. }] = r.got[..] else {
            panic!("expected one delivery, got {:?}", r.got);
        };
        assert_eq!((dup, r.msgs), (None, 1));
    }

    #[test]
    fn a_delivery_records_ser_then_prop_under_the_base() {
        let r = run(None, true, &[0]);
        let [Sent::Delivered { tctx, delay, .. }] = r.got[..] else {
            panic!("expected one delivery, got {:?}", r.got);
        };
        let [root, ser, prop] = &r.spans[..] else {
            panic!("expected root + two hop spans, got {:?}", r.spans);
        };
        assert_eq!(
            (ser.kind, prop.kind),
            (SpanKind::FabricSer, SpanKind::FabricProp)
        );
        assert_eq!((ser.label.as_str(), prop.label.as_str()), ("a->b", "a->b"));
        assert_eq!((ser.parent, prop.parent), (root.id, ser.id));
        assert_eq!(tctx, prop.ctx(), "the envelope carries the arriving hop");
        // Ser starts when the message is ready (before its CPU
        // serialization), prop ends at delivery.
        assert_eq!(ser.start, SimTime::ZERO + PRE);
        assert_eq!(ser.end, prop.start);
        assert_eq!(prop.end, SimTime::ZERO + delay);
    }

    #[test]
    fn a_retried_drop_records_fault_and_backoff_under_the_base() {
        let r = run(Some(drop_first(1)), true, &[1]);
        let [root, fault, backoff] = &r.spans[..] else {
            panic!("expected root + fault + retransmit, got {:?}", r.spans);
        };
        assert_eq!(
            (fault.kind, backoff.kind),
            (SpanKind::Fault, SpanKind::Retransmit)
        );
        assert_eq!(
            (fault.label.as_str(), backoff.label.as_str()),
            ("drop", "a->b")
        );
        assert_eq!((fault.parent, backoff.parent), (root.id, root.id));
        let depart = SimTime::ZERO + LEAD;
        assert_eq!((fault.start, fault.end), (depart, depart));
        assert_eq!(
            (backoff.start, backoff.end),
            (depart, depart + RETRY.rto(1))
        );

        // The drop that exhausts the budget records nothing of its own.
        let r = run(Some(drop_first(1)), true, &[RETRY.max_attempts - 1]);
        assert_eq!(r.got, [Sent::Exhausted]);
        assert_eq!(r.spans.len(), 1, "only the root: {:?}", r.spans);
    }

    #[test]
    fn seq_gen_is_monotonic() {
        let mut c = Channel::default();
        assert_eq!(c.take_seq(), 0);
        assert_eq!(c.take_seq(), 1);
        assert_eq!(c.take_seq(), 2);
        assert_eq!(c.next_seq, 3);
    }

    #[test]
    fn dedup_accepts_in_order_with_no_memory_growth() {
        let mut f = DedupFilter::new();
        for s in 0..1000 {
            assert!(f.fresh(s));
        }
        assert_eq!(f.out_of_order(), 0);
    }

    #[test]
    fn dedup_rejects_duplicates_before_and_after_frontier() {
        let mut f = DedupFilter::new();
        assert!(f.fresh(0));
        assert!(f.fresh(1));
        assert!(!f.fresh(0), "below the frontier");
        assert!(f.fresh(5));
        assert!(!f.fresh(5), "above the frontier");
        assert_eq!(f.out_of_order(), 1);
    }

    #[test]
    fn dedup_handles_reordering_then_compacts() {
        let mut f = DedupFilter::new();
        assert!(f.fresh(2));
        assert!(f.fresh(1));
        assert_eq!(f.out_of_order(), 2);
        assert!(f.fresh(0));
        // Frontier advanced through the gap: set drained.
        assert_eq!(f.out_of_order(), 0);
        assert!(!f.fresh(2));
    }
}
