//! The fabric: latency/bandwidth model plus traffic accounting.
//!
//! [`Fabric::send`] is the single choke point every simulated message goes
//! through. It computes the one-way delivery latency of a message between two
//! [`Endpoint`]s, models bandwidth contention on the traversed links
//! (cut-through: each link a transfer crosses is busy for its full
//! serialization time, placed first-fit into that link's schedule of busy
//! intervals), applies optional jitter, and records traffic statistics.
//! The RDMA write verb ([`Fabric::rdma_write`]) is composed from sends.

#![expect(
    clippy::expect_used,
    reason = "checked-arithmetic overflow guards: link reservation on the ns timeline, wire-size header addition"
)]

use std::collections::VecDeque;

use fractos_sim::{
    IdMap, SimDuration, SimRng, SimTime, TelemetryEvent, TelemetryKind, TelemetryStore,
    TELEMETRY_EXTERNAL,
};

use crate::fault::{DeviceFaultOutcome, DeviceOp, FaultPlan, FaultState, LinkKey, SendOutcome};
use crate::params::{
    NetParams, LOCAL_BANDWIDTH, LOCAL_ONEWAY, NET_BANDWIDTH, PCIE_BANDWIDTH, PCIE_HOP,
    REMOTE_ONEWAY,
};
use crate::stats::{TrafficClass, TrafficStats};
use crate::topology::{Endpoint, Location, NodeId, Topology};

/// A directed, bandwidth-limited link in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Edge {
    /// NIC loopback path of a node (intra-node traffic).
    Loopback(NodeId),
    /// Node egress to the switch.
    NetUp(NodeId),
    /// Switch egress towards a node.
    NetDown(NodeId),
    /// PCIe crossing towards a component (writes into it).
    PcieIn(NodeId, Location),
    /// PCIe crossing out of a component (reads from it).
    PcieOut(NodeId, Location),
}

/// Fixed-capacity edge list for a single route. A route traverses at most
/// four edges (PCIe out, loopback or net up + net down, PCIe in), so the
/// per-send path stays free of heap allocation.
#[derive(Debug, Clone, Copy)]
struct EdgePath {
    buf: [Edge; 4],
    len: usize,
}

impl EdgePath {
    fn new() -> Self {
        EdgePath {
            buf: [Edge::Loopback(NodeId(0)); 4],
            len: 0,
        }
    }

    fn push(&mut self, e: Edge) {
        self.buf[self.len] = e;
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.buf[..self.len].iter().copied()
    }
}

/// Fixed per-message overhead added to every payload on the wire
/// (headers: Ethernet + IP + UDP + RoCE BTH, roughly).
pub const WIRE_HEADER_BYTES: u64 = 64;

/// Messages at most this large (one RoCE MTU) interleave with bulk
/// transfers at packet granularity instead of queueing behind whole
/// reservations: the NIC schedules fairly per packet, so a small control
/// message never waits for a megabyte of bulk data ahead of it. Their
/// (negligible) capacity is not charged against the links.
pub const MTU_BYPASS: u64 = 4096 + WIRE_HEADER_BYTES;

/// Reservation horizon: intervals ending this far before the newest request
/// are pruned.
const PRUNE_HORIZON_NS: u64 = 50_000_000; // 50 ms

/// Busy intervals of one link, sorted by start time.
///
/// A link may be reserved at *future* instants (a controller computes a
/// reply's departure after a long local operation); earlier traffic must
/// still pass through the idle time before such a reservation, so a single
/// high-water mark is not enough — first-fit gap search over intervals is.
///
/// Touching intervals are merged, so the list is disjoint with a gap
/// between neighbours and the ends are sorted as strictly as the starts.
/// Both searches are therefore binary: the intervals a prune drops (those
/// ending before the horizon) are a prefix, and so are those that end at or
/// before the requested instant, which the gap search skips.
#[derive(Debug, Default)]
struct LinkSchedule {
    /// Sorted, non-overlapping `(start, end)` nanosecond intervals.
    intervals: VecDeque<(u64, u64)>,
}

impl LinkSchedule {
    /// Reserves `occ` ns at the earliest instant ≥ `t`; returns the start.
    fn reserve(&mut self, t: u64, occ: u64) -> u64 {
        // Prune long-past intervals to bound memory.
        let cutoff = t.saturating_sub(PRUNE_HORIZON_NS);
        let stale = self.intervals.partition_point(|&(_, end)| end < cutoff);
        self.intervals.drain(..stale);

        let end_of = |start: u64| {
            start
                .checked_add(occ)
                .expect("link reservation overflows the ns timeline")
        };
        // First fit, from the first interval still busy at `t`.
        let mut start = t;
        let mut at = self.intervals.partition_point(|&(_, end)| end <= t);
        while let Some(&(s, e)) = self.intervals.get(at) {
            if s >= end_of(start) {
                // The gap before interval `at` fits.
                break;
            }
            // Overlap: push past this interval.
            start = e;
            at += 1;
        }
        // Merge with the neighbours it touches to keep the list flat.
        let mut end = end_of(start);
        while let Some(&(s, e)) = self.intervals.get(at) {
            if end < s {
                break;
            }
            end = end.max(e);
            self.intervals.remove(at);
        }
        match at.checked_sub(1).and_then(|i| self.intervals.get_mut(i)) {
            Some(prev) if prev.1 >= start => prev.1 = prev.1.max(end),
            _ => self.intervals.insert(at, (start, end)),
        }
        start
    }
}

/// The simulated data-center fabric.
#[derive(Debug)]
pub struct Fabric {
    params: NetParams,
    topology: Topology,
    schedules: IdMap<Edge, LinkSchedule>,
    stats: TrafficStats,
    faults: Option<FaultState>,
    /// Per-link counter deltas (`link.<src>-<dst>.<msgs|bytes|drops|
    /// degraded>`), recorded on the external sentinel actor. `Some` only
    /// when telemetry is enabled; `None` costs nothing on the send path
    /// (zero-perturbation invariant — see `fractos_sim::telemetry`).
    telemetry: Option<TelemetryStore>,
}

impl Fabric {
    /// Creates a fabric over `topology` with the given parameters.
    pub fn new(topology: Topology, params: NetParams) -> Self {
        Fabric {
            params,
            topology,
            schedules: IdMap::default(),
            stats: TrafficStats::new(),
            faults: None,
            telemetry: None,
        }
    }

    /// Starts buffering per-link telemetry deltas (msgs, bytes, drops,
    /// degraded deliveries) with virtual timestamps. Off by default; the
    /// send path is byte-identical with telemetry disabled.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(TelemetryStore::new());
        }
    }

    /// True when [`enable_telemetry`](Fabric::enable_telemetry) was called.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Drains the buffered telemetry deltas (telemetry stays enabled).
    /// Returns an empty vector when telemetry was never enabled.
    pub fn take_telemetry(&mut self) -> Vec<TelemetryEvent> {
        self.telemetry
            .as_mut()
            .map_or_else(Vec::new, TelemetryStore::take)
    }

    /// Counts `delta` on the `suffix` series of link `src → dst`.
    fn telemetry_record(
        &mut self,
        time: SimTime,
        src: NodeId,
        dst: NodeId,
        suffix: &str,
        delta: u64,
    ) {
        if let Some(store) = &mut self.telemetry {
            let series = format!("link.{}-{}.{suffix}", src.0, dst.0);
            store.record(
                TELEMETRY_EXTERNAL,
                time,
                series,
                TelemetryKind::Count(delta),
            );
        }
    }

    /// Arms `plan` with the given decision seed. An empty plan is
    /// equivalent to [`clear_fault_plan`](Fabric::clear_fault_plan):
    /// behavior stays bit-identical to a fabric with no plan installed.
    pub fn install_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(FaultState::new(plan, seed))
        };
    }

    /// Disarms any installed fault plan.
    pub fn clear_fault_plan(&mut self) {
        self.faults = None;
    }

    /// True when a non-empty fault plan is armed. Senders use this to
    /// decide whether retransmit/timeout machinery is worth arming.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// The fabric's parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Mutable parameters (e.g. to flip `third_party_rdma` between runs).
    pub fn params_mut(&mut self) -> &mut NetParams {
        &mut self.params
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Clears traffic statistics (links stay warm).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Records a static-verification event in the traffic counters.
    /// Verification is free in simulated time: this touches counters only
    /// and never charges latency or emits messages.
    pub fn note_verify(&mut self, f: impl FnOnce(&mut TrafficStats)) {
        f(&mut self.stats);
    }

    /// Decides the fault outcome of the next operation of class `op` on
    /// `device`, recording the injection in the per-device fault counters.
    /// Deterministic: hashed from `(plan seed, device, per-device op
    /// index)`, never from the caller's RNG. Without a plan (or without an
    /// entry for `device`) this returns `None` and touches no state.
    pub fn device_fault(&mut self, device: Endpoint, op: DeviceOp) -> DeviceFaultOutcome {
        let Some(state) = &mut self.faults else {
            return DeviceFaultOutcome::None;
        };
        let outcome = state.decide_device(device, op);
        match outcome {
            DeviceFaultOutcome::None => {}
            DeviceFaultOutcome::Fail => self.stats.record_device_fault(device, |c| c.failed += 1),
            DeviceFaultOutcome::Torn { .. } => {
                self.stats.record_device_fault(device, |c| c.torn += 1)
            }
            DeviceFaultOutcome::Corrupt { .. } => {
                self.stats.record_device_fault(device, |c| c.corrupted += 1)
            }
            DeviceFaultOutcome::Spike { .. } => {
                self.stats.record_device_fault(device, |c| c.spiked += 1)
            }
        }
        outcome
    }

    /// Decides whether the next data-class payload moving `src → dst` is
    /// bit-flipped in flight; returns the bit-position hash when it is and
    /// records the injection. Control-plane traffic is never corrupted.
    pub fn corrupt_payload(&mut self, src: NodeId, dst: NodeId) -> Option<u64> {
        let state = self.faults.as_mut()?;
        let bit = state.decide_corrupt(LinkKey::new(src, dst))?;
        self.stats.record_corrupted(src, dst);
        Some(bit)
    }

    /// True when the armed plan names data corruption on `src → dst`
    /// (consumers use this to decide whether verification can ever fire).
    pub fn corrupts_data(&self, src: NodeId, dst: NodeId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.corrupts_link(LinkKey::new(src, dst)))
    }

    /// Sends one message of `payload` bytes from `src` to `dst`, departing at
    /// `now`. Returns the one-way delivery delay. Updates link occupancy and
    /// traffic statistics.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint refers to hardware the topology lacks —
    /// that is a wiring bug in the harness, not a runtime condition.
    pub fn send(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        src: Endpoint,
        dst: Endpoint,
        payload: u64,
        class: TrafficClass,
    ) -> SimDuration {
        self.send_parts(now, rng, src, dst, payload, class).0
    }

    /// Like [`send`](Fabric::send), but additionally splits the delay into
    /// its propagation and serialization components for latency attribution:
    /// returns `(total, propagation)` where `propagation` is the base
    /// route latency clamped to `total` and `total - propagation` is the
    /// serialization/queueing share (plus jitter and degradation).
    pub fn send_parts(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        src: Endpoint,
        dst: Endpoint,
        payload: u64,
        class: TrafficClass,
    ) -> (SimDuration, SimDuration) {
        self.topology
            .validate(src)
            .unwrap_or_else(|e| panic!("fabric send from invalid endpoint: {e}"));
        self.topology
            .validate(dst)
            .unwrap_or_else(|e| panic!("fabric send to invalid endpoint: {e}"));

        let bytes = payload
            .checked_add(WIRE_HEADER_BYTES)
            .expect("message size overflows with the wire header");
        let (base, edges) = Self::route(src, dst);
        debug_assert!(
            src.node == dst.node || base >= self.params.conservative_lookahead(),
            "inter-node base latency {base} under the conservative lookahead bound"
        );

        // Cut-through through each traversed edge: the head of the message
        // proceeds as soon as an edge accepts it, but each edge stays
        // occupied for the full serialization time, so back-to-back traffic
        // queues while a single transfer pays the bottleneck only once.
        // MTU-sized messages interleave at packet granularity (see
        // [`MTU_BYPASS`]) and skip the queueing entirely.
        let mut head = now + base;
        let mut finish = head;
        for edge in edges.iter() {
            // One division per arm: the compiler hoists all three out of
            // the loop, as `bytes` does not change across edges.
            let secs = match edge {
                Edge::Loopback(_) => bytes as f64 / LOCAL_BANDWIDTH,
                Edge::NetUp(_) | Edge::NetDown(_) => bytes as f64 / NET_BANDWIDTH,
                Edge::PcieIn(..) | Edge::PcieOut(..) => bytes as f64 / PCIE_BANDWIDTH,
            };
            let occupancy = SimDuration::from_secs_f64(secs);
            if bytes <= MTU_BYPASS {
                finish = finish.max(head + occupancy);
                continue;
            }
            let start_ns = self
                .schedules
                .entry(edge)
                .or_default()
                .reserve(head.as_nanos(), occupancy.as_nanos().max(1));
            let start = SimTime::from_nanos(start_ns);
            let done = start + occupancy;
            head = start;
            finish = finish.max(done);
        }

        let mut delay = finish.duration_since(now);
        if self.params.jitter_frac > 0.0 {
            let f = 1.0 + self.params.jitter_frac * (2.0 * rng.gen_f64() - 1.0);
            delay = delay * f;
        }

        // Transient degradation applies to everything physically on the
        // link, including "reliable" traffic (drops and partitions do not:
        // those only gate `try_send`).
        if let Some(state) = &self.faults {
            let f = state.degrade_factor(now, LinkKey::new(src.node, dst.node));
            if f > 1.0 {
                delay = delay * f;
                self.stats.record_degraded(src.node, dst.node);
                self.telemetry_record(now, src.node, dst.node, "degraded", 1);
            }
        }

        self.stats.record(src.node, dst.node, class, payload);
        if self.telemetry.is_some() {
            self.telemetry_record(now, src.node, dst.node, "msgs", 1);
            self.telemetry_record(now, src.node, dst.node, "bytes", payload);
        }
        (delay, base.min(delay))
    }

    /// Like [`send`](Fabric::send), but subject to the armed fault plan:
    /// the message may be dropped (partition, scheduled one-shot, or
    /// probabilistic loss) instead of delivered. Dropped messages consume
    /// no link capacity, record no traffic, and show up only in the
    /// per-link fault counters. With no plan armed this is exactly `send`.
    ///
    /// Fault decisions consume no randomness from `rng`; see
    /// [`crate::fault`] for the determinism contract.
    ///
    /// # Panics
    ///
    /// Panics on invalid endpoints, exactly like `send` — a drop never
    /// masks a harness wiring bug.
    pub fn try_send(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        src: Endpoint,
        dst: Endpoint,
        payload: u64,
        class: TrafficClass,
    ) -> SendOutcome {
        match self.try_send_parts(now, rng, src, dst, payload, class) {
            Some((total, _prop)) => SendOutcome::Delivered(total),
            None => SendOutcome::Dropped,
        }
    }

    /// Like [`try_send`](Fabric::try_send), but on delivery also splits the
    /// delay as in [`send_parts`](Fabric::send_parts): returns
    /// `Some((total, propagation))`, or `None` when the fault plan dropped
    /// the message.
    pub fn try_send_parts(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        src: Endpoint,
        dst: Endpoint,
        payload: u64,
        class: TrafficClass,
    ) -> Option<(SimDuration, SimDuration)> {
        let dropped = match &mut self.faults {
            Some(state) => state.decide_drop(now, LinkKey::new(src.node, dst.node)),
            None => false,
        };
        if dropped {
            self.topology
                .validate(src)
                .unwrap_or_else(|e| panic!("fabric send from invalid endpoint: {e}"));
            self.topology
                .validate(dst)
                .unwrap_or_else(|e| panic!("fabric send to invalid endpoint: {e}"));
            self.stats.record_drop(src.node, dst.node);
            self.telemetry_record(now, src.node, dst.node, "drops", 1);
            return None;
        }
        Some(self.send_parts(now, rng, src, dst, payload, class))
    }

    /// Latency of a one-sided RDMA write of `size` bytes from `writer` into
    /// `target` memory, measured to the completion (ack) at the writer.
    pub fn rdma_write(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        writer: Endpoint,
        target: Endpoint,
        size: u64,
    ) -> SimDuration {
        let data = self.send(now, rng, writer, target, size, TrafficClass::Data);
        let ack = self.send(now + data, rng, target, writer, 0, TrafficClass::Control);
        data + ack
    }

    /// Base propagation latency between two endpoints, ignoring bandwidth
    /// and queueing. Useful for analytical checks in tests and benches.
    pub fn base_latency(&self, src: Endpoint, dst: Endpoint) -> SimDuration {
        Self::route(src, dst).0
    }

    fn route(src: Endpoint, dst: Endpoint) -> (SimDuration, EdgePath) {
        let mut base = SimDuration::ZERO;
        let mut edges = EdgePath::new();

        // Source side: components behind PCIe first cross into the NIC
        // domain.
        if src.loc.behind_pcie() {
            base += PCIE_HOP;
            edges.push(Edge::PcieOut(src.node, src.loc));
        }

        if src.node == dst.node {
            base += LOCAL_ONEWAY;
            edges.push(Edge::Loopback(src.node));
        } else {
            base += REMOTE_ONEWAY;
            edges.push(Edge::NetUp(src.node));
            edges.push(Edge::NetDown(dst.node));
        }

        // Destination side.
        if dst.loc.behind_pcie() {
            base += PCIE_HOP;
            edges.push(Edge::PcieIn(dst.node, dst.loc));
        }

        (base, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeConfig;

    fn fabric() -> Fabric {
        Fabric::new(Topology::paper_testbed(), NetParams::paper())
    }

    fn rng() -> SimRng {
        SimRng::new(1)
    }

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    #[test]
    fn telemetry_buffers_link_deltas_only_when_enabled() {
        let mut f = fabric();
        let mut r = rng();
        let src = Endpoint::cpu(N0);
        let dst = Endpoint::cpu(N1);

        // Disabled: send path records nothing and take returns empty.
        f.send(SimTime::ZERO, &mut r, src, dst, 100, TrafficClass::Data);
        assert!(!f.telemetry_enabled());
        assert!(f.take_telemetry().is_empty());

        f.enable_telemetry();
        let t = SimTime::from_nanos(5_000);
        f.send(t, &mut r, src, dst, 100, TrafficClass::Data);
        let events = f.take_telemetry();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TelemetryKind::Count(1));
        assert_eq!(events[0].time, t);
        assert_eq!(events[0].actor, TELEMETRY_EXTERNAL);
        assert_eq!(events[0].series, "link.0-1.msgs");
        assert_eq!(events[1].kind, TelemetryKind::Count(100));
        assert_eq!(events[1].series, "link.0-1.bytes");

        // Draining leaves telemetry enabled.
        assert!(f.telemetry_enabled());
        f.send(t, &mut r, src, dst, 8, TrafficClass::Control);
        assert_eq!(f.take_telemetry().len(), 2);
    }

    #[test]
    fn telemetry_records_fault_plan_drops() {
        use crate::fault::FaultPlan;

        let plan = FaultPlan::new().drop_prob(N0, N1, 1.0);
        let mut f = fabric();
        f.install_fault_plan(plan, 9);
        f.enable_telemetry();
        let mut r = rng();
        let src = Endpoint::cpu(N0);
        let dst = Endpoint::cpu(N1);

        let out = f.try_send(SimTime::ZERO, &mut r, src, dst, 64, TrafficClass::Control);
        assert!(matches!(out, SendOutcome::Dropped));
        let events = f.take_telemetry();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TelemetryKind::Count(1));
        assert_eq!(events[0].series, "link.0-1.drops");
    }

    #[test]
    fn loopback_rtt_matches_table3() {
        let mut f = fabric();
        let mut r = rng();
        let a = Endpoint::cpu(N0);
        // Null message both ways; payload 0 still pays header serialization,
        // which at loopback bandwidth is ~21 ns per direction — inside the
        // paper's measurement noise.
        let d1 = f.send(SimTime::ZERO, &mut r, a, a, 0, TrafficClass::Control);
        let d2 = f.send(SimTime::ZERO + d1, &mut r, a, a, 0, TrafficClass::Control);
        let rtt = (d1 + d2).as_micros_f64();
        assert!((rtt - 2.42).abs() < 0.1, "loopback RTT {rtt:.3} µs");
    }

    #[test]
    fn snic_loopback_rtt_matches_table3() {
        let mut f = fabric();
        let mut r = rng();
        let cpu = Endpoint::cpu(N0);
        let snic = Endpoint::snic(N0);
        let d1 = f.send(SimTime::ZERO, &mut r, cpu, snic, 0, TrafficClass::Control);
        let d2 = f.send(
            SimTime::ZERO + d1,
            &mut r,
            snic,
            cpu,
            0,
            TrafficClass::Control,
        );
        let rtt = (d1 + d2).as_micros_f64();
        assert!((rtt - 3.68).abs() < 0.1, "sNIC loopback RTT {rtt:.3} µs");
    }

    #[test]
    fn one_byte_rdma_read_is_about_3_3us() {
        let mut f = fabric();
        let mut r = rng();
        let (reader, target) = (Endpoint::cpu(N0), Endpoint::cpu(N1));
        // A small request on the control plane, the byte back on the data
        // plane.
        let req = f.send(
            SimTime::ZERO,
            &mut r,
            reader,
            target,
            32,
            TrafficClass::Control,
        );
        let resp = f.send(
            SimTime::ZERO + req,
            &mut r,
            target,
            reader,
            1,
            TrafficClass::Data,
        );
        let us = (req + resp).as_micros_f64();
        assert!((us - 3.3).abs() < 0.2, "1B RDMA read {us:.3} µs");
    }

    #[test]
    fn large_transfers_approach_line_rate() {
        let mut f = fabric();
        let mut r = rng();
        let size = 4u64 << 20; // 4 MiB
        let d = f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N1),
            size,
            TrafficClass::Data,
        );
        let goodput = size as f64 / d.as_secs_f64();
        // Within 5% of 1.25 GB/s line rate.
        assert!(
            (goodput - 1.25e9).abs() / 1.25e9 < 0.05,
            "goodput {goodput:.3e} B/s"
        );
    }

    #[test]
    fn back_to_back_transfers_queue_on_the_link() {
        let mut f = fabric();
        let mut r = rng();
        let size = 1u64 << 20;
        let d1 = f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N1),
            size,
            TrafficClass::Data,
        );
        // Same-instant second transfer must wait behind the first.
        let d2 = f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N1),
            size,
            TrafficClass::Data,
        );
        assert!(d2 > d1, "second transfer should queue: {d1} then {d2}");
        assert!(d2.as_secs_f64() > 1.9 * d1.as_secs_f64());
    }

    #[test]
    fn different_links_do_not_contend() {
        let mut f = fabric();
        let mut r = rng();
        let size = 1u64 << 20;
        let d1 = f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N1),
            size,
            TrafficClass::Data,
        );
        // Reverse direction uses different up/down links.
        let d2 = f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N1),
            Endpoint::cpu(N0),
            size,
            TrafficClass::Data,
        );
        let diff = d2.as_secs_f64() - d1.as_secs_f64();
        assert!(diff.abs() < 1e-6, "opposite directions contended: {diff}");
    }

    #[test]
    fn stats_classify_media() {
        let mut f = fabric();
        let mut r = rng();
        f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N1),
            128,
            TrafficClass::Data,
        );
        f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N0),
            128,
            TrafficClass::Control,
        );
        f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::nvme(N0),
            128,
            TrafficClass::Data,
        );
        // Only the cross-node message rode the network; the loopback and
        // PCIe messages are flows within node 0.
        assert_eq!(f.stats().network_msgs(), 1);
        assert_eq!(f.stats().flow(N0, N1, TrafficClass::Data).msgs, 1);
        assert_eq!(f.stats().flow(N0, N0, TrafficClass::Control).msgs, 1);
        assert_eq!(f.stats().flow(N0, N0, TrafficClass::Data).msgs, 1);
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let topo = Topology::paper_testbed();
        let mut f = Fabric::new(topo, NetParams::paper_with_jitter(0.03));
        let mut r = rng();
        let nominal = f.base_latency(Endpoint::cpu(N0), Endpoint::cpu(N1));
        for i in 0..100u64 {
            // Space the probes out so they do not queue behind each other.
            let t = SimTime::from_nanos(i * 100_000);
            let d = f.send(
                t,
                &mut r,
                Endpoint::cpu(N0),
                Endpoint::cpu(N1),
                0,
                TrafficClass::Control,
            );
            // Nominal base excludes header serialization (~51 ns here), so
            // allow the jitter band plus that constant.
            let ratio = d.as_secs_f64() / nominal.as_secs_f64();
            assert!(
                (0.95..=1.10).contains(&ratio),
                "jittered delay ratio {ratio}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid endpoint")]
    fn send_to_missing_hardware_panics() {
        let mut topo = Topology::new();
        topo.add_node(NodeConfig::cpu_only("a"));
        let mut f = Fabric::new(topo, NetParams::paper());
        let mut r = rng();
        f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::gpu(N0),
            0,
            TrafficClass::Control,
        );
    }

    #[test]
    #[should_panic(expected = "overflows with the wire header")]
    fn absurd_payload_overflows_loudly() {
        let mut f = fabric();
        let mut r = rng();
        f.send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N1),
            u64::MAX,
            TrafficClass::Data,
        );
    }

    #[test]
    #[should_panic(expected = "link reservation overflows")]
    fn reservation_past_the_end_of_time_panics() {
        let mut sched = LinkSchedule::default();
        sched.reserve(u64::MAX - 10, 100);
    }

    /// The linear first-fit schedule the binary-searched one replaced,
    /// kept as the reference model: prune by a full scan, then scan every
    /// interval from the front.
    fn reference_reserve(intervals: &mut Vec<(u64, u64)>, t: u64, occ: u64) -> u64 {
        let cutoff = t.saturating_sub(PRUNE_HORIZON_NS);
        intervals.retain(|&(_, end)| end >= cutoff);
        let mut start = t;
        let mut insert_at = intervals.len();
        for (i, &(s, e)) in intervals.iter().enumerate() {
            if e <= start {
                continue;
            }
            if s >= start + occ {
                insert_at = i;
                break;
            }
            start = e;
            insert_at = i + 1;
        }
        intervals.insert(insert_at, (start, start + occ));
        let mut i = insert_at;
        while i + 1 < intervals.len() && intervals[i].1 >= intervals[i + 1].0 {
            let next = intervals.remove(i + 1);
            intervals[i].1 = intervals[i].1.max(next.1);
        }
        if i > 0 && intervals[i - 1].1 >= intervals[i].0 {
            let cur = intervals.remove(i);
            i -= 1;
            intervals[i].1 = intervals[i].1.max(cur.1);
        }
        start
    }

    proptest::proptest! {
        /// The schedule gives every reservation the start the linear
        /// reference gives it and keeps the same interval list after every
        /// step, whether instants advance, go backwards, land in the future
        /// or jump across the prune horizon.
        #[test]
        fn link_schedule_matches_the_linear_reference(
            steps in proptest::prop::collection::vec(
                (0u8..7, 0u64..2_000_000, 0u64..100_000),
                1..400,
            ),
        ) {
            let mut sched = LinkSchedule::default();
            let mut reference = Vec::new();
            let mut now = 0u64;
            for (kind, dt, occ) in steps {
                let t = match kind {
                    // Forward by up to a few µs, often onto a busy link.
                    0 => {
                        now += dt % 5_000;
                        now
                    }
                    // Backwards: an earlier sender posts late.
                    1 => now.saturating_sub(dt),
                    // A reservation in the future; the clock stays put.
                    2 => now + dt,
                    // Across the prune horizon, or to just short of it.
                    3 => {
                        now += PRUNE_HORIZON_NS + dt;
                        now
                    }
                    4 => {
                        now += PRUNE_HORIZON_NS - dt;
                        now
                    }
                    // Exactly one horizon past the newest end: that interval
                    // sits on the prune cutoff.
                    5 => {
                        now = now.max(reference.last().map_or(0, |&(_, e)| e) + PRUNE_HORIZON_NS);
                        now
                    }
                    // Same instant as the last request.
                    _ => now,
                };
                // Occupancies of 1 ns and up, skewed short.
                let occ = if occ % 3 == 0 { 1 + occ % 4 } else { 1 + occ };
                let want = reference_reserve(&mut reference, t, occ);
                let got = sched.reserve(t, occ);
                proptest::prop_assert_eq!(
                    got,
                    want,
                    "reserve({}, {}) started at {}, the reference at {}",
                    t,
                    occ,
                    got,
                    want
                );
                proptest::prop_assert!(
                    sched.intervals.iter().eq(reference.iter()),
                    "intervals after reserve({}, {}): {:?} vs {:?}",
                    t,
                    occ,
                    sched.intervals,
                    reference
                );
            }
        }
    }

    #[test]
    fn an_earlier_transfer_uses_the_gap_before_a_future_reservation() {
        let (a, b) = (Endpoint::cpu(N0), Endpoint::cpu(N1));
        let size = 64 << 10;
        let mut r = rng();
        let alone = fabric().send(SimTime::ZERO, &mut r, a, b, size, TrafficClass::Data);
        let mut f = fabric();
        let later = SimTime::from_nanos(10_000_000);
        f.send(later, &mut r, a, b, size, TrafficClass::Data);
        // Posted after the future reservation but departing before it: the
        // link is idle until then, so nothing queues. A schedule keeping
        // only a high-water mark would start it after the 10 ms transfer.
        let early = f.send(SimTime::ZERO, &mut r, a, b, size, TrafficClass::Data);
        assert_eq!(early, alone);
        assert!(early < SimDuration::from_millis(1), "{early}");
    }

    #[test]
    fn inter_node_latency_clears_the_lookahead_bound() {
        let f = fabric();
        let lookahead = f.params().conservative_lookahead();
        for (a, b) in [
            (Endpoint::cpu(N0), Endpoint::cpu(N1)),
            (Endpoint::nvme(N0), Endpoint::gpu(N1)),
            (Endpoint::snic(N1), Endpoint::cpu(N0)),
        ] {
            assert!(f.base_latency(a, b) >= lookahead);
        }
    }

    #[test]
    fn base_latency_is_symmetric() {
        let f = fabric();
        for (a, b) in [
            (Endpoint::cpu(N0), Endpoint::cpu(N1)),
            (Endpoint::cpu(N0), Endpoint::snic(N1)),
            (Endpoint::nvme(N0), Endpoint::gpu(N1)),
        ] {
            assert_eq!(f.base_latency(a, b), f.base_latency(b, a));
        }
    }

    #[test]
    fn try_send_without_plan_is_exactly_send() {
        let mut f = fabric();
        let mut g = fabric();
        let mut r1 = rng();
        let mut r2 = rng();
        let a = Endpoint::cpu(N0);
        let b = Endpoint::cpu(N1);
        let d1 = f.send(SimTime::ZERO, &mut r1, a, b, 256, TrafficClass::Control);
        let d2 = g.try_send(SimTime::ZERO, &mut r2, a, b, 256, TrafficClass::Control);
        assert_eq!(d2, SendOutcome::Delivered(d1));
        assert_eq!(g.stats().total_dropped(), 0);
        assert_eq!(
            f.stats().flow(N0, N1, TrafficClass::Control),
            g.stats().flow(N0, N1, TrafficClass::Control)
        );
    }

    #[test]
    fn empty_plan_is_equivalent_to_no_plan() {
        let mut f = fabric();
        f.install_fault_plan(FaultPlan::default(), 99);
        assert!(!f.has_faults());
        let mut r = rng();
        let out = f.try_send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N1),
            0,
            TrafficClass::Control,
        );
        assert!(!out.is_dropped());
    }

    #[test]
    fn dropped_messages_record_faults_not_traffic() {
        let mut f = fabric();
        f.install_fault_plan(FaultPlan::new().partition(N0, N1, SimTime::ZERO, None), 7);
        assert!(f.has_faults());
        let mut r = rng();
        let out = f.try_send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N1),
            128,
            TrafficClass::Control,
        );
        assert!(out.is_dropped());
        assert_eq!(out.delivered(), None);
        assert_eq!(f.stats().network_msgs(), 0);
        assert_eq!(f.stats().link_faults(N0, N1).dropped, 1);
        // Intra-node traffic is unaffected by the partition.
        let out = f.try_send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::cpu(N0),
            128,
            TrafficClass::Control,
        );
        assert!(!out.is_dropped());
    }

    #[test]
    fn degradation_slows_reliable_sends_too() {
        let from = SimTime::ZERO;
        let until = SimTime::ZERO + SimDuration::from_millis(1);
        let mut f = fabric();
        f.install_fault_plan(FaultPlan::new().degrade(N0, N1, from, until, 3.0), 7);
        let mut clean = fabric();
        let mut r = rng();
        let a = Endpoint::cpu(N0);
        let b = Endpoint::cpu(N1);
        let base = clean.send(SimTime::ZERO, &mut r, a, b, 0, TrafficClass::Control);
        let slow = f.send(SimTime::ZERO, &mut r, a, b, 0, TrafficClass::Control);
        assert_eq!(slow, base * 3.0);
        assert_eq!(f.stats().link_faults(N0, N1).degraded, 1);
        // After the window the link is back to nominal.
        let after = SimTime::ZERO + SimDuration::from_millis(2);
        let normal = f.send(after, &mut r, a, b, 0, TrafficClass::Control);
        assert_eq!(normal, base);
    }

    #[test]
    fn faulty_run_replays_from_seed_and_plan() {
        let run = |seed: u64| -> Vec<bool> {
            let mut f = fabric();
            f.install_fault_plan(FaultPlan::new().drop_prob_between(N0, N1, 0.4), seed);
            let mut r = rng();
            (0..100)
                .map(|i| {
                    let t = SimTime::from_nanos(i * 10_000);
                    f.try_send(
                        t,
                        &mut r,
                        Endpoint::cpu(N0),
                        Endpoint::cpu(N1),
                        64,
                        TrafficClass::Control,
                    )
                    .is_dropped()
                })
                .collect()
        };
        assert_eq!(run(61), run(61));
        assert_ne!(run(61), run(62));
    }

    #[test]
    #[should_panic(expected = "invalid endpoint")]
    fn dropped_send_still_validates_endpoints() {
        let mut topo = Topology::new();
        topo.add_node(NodeConfig::cpu_only("a"));
        topo.add_node(NodeConfig::cpu_only("b"));
        let mut f = Fabric::new(topo, NetParams::paper());
        f.install_fault_plan(FaultPlan::new().partition(N0, N1, SimTime::ZERO, None), 7);
        let mut r = rng();
        f.try_send(
            SimTime::ZERO,
            &mut r,
            Endpoint::cpu(N0),
            Endpoint::gpu(N1),
            0,
            TrafficClass::Control,
        );
    }

    #[test]
    fn device_to_device_cross_node_pays_two_pcie_hops() {
        let f = fabric();
        let lat = f.base_latency(Endpoint::nvme(N0), Endpoint::gpu(N1));
        assert_eq!(lat, REMOTE_ONEWAY + PCIE_HOP * 2);
    }
}
