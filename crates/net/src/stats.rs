//! Traffic accounting.
//!
//! The headline FractOS claims are about *traffic*: 3× fewer bytes on the
//! network, 1.6× fewer messages, 8 vs 5 control messages for the inference
//! pipeline (Fig 2, §6.5). The fabric therefore counts every message it
//! carries once, per `(source node, destination node, class)`, in a dense
//! table indexed by node id, so counting a message is no map lookup. The
//! shared network carries exactly the cross-node flows, so the network
//! totals are folds over the flows whose source and destination nodes
//! differ.

use std::collections::BTreeMap;

use crate::topology::{Endpoint, NodeId};

/// Broad classification of a message for accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Small control-plane messages: syscalls, RPC invocations, completions,
    /// capability operations.
    Control,
    /// Bulk data-plane transfers: memory copies, RDMA payloads, file
    /// contents.
    Data,
}

/// Message/byte counters for one `(src, dst, class)` flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounter {
    /// Number of messages.
    pub msgs: u64,
    /// Total payload bytes.
    pub bytes: u64,
}

/// Injected-fault counters for one directed `(src, dst)` link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounter {
    /// Messages dropped by the fault plan.
    pub dropped: u64,
    /// Deliveries slowed by an active degradation window.
    pub degraded: u64,
    /// Data-class payloads bit-flipped in flight.
    pub corrupted: u64,
}

/// Injected-fault counters for one device endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceFaultCounter {
    /// Operations failed outright (media error / launch failure).
    pub failed: u64,
    /// Writes torn (only a prefix committed).
    pub torn: u64,
    /// Outputs corrupted (bit flip).
    pub corrupted: u64,
    /// Operations stretched by a latency spike.
    pub spiked: u64,
}

/// Static-verification counters (PR 5): how many Request plans the
/// Controllers verified at submission and at admission (defense in depth),
/// and how many were rejected before dispatch. Verification is free in
/// simulated time, so these never influence latency — they only prove the
/// checks ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyCounter {
    /// Plans verified at the submitting Process's Controller.
    pub submission_checks: u64,
    /// Plans verified again at the owner Controller on admission.
    pub admission_checks: u64,
    /// Plans (or syscalls) rejected with a typed `VerifyError`.
    pub rejects: u64,
}

/// All traffic counters for a fabric.
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    /// Per-class flow counters of every `(src, dst)` pair, row-major over
    /// `side × side` node ids and grown to cover the largest id recorded.
    /// A flow that was never recorded has `msgs == 0`.
    flows: Vec<[FlowCounter; 2]>,
    side: usize,
    faults: BTreeMap<(NodeId, NodeId), FaultCounter>,
    device_faults: BTreeMap<Endpoint, DeviceFaultCounter>,
    verify: VerifyCounter,
}

impl TrafficStats {
    /// An empty set of counters.
    pub fn new() -> Self {
        TrafficStats::default()
    }

    /// Records one message.
    pub fn record(&mut self, src: NodeId, dst: NodeId, class: TrafficClass, bytes: u64) {
        let (s, d) = (src.0 as usize, dst.0 as usize);
        if s.max(d) >= self.side {
            self.grow((s.max(d) + 1).max(2 * self.side));
        }
        let flow = &mut self.flows[s * self.side + d][class as usize];
        flow.msgs += 1;
        flow.bytes += bytes;
    }

    /// Re-lays the flow table out over `side × side` node ids.
    fn grow(&mut self, side: usize) {
        let mut flows = vec![[FlowCounter::default(); 2]; side * side];
        for (s, row) in self.flows.chunks_exact(self.side.max(1)).enumerate() {
            flows[s * side..s * side + self.side].copy_from_slice(row);
        }
        self.flows = flows;
        self.side = side;
    }

    /// Records one message dropped by the fault plan on `src → dst`.
    pub fn record_drop(&mut self, src: NodeId, dst: NodeId) {
        self.faults.entry((src, dst)).or_default().dropped += 1;
    }

    /// Records one delivery slowed by a degradation window on `src → dst`.
    pub fn record_degraded(&mut self, src: NodeId, dst: NodeId) {
        self.faults.entry((src, dst)).or_default().degraded += 1;
    }

    /// Records one data-class payload bit-flipped in flight on `src → dst`.
    pub fn record_corrupted(&mut self, src: NodeId, dst: NodeId) {
        self.faults.entry((src, dst)).or_default().corrupted += 1;
    }

    /// Records one plan verification at the submitting Process's Controller.
    pub fn record_verify_submission(&mut self) {
        self.verify.submission_checks += 1;
    }

    /// Records one plan verification at the owner Controller on admission.
    pub fn record_verify_admission(&mut self) {
        self.verify.admission_checks += 1;
    }

    /// Records one plan or syscall rejected by static verification.
    pub fn record_verify_reject(&mut self) {
        self.verify.rejects += 1;
    }

    /// Static-verification counters.
    pub fn verify_counter(&self) -> VerifyCounter {
        self.verify
    }

    /// Records one injected device fault on `device`.
    pub fn record_device_fault(
        &mut self,
        device: Endpoint,
        f: impl FnOnce(&mut DeviceFaultCounter),
    ) {
        f(self.device_faults.entry(device).or_default());
    }

    /// Injected-fault counters for one device endpoint.
    pub fn device_faults_at(&self, device: Endpoint) -> DeviceFaultCounter {
        self.device_faults.get(&device).copied().unwrap_or_default()
    }

    /// Iterates over all per-device injected-fault counters.
    pub fn device_fault_devices(&self) -> impl Iterator<Item = (&Endpoint, &DeviceFaultCounter)> {
        self.device_faults.iter()
    }

    /// Injected-fault counters for one directed link.
    pub fn link_faults(&self, src: NodeId, dst: NodeId) -> FaultCounter {
        self.faults.get(&(src, dst)).copied().unwrap_or_default()
    }

    /// Iterates over all per-link fault counters.
    pub fn fault_links(&self) -> impl Iterator<Item = (&(NodeId, NodeId), &FaultCounter)> {
        self.faults.iter()
    }

    /// Total messages dropped by the fault plan.
    pub fn total_dropped(&self) -> u64 {
        self.faults.values().map(|c| c.dropped).sum()
    }

    /// Counter for one `(src, dst, class)` flow.
    pub fn flow(&self, src: NodeId, dst: NodeId, class: TrafficClass) -> FlowCounter {
        let (s, d) = (src.0 as usize, dst.0 as usize);
        if s.max(d) >= self.side {
            return FlowCounter::default();
        }
        self.flows[s * self.side + d][class as usize]
    }

    /// Messages and bytes of `class` (both classes when `None`) carried
    /// by the shared network, i.e. on cross-node flows.
    fn network(&self, class: Option<TrafficClass>) -> FlowCounter {
        let mut total = FlowCounter::default();
        for ((src, dst, c), f) in self.flows() {
            if src != dst && class.is_none_or(|want| want == c) {
                total.msgs += f.msgs;
                total.bytes += f.bytes;
            }
        }
        total
    }

    /// Total messages carried by the shared network (both classes).
    pub fn network_msgs(&self) -> u64 {
        self.network(None).msgs
    }

    /// Total bytes carried by the shared network (both classes).
    pub fn network_bytes(&self) -> u64 {
        self.network(None).bytes
    }

    /// Network control-plane messages.
    pub fn network_control_msgs(&self) -> u64 {
        self.network(Some(TrafficClass::Control)).msgs
    }

    /// Network data-plane messages ("data transfers" in Fig 2).
    pub fn network_data_msgs(&self) -> u64 {
        self.network(Some(TrafficClass::Data)).msgs
    }

    /// Network data-plane bytes.
    pub fn network_data_bytes(&self) -> u64 {
        self.network(Some(TrafficClass::Data)).bytes
    }

    /// Iterates over the per-flow counters of every flow recorded, in
    /// `(src, dst, class)` order.
    pub fn flows(
        &self,
    ) -> impl Iterator<Item = ((NodeId, NodeId, TrafficClass), FlowCounter)> + '_ {
        let side = self.side;
        self.flows.iter().enumerate().flat_map(move |(i, pair)| {
            let (src, dst) = (NodeId((i / side) as u32), NodeId((i % side) as u32));
            [TrafficClass::Control, TrafficClass::Data]
                .into_iter()
                .zip(pair)
                .filter(|(_, f)| f.msgs > 0)
                .map(move |(class, f)| ((src, dst, class), *f))
        })
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.flows.fill([FlowCounter::default(); 2]);
        self.faults.clear();
        self.device_faults.clear();
        self.verify = VerifyCounter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    #[test]
    fn records_per_flow_and_medium() {
        let mut s = TrafficStats::new();
        s.record(N0, N1, TrafficClass::Control, 64);
        s.record(N0, N1, TrafficClass::Data, 4096);
        s.record(N1, N0, TrafficClass::Data, 100);
        // Same-node traffic crosses a loopback or PCIe, not the network.
        s.record(N0, N0, TrafficClass::Control, 64);

        assert_eq!(s.flow(N0, N1, TrafficClass::Control).msgs, 1);
        assert_eq!(s.flow(N0, N1, TrafficClass::Data).bytes, 4096);
        assert_eq!(s.flow(N0, N0, TrafficClass::Control).msgs, 1);
        assert_eq!(s.network_msgs(), 3);
        assert_eq!(s.network_bytes(), 4260);
        assert_eq!(s.network_control_msgs(), 1);
        assert_eq!(s.network_data_msgs(), 2);
        assert_eq!(s.network_data_bytes(), 4196);
    }

    #[test]
    fn flow_table_iterates_recorded_flows_in_order() {
        use TrafficClass::{Control, Data};
        let n63 = NodeId(63);
        let n7 = NodeId(7);
        let mut s = TrafficStats::new();
        // Out of order, over ids with holes: the table grows past 0..=7
        // to 63 after flows below it were recorded.
        s.record(n7, N0, Data, 10);
        s.record(n63, N0, Control, 1);
        s.record(N0, n63, Data, 4096);
        s.record(n7, N0, Control, 2);
        s.record(N0, N0, Data, 5);
        s.record(n63, N0, Control, 3);

        let flows: Vec<_> = s.flows().collect();
        let c = |msgs, bytes| FlowCounter { msgs, bytes };
        assert_eq!(
            flows,
            [
                ((N0, N0, Data), c(1, 5)),
                ((N0, n63, Data), c(1, 4096)),
                ((n7, N0, Control), c(1, 2)),
                ((n7, N0, Data), c(1, 10)),
                ((n63, N0, Control), c(2, 4)),
            ]
        );
        for &(k, f) in &flows {
            assert_eq!(s.flow(k.0, k.1, k.2), f);
        }
        assert_eq!(s.flow(N0, n7, Data), FlowCounter::default());
        assert_eq!(s.flow(NodeId(64), N0, Data), FlowCounter::default());
        assert_eq!(s.network_msgs(), 5);
        assert_eq!(s.network_bytes(), 4112);
        assert_eq!(s.network_control_msgs(), 3);
        assert_eq!(s.network_data_msgs(), 2);
        assert_eq!(s.network_data_bytes(), 4106);

        s.reset();
        assert_eq!(s.flows().count(), 0);
        assert_eq!(s.flow(n63, N0, Control), FlowCounter::default());
        assert_eq!(s.network_msgs(), 0);
        assert_eq!(s.network_bytes(), 0);
    }

    #[test]
    fn reset_clears() {
        let mut s = TrafficStats::new();
        s.record(N0, N1, TrafficClass::Data, 100);
        s.reset();
        assert_eq!(s.network_msgs(), 0);
    }

    #[test]
    fn unknown_flow_is_zero() {
        let s = TrafficStats::new();
        assert_eq!(s.flow(N0, N1, TrafficClass::Data), FlowCounter::default());
    }

    #[test]
    fn fault_counters_diff_and_reset() {
        let mut s = TrafficStats::new();
        s.record_drop(N0, N1);
        s.record_drop(N0, N1);
        s.record_degraded(N1, N0);

        assert_eq!(s.link_faults(N0, N1).dropped, 2);
        assert_eq!(s.link_faults(N1, N0).degraded, 1);
        assert_eq!(s.total_dropped(), 2);
        assert_eq!(s.fault_links().count(), 2);

        s.reset();
        assert_eq!(s.total_dropped(), 0);
        assert_eq!(s.fault_links().count(), 0);
        assert_eq!(s.link_faults(N0, N1), FaultCounter::default());
    }

    #[test]
    fn verify_counters_diff_and_reset() {
        let mut s = TrafficStats::new();
        s.record_verify_submission();
        s.record_verify_admission();
        s.record_verify_submission();
        s.record_verify_reject();

        assert_eq!(s.verify_counter().submission_checks, 2);
        assert_eq!(s.verify_counter().admission_checks, 1);
        assert_eq!(s.verify_counter().rejects, 1);

        s.reset();
        assert_eq!(s.verify_counter(), VerifyCounter::default());
    }

    #[test]
    fn device_fault_counters_diff_and_reset() {
        let dev = Endpoint::nvme(N0);
        let gpu = Endpoint::gpu(N1);
        let mut s = TrafficStats::new();
        s.record_device_fault(dev, |c| c.failed += 1);
        s.record_corrupted(N0, N1);
        s.record_device_fault(dev, |c| c.torn += 1);
        s.record_device_fault(gpu, |c| c.corrupted += 1);
        s.record_device_fault(gpu, |c| c.spiked += 1);

        assert_eq!(s.device_faults_at(dev).failed, 1);
        assert_eq!(s.device_faults_at(dev).torn, 1);
        assert_eq!(s.device_faults_at(gpu).corrupted, 1);
        assert_eq!(s.device_faults_at(gpu).spiked, 1);
        assert_eq!(s.device_fault_devices().count(), 2);
        assert_eq!(s.link_faults(N0, N1).corrupted, 1);

        s.reset();
        assert_eq!(s.device_fault_devices().count(), 0);
    }
}
