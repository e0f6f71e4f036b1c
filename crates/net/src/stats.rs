//! Traffic accounting.
//!
//! The headline FractOS claims are about *traffic*: 3× fewer bytes on the
//! network, 1.6× fewer messages, 8 vs 5 control messages for the inference
//! pipeline (Fig 2, §6.5). The fabric therefore counts every message it
//! carries once, per `(source node, destination node, class)`. The shared
//! network carries exactly the cross-node flows, so the network totals are
//! folds over the flows whose source and destination nodes differ.

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
    flows: BTreeMap<(NodeId, NodeId, TrafficClass), FlowCounter>,
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
        let flow = self.flows.entry((src, dst, class)).or_default();
        flow.msgs += 1;
        flow.bytes += bytes;
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
        self.flows
            .get(&(src, dst, class))
            .copied()
            .unwrap_or_default()
    }

    /// Messages and bytes of `class` (both classes when `None`) carried
    /// by the shared network, i.e. on cross-node flows.
    fn network(&self, class: Option<TrafficClass>) -> FlowCounter {
        let mut total = FlowCounter::default();
        for (&(src, dst, c), f) in &self.flows {
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

    /// Iterates over all per-flow counters.
    pub fn flows(&self) -> impl Iterator<Item = (&(NodeId, NodeId, TrafficClass), &FlowCounter)> {
        self.flows.iter()
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.flows.clear();
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
