//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] describes everything the fabric may do to droppable
//! traffic: per-link message-drop probabilities, one-shot drops scheduled at
//! virtual times, transient link degradation (latency multipliers over a
//! window), and bidirectional node partitions with optional heal times.
//!
//! Determinism contract: fault decisions never consume the caller's RNG.
//! Probabilistic drops hash `(plan seed, directed link, per-link message
//! index)` through a splitmix64 mixer, and windows are pure predicates over
//! virtual time. Because every decision depends only on the per-link order
//! of droppable sends — which both the single-threaded and sharded engines
//! preserve — a chaos run is replayable from `(seed, plan)` on either
//! backend, and an empty plan is bit-identical to no plan at all.

use std::collections::BTreeMap;

use fractos_sim::rng::splitmix64;
use fractos_sim::{SimDuration, SimTime};

use crate::topology::{Endpoint, Location, NodeId};

/// A directed node-pair link, the granularity at which faults apply.
///
/// The fabric models several physical edges per node pair (NIC loopback,
/// switch up/down, PCIe crossings); faults act on the coarser directed
/// `src → dst` pair because that is what a retransmitting sender observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkKey {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
}

impl LinkKey {
    /// The directed link from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        LinkKey { src, dst }
    }
}

/// A single message drop scheduled at a virtual time: the first droppable
/// message on `link` departing at or after `at` is lost.
#[derive(Debug, Clone, Copy)]
pub struct OneShotDrop {
    /// The directed link the drop arms on.
    pub link: LinkKey,
    /// Earliest departure time the drop applies to.
    pub at: SimTime,
}

/// A transient degradation window: deliveries on `link` departing inside
/// `[from, until)` take `factor` times their modeled latency.
#[derive(Debug, Clone, Copy)]
pub struct Degradation {
    /// The directed link that degrades.
    pub link: LinkKey,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Latency multiplier (> 1.0 slows the link down).
    pub factor: f64,
}

/// A bidirectional partition between two nodes: every droppable message
/// between `a` and `b` (either direction) departing inside the window is
/// lost.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    /// One side of the cut.
    pub a: NodeId,
    /// The other side of the cut.
    pub b: NodeId,
    /// When the partition starts (inclusive).
    pub from: SimTime,
    /// When the partition heals (exclusive); `None` means it never does.
    pub heal: Option<SimTime>,
}

impl Partition {
    fn cuts(&self, link: LinkKey, now: SimTime) -> bool {
        let pair = (link.src == self.a && link.dst == self.b)
            || (link.src == self.b && link.dst == self.a);
        pair && now >= self.from && self.heal.is_none_or(|h| now < h)
    }
}

/// A crash-stop (or crash-restart) node fault: the node fail-stops at `at`
/// — its actors stop receiving, its in-flight messages are lost — and, when
/// `restart` is set, comes back at that time with a fresh capability epoch
/// (crash-restart). `restart = None` is a permanent crash-stop.
#[derive(Debug, Clone, Copy)]
pub struct NodeCrash {
    /// The node that crashes.
    pub node: NodeId,
    /// Crash instant (inclusive: the node is down from `at`).
    pub at: SimTime,
    /// Optional restart instant (exclusive: the node is up again at
    /// `restart`); `None` means the node never comes back.
    pub restart: Option<SimTime>,
}

impl NodeCrash {
    /// True when the node is down at `now` (`at <= now < restart`).
    pub fn down_at(&self, now: SimTime) -> bool {
        now >= self.at && self.restart.is_none_or(|r| now < r)
    }

    fn cuts(&self, link: LinkKey, now: SimTime) -> bool {
        (link.src == self.node || link.dst == self.node) && self.down_at(now)
    }
}

/// The class of device operation a fault decision applies to.
///
/// Device faults are keyed per [`Endpoint`] and decided per operation in
/// that device's own deterministic order (device adaptors are single
/// actors, so the per-device op sequence is identical on both runtime
/// backends — the same contract that makes link faults replayable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOp {
    /// An NVMe media read.
    NvmeRead,
    /// An NVMe media write.
    NvmeWrite,
    /// A GPU kernel launch.
    GpuLaunch,
}

/// Per-device fault probabilities. All default to zero (inject nothing);
/// `spike_factor` is the service-time multiplier applied when a latency
/// spike fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFaults {
    /// Probability that a media read fails with a media error.
    pub read_error: f64,
    /// Probability that a media write fails with a media error.
    pub write_error: f64,
    /// Probability that a media write is torn: only a prefix of the
    /// payload reaches the medium (the rest keeps its prior contents).
    pub torn_write: f64,
    /// Probability that an operation takes `spike_factor`× its modeled
    /// service time (firmware retry / thermal throttle analogue).
    pub latency_spike: f64,
    /// Service-time multiplier of a latency spike (≥ 1).
    pub spike_factor: f64,
    /// Probability that a GPU kernel launch fails outright.
    pub launch_error: f64,
    /// Probability that a completed GPU kernel's output suffers an
    /// ECC-escape single-bit corruption.
    pub corrupt_output: f64,
}

impl Default for DeviceFaults {
    fn default() -> Self {
        DeviceFaults {
            read_error: 0.0,
            write_error: 0.0,
            torn_write: 0.0,
            latency_spike: 0.0,
            spike_factor: 8.0,
            launch_error: 0.0,
            corrupt_output: 0.0,
        }
    }
}

impl DeviceFaults {
    /// True when every probability is zero.
    pub fn is_empty(&self) -> bool {
        self.read_error == 0.0
            && self.write_error == 0.0
            && self.torn_write == 0.0
            && self.latency_spike == 0.0
            && self.launch_error == 0.0
            && self.corrupt_output == 0.0
    }
}

/// What the fault plan decided for one device operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceFaultOutcome {
    /// The operation proceeds untouched.
    None,
    /// The operation fails (media error / launch failure). The device
    /// still charges its service time — the failure is detected at
    /// completion, as on real hardware.
    Fail,
    /// A torn write: only the first `keep_frac` of the payload commits.
    Torn {
        /// Fraction of the payload that reached the medium, in `[0, 1)`.
        keep_frac: f64,
    },
    /// The operation completes but its output has one flipped bit.
    Corrupt {
        /// Hash the consumer reduces modulo the payload bit-length to
        /// pick the flipped bit.
        bit: u64,
    },
    /// The operation completes but takes `factor`× its service time.
    Spike {
        /// Service-time multiplier (≥ 1).
        factor: f64,
    },
}

/// Everything the fabric may inject into a run. An empty (default) plan
/// injects nothing and leaves the fabric's behavior bit-identical to a
/// fabric with no plan installed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Per-link probability that a droppable message is lost.
    pub drop_probs: BTreeMap<LinkKey, f64>,
    /// Scheduled single-message drops.
    pub one_shots: Vec<OneShotDrop>,
    /// Transient latency-degradation windows.
    pub degradations: Vec<Degradation>,
    /// Bidirectional partitions.
    pub partitions: Vec<Partition>,
    /// Per-device fault probabilities.
    pub device_faults: BTreeMap<Endpoint, DeviceFaults>,
    /// Per-link probability that a data-class payload suffers a bit flip
    /// in flight (the control plane keeps the drop model).
    pub corrupt_probs: BTreeMap<LinkKey, f64>,
    /// Crash-stop / crash-restart node faults.
    pub node_crashes: Vec<NodeCrash>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.drop_probs.is_empty()
            && self.one_shots.is_empty()
            && self.degradations.is_empty()
            && self.partitions.is_empty()
            && self.device_faults.values().all(DeviceFaults::is_empty)
            && self.corrupt_probs.is_empty()
            && self.node_crashes.is_empty()
    }

    /// Drops each droppable `src → dst` message with probability `p`.
    pub fn drop_prob(mut self, src: NodeId, dst: NodeId, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.drop_probs.insert(LinkKey::new(src, dst), p);
        self
    }

    /// Drops each droppable message between `a` and `b` (both directions)
    /// with probability `p`.
    pub fn drop_prob_between(self, a: NodeId, b: NodeId, p: f64) -> Self {
        self.drop_prob(a, b, p).drop_prob(b, a, p)
    }

    /// Drops the first droppable `src → dst` message departing at or after
    /// `at`.
    pub fn one_shot(mut self, src: NodeId, dst: NodeId, at: SimTime) -> Self {
        self.one_shots.push(OneShotDrop {
            link: LinkKey::new(src, dst),
            at,
        });
        self
    }

    /// Multiplies `src → dst` latency by `factor` for departures in
    /// `[from, until)`.
    pub fn degrade(
        mut self,
        src: NodeId,
        dst: NodeId,
        from: SimTime,
        until: SimTime,
        factor: f64,
    ) -> Self {
        assert!(factor >= 1.0, "degradation factor {factor} below 1.0");
        self.degradations.push(Degradation {
            link: LinkKey::new(src, dst),
            from,
            until,
            factor,
        });
        self
    }

    /// Cuts all droppable traffic between `a` and `b` from `from` until
    /// `heal` (or forever when `heal` is `None`).
    pub fn partition(mut self, a: NodeId, b: NodeId, from: SimTime, heal: Option<SimTime>) -> Self {
        self.partitions.push(Partition { a, b, from, heal });
        self
    }

    /// Crash-stops `node` at `at`: its actors stop receiving, its in-flight
    /// messages are lost, and every droppable message to or from it drops.
    pub fn crash_node(mut self, node: NodeId, at: SimTime) -> Self {
        self.node_crashes.push(NodeCrash {
            node,
            at,
            restart: None,
        });
        self
    }

    /// Crash-restarts `node`: down over `[at, restart)`, back afterwards
    /// with a fresh capability epoch (its Controllers reboot).
    pub fn crash_restart_node(mut self, node: NodeId, at: SimTime, restart: SimTime) -> Self {
        assert!(restart > at, "restart must come after the crash");
        self.node_crashes.push(NodeCrash {
            node,
            at,
            restart: Some(restart),
        });
        self
    }

    fn assert_prob(p: f64, what: &str) {
        assert!(
            (0.0..=1.0).contains(&p),
            "{what} probability {p} not in [0, 1]"
        );
    }

    /// Fails each media read on the NVMe at `device` with probability `p`.
    pub fn nvme_read_errors(mut self, device: Endpoint, p: f64) -> Self {
        Self::assert_prob(p, "read-error");
        self.device_faults.entry(device).or_default().read_error = p;
        self
    }

    /// Fails each media write on the NVMe at `device` with probability `p`.
    pub fn nvme_write_errors(mut self, device: Endpoint, p: f64) -> Self {
        Self::assert_prob(p, "write-error");
        self.device_faults.entry(device).or_default().write_error = p;
        self
    }

    /// Tears each media write on the NVMe at `device` with probability
    /// `p`: only a prefix of the payload reaches the medium.
    pub fn nvme_torn_writes(mut self, device: Endpoint, p: f64) -> Self {
        Self::assert_prob(p, "torn-write");
        self.device_faults.entry(device).or_default().torn_write = p;
        self
    }

    /// Stretches each operation on `device` to `factor`× its service time
    /// with probability `p`.
    pub fn device_latency_spikes(mut self, device: Endpoint, p: f64, factor: f64) -> Self {
        Self::assert_prob(p, "latency-spike");
        assert!(factor >= 1.0, "spike factor {factor} below 1.0");
        let f = self.device_faults.entry(device).or_default();
        f.latency_spike = p;
        f.spike_factor = factor;
        self
    }

    /// Fails each kernel launch on the GPU at `device` with probability
    /// `p`.
    pub fn gpu_launch_errors(mut self, device: Endpoint, p: f64) -> Self {
        Self::assert_prob(p, "launch-error");
        self.device_faults.entry(device).or_default().launch_error = p;
        self
    }

    /// Flips one bit of each completed kernel's output on the GPU at
    /// `device` with probability `p` (an ECC escape).
    pub fn gpu_output_corruption(mut self, device: Endpoint, p: f64) -> Self {
        Self::assert_prob(p, "output-corruption");
        self.device_faults.entry(device).or_default().corrupt_output = p;
        self
    }

    /// Flips one bit of each data-class `src → dst` payload with
    /// probability `p`.
    pub fn corrupt_data(mut self, src: NodeId, dst: NodeId, p: f64) -> Self {
        Self::assert_prob(p, "payload-corruption");
        self.corrupt_probs.insert(LinkKey::new(src, dst), p);
        self
    }
}

/// What [`Fabric::try_send`](crate::Fabric::try_send) did with a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendOutcome {
    /// The message will arrive after the returned one-way delay.
    Delivered(SimDuration),
    /// The fault plan dropped the message; nothing arrives.
    Dropped,
}

impl SendOutcome {
    /// The delivery delay, or `None` if the message was dropped.
    pub fn delivered(self) -> Option<SimDuration> {
        match self {
            SendOutcome::Delivered(d) => Some(d),
            SendOutcome::Dropped => None,
        }
    }

    /// True if the message was dropped.
    pub fn is_dropped(&self) -> bool {
        matches!(self, SendOutcome::Dropped)
    }
}

/// Maps a hash to the unit interval with 53 bits of precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Stable numeric encoding of a [`Location`] for hashing (part of the
/// replay contract — never reorder).
fn loc_code(loc: Location) -> u64 {
    match loc {
        Location::HostCpu => 0,
        Location::SmartNic => 1,
        Location::Gpu(n) => 0x100 + u64::from(n),
        Location::Nvme(n) => 0x200 + u64::from(n),
    }
}

/// Armed fault state inside a fabric: the plan plus the mutable bits
/// (one-shot arming, per-link message indices) that make replay exact.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    seed: u64,
    /// Whether each one-shot drop has fired.
    fired: Vec<bool>,
    /// Droppable-message index per directed link; the probabilistic-drop
    /// hash input, so decision `k` on a link is the same in every replay.
    msg_idx: BTreeMap<LinkKey, u64>,
    /// Operation index per device endpoint (only devices the plan names
    /// get a counter, so an empty plan stays bit-identical to no plan).
    dev_idx: BTreeMap<Endpoint, u64>,
    /// Data-class payload index per directed link (only links the plan
    /// names corruption for).
    data_idx: BTreeMap<LinkKey, u64>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, seed: u64) -> Self {
        let fired = vec![false; plan.one_shots.len()];
        FaultState {
            plan,
            seed,
            fired,
            msg_idx: BTreeMap::new(),
            dev_idx: BTreeMap::new(),
            data_idx: BTreeMap::new(),
        }
    }

    /// Decides whether the droppable message departing `now` on `link` is
    /// lost. Consumes no external randomness.
    pub(crate) fn decide_drop(&mut self, now: SimTime, link: LinkKey) -> bool {
        let idx = {
            let c = self.msg_idx.entry(link).or_insert(0);
            let i = *c;
            *c += 1;
            i
        };
        if self.plan.partitions.iter().any(|p| p.cuts(link, now)) {
            return true;
        }
        if self.plan.node_crashes.iter().any(|c| c.cuts(link, now)) {
            return true;
        }
        for (i, shot) in self.plan.one_shots.iter().enumerate() {
            if !self.fired[i] && shot.link == link && now >= shot.at {
                self.fired[i] = true;
                return true;
            }
        }
        if let Some(&p) = self.plan.drop_probs.get(&link) {
            if p > 0.0 {
                let mut h = self.seed;
                h = splitmix64(h ^ u64::from(link.src.0));
                h = splitmix64(h ^ u64::from(link.dst.0).rotate_left(32));
                h = splitmix64(h ^ idx);
                return unit(h) < p;
            }
        }
        false
    }

    /// Combined latency multiplier of the degradation windows active for a
    /// departure at `now` on `link` (1.0 when none are).
    pub(crate) fn degrade_factor(&self, now: SimTime, link: LinkKey) -> f64 {
        self.plan
            .degradations
            .iter()
            .filter(|d| d.link == link && now >= d.from && now < d.until)
            .map(|d| d.factor)
            .product()
    }

    /// One salted hash draw for device op `idx` on `device`.
    fn device_hash(&self, device: Endpoint, idx: u64, salt: u64) -> u64 {
        let mut h = self.seed;
        h = splitmix64(h ^ u64::from(device.node.0));
        h = splitmix64(h ^ loc_code(device.loc).rotate_left(32));
        h = splitmix64(h ^ idx);
        splitmix64(h ^ salt)
    }

    /// Decides the fault outcome of the next operation of class `op` on
    /// `device`. Consumes no external randomness; the decision is a pure
    /// function of `(plan seed, device, per-device op index)`. Priority
    /// when several classes draw true: fail > torn > corrupt > spike.
    pub(crate) fn decide_device(&mut self, device: Endpoint, op: DeviceOp) -> DeviceFaultOutcome {
        let Some(&f) = self.plan.device_faults.get(&device) else {
            return DeviceFaultOutcome::None;
        };
        if f.is_empty() {
            return DeviceFaultOutcome::None;
        }
        let idx = {
            let c = self.dev_idx.entry(device).or_insert(0);
            let i = *c;
            *c += 1;
            i
        };
        let fail_p = match op {
            DeviceOp::NvmeRead => f.read_error,
            DeviceOp::NvmeWrite => f.write_error,
            DeviceOp::GpuLaunch => f.launch_error,
        };
        if fail_p > 0.0 && unit(self.device_hash(device, idx, 1)) < fail_p {
            return DeviceFaultOutcome::Fail;
        }
        if op == DeviceOp::NvmeWrite
            && f.torn_write > 0.0
            && unit(self.device_hash(device, idx, 2)) < f.torn_write
        {
            return DeviceFaultOutcome::Torn {
                keep_frac: unit(self.device_hash(device, idx, 5)),
            };
        }
        if op == DeviceOp::GpuLaunch
            && f.corrupt_output > 0.0
            && unit(self.device_hash(device, idx, 3)) < f.corrupt_output
        {
            return DeviceFaultOutcome::Corrupt {
                bit: self.device_hash(device, idx, 6),
            };
        }
        if f.latency_spike > 0.0 && unit(self.device_hash(device, idx, 4)) < f.latency_spike {
            return DeviceFaultOutcome::Spike {
                factor: f.spike_factor,
            };
        }
        DeviceFaultOutcome::None
    }

    /// Decides whether the next data-class payload on `link` is corrupted
    /// in flight; returns the bit-position hash when it is. Links without
    /// a corruption entry get no counter, so an empty plan stays
    /// bit-identical to no plan.
    pub(crate) fn decide_corrupt(&mut self, link: LinkKey) -> Option<u64> {
        let &p = self.plan.corrupt_probs.get(&link)?;
        if p <= 0.0 {
            return None;
        }
        let idx = {
            let c = self.data_idx.entry(link).or_insert(0);
            let i = *c;
            *c += 1;
            i
        };
        let mut h = self.seed;
        h = splitmix64(h ^ u64::from(link.src.0));
        h = splitmix64(h ^ u64::from(link.dst.0).rotate_left(32));
        h = splitmix64(h ^ idx);
        let decide = splitmix64(h ^ 0x0DA7_A0C0_44BE);
        if unit(decide) < p {
            Some(splitmix64(h ^ 0xB17F_11B5))
        } else {
            None
        }
    }

    /// True when the plan names data corruption on `link`.
    pub(crate) fn corrupts_link(&self, link: LinkKey) -> bool {
        self.plan.corrupt_probs.get(&link).copied().unwrap_or(0.0) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let mut state = FaultState::new(plan, 7);
        let link = LinkKey::new(N0, N1);
        for i in 0..100 {
            assert!(!state.decide_drop(t(i), link));
        }
        assert_eq!(state.degrade_factor(t(0), link), 1.0);
    }

    #[test]
    fn drop_decisions_replay_from_seed_and_index() {
        let plan = FaultPlan::new().drop_prob(N0, N1, 0.3);
        let mut a = FaultState::new(plan.clone(), 42);
        let mut b = FaultState::new(plan, 42);
        let link = LinkKey::new(N0, N1);
        let da: Vec<bool> = (0..200).map(|i| a.decide_drop(t(i), link)).collect();
        let db: Vec<bool> = (0..200).map(|i| b.decide_drop(t(i), link)).collect();
        assert_eq!(da, db);
        let drops = da.iter().filter(|&&d| d).count();
        assert!((30..=90).contains(&drops), "{drops} drops at p=0.3");
    }

    #[test]
    fn drop_rate_tracks_probability_and_seed() {
        let plan = FaultPlan::new().drop_prob(N0, N1, 0.5);
        let mut a = FaultState::new(plan.clone(), 1);
        let mut b = FaultState::new(plan, 2);
        let link = LinkKey::new(N0, N1);
        let da: Vec<bool> = (0..200).map(|i| a.decide_drop(t(i), link)).collect();
        let db: Vec<bool> = (0..200).map(|i| b.decide_drop(t(i), link)).collect();
        assert_ne!(da, db, "different seeds should disagree somewhere");
    }

    #[test]
    fn reverse_direction_is_unaffected() {
        let plan = FaultPlan::new().drop_prob(N0, N1, 1.0);
        let mut state = FaultState::new(plan, 3);
        assert!(state.decide_drop(t(0), LinkKey::new(N0, N1)));
        assert!(!state.decide_drop(t(0), LinkKey::new(N1, N0)));
    }

    #[test]
    fn one_shot_fires_once_at_or_after_its_time() {
        let plan = FaultPlan::new().one_shot(N0, N1, t(10));
        let mut state = FaultState::new(plan, 0);
        let link = LinkKey::new(N0, N1);
        assert!(!state.decide_drop(t(9), link));
        assert!(state.decide_drop(t(11), link));
        assert!(!state.decide_drop(t(12), link));
    }

    #[test]
    fn partition_cuts_both_directions_and_heals() {
        let plan = FaultPlan::new().partition(N0, N1, t(10), Some(t(20)));
        let mut state = FaultState::new(plan, 0);
        let fwd = LinkKey::new(N0, N1);
        let rev = LinkKey::new(N1, N0);
        assert!(!state.decide_drop(t(9), fwd));
        assert!(state.decide_drop(t(10), fwd));
        assert!(state.decide_drop(t(15), rev));
        assert!(!state.decide_drop(t(20), fwd));
        assert!(!state.decide_drop(t(25), rev));
    }

    #[test]
    fn unhealed_partition_never_heals() {
        let plan = FaultPlan::new().partition(N0, N1, t(0), None);
        let mut state = FaultState::new(plan, 0);
        assert!(state.decide_drop(t(1_000_000), LinkKey::new(N1, N0)));
    }

    #[test]
    fn degradation_window_is_half_open() {
        let plan = FaultPlan::new().degrade(N0, N1, t(10), t(20), 4.0);
        let state = FaultState::new(plan, 0);
        let link = LinkKey::new(N0, N1);
        assert_eq!(state.degrade_factor(t(9), link), 1.0);
        assert_eq!(state.degrade_factor(t(10), link), 4.0);
        assert_eq!(state.degrade_factor(t(19), link), 4.0);
        assert_eq!(state.degrade_factor(t(20), link), 1.0);
        assert_eq!(state.degrade_factor(t(15), LinkKey::new(N1, N0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn out_of_range_probability_panics() {
        let _ = FaultPlan::new().drop_prob(N0, N1, 1.5);
    }

    #[test]
    fn device_decisions_replay_from_seed_and_index() {
        let dev = Endpoint::nvme(N0);
        let plan = FaultPlan::new()
            .nvme_read_errors(dev, 0.2)
            .nvme_torn_writes(dev, 0.2)
            .device_latency_spikes(dev, 0.2, 6.0);
        let mut a = FaultState::new(plan.clone(), 99);
        let mut b = FaultState::new(plan, 99);
        let ops = [DeviceOp::NvmeRead, DeviceOp::NvmeWrite];
        let da: Vec<_> = (0..200).map(|i| a.decide_device(dev, ops[i % 2])).collect();
        let db: Vec<_> = (0..200).map(|i| b.decide_device(dev, ops[i % 2])).collect();
        assert_eq!(da, db);
        let fails = da
            .iter()
            .filter(|o| matches!(o, DeviceFaultOutcome::Fail))
            .count();
        let torn = da
            .iter()
            .filter(|o| matches!(o, DeviceFaultOutcome::Torn { .. }))
            .count();
        let spikes = da
            .iter()
            .filter(|o| matches!(o, DeviceFaultOutcome::Spike { .. }))
            .count();
        assert!(fails > 0, "no injected failures at p=0.2 over 200 ops");
        assert!(torn > 0, "no torn writes at p=0.2 over 100 writes");
        assert!(spikes > 0, "no latency spikes at p=0.2 over 200 ops");
    }

    #[test]
    fn device_faults_are_scoped_to_the_named_endpoint() {
        let dev = Endpoint::nvme(N0);
        let other = Endpoint::nvme(N1);
        let plan = FaultPlan::new().nvme_read_errors(dev, 1.0);
        let mut state = FaultState::new(plan, 5);
        assert_eq!(
            state.decide_device(dev, DeviceOp::NvmeRead),
            DeviceFaultOutcome::Fail
        );
        assert_eq!(
            state.decide_device(other, DeviceOp::NvmeRead),
            DeviceFaultOutcome::None
        );
        // Write ops on the faulty device draw from `write_error`, which
        // is zero here.
        assert_eq!(
            state.decide_device(dev, DeviceOp::NvmeWrite),
            DeviceFaultOutcome::None
        );
    }

    #[test]
    fn gpu_corruption_carries_a_bit_hash() {
        let dev = Endpoint::gpu(N1);
        let plan = FaultPlan::new().gpu_output_corruption(dev, 1.0);
        let mut state = FaultState::new(plan, 17);
        let DeviceFaultOutcome::Corrupt { bit: a } = state.decide_device(dev, DeviceOp::GpuLaunch)
        else {
            panic!("p=1 corruption did not fire");
        };
        let DeviceFaultOutcome::Corrupt { bit: b } = state.decide_device(dev, DeviceOp::GpuLaunch)
        else {
            panic!("p=1 corruption did not fire");
        };
        assert_ne!(a, b, "per-op indices must vary the bit hash");
    }

    #[test]
    fn payload_corruption_replays_and_scopes_to_link() {
        let plan = FaultPlan::new().corrupt_data(N0, N1, 0.5);
        let mut a = FaultState::new(plan.clone(), 31);
        let mut b = FaultState::new(plan, 31);
        let link = LinkKey::new(N0, N1);
        let da: Vec<_> = (0..100).map(|_| a.decide_corrupt(link)).collect();
        let db: Vec<_> = (0..100).map(|_| b.decide_corrupt(link)).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(Option::is_some), "p=0.5 never corrupted");
        assert!(da.iter().any(Option::is_none), "p=0.5 always corrupted");
        assert_eq!(a.decide_corrupt(LinkKey::new(N1, N0)), None);
        assert!(a.corrupts_link(link));
        assert!(!a.corrupts_link(LinkKey::new(N1, N0)));
    }

    #[test]
    fn node_crash_cuts_links_both_ways_until_restart() {
        let plan = FaultPlan::new().crash_restart_node(N1, t(10), t(20));
        let mut state = FaultState::new(plan, 0);
        let fwd = LinkKey::new(N0, N1);
        let rev = LinkKey::new(N1, N0);
        assert!(!state.decide_drop(t(9), fwd));
        assert!(state.decide_drop(t(10), fwd));
        assert!(state.decide_drop(t(15), rev));
        assert!(!state.decide_drop(t(20), fwd));
        assert!(!state.decide_drop(t(25), rev));
    }

    #[test]
    fn crash_stop_never_comes_back() {
        let plan = FaultPlan::new().crash_node(N0, t(5));
        let mut state = FaultState::new(plan.clone(), 0);
        assert!(state.decide_drop(t(1_000_000), LinkKey::new(N0, N1)));
        assert!(plan.node_crashes[0].down_at(t(1_000_000)));
        assert!(!plan.node_crashes[0].down_at(t(4)));
        assert!(!plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "restart must come after the crash")]
    fn restart_before_crash_panics() {
        let _ = FaultPlan::new().crash_restart_node(N0, t(10), t(10));
    }

    #[test]
    fn device_plan_emptiness() {
        assert!(FaultPlan::new()
            .device_latency_spikes(Endpoint::nvme(N0), 0.0, 2.0)
            .is_empty());
        assert!(!FaultPlan::new()
            .nvme_read_errors(Endpoint::nvme(N0), 0.1)
            .is_empty());
        assert!(!FaultPlan::new().corrupt_data(N0, N1, 0.1).is_empty());
    }
}
