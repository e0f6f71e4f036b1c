#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(missing_docs)]
//! Simulated disaggregated data-center fabric for FractOS-rs.
//!
//! This crate substitutes the paper's physical testbed (Table 2: 3 nodes,
//! RoCEv2 over a 10 Gbps switched fabric, Mellanox BlueField SmartNICs,
//! PCIe-attached Tesla K80 and NVMe drives) with a calibrated model:
//!
//! * [`topology`] — nodes, components, endpoint addressing;
//! * [`params`] — latency/bandwidth/software-cost constants, each anchored
//!   to a number published in the paper (§6.1);
//! * [`fabric`] — the message-level latency and link-contention model plus
//!   RDMA verbs;
//! * [`stats`] — per-flow traffic accounting used to measure the paper's
//!   message-complexity and traffic-reduction claims;
//! * [`fault`] — deterministic fault injection (drops, partitions, link
//!   degradation) replayable from a `(seed, plan)` pair.
//!
//! # Examples
//!
//! ```
//! use fractos_net::{Endpoint, Fabric, NetParams, NodeId, Topology, TrafficClass};
//! use fractos_sim::{SimRng, SimTime};
//!
//! let mut fabric = Fabric::new(Topology::paper_testbed(), NetParams::paper());
//! let mut rng = SimRng::new(7);
//! let delay = fabric.send(
//!     SimTime::ZERO,
//!     &mut rng,
//!     Endpoint::cpu(NodeId(0)),
//!     Endpoint::gpu(NodeId(1)),
//!     4096,
//!     TrafficClass::Data,
//! );
//! assert!(delay.as_micros_f64() > 1.0);
//! assert_eq!(fabric.stats().network_msgs(), 1);
//! ```

pub mod fabric;
pub mod fault;
pub mod params;
pub mod stats;
pub mod topology;

pub use fabric::{Fabric, WIRE_HEADER_BYTES};
pub use fault::{
    DeviceFaultOutcome, DeviceFaults, DeviceOp, FaultPlan, LinkKey, NodeCrash, SendOutcome,
};
pub use fractos_sim::Payload;
pub use params::{ComputeDomain, NetParams, RetryPolicy, RETRY};
pub use stats::{
    DeviceFaultCounter, FaultCounter, FlowCounter, TrafficClass, TrafficStats, VerifyCounter,
};
pub use topology::{Endpoint, Location, NodeConfig, NodeId, Topology, TopologyError};
