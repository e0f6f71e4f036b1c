#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(missing_docs)]
//! Deterministic discrete-event simulation engine for FractOS-rs.
//!
//! The FractOS paper evaluates on a 3-node RDMA cluster with SmartNICs, GPUs
//! and NVMe SSDs. This crate is the substitute substrate: a seeded
//! discrete-event simulator on which the real FractOS logic (the
//! `fractos-core` Controllers, Processes, device adaptors and services) runs
//! with a virtual clock. Determinism is a hard requirement — integration
//! tests assert that equal seeds produce identical event traces.
//!
//! There is one event loop (the crate-private `Shard`) and two drivers of
//! it, both behind the [`Runtime`] trait: [`Sim`] runs one shard on the
//! calling thread, [`ShardedSim`] one shard per simulated node, synchronized
//! in conservative rounds that also run on the calling thread.
//!
//! # Examples
//!
//! ```
//! use fractos_sim::{Actor, Ctx, Msg, Runtime, RuntimeExt, Sim, SimDuration};
//!
//! struct Counter(u64);
//! impl Actor for Counter {
//!     fn handle(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {
//!         self.0 += 1;
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! let id = sim.add_actor("counter", Box::new(Counter(0)));
//! sim.post(SimDuration::from_micros(3), id, ());
//! sim.run();
//! sim.with_actor::<Counter, _>(id, |c| assert_eq!(c.0, 1));
//! ```

pub mod engine;
pub mod idmap;
pub mod metrics;
pub mod payload;
pub mod queue;
pub mod rng;
pub mod runtime;
mod shard;
pub mod sharded;
pub mod shared;
pub mod span;
pub mod telemetry;
pub mod time;

pub use engine::{Actor, ActorId, Ctx, Msg, NodeOutage, RunOutcome, Sim, TraceEntry};
pub use idmap::{IdHasher, IdMap, IdSet};
pub use metrics::{quantile_sorted, Metrics, StreamHist};
pub use payload::Payload;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use runtime::{build_runtime, Runtime, RuntimeConfig, RuntimeExt, RuntimeKind};
pub use sharded::ShardedSim;
pub use shared::Shared;
pub use span::{SpanKind, SpanRecord, SpanStore, TraceCtx};
pub use telemetry::{
    sort_canonical_telemetry, TelemetryConfig, TelemetryEvent, TelemetryKind, TelemetryStore,
    TELEMETRY_EXTERNAL,
};
pub use time::{SimDuration, SimTime};
