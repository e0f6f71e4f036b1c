#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Comparator systems for the FractOS evaluation (§6).
//!
//! The paper measures FractOS against the disaggregation technologies that
//! exist today. This crate implements them:
//!
//! * [`raw`] — infrastructure for non-FractOS actors plus the
//!   `ibv_rc_pingpong` loopback baseline (Table 3);
//! * [`closed_loop`] — the closed-loop load-generator core (N requests, k
//!   in flight) every measured client embeds, here and in `fractos-bench`;
//! * [`rcuda`] — rCUDA-style transparent GPU remoting: every interposed
//!   CUDA driver call is one network round trip, and the call sequence of
//!   one kernel execution is stated once (Figs 9, 12, 13);
//! * [`storage`] — NVMe-over-Fabrics target, Linux-style page cache, and an
//!   NFS/ext4 file server (Figs 10–13);
//! * [`faceverify`] — the §6.5 baseline application: frontend + NFS +
//!   NVMe-oF + rCUDA in a star topology;
//! * [`pipeline`] — the one centralized driver of the composition
//!   experiment (Fig 8), star or fast-star by its data path, run against
//!   the same FractOS pipeline stages;
//! * [`local`] — analytic local-device baselines (Figs 9, 10).
//!
//! The raw baselines deliberately do *not* use FractOS: they are plain
//! simulation actors on the same fabric, paying their own protocol costs.

use fractos_net::{NetParams, Topology};
use fractos_sim::{runtime_from_env, Runtime, RuntimeConfig};

/// Builds a paper-testbed-shaped runtime on the backend selected by the
/// `FRACTOS_RUNTIME` environment variable (single-threaded when unset).
///
/// The lookahead window is derived from the paper fabric's minimum
/// inter-node latency, so the sharded backend is safe for any workload on
/// [`Topology::paper_testbed`].
pub fn paper_runtime(seed: u64) -> Box<dyn Runtime> {
    let topology = Topology::paper_testbed();
    let params = NetParams::paper();
    let config = RuntimeConfig::new(seed, topology.len(), params.conservative_lookahead());
    runtime_from_env(&config)
}

pub mod closed_loop;
pub mod faceverify;
pub mod local;
pub mod pipeline;
pub mod raw;
pub mod rcuda;
pub mod storage;

pub use closed_loop::ClosedLoop;
pub use faceverify::{BaselineClient, BaselineFrontend, VerifyReply, VerifyReq};
pub use local::{
    local_block_read_latency, local_block_write_latency, local_gpu_latency, local_gpu_throughput,
};
pub use pipeline::{CentralDriver, DataPath};
pub use raw::{Peer, PingPongClient, PingPongServer};
pub use rcuda::{RcudaClient, RcudaServer};
pub use storage::{NfsServer, NvmeOfTarget, PageCache};
