#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(missing_docs)]
//! FractOS services and applications (§5 of the paper).
//!
//! * [`fs`] — the multi-tier storage stack: an extent-based file system
//!   over the block-device adaptor, in three data-path modes (mediated,
//!   §3.4 composition, DAX);
//! * [`matcher`] — the face-verification computation (real embeddings over
//!   real bytes) and its GPU kernel;
//! * [`faceverify`] — the end-to-end application: frontend + load client,
//!   with the storage→GPU→frontend chained control flow of §6.5;
//! * [`pipeline`] — the streaming multi-stage pipeline of the composition
//!   experiment (Fig 8), including the fully distributed chain driver;
//! * [`deploy`] — testbed assembly helpers for the paper's 3-node layout;
//! * [`replicated`] — replicated service instances with directory-routed
//!   failover, used by the crash-recovery experiments (§3.6);
//! * [`closed_loop`] — the closed-loop load-generator core (N requests, k
//!   in flight) every measured client embeds, here, in `fractos-bench` and
//!   in `fractos-baselines`.

pub mod closed_loop;
pub mod deploy;
pub mod faceverify;
pub mod fs;
pub mod matcher;
pub mod pipeline;
pub mod replicated;

pub use closed_loop::ClosedLoop;
pub use deploy::{deploy_faceverify, DbLoader, FvDeployment};
pub use faceverify::{FaceVerifyFrontend, FvClient, FvConfig, FvSample};
pub use fs::{FsMode, FsService};
pub use matcher::{embed, matches, synth_face, FaceVerifyKernel, FACE_VERIFY_KERNEL};
pub use pipeline::{ChainDriver, ForkJoinDriver, PipelineStage};
pub use replicated::{
    deploy_replicated, FailoverClient, ReplicaWorker, ReplicatedDeployment, RequestOutcome,
};
