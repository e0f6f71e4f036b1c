#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Reproduction harness for every table and figure of the paper's §6.
//!
//! Each bench target under `benches/` regenerates one artifact:
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table3_null_op` | Table 3: null-op latency, CPU vs sNIC |
//! | `fig5_memory_copy` | Fig 5: `memory_copy` throughput vs size |
//! | `fig6_request_invoke` | Fig 6: Request-invocation RPC latency |
//! | `fig7_capability` | Fig 7: delegation and revocation costs |
//! | `fig8_pipeline` | Fig 8: star / fast-star / chain pipelines |
//! | `fig9_gpu_service` | Fig 9: remote-GPU latency and throughput |
//! | `fig10_storage_latency` | Fig 10: storage read/write latency |
//! | `fig11_storage_throughput` | Fig 11: storage throughput |
//! | `fig12_faceverify_latency` | Fig 12: end-to-end latency |
//! | `fig13_faceverify_throughput` | Fig 13: end-to-end throughput |
//! | `fig2_message_complexity` | Fig 2 / §2.1: message complexity |
//! | `headline_claims` | §1/§6: 47% faster, 3× less traffic |
//! | `ablations` | design-choice ablations (composition, HW copies, windows) |
//! | `recovery` | §3.6: crash-recovery MTTR attribution |
//!
//! Run all with `cargo bench --workspace`, or one with
//! `cargo bench -p fractos-bench --bench <target>`. Wall-clock speed is
//! measured by the `perf/` benchmark package, not here.
//!
//! Every closed-loop client in [`apps`] (GPU, rCUDA, storage), both
//! face-verification clients and the baselines embed the same
//! [`fractos_services::closed_loop::ClosedLoop`] core — N requests, k in
//! flight — and `apps` turns its `(issued, completed)` pairs into every
//! reported mean and throughput in one place, so two bars of a figure
//! differ only in the system under test. Percentiles come from
//! `fractos_obs::HistSummary`.

pub mod apps;
pub mod micro;
pub mod report;
pub mod scripts;
