#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(missing_docs)]
//! Disaggregated device models and FractOS adaptors (§5 of the paper).
//!
//! A device adaptor is an *untrusted* FractOS Process co-located with its
//! device that translates Requests into device operations — the paper's
//! analogue of a LegoOS "monitor" or M³X "ASM". This crate provides:
//!
//! * [`gpu`] — a Tesla-K80-class GPU model (serialized kernel execution,
//!   real byte-level compute via the [`gpu::Kernel`] trait) and its adaptor
//!   exposing context-init / alloc / load / invoke RPCs;
//! * [`nvme`] — a Samsung-970-class NVMe model (logical volumes holding
//!   real bytes, calibrated latency) and its block-device adaptor exposing
//!   create-volume / read / write RPCs with preset volume ids;
//! * [`proto`] — the RPC tag and immediate-encoding conventions.
//!
//! Buffers these adaptors register live at the *device* endpoints, so data
//! moved into GPU memory or NVMe staging crosses the same links GPUDirect
//! RDMA would.

pub mod gpu;
pub mod nvme;
pub mod proto;

pub use gpu::{GpuAdaptor, GpuDevice, GpuParams, Kernel, XorKernel};
pub use nvme::{BlockAdaptor, BlockOp, NvmeDevice, NvmeParams};
