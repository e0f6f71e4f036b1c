//! Disaggregated GPU: device model, kernels, and the FractOS adaptor (§5).
//!
//! The adaptor is an ordinary FractOS Process on the GPU node's host CPU
//! that drives the device through its (simulated) driver. It exposes the
//! paper's RPCs — context init, memory allocation, kernel load, kernel
//! invocation — as Requests. GPU buffers live at the GPU endpoint, so data
//! transfers into them traverse network + PCIe like GPUDirect RDMA would.
//!
//! The device *computes for real*: a [`Kernel`] maps input bytes to output
//! bytes, so end-to-end tests verify results, while the timing model
//! (launch overhead + per-item compute, serialized per device like a
//! single-context K80) produces the Fig 9 latency/throughput shapes.

use std::collections::HashMap;
use std::sync::Arc;

use fractos_cap::{Cid, Perms};
use fractos_core::integrity::{extent_sum, flip_bit};
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_net::{DeviceFaultOutcome, DeviceOp, Endpoint};
use fractos_sim::{SimDuration, SimTime};

use crate::proto::{
    imm, imm_at, DevError, TAG_GPU_ALLOC, TAG_GPU_FINI, TAG_GPU_INIT, TAG_GPU_INVOKE, TAG_GPU_LOAD,
};

/// Timing model of the GPU (calibrated to a Tesla-K80-class device).
#[derive(Debug, Clone)]
pub struct GpuParams {
    /// Fixed kernel-launch overhead.
    pub launch_overhead: SimDuration,
    /// Compute time per work item (e.g. one image for face verification).
    pub per_item: SimDuration,
    /// Driver time for a context initialization.
    pub init_time: SimDuration,
    /// Driver time for a memory allocation.
    pub alloc_time: SimDuration,
    /// Driver time for loading a kernel module.
    pub load_time: SimDuration,
}

impl Default for GpuParams {
    fn default() -> Self {
        GpuParams {
            launch_overhead: SimDuration::from_micros(15),
            per_item: SimDuration::from_micros(12),
            init_time: SimDuration::from_micros(500),
            alloc_time: SimDuration::from_micros(20),
            load_time: SimDuration::from_micros(200),
        }
    }
}

/// A GPU kernel: a pure function over bytes plus a work-item count used by
/// the timing model.
pub trait Kernel: 'static {
    /// Executes the kernel over `input` with integer `params`.
    fn run(&self, input: &[u8], params: &[u64]) -> Vec<u8>;

    /// Number of work items for the timing model (defaults to the first
    /// parameter, the paper's batch size).
    fn items(&self, input_len: u64, params: &[u64]) -> u64 {
        let _ = input_len;
        params.first().copied().unwrap_or(1).max(1)
    }
}

/// A trivial kernel that XORs every byte with a constant — used by tests to
/// verify real data flow through the GPU.
#[derive(Debug, Clone, Copy)]
pub struct XorKernel(pub u8);

impl Kernel for XorKernel {
    fn run(&self, input: &[u8], _params: &[u64]) -> Vec<u8> {
        input.iter().map(|b| b ^ self.0).collect()
    }
}

/// The GPU device model: serialized kernel execution with real compute.
#[derive(Debug)]
pub struct GpuDevice {
    params: GpuParams,
    busy_until: SimTime,
    kernels_executed: u64,
}

impl GpuDevice {
    /// A fresh device.
    pub fn new(params: GpuParams) -> Self {
        GpuDevice {
            params,
            busy_until: SimTime::ZERO,
            kernels_executed: 0,
        }
    }

    /// The timing parameters.
    pub fn params(&self) -> &GpuParams {
        &self.params
    }

    /// Total kernels executed (tests and benches).
    pub fn kernels_executed(&self) -> u64 {
        self.kernels_executed
    }

    /// Schedules a kernel of `items` work items submitted at `now`; returns
    /// the delay until completion. Execution is serialized on the device
    /// (single hardware queue — at high in-flight counts the GPU becomes
    /// the bottleneck, as in Fig 9 right). `None` when the kernel would end
    /// past the virtual timeline; the device is then left as it was.
    pub fn execute(&mut self, now: SimTime, items: u64) -> Option<SimDuration> {
        let exec = self
            .params
            .per_item
            .checked_mul(items)?
            .checked_add(self.params.launch_overhead)?;
        let done = self.busy_until.max(now).checked_add(exec)?;
        self.busy_until = done;
        self.kernels_executed += 1;
        Some(done.duration_since(now))
    }
}

struct GpuContext {
    /// Buffers allocated under this context: `(addr, size, cid)`.
    allocs: Vec<(u64, u64, Cid)>,
}

/// The GPU adaptor Process (§5): exposes the device as FractOS Requests.
pub struct GpuAdaptor {
    device: GpuDevice,
    gpu_endpoint: Endpoint,
    kernels: HashMap<u64, Arc<dyn Kernel>>,
    contexts: HashMap<u64, GpuContext>,
    next_ctx: u64,
    /// Registry key prefix under which the init Request is published
    /// (`"{prefix}.init"`).
    key_prefix: String,
    /// Completed kernel invocations (tests).
    pub invocations: u64,
    /// Contexts torn down after their client vanished (monitor-driven).
    pub reaped_contexts: u64,
    /// Control-plane setup operations (monitor arms, registry publishes)
    /// that failed. Surfaced as a metric instead of a debug-only assert
    /// so release builds do not silently degrade reaping/publication.
    pub setup_failures: u64,
}

impl GpuAdaptor {
    /// Creates an adaptor for a GPU at `gpu_endpoint`, publishing under
    /// `key_prefix` (e.g. `"gpu"` → `"gpu.init"`).
    pub fn new(params: GpuParams, gpu_endpoint: Endpoint, key_prefix: &str) -> Self {
        GpuAdaptor {
            device: GpuDevice::new(params),
            gpu_endpoint,
            kernels: HashMap::new(),
            contexts: HashMap::new(),
            next_ctx: 1,
            key_prefix: key_prefix.to_string(),
            invocations: 0,
            reaped_contexts: 0,
            setup_failures: 0,
        }
    }

    /// Registers a kernel under an id (simulating an installed module that
    /// `TAG_GPU_LOAD` makes invocable).
    pub fn with_kernel(mut self, id: u64, kernel: impl Kernel) -> Self {
        self.kernels.insert(id, Arc::new(kernel));
        self
    }

    /// The device model (tests/benches).
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Answers `cont` without capabilities: the setup step it asked for
    /// failed or named an unknown context or kernel.
    fn refuse(&mut self, cont: Cid, fos: &Fos<Self>) {
        self.setup_failures += 1;
        fos.reply_via(cont, vec![], vec![]);
    }

    fn on_init(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let Some(&cont) = req.caps.first() else {
            return;
        };
        let ctx_id = self.next_ctx;
        self.next_ctx += 1;
        self.contexts
            .insert(ctx_id, GpuContext { allocs: Vec::new() });
        let init_time = self.device.params.init_time;
        fos.sleep_dev(init_time, "gpu.init", move |_s: &mut Self, fos| {
            // Mint the per-context alloc and load Requests; their context id
            // is preset and immutable (refinement security, §3.4).
            let request = |tag| Syscall::new_request(tag, vec![imm(ctx_id)]);
            let requests = vec![request(TAG_GPU_ALLOC), request(TAG_GPU_LOAD)];
            fos.chain(requests, move |s: &mut Self, res, fos| {
                let Ok(&[alloc_req, load_req]) = res.as_deref() else {
                    return s.refuse(cont, fos);
                };
                // Watch the alloc Request's delegations: when the client
                // revokes (or dies), reap the context.
                let monitor = Syscall::MonitorDelegate {
                    cid: alloc_req,
                    callback_id: ctx_id,
                };
                fos.call(monitor, move |s: &mut Self, res, fos| {
                    if !res.is_ok() {
                        // Reaping for this context is degraded; the context
                        // still works.
                        s.setup_failures += 1;
                    }
                    fos.reply_via(cont, vec![], vec![alloc_req, load_req]);
                });
            });
        });
    }

    fn on_alloc(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let (Some(ctx_id), Some(size), Some(&cont)) =
            (imm_at(&req.imms, 0), imm_at(&req.imms, 1), req.caps.first())
        else {
            return;
        };
        if !self.contexts.contains_key(&ctx_id) {
            return self.refuse(cont, fos);
        }
        let alloc_time = self.device.params.alloc_time;
        let gpu_ep = self.gpu_endpoint;
        fos.sleep_dev(alloc_time, "gpu.alloc", move |_s: &mut Self, fos| {
            let addr = fos.mem_alloc_at(size, gpu_ep);
            fos.memory_create(addr, size, Perms::RW, move |s: &mut Self, res, fos| {
                let SyscallResult::NewCid(mem_cid) = res else {
                    return s.refuse(cont, fos);
                };
                if let Some(ctx) = s.contexts.get_mut(&ctx_id) {
                    ctx.allocs.push((addr, size, mem_cid));
                }
                fos.reply_via(cont, vec![], vec![mem_cid]);
            });
        });
    }

    fn on_load(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let (Some(ctx_id), Some(kernel_id), Some(&cont)) =
            (imm_at(&req.imms, 0), imm_at(&req.imms, 1), req.caps.first())
        else {
            return;
        };
        if !self.contexts.contains_key(&ctx_id) || !self.kernels.contains_key(&kernel_id) {
            return self.refuse(cont, fos);
        }
        let load_time = self.device.params.load_time;
        fos.sleep_dev(load_time, "gpu.load", move |_s: &mut Self, fos| {
            let imms = vec![imm(ctx_id), imm(kernel_id)];
            fos.request_create_new(TAG_GPU_INVOKE, imms, vec![], move |s, res, fos| {
                let SyscallResult::NewCid(invoke_req) = res else {
                    return s.refuse(cont, fos);
                };
                fos.reply_via(cont, vec![], vec![invoke_req]);
            });
        });
    }

    fn on_invoke(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        // Imms: [ctx (preset), kernel (preset), params... , inline blob?];
        // caps: [input, output, success, error]. Eight-byte immediates are
        // integer kernel parameters; any other immediate is inline input
        // data prepended to the buffer contents ("all other immediate
        // arguments are forwarded to the GPU kernel itself", §5).
        let [input, output, success, error] = req.caps[..] else {
            // Wrong capability count: no identifiable error continuation.
            return;
        };
        let (Some(_ctx), Some(kernel_id)) = (imm_at(&req.imms, 0), imm_at(&req.imms, 1)) else {
            fos.reply_via(error, vec![DevError::BadRequest.imm()], vec![]);
            return;
        };
        let params: Vec<u64> = (2..req.imms.len())
            .filter_map(|i| imm_at(&req.imms, i))
            .collect();
        let inline: Vec<u8> = req.imms[2..]
            .iter()
            .filter(|b| b.len() != 8)
            .flat_map(|b| b.iter().copied())
            .collect();
        let Some(kernel) = self.kernels.get(&kernel_id).cloned() else {
            fos.reply_via(error, vec![DevError::NoKernel.imm()], vec![]);
            return;
        };
        // One fault-plan draw per launch, in the adaptor's serial op
        // order (replay contract).
        let fault = fos.device_fault(self.gpu_endpoint, DeviceOp::GpuLaunch);
        fos.telemetry_count("dev.gpu.launches", 1);
        if matches!(fault, DeviceFaultOutcome::Fail) {
            // Launch failure: the driver reports it after the launch
            // overhead; nothing executes.
            let overhead = self.device.params.launch_overhead;
            fos.sleep_dev(overhead, "gpu.launch", move |_s: &mut Self, fos| {
                fos.reply_via(error, vec![DevError::Launch.imm()], vec![]);
            });
            return;
        }
        // Resolve both buffers (they are in this adaptor's device memory),
        // then compute.
        fos.memory_stat(input, move |_s: &mut Self, res, fos| {
            let SyscallResult::Stat {
                addr: in_addr,
                off: in_off,
                size: in_size,
            } = res
            else {
                fos.reply_via(error, vec![DevError::BadBuffer.imm()], vec![]);
                return;
            };
            fos.memory_stat(output, move |s: &mut Self, res, fos| {
                let SyscallResult::Stat {
                    addr: out_addr,
                    off: out_off,
                    size: out_size,
                } = res
                else {
                    fos.reply_via(error, vec![DevError::BadBuffer.imm()], vec![]);
                    return;
                };
                // Launch: device executes serially; real bytes compute.
                let buffer = match fos.mem_read(in_addr, in_off, in_size) {
                    Ok(d) => d,
                    Err(_) => return fos.reply_via(error, vec![DevError::Bounds.imm()], vec![]),
                };
                let mut data = inline;
                data.extend_from_slice(&buffer);
                let items = kernel.items(data.len() as u64, &params);
                let Some(mut delay) = s.device.execute(fos.now(), items) else {
                    fos.reply_via(error, vec![DevError::TooLarge.imm()], vec![]);
                    return;
                };
                if let DeviceFaultOutcome::Spike { factor } = fault {
                    delay = SimDuration::from_secs_f64(delay.as_secs_f64() * factor);
                }
                fos.sleep_dev(delay, "gpu.exec", move |s: &mut Self, fos| {
                    let mut out = kernel.run(&data, &params);
                    out.truncate(out_size as usize);
                    let n = out.len() as u64;
                    // Producer-side envelope over the computed output,
                    // taken only when an ECC escape was drawn: after any
                    // other draw the delivered bytes are the computed ones
                    // and the read-back below could not fail.
                    let sum = match fault {
                        DeviceFaultOutcome::Corrupt { bit } => {
                            let sum = extent_sum(&out);
                            // ECC-escape: one flipped bit in the result.
                            flip_bit(&mut out, bit);
                            Some(sum)
                        }
                        _ => None,
                    };
                    if fos.mem_write(out_addr, out_off, &out).is_err() {
                        fos.reply_via(error, vec![DevError::Bounds.imm()], vec![]);
                        return;
                    }
                    // Verify the delivered output against the envelope
                    // before signalling success; a mismatch is a typed,
                    // recoverable error (relaunch re-stamps it). The
                    // corrupt bytes stay in the buffer — exactly what an
                    // unchecked consumer would read.
                    let intact = sum.is_none_or(|sum| {
                        fos.mem_read(out_addr, out_off, n)
                            .is_ok_and(|back| extent_sum(&back) == sum)
                    });
                    if !intact {
                        fos.reply_via(error, vec![DevError::Integrity.imm()], vec![]);
                        return;
                    }
                    s.invocations += 1;
                    fos.reply_via(success, vec![imm(n)], vec![]);
                });
            });
        });
    }

    fn on_fini(&mut self, req: IncomingRequest, _fos: &Fos<Self>) {
        if let Some(ctx_id) = imm_at(&req.imms, 0) {
            self.contexts.remove(&ctx_id);
        }
    }
}

impl Service for GpuAdaptor {
    fn on_start(&mut self, fos: &Fos<Self>) {
        let key = format!("{}.init", self.key_prefix);
        fos.publish(&key, TAG_GPU_INIT, vec![], |s: &mut Self, res, _| {
            if res.is_err() {
                s.setup_failures += 1;
            }
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        match req.tag {
            TAG_GPU_INIT => self.on_init(req, fos),
            TAG_GPU_ALLOC => self.on_alloc(req, fos),
            TAG_GPU_LOAD => self.on_load(req, fos),
            TAG_GPU_INVOKE => self.on_invoke(req, fos),
            TAG_GPU_FINI => self.on_fini(req, fos),
            _ => {}
        }
    }

    fn on_monitor(&mut self, cb: MonitorCb, _fos: &Fos<Self>) {
        // The per-context alloc Request drained: every client handle is
        // gone, so free the context's resources (§3.6 resource management).
        if let MonitorCb::DelegateDrained { callback_id } = cb {
            if self.contexts.remove(&callback_id).is_some() {
                self.reaped_contexts += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_serializes_kernels() {
        let mut dev = GpuDevice::new(GpuParams::default());
        let t0 = SimTime::ZERO;
        let d1 = dev.execute(t0, 10).unwrap();
        let d2 = dev.execute(t0, 10).unwrap();
        // 15 + 10*12 = 135 µs each; second queues behind the first.
        assert_eq!(d1.as_micros_f64(), 135.0);
        assert_eq!(d2.as_micros_f64(), 270.0);
        assert_eq!(dev.kernels_executed(), 2);
    }

    #[test]
    fn device_idles_between_batches() {
        let mut dev = GpuDevice::new(GpuParams::default());
        dev.execute(SimTime::ZERO, 1);
        // Submitting long after completion pays no queueing.
        let d = dev.execute(SimTime::from_nanos(1_000_000_000), 1).unwrap();
        assert_eq!(d.as_micros_f64(), 27.0);
    }

    #[test]
    fn device_refuses_a_kernel_past_the_timeline() {
        let mut dev = GpuDevice::new(GpuParams::default());
        assert_eq!(dev.execute(SimTime::ZERO, u64::MAX), None);
        assert_eq!(dev.kernels_executed(), 0);
        // The refused launch left the queue empty.
        let d = dev.execute(SimTime::ZERO, 1).unwrap();
        assert_eq!(d.as_micros_f64(), 27.0);
    }

    #[test]
    fn xor_kernel_computes() {
        let k = XorKernel(0xFF);
        assert_eq!(k.run(&[0x00, 0x0F], &[]), vec![0xFF, 0xF0]);
        assert_eq!(k.items(4096, &[16]), 16);
        assert_eq!(k.items(4096, &[]), 1);
    }
}
