//! Analytic "local" baselines: the same devices attached to the client's
//! own PCIe bus, with no network involved (Fig 9 "Local GPU", Fig 10
//! "Local Baseline").

use fractos_devices::{GpuParams, NvmeParams};
use fractos_net::params::{PCIE_BANDWIDTH, PCIE_HOP};
use fractos_sim::SimDuration;

/// Latency of one face-verification execution on a *local* GPU: PCIe
/// host-to-device copy of queries + references, kernel execution, PCIe
/// copy of the distances back.
pub fn local_gpu_latency(gpu: &GpuParams, batch: u64, img_bytes: u64) -> SimDuration {
    let h2d = SimDuration::from_secs_f64((2 * batch * img_bytes) as f64 / PCIE_BANDWIDTH);
    let d2h = SimDuration::from_secs_f64(batch as f64 / PCIE_BANDWIDTH);
    let kernel = gpu.launch_overhead + gpu.per_item * batch;
    // Two driver submissions over local PCIe.
    PCIE_HOP * 4 + h2d + kernel + d2h
}

/// Steady-state throughput (requests/second) of a local GPU serving
/// back-to-back batches: the kernel is the bottleneck.
pub fn local_gpu_throughput(gpu: &GpuParams, batch: u64) -> f64 {
    let per_req = gpu.launch_overhead + gpu.per_item * batch;
    1.0 / per_req.as_secs_f64()
}

/// Latency of a random read from a *local* NVMe device: device service time
/// plus the PCIe transfer.
pub fn local_block_read_latency(nvme: &NvmeParams, size: u64) -> SimDuration {
    let device = nvme.read_latency + SimDuration::from_secs_f64(size as f64 / nvme.read_bandwidth);
    let pcie = SimDuration::from_secs_f64(size as f64 / PCIE_BANDWIDTH);
    PCIE_HOP * 2 + device + pcie
}

/// Latency of a random write to a local NVMe device (SLC-cache absorbed).
pub fn local_block_write_latency(nvme: &NvmeParams, size: u64) -> SimDuration {
    let device =
        nvme.write_latency + SimDuration::from_secs_f64(size as f64 / nvme.write_bandwidth);
    let pcie = SimDuration::from_secs_f64(size as f64 / PCIE_BANDWIDTH);
    PCIE_HOP * 2 + device + pcie
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_gpu_is_dominated_by_kernel_for_big_batches() {
        let gpu = GpuParams::default();
        let l1 = local_gpu_latency(&gpu, 1, 4096);
        let l64 = local_gpu_latency(&gpu, 64, 4096);
        assert!(l64 > l1 * 20, "batches scale compute: {l1} vs {l64}");
        // Kernel time should dominate transfers for a 64-image batch.
        let kernel = gpu.launch_overhead + gpu.per_item * 64;
        assert!(l64.as_secs_f64() < kernel.as_secs_f64() * 1.5);
    }

    #[test]
    fn local_block_read_is_roughly_device_latency() {
        let nvme = NvmeParams::default();
        let l = local_block_read_latency(&nvme, 4096);
        let us = l.as_micros_f64();
        assert!((68.0..75.0).contains(&us), "local 4 KiB read {us:.1} µs");
        // Writes absorbed by the SLC cache are faster.
        assert!(local_block_write_latency(&nvme, 4096) < l);
    }

    #[test]
    fn local_gpu_throughput_inverse_of_kernel_time() {
        let gpu = GpuParams::default();
        let t = local_gpu_throughput(&gpu, 1024);
        let per_req = (gpu.launch_overhead + gpu.per_item * 1024).as_secs_f64();
        assert!((t * per_req - 1.0).abs() < 1e-9);
    }
}
