//! Fig 9: the disaggregated GPU service running the face-verification
//! kernel, vs the rCUDA remoting baseline and a local GPU.
//!
//! Left: single-request latency vs image batch size. Right: throughput
//! with a fixed batch vs in-flight requests. Paper findings: FractOS is
//! substantially faster than rCUDA (one Request round trip vs many driver
//! calls), and reaches near-local throughput with >1 request in flight,
//! even on sNICs, until the GPU itself saturates.

use fractos_baselines::local_gpu_latency;
use fractos_bench::apps::{gpu_service_fractos, gpu_service_rcuda};
use fractos_bench::report::{us, Table};
use fractos_devices::GpuParams;

const IMG: u64 = 4096;
const REQS: u64 = 12;

fn main() {
    let gpu = GpuParams::default();

    let mut t = Table::new(
        "Fig 9 (left): kernel-execution latency vs batch size (usec)",
        &["batch", "FractOS@CPU", "FractOS@sNIC", "rCUDA", "local GPU"],
    );
    for &batch in &[1u64, 4, 16, 64, 256] {
        let (fos_cpu, _) = gpu_service_fractos(IMG, batch, REQS, 1, false);
        let (fos_snic, _) = gpu_service_fractos(IMG, batch, REQS, 1, true);
        let (rcuda, _) = gpu_service_rcuda(IMG, batch, REQS, 1);
        let local = local_gpu_latency(&gpu, batch, IMG).as_micros_f64();
        t.row(&[
            batch.to_string(),
            us(fos_cpu),
            us(fos_snic),
            us(rcuda),
            us(local),
        ]);
    }
    t.print();

    let batch = 64u64;
    let mut t = Table::new(
        "Fig 9 (right): throughput vs in-flight requests (req/s, batch 64)",
        &[
            "in-flight",
            "FractOS@CPU",
            "FractOS@sNIC",
            "rCUDA",
            "local bound",
        ],
    );
    let local_bound = fractos_baselines::local_gpu_throughput(&gpu, batch);
    for &inflight in &[1u64, 2, 4, 8] {
        let (_, fos_cpu) = gpu_service_fractos(IMG, batch, REQS * 2, inflight, false);
        let (_, fos_snic) = gpu_service_fractos(IMG, batch, REQS * 2, inflight, true);
        let (_, rcuda) = gpu_service_rcuda(IMG, batch, REQS * 2, inflight);
        t.row(&[
            inflight.to_string(),
            format!("{fos_cpu:.0}"),
            format!("{fos_snic:.0}"),
            format!("{rcuda:.0}"),
            format!("{local_bound:.0}"),
        ]);
    }
    t.print();
    println!("  (paper: FractOS beats rCUDA at all batch sizes, even on sNICs, and");
    println!("   reaches near-local throughput with more than one request in flight)");
}
