//! Fig 10: latency of random reads (left) and random writes (right)
//! through the storage stack, vs I/O size.
//!
//! Systems: the FractOS FS (mediated data path), its DAX composition, the
//! disaggregated baseline (kernel FS + page cache over NVMe-oF), and a
//! local block device. Paper findings: FS ≈ baseline for random reads
//! (both move data twice; the cache is cold for random access); baseline
//! wins random writes (page cache absorbs them; the FractOS FS has no
//! cache); DAX cuts network transfers 2× — from 1.1× at 4 KiB (NVMe
//! latency dominates) to 1.3× at larger sizes.

use fractos_baselines::{local_block_read_latency, local_block_write_latency};
use fractos_bench::apps::{storage_disagg_baseline, storage_fractos};
use fractos_bench::report::{us, Table};
use fractos_devices::NvmeParams;
use fractos_services::fs::FsMode;

const COUNT: u64 = 24;

fn main() {
    let nvme = NvmeParams::default();
    for write in [false, true] {
        let which = if write { "writes" } else { "reads" };
        let mut t = Table::new(
            &format!("Fig 10: random {which} latency (usec)"),
            &["io size", "FS", "DAX", "Disagg. baseline", "Local"],
        );
        for &io in &[4u64 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024] {
            let (fs, _) = storage_fractos(FsMode::Mediated, io, COUNT, 1, write, false, false);
            let (dax, _) = storage_fractos(FsMode::Dax, io, COUNT, 1, write, false, false);
            let (base, _) = storage_disagg_baseline(io, COUNT, 1, write, false);
            let local = if write {
                local_block_write_latency(&nvme, io)
            } else {
                local_block_read_latency(&nvme, io)
            }
            .as_micros_f64();
            t.row(&[
                format!("{}KiB", io / 1024),
                us(fs),
                us(dax),
                us(base),
                us(local),
            ]);
        }
        t.print();
    }
    println!("  (paper: FS ~ baseline for random reads; baseline's page cache absorbs");
    println!("   writes; DAX gains 1.1x at 4 KiB up to ~1.3x at larger sizes)");
}
