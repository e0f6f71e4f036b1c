//! Smoke tests locking the reproduction harness into `cargo test`: every
//! runner must execute, and the paper's key orderings must hold, on small
//! configurations. (The full sweeps live in the bench targets.)

use fractos_bench::apps::{
    baseline_faceverify, fractos_faceverify, gpu_service_fractos, gpu_service_rcuda,
    pipeline_latency, storage_disagg_baseline, storage_fractos, FvDeploy, PipelineKind,
};
use fractos_bench::micro::{
    delegation_rtt, memcopy_latency, null_op_rtt, raw_loopback_rtt, raw_rdma_write, revoke_latency,
    rpc_latency,
};
use fractos_services::fs::FsMode;

#[test]
fn table3_anchors_hold() {
    assert!((raw_loopback_rtt(false) - 2.42).abs() < 0.15);
    assert!((raw_loopback_rtt(true) - 3.68).abs() < 0.15);
    assert!((null_op_rtt(false) - 3.00).abs() < 0.15);
    assert!((null_op_rtt(true) - 4.50).abs() < 0.25);
}

#[test]
fn fig5_orderings_hold() {
    let raw = raw_rdma_write(4096);
    let cpu = memcopy_latency(4096, false, false);
    let snic = memcopy_latency(4096, true, false);
    let hw = memcopy_latency(4096, false, true);
    assert!(
        raw < hw && hw < cpu && cpu < snic,
        "{raw} {hw} {cpu} {snic}"
    );
    // One-byte anchor: 12.7 µs CPU in the paper.
    let one = memcopy_latency(1, false, false);
    assert!((one - 12.7).abs() < 2.0, "1B copy {one:.1} µs");
}

#[test]
fn fig6_orderings_hold() {
    let c1 = rpc_latency(false, false, 0);
    let c2 = rpc_latency(true, false, 0);
    let s1 = rpc_latency(false, true, 0);
    let s2 = rpc_latency(true, true, 0);
    assert!(c1 < c2 && c1 < s1 && s1 < s2 && c2 < s2);
    // Argument bytes cost what the data plane costs.
    assert!(rpc_latency(true, false, 65536) > c2 + 30.0);
}

#[test]
fn fig7_shapes_hold() {
    let base = delegation_rtt(0, false);
    let with4 = delegation_rtt(4, false);
    let per_cap = (with4 - base) / 4.0;
    assert!((1.5..4.5).contains(&per_cap), "per-cap {per_cap:.2} µs");

    let lin = revoke_latency(16, false, false);
    let shared = revoke_latency(16, true, false);
    assert!(
        lin > shared * 8.0,
        "linear {lin:.1} vs constant {shared:.1}"
    );
}

#[test]
fn fig8_ordering_holds() {
    let star = pipeline_latency(PipelineKind::Star, 3, 16 * 1024);
    let fast = pipeline_latency(PipelineKind::FastStar, 3, 16 * 1024);
    let chain = pipeline_latency(PipelineKind::Chain, 3, 16 * 1024);
    assert!(star > fast && fast > chain, "{star} {fast} {chain}");
}

#[test]
fn fig9_fractos_beats_rcuda_even_on_snic() {
    let (cpu, _) = gpu_service_fractos(4096, 4, 6, 1, false);
    let (snic, _) = gpu_service_fractos(4096, 4, 6, 1, true);
    let (rcuda, _) = gpu_service_rcuda(4096, 4, 6, 1);
    assert!(cpu < snic && snic < rcuda, "{cpu} {snic} {rcuda}");
}

#[test]
fn fig10_shapes_hold() {
    let (fs_r, _) = storage_fractos(FsMode::Mediated, 16 * 1024, 8, 1, false, false, false);
    let (dax_r, _) = storage_fractos(FsMode::Dax, 16 * 1024, 8, 1, false, false, false);
    let (base_r, _) = storage_disagg_baseline(16 * 1024, 8, 1, false, false);
    assert!(dax_r < fs_r, "DAX {dax_r} must beat FS {fs_r}");
    assert!(
        (fs_r - base_r).abs() / fs_r < 0.25,
        "FS {fs_r} ≈ baseline {base_r} for cold random reads"
    );
    // Writes: the baseline's cache absorption wins.
    let (fs_w, _) = storage_fractos(FsMode::Mediated, 16 * 1024, 8, 1, true, false, false);
    let (base_w, _) = storage_disagg_baseline(16 * 1024, 8, 1, true, false);
    assert!(base_w < fs_w, "baseline writes {base_w} beat FS {fs_w}");
}

#[test]
fn headline_shape_holds() {
    let fos = fractos_faceverify(FvDeploy::Cpu, 4096, 8, 6, 1);
    let base = baseline_faceverify(4096, 8, 6, 1);
    assert!(fos.ok && base.ok);
    assert!(fos.lat_mean < base.lat_mean);
    assert!(base.net_bytes as f64 / fos.net_bytes as f64 > 1.7);
}

/// FNV-1a of every number the Figs 8–13 runners return at the smoke sizes
/// (`{:?}` of each `f64`, every `AppResult` field), captured by running this
/// test at commit 11cf53e — before the closed-loop core, the run summary,
/// the single pipeline driver and `Fos::invoke_with` replaced their copies.
/// Re-capture only in a change that means to alter a figure, and say so.
const FIGS_8_TO_13_GOLDEN: u64 = 0x8943_781d_65ba_4fe9;

#[test]
fn figs_8_to_13_match_the_golden_digest() {
    use std::fmt::Write;
    let mut text = String::new();
    for kind in [
        PipelineKind::Star,
        PipelineKind::FastStar,
        PipelineKind::Chain,
    ] {
        let lat = pipeline_latency(kind, 3, 16 * 1024);
        writeln!(text, "fig8 {kind:?} {lat:?}").unwrap();
    }
    for in_flight in [1, 4] {
        for snic in [false, true] {
            let r = gpu_service_fractos(4096, 4, 6, in_flight, snic);
            writeln!(text, "fig9 fractos snic={snic} k={in_flight} {r:?}").unwrap();
        }
        let r = gpu_service_rcuda(4096, 4, 6, in_flight);
        writeln!(text, "fig9 rcuda k={in_flight} {r:?}").unwrap();
    }
    for in_flight in [1, 4] {
        for mode in [FsMode::Mediated, FsMode::Compose, FsMode::Dax] {
            for write in [false, true] {
                let r = storage_fractos(mode, 16 * 1024, 8, in_flight, write, false, false);
                writeln!(text, "fig10 {mode:?} write={write} k={in_flight} {r:?}").unwrap();
            }
        }
        for (write, seq) in [(false, false), (true, false), (false, true)] {
            let r = storage_disagg_baseline(16 * 1024, 8, in_flight, write, seq);
            writeln!(
                text,
                "fig10 base write={write} seq={seq} k={in_flight} {r:?}"
            )
            .unwrap();
        }
    }
    for in_flight in [1, 3] {
        for deploy in [FvDeploy::Cpu, FvDeploy::Snic, FvDeploy::SharedHal] {
            let r = fractos_faceverify(deploy, 4096, 8, 6, in_flight);
            writeln!(text, "fig12 {deploy:?} k={in_flight} {r:?}").unwrap();
        }
    }
    // One in flight only: with more, the baseline's raw actors see equal-time
    // events in an order that differs between the two engines.
    let r = baseline_faceverify(4096, 8, 6, 1);
    writeln!(text, "fig12 base k=1 {r:?}").unwrap();
    assert_eq!(
        fractos_core::fnv1a(text.as_bytes()),
        FIGS_8_TO_13_GOLDEN,
        "a Figs 8-13 runner changed its numbers:\n{text}"
    );
}
