//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Data-path composition** — the storage stack's three modes
//!    (mediated / §3.4 composed / DAX) isolate how much of the win comes
//!    from moving data directly vs also moving *control* out of the FS.
//! 2. **Third-party RDMA ("HW copies")** — the §7 hardware offload applied
//!    to the whole application, quantifying what the paper's envisioned
//!    NIC support would buy end to end.
//! 3. **Double buffering** — `memory_copy` chunk-size sweep (the prototype
//!    picked 16 KiB; §6.1).
//! 4. **Congestion window** — the §4 back-pressure mechanism's effect on a
//!    syscall-intensive workload.

use fractos_bench::apps::{fractos_faceverify, fractos_faceverify_with, storage_fractos, FvDeploy};
use fractos_bench::report::{ratio, us, Table};
use fractos_bench::scripts::Script;
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_core::CtrlPlacement;
use fractos_services::fs::FsMode;

fn ablate_composition() {
    let mut t = Table::new(
        "Ablation 1: storage data-path composition (random-read latency, usec)",
        &[
            "io size",
            "mediated",
            "composed (§3.4)",
            "DAX",
            "mediated/DAX",
        ],
    );
    for &io in &[4u64 * 1024, 64 * 1024, 1024 * 1024] {
        let (med, _) = storage_fractos(FsMode::Mediated, io, 16, 1, false, false, false);
        let (comp, _) = storage_fractos(FsMode::Compose, io, 16, 1, false, false, false);
        let (dax, _) = storage_fractos(FsMode::Dax, io, 16, 1, false, false, false);
        t.row(&[
            format!("{}KiB", io / 1024),
            us(med),
            us(comp),
            us(dax),
            ratio(med, dax),
        ]);
    }
    t.print();
    println!("  Composition removes the FS from the data path (the big win);");
    println!("  DAX additionally removes it from the per-op control path.");
}

fn ablate_hw_offload() {
    let mut t = Table::new(
        "Ablation 2: third-party RDMA offload (face verification, usec)",
        &["batch", "bounce buffers", "HW copies (§7)", "speedup"],
    );
    for &batch in &[1u64, 8, 64] {
        let base = fractos_faceverify(FvDeploy::Cpu, 4096, batch, 10, 1);
        let hw = fractos_faceverify_with(FvDeploy::Cpu, 4096, batch, 10, 1, |p| {
            p.third_party_rdma = true;
        });
        assert!(base.ok && hw.ok);
        t.row(&[
            batch.to_string(),
            us(base.lat_mean),
            us(hw.lat_mean),
            ratio(base.lat_mean, hw.lat_mean),
        ]);
    }
    t.print();
    println!("  The offload the paper proposes (§7) removes both bounce-buffer");
    println!("  traversals from every memory_copy.");
}

fn ablate_double_buffering() {
    let mut t = Table::new(
        "Ablation 3: memory_copy chunk size (256 KiB cross-node copy, usec)",
        &["chunk", "latency", "goodput MB/s"],
    );
    let size = 256 * 1024u64;
    for &chunk in &[4u64 * 1024, 16 * 1024, 64 * 1024, 256 * 1024] {
        // Measured through the app-independent micro runner with a tweaked
        // chunk size.
        let lat = memcopy_with_chunk(size, chunk);
        t.row(&[
            format!("{}KiB", chunk / 1024),
            us(lat),
            format!("{:.0}", size as f64 / (lat / 1e6) / 1e6),
        ]);
    }
    t.print();
    println!("  Small chunks pipeline better but pay per-chunk processing; the");
    println!("  prototype's 16 KiB sits at the knee (§6.1).");
}

/// One 256 KiB copy with an overridden double-buffer chunk.
fn memcopy_with_chunk(size: u64, chunk: u64) -> f64 {
    use fractos_bench::scripts::mean_gap_us;
    use fractos_cap::Perms;

    let mut tb = Testbed::paper(4);
    {
        let mut fabric = tb.fabric.borrow_mut();
        let p = fabric.params_mut();
        p.double_buffer_chunk = chunk;
        p.double_buffer_threshold = chunk.min(16 * 1024);
    }
    let ctrls = tb.controllers_per_node(false);
    let dst = tb.add_process(
        "dst",
        cpu(2),
        ctrls[2],
        Script::new(move |_s, fos| {
            fos.memory_create_new(size, Perms::RW, |_s, _a, cid, fos| {
                fos.kv_put("dst", cid.unwrap(), |_, res, _| assert!(res.is_ok()));
            });
        }),
    );
    tb.start_process(dst);
    tb.run();
    let src = tb.add_process(
        "src",
        cpu(0),
        ctrls[0],
        Script::new(move |_s, fos| {
            fos.memory_create_new(size, Perms::RW, move |_s, _a, cid, fos| {
                let src = cid.unwrap();
                fos.kv_get("dst", move |s: &mut Script, res, fos| {
                    let dst = res.cid();
                    s.stamps.push(fos.now());
                    fn next(
                        s: &mut Script,
                        src: fractos_cap::Cid,
                        dst: fractos_cap::Cid,
                        fos: &Fos<Script>,
                    ) {
                        if s.stamps.len() > 8 {
                            return;
                        }
                        fos.memory_copy(src, dst, move |s: &mut Script, res, fos| {
                            assert_eq!(res, SyscallResult::Ok);
                            s.stamps.push(fos.now());
                            next(s, src, dst, fos);
                        });
                    }
                    next(s, src, dst, fos);
                });
            });
        }),
    );
    tb.start_process(src);
    tb.run();
    tb.with_service::<Script, _>(src, |s| mean_gap_us(&s.stamps))
}

fn ablate_congestion_window() {
    let mut t = Table::new(
        "Ablation 4: congestion window (200 null syscalls, wall-clock usec)",
        &["window", "wall time", "effective rate (op/us)"],
    );
    for &window in &[1u32, 4, 16, 64] {
        let wall = null_burst(window);
        t.row(&[window.to_string(), us(wall), format!("{:.2}", 200.0 / wall)]);
    }
    t.print();
    println!("  The §4 back-pressure mechanism bounds outstanding responses;");
    println!("  wider windows pipeline the queue-pair round trips.");
}

fn null_burst(window: u32) -> f64 {
    let mut tb = Testbed::paper(5);
    let ctrl = tb.add_controller(CtrlPlacement::HostCpu(NodeId(0)));
    let p = tb.add_process(
        "burst",
        cpu(0),
        ctrl,
        Script::new(move |_s, fos| {
            fos.set_window(window);
            for _ in 0..200 {
                fos.call(Syscall::Null, |s: &mut Script, _res, fos| {
                    s.stamps.push(fos.now());
                });
            }
        }),
    );
    tb.start_process(p);
    let t0 = tb.now();
    tb.run();
    let wall = tb.now().duration_since(t0).as_micros_f64();
    tb.with_service::<Script, _>(p, |s| assert_eq!(s.stamps.len(), 200));
    wall
}

fn ablate_poll_vs_interrupt() {
    let mut t = Table::new(
        "Ablation 5: polling vs interrupt-driven Controllers (usec)",
        &["workload", "polling", "interrupts", "penalty"],
    );
    // Sparse workload: widely spaced requests always wake a sleeping
    // Controller.
    let poll = fractos_faceverify(FvDeploy::Cpu, 4096, 4, 6, 1);
    let intr = fractos_faceverify_with(FvDeploy::Cpu, 4096, 4, 6, 1, |p| {
        p.controller_interrupts = true;
    });
    assert!(poll.ok && intr.ok);
    t.row(&[
        "face verify, idle arrivals".into(),
        us(poll.lat_mean),
        us(intr.lat_mean),
        ratio(intr.lat_mean, poll.lat_mean),
    ]);
    // Dense workload: pipelining keeps the Controllers polling.
    let poll = fractos_faceverify(FvDeploy::Cpu, 4096, 4, 24, 4);
    let intr = fractos_faceverify_with(FvDeploy::Cpu, 4096, 4, 24, 4, |p| {
        p.controller_interrupts = true;
    });
    t.row(&[
        "face verify, 4 in flight".into(),
        us(poll.lat_mean),
        us(intr.lat_mean),
        ratio(intr.lat_mean, poll.lat_mean),
    ]);
    t.print();
    println!("  The §4 trade-off: interrupts free the cores but tax sparse traffic;");
    println!("  under load the Controllers never sleep and the penalty vanishes.");
}

fn report_resource_footprint() {
    use fractos_core::ControllerActor;
    use fractos_services::deploy::deploy_faceverify;
    use fractos_services::FvConfig;

    let mut tb = Testbed::paper(91);
    let ctrls = tb.controllers_per_node(false);
    deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
    let mut t = Table::new(
        "Controller memory footprint (§4 accounting, face-verify deployment)",
        &["controller", "managed procs", "footprint MB"],
    );
    for (i, &addr) in ctrls.iter().enumerate() {
        let bytes = tb.with_controller(addr, |c: &mut ControllerActor| c.memory_footprint());
        let nprocs = tb.dir.borrow().procs_of(addr).len();
        t.row(&[
            format!("ctrl{i}"),
            nprocs.to_string(),
            format!("{:.0}", bytes as f64 / 1e6),
        ]);
    }
    t.print();
    println!("  (§4: 64 MB of RoCE buffers per Process and per peer; 24 B per");
    println!("   revocation-tree object — 'the SmartNIC we use has 16 GB')");
}

fn main() {
    ablate_composition();
    ablate_hw_offload();
    ablate_double_buffering();
    ablate_congestion_window();
    ablate_poll_vs_interrupt();
    report_resource_footprint();
}
