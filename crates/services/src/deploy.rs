//! Cluster assembly helpers for the paper's workloads.
//!
//! These wire the storage stack, GPU service and face-verification
//! application onto a [`Testbed`] in the paper's deployment (Table 2):
//! node 0 = storage (NVMe + FS), node 1 = GPU, node 2 = frontend/clients.

#![expect(
    clippy::expect_used,
    reason = "app state machine: phase invariant, must abort the experiment"
)]

use fractos_cap::{Cid, ControllerAddr, Perms};
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_devices::proto::{imm, imm_at};
use fractos_devices::{BlockAdaptor, GpuAdaptor, GpuParams, NvmeParams};

use crate::faceverify::{FaceVerifyFrontend, FvConfig, DB_READ_KEY, GPU_KEY, OUT_WRITE_KEY};
use crate::fs::{FsMode, FsService};
use crate::matcher::{synth_faces_into, FaceVerifyKernel, FACE_VERIFY_KERNEL};

/// Loads the reference-photo database through the storage stack and
/// publishes the file's read Request under a key.
///
/// It creates the file via the FS (which must run in [`FsMode::Dax`] so the
/// reply carries the block-device Requests), writes `count` synthetic faces
/// of `img_bytes` each through the write Request, then publishes the read
/// Request under `publish_key`.
pub struct DbLoader {
    /// Number of identities.
    pub count: u64,
    /// Bytes per image.
    pub img_bytes: u64,
    /// Key the read Request is published under.
    pub publish_key: String,
    /// FS registry prefix.
    pub fs_key: String,
    read_req: Option<Cid>,
    write_req: Option<Cid>,
    /// Set once the database is on disk and published.
    pub loaded: bool,
}

impl DbLoader {
    /// Creates a loader for `count` identities of `img_bytes` each.
    pub fn new(count: u64, img_bytes: u64, publish_key: &str, fs_key: &str) -> Self {
        assert!(
            count * img_bytes <= crate::fs::EXTENT_SIZE,
            "database must fit one extent"
        );
        DbLoader {
            count,
            img_bytes,
            publish_key: publish_key.to_string(),
            fs_key: fs_key.to_string(),
            read_req: None,
            write_req: None,
            loaded: false,
        }
    }
}

/// Loader reply tag.
const TAG_DB_BOOT: u64 = 0x0600;

impl Service for DbLoader {
    fn on_start(&mut self, fos: &Fos<Self>) {
        let size = self.count * self.img_bytes;
        let fs_create = format!("{}.create", self.fs_key);
        fos.call(Syscall::KvGet { key: fs_create }, move |_s, res, fos| {
            let boot = (TAG_DB_BOOT, vec![imm(0)]);
            fos.invoke_with(res.cid(), vec![imm(size)], vec![], vec![boot]);
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let phase = imm_at(&req.imms, 0).unwrap_or(u64::MAX);
        match phase {
            0 => {
                // DAX create reply: imms [0, file, ext]; caps [read, write].
                self.read_req = Some(req.caps[0]);
                self.write_req = Some(req.caps[1]);
                // Build the database image and write it in one shot.
                let total = self.count * self.img_bytes;
                let addr = fos.mem_alloc(total);
                let mut data = vec![0; total as usize];
                synth_faces_into(0, self.img_bytes as usize, 0, &mut data);
                fos.mem_write(addr, 0, &data).expect("db upload");
                let write_req = self.write_req.expect("set");
                fos.memory_create(addr, total, Perms::RW, move |_s: &mut Self, res, fos| {
                    let SyscallResult::NewCid(src) = res else {
                        return;
                    };
                    // Success and error continuations, then the write.
                    fos.invoke_with(
                        write_req,
                        vec![imm(0), imm(total)],
                        vec![src],
                        vec![(TAG_DB_BOOT, vec![imm(1)]), (TAG_DB_BOOT, vec![imm(9)])],
                    );
                });
            }
            1 => {
                // Database written: publish the read Request.
                let read = self.read_req.expect("set");
                let key = self.publish_key.clone();
                fos.kv_put(&key, read, |s: &mut Self, res, _| {
                    debug_assert!(res.is_ok());
                    s.loaded = true;
                });
            }
            9 => panic!("database write failed"),
            _ => {}
        }
    }
}

/// Handles of a deployed face-verification stack.
#[derive(Debug, Clone, Copy)]
pub struct FvDeployment {
    /// The block-device adaptor Process.
    pub blk: ProcId,
    /// The FS Process.
    pub fs: ProcId,
    /// The database loader Process.
    pub loader: ProcId,
    /// The GPU adaptor Process.
    pub gpu: ProcId,
    /// The application frontend Process.
    pub frontend: ProcId,
    /// Output-side stack (only when `store_results` is configured):
    /// `(output blk adaptor, output FS, output-file creator)`.
    pub output: Option<(ProcId, ProcId, ProcId)>,
}

/// Creates the output file on a Compose-mode FS and publishes its write
/// Request — the §3.4 composition seam the frontend chains into.
pub struct OutFileCreator {
    /// Output file capacity in bytes.
    pub size: u64,
    /// Key the write Request is published under.
    pub publish_key: String,
    /// FS registry prefix.
    pub fs_key: String,
    /// Set once published.
    pub ready: bool,
}

impl Service for OutFileCreator {
    fn on_start(&mut self, fos: &Fos<Self>) {
        let size = self.size;
        let create_key = format!("{}.create", self.fs_key);
        fos.call(Syscall::KvGet { key: create_key }, move |_s, res, fos| {
            let boot = (TAG_DB_BOOT, vec![imm(0)]);
            fos.invoke_with(res.cid(), vec![imm(size)], vec![], vec![boot]);
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        // Compose-mode create reply: caps [fs read, fs write].
        let write = req.caps[1];
        let key = self.publish_key.clone();
        fos.kv_put(&key, write, |s: &mut Self, res, _| {
            debug_assert!(res.is_ok());
            s.ready = true;
        });
    }
}

/// Deploys the full FractOS face-verification stack on the paper's 3-node
/// testbed layout and runs the bootstrap to completion.
///
/// `ctrls[i]` is the Controller for Processes on node `i` (use
/// [`Testbed::controllers_per_node`] or [`Testbed::shared_controller`]).
pub fn deploy_faceverify(
    tb: &mut Testbed,
    ctrls: &[ControllerAddr],
    cfg: FvConfig,
    db_count: u64,
) -> FvDeployment {
    let img = cfg.img_bytes;

    let blk = tb.add_process(
        "blk-adaptor",
        cpu(0),
        ctrls[0],
        BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk"),
    );
    tb.start_process(blk);
    tb.run();

    let fs = tb.add_process(
        "fs",
        cpu(0),
        ctrls[0],
        FsService::new(FsMode::Dax, "fs", "blk"),
    );
    tb.start_process(fs);
    tb.run();

    let loader = tb.add_process(
        "db-loader",
        cpu(2),
        ctrls[2],
        DbLoader::new(db_count, img, DB_READ_KEY, "fs"),
    );
    tb.start_process(loader);
    tb.run();
    tb.with_service::<DbLoader, _>(loader, |l| assert!(l.loaded, "db load failed"));

    let gpu_proc = tb.add_process(
        "gpu-adaptor",
        cpu(1),
        ctrls[1],
        GpuAdaptor::new(GpuParams::default(), gpu(1), GPU_KEY)
            .with_kernel(FACE_VERIFY_KERNEL, FaceVerifyKernel),
    );
    tb.start_process(gpu_proc);
    tb.run();

    // Optional output tier (full Fig 2 ring): the output SSD behind a
    // Compose-mode FS on the "filesys" node (node 1), hidden from the
    // application except through the published write Request.
    let output = if cfg.store_results {
        let oblk = tb.add_process(
            "out-blk-adaptor",
            cpu(1),
            ctrls[1],
            BlockAdaptor::new(NvmeParams::default(), nvme(1), "oblk"),
        );
        tb.start_process(oblk);
        tb.run();
        let ofs = tb.add_process(
            "out-fs",
            cpu(1),
            ctrls[1],
            FsService::new(FsMode::Compose, "ofs", "oblk"),
        );
        tb.start_process(ofs);
        tb.run();
        let creator = tb.add_process(
            "out-creator",
            cpu(2),
            ctrls[2],
            OutFileCreator {
                size: 1 << 20,
                publish_key: OUT_WRITE_KEY.into(),
                fs_key: "ofs".into(),
                ready: false,
            },
        );
        tb.start_process(creator);
        tb.run();
        tb.with_service::<OutFileCreator, _>(creator, |c| assert!(c.ready));
        Some((oblk, ofs, creator))
    } else {
        None
    };

    let frontend = tb.add_process("frontend", cpu(2), ctrls[2], FaceVerifyFrontend::new(cfg));
    tb.start_process(frontend);
    tb.run();
    tb.with_service::<FaceVerifyFrontend, _>(frontend, |f| {
        assert!(f.ready, "frontend bootstrap failed")
    });

    FvDeployment {
        blk,
        fs,
        loader,
        gpu: gpu_proc,
        frontend,
        output,
    }
}
