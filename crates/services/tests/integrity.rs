//! End-to-end integrity under injected device faults: the storage stack
//! must complete with byte-verified payloads while the NVMe beneath it
//! fails reads, tears writes and spikes latencies — on both runtime
//! backends — and the whole run must replay bit-identically from
//! `(seed, plan)`.

use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_devices::proto::{imm, imm_at};
use fractos_devices::{BlockAdaptor, NvmeParams};
use fractos_net::{DeviceFaultCounter, FaultPlan, NetParams, Topology};
use fractos_services::fs::{FsMode, FsService};
use fractos_sim::RuntimeKind;

const TAG_T: u64 = 0x7100;
const IO: u64 = 64 * 1024;

/// FS client that writes a pattern, reads it back and records — instead of
/// panicking on — a storage-stack error, so tests can report seeds.
struct FsChaosClient {
    fs_read: Option<Cid>,
    fs_write: Option<Cid>,
    buf: Option<(u64, Cid)>,
    pub done: bool,
    pub failed: bool,
    pub data_ok: bool,
}

impl FsChaosClient {
    fn new() -> Self {
        FsChaosClient {
            fs_read: None,
            fs_write: None,
            buf: None,
            done: false,
            failed: false,
            data_ok: false,
        }
    }

    fn pattern() -> Vec<u8> {
        (0..IO).map(|i| (i * 31 % 251) as u8 + 1).collect()
    }

    /// Makes a success/error continuation pair and hands both cids to `f`.
    fn io_pair(
        fos: &Fos<Self>,
        ok: u64,
        err: u64,
        f: impl FnOnce(&mut Self, Cid, Cid, &Fos<Self>) + 'static,
    ) {
        fos.request_create_new(TAG_T, vec![imm(ok)], vec![], move |_s, res, fos| {
            let success = res.cid();
            fos.request_create_new(TAG_T, vec![imm(err)], vec![], move |s, res, fos| {
                f(s, success, res.cid(), fos);
            });
        });
    }
}

impl Service for FsChaosClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.kv_get("fs.create", |_s: &mut Self, res, fos| {
            let create = res.cid();
            fos.request_create_new(
                TAG_T,
                vec![imm(0)],
                vec![],
                move |_s: &mut Self, res, fos| {
                    let cont = res.cid();
                    fos.request_derive(create, vec![imm(IO)], vec![cont], |_s, res, fos| {
                        fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                    });
                },
            );
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        let phase = imm_at(&req.imms, 0).unwrap();
        match phase {
            0 => {
                self.fs_read = Some(req.caps[0]);
                self.fs_write = Some(req.caps[1]);
                let wreq = self.fs_write.unwrap();
                let addr = fos.mem_alloc(IO);
                fos.mem_write(addr, 0, &FsChaosClient::pattern()).unwrap();
                fos.memory_create(addr, IO, Perms::RW, move |_s: &mut Self, res, fos| {
                    let src = res.cid();
                    FsChaosClient::io_pair(fos, 1, 8, move |_s, ok, err, fos| {
                        fos.request_derive(
                            wreq,
                            vec![imm(0), imm(IO)],
                            vec![src, ok, err],
                            |_s, res, fos| {
                                fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                            },
                        );
                    });
                });
            }
            1 => {
                let rreq = self.fs_read.unwrap();
                let addr = fos.mem_alloc(IO);
                fos.memory_create(addr, IO, Perms::RW, move |s: &mut Self, res, fos| {
                    let dst = res.cid();
                    s.buf = Some((addr, dst));
                    FsChaosClient::io_pair(fos, 2, 7, move |_s, ok, err, fos| {
                        fos.request_derive(
                            rreq,
                            vec![imm(0), imm(IO)],
                            vec![dst, ok, err],
                            |_s, res, fos| {
                                fos.request_invoke(res.cid(), |_, res, _| assert!(res.is_ok()));
                            },
                        );
                    });
                });
            }
            2 => {
                let (addr, _) = self.buf.unwrap();
                let got = fos.mem_read(addr, 0, IO).unwrap();
                self.data_ok = got == FsChaosClient::pattern();
                self.done = true;
            }
            7 | 8 => {
                self.failed = true;
                self.done = true;
            }
            _ => unreachable!(),
        }
    }
}

/// The recoverable device-fault plan: frequent-but-transient NVMe media
/// errors, torn writes and latency spikes. No fault here is permanent, so
/// the FS retry budget (`RetryPolicy::fs_io_retries`) must carry every op through.
fn recoverable_device_plan() -> FaultPlan {
    FaultPlan::new()
        .nvme_read_errors(nvme(0), 0.35)
        .nvme_write_errors(nvme(0), 0.15)
        .nvme_torn_writes(nvme(0), 0.35)
        .device_latency_spikes(nvme(0), 0.2, 4.0)
}

/// Runs a write+read FS roundtrip on `kind` under `plan` and returns
/// (completed cleanly, payload verified, FS retries, device-fault counters).
fn run_fs_chaos(
    kind: RuntimeKind,
    seed: u64,
    plan: Option<FaultPlan>,
) -> (bool, bool, u64, DeviceFaultCounter) {
    let mut tb = Testbed::new_on(Topology::paper_testbed(), NetParams::paper(), seed, kind);
    let ctrls = tb.controllers_per_node(false);
    let blk = tb.add_process(
        "blk",
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
        FsService::new(FsMode::Mediated, "fs", "blk"),
    );
    tb.start_process(fs);
    tb.run();
    if let Some(plan) = plan {
        tb.install_fault_plan(plan, seed);
    }
    let cli = tb.add_process("cli", cpu(2), ctrls[2], FsChaosClient::new());
    tb.start_process(cli);
    tb.run();

    let (clean, ok) =
        tb.with_service::<FsChaosClient, _>(cli, |c| (c.done && !c.failed, c.data_ok));
    let retried = tb.with_service::<FsService, _>(fs, |f| f.retried_ops);
    let faults = tb.traffic().device_faults_at(nvme(0));
    (clean, ok, retried, faults)
}

/// Acceptance gate: the FS workload completes with a byte-verified payload
/// under the recoverable device-fault plan, on both runtime backends, and
/// the recovery layer demonstrably did work (faults fired, retries ran).
#[test]
fn fs_completes_verified_under_device_faults_on_both_backends() {
    for kind in [RuntimeKind::SingleThreaded, RuntimeKind::Sharded] {
        let (clean, ok, retried, faults) = run_fs_chaos(kind, 61, Some(recoverable_device_plan()));
        assert!(
            clean,
            "{kind:?}: FS roundtrip failed under recoverable plan"
        );
        assert!(ok, "{kind:?}: payload not byte-identical after recovery");
        let total = faults.failed + faults.torn + faults.spiked;
        assert!(total > 0, "{kind:?}: plan armed but no device fault fired");
        assert!(
            retried > 0,
            "{kind:?}: faults fired but the FS never retried"
        );
    }
}

/// Replay contract: the same `(seed, plan)` reproduces the same device
/// faults and the same retry count — within a backend and across backends
/// (device draws are keyed by per-device op index, not wall clock).
#[test]
fn fs_device_faults_replay_bit_identically() {
    let a = run_fs_chaos(
        RuntimeKind::SingleThreaded,
        61,
        Some(recoverable_device_plan()),
    );
    let b = run_fs_chaos(
        RuntimeKind::SingleThreaded,
        61,
        Some(recoverable_device_plan()),
    );
    assert_eq!(a, b, "same (seed, plan, backend) diverged");
    let c = run_fs_chaos(RuntimeKind::Sharded, 61, Some(recoverable_device_plan()));
    assert_eq!(a, c, "device-fault replay diverged across backends");
}

/// An armed-but-empty device plan is indistinguishable from no plan: no
/// fault counters, no retries, same verified payload.
#[test]
fn empty_device_plan_is_neutral() {
    let bare = run_fs_chaos(RuntimeKind::SingleThreaded, 61, None);
    let empty = run_fs_chaos(RuntimeKind::SingleThreaded, 61, Some(FaultPlan::new()));
    assert_eq!(bare, empty, "empty plan perturbed the run");
    let (clean, ok, retried, faults) = bare;
    assert!(clean && ok);
    assert_eq!(retried, 0);
    assert_eq!(faults, DeviceFaultCounter::default());
}
