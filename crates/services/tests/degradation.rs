//! Graceful degradation of the storage stack and the face-verification
//! frontend under failures.
//!
//! An FS whose block-adaptor dependency is missing or partitioned away
//! must answer every client request with a *typed* failure — a zero-cap
//! reply carrying an `fs_err` code — never hang a continuation. Success
//! replies always carry at least one capability, so the two shapes cannot
//! be confused. A frontend that cannot finish setting up a request answers
//! it empty.

use fractos_cap::Cid;
use fractos_core::prelude::*;
use fractos_devices::proto::{imm, imm_at};
use fractos_devices::{BlockAdaptor, NvmeParams};
use fractos_net::{FaultPlan, NodeId};
use fractos_services::deploy::deploy_faceverify;
use fractos_services::fs::{fs_err, FsMode, FsService};
use fractos_services::{FaceVerifyFrontend, FvClient, FvConfig};
use fractos_sim::{RunOutcome, SimTime};

const TAG_T: u64 = 0x7100;

/// Issues one FS request (create or open) and records the raw reply.
///
/// With `fire_on_start` unset it only resolves the target Request in
/// `on_start`; the harness triggers the actual call later via [`fire`] —
/// used to interpose a partition between lookup and use.
struct OneShotClient {
    key: &'static str,
    args: Vec<u64>,
    fire_on_start: bool,
    pub target: Option<Cid>,
    pub reply: Option<(Option<u64>, usize)>,
}

impl OneShotClient {
    fn create(size: u64) -> Self {
        OneShotClient {
            key: "fs.create",
            args: vec![size],
            fire_on_start: true,
            target: None,
            reply: None,
        }
    }

    fn open(file: u64, mode: u64) -> Self {
        OneShotClient {
            key: "fs.open",
            args: vec![file, mode],
            fire_on_start: true,
            target: None,
            reply: None,
        }
    }

    fn deferred(mut self) -> Self {
        self.fire_on_start = false;
        self
    }
}

/// Derives `target` with `args` plus a fresh continuation and invokes it.
fn fire(args: Vec<u64>, target: Cid, fos: &Fos<OneShotClient>) {
    let args: Vec<_> = args.iter().map(|&a| imm(a)).collect();
    fos.request_create_new(
        TAG_T,
        vec![],
        vec![],
        move |_s: &mut OneShotClient, res, fos| {
            let cont: Cid = res.cid();
            fos.request_derive(target, args, vec![cont], |_s, res, fos| {
                fos.request_invoke(res.cid(), |_, _, _| {});
            });
        },
    );
}

impl Service for OneShotClient {
    fn on_start(&mut self, fos: &Fos<Self>) {
        let args = self.args.clone();
        let fire_now = self.fire_on_start;
        fos.kv_get(self.key, move |s: &mut Self, res, fos| {
            let target = res.cid();
            s.target = Some(target);
            if fire_now {
                fire(args, target, fos);
            }
        });
    }

    fn on_request(&mut self, req: IncomingRequest, _fos: &Fos<Self>) {
        self.reply = Some((imm_at(&req.imms, 0), req.caps.len()));
    }
}

/// No block adaptor at all: the FS bootstrap's `KvGet` fails, but the FS
/// still publishes its endpoints and answers creates with `DEGRADED`.
#[test]
fn fs_without_block_adaptor_degrades_typed() {
    let mut tb = Testbed::paper(11);
    let ctrls = tb.controllers_per_node(false);
    let fs = tb.add_process(
        "fs",
        cpu(0),
        ctrls[0],
        FsService::new(FsMode::Mediated, "fs", "blk"),
    );
    tb.start_process(fs);
    tb.run();

    let cli = tb.add_process("cli", cpu(2), ctrls[2], OneShotClient::create(4096));
    tb.start_process(cli);
    tb.run();
    tb.with_service::<OneShotClient, _>(cli, |c| {
        assert_eq!(
            c.reply,
            Some((Some(fs_err::DEGRADED), 0)),
            "degraded FS must fail creates typed, with zero caps"
        );
    });
}

/// Opening a file that does not exist replies `NO_FILE` instead of
/// dropping the request.
#[test]
fn fs_open_missing_file_replies_typed() {
    let mut tb = Testbed::paper(12);
    let ctrls = tb.controllers_per_node(false);
    let fs = tb.add_process(
        "fs",
        cpu(0),
        ctrls[0],
        FsService::new(FsMode::Mediated, "fs", "blk"),
    );
    tb.start_process(fs);
    tb.run();

    let cli = tb.add_process("cli", cpu(2), ctrls[2], OneShotClient::open(99, 0));
    tb.start_process(cli);
    tb.run();
    tb.with_service::<OneShotClient, _>(cli, |c| {
        assert_eq!(c.reply, Some((Some(fs_err::NO_FILE), 0)));
    });
}

/// The FS bootstraps against a live block adaptor, then the adaptor's node
/// is partitioned away (no heal). A create exhausts the Controller's peer
/// retry budget, the pending op fails with `ControllerUnreachable`, and
/// the FS translates that into a typed `DEGRADED` reply to the client —
/// which sits on an unpartitioned node and must not hang.
#[test]
fn fs_create_fails_typed_when_block_adaptor_partitioned() {
    let mut tb = Testbed::paper(13);
    let ctrls = tb.controllers_per_node(false);
    let blk = tb.add_process(
        "blk",
        cpu(0),
        ctrls[0],
        BlockAdaptor::new(NvmeParams::default(), nvme(0), "blk"),
    );
    tb.start_process(blk);
    tb.run();
    // FS on node 1 so its extent provisioning crosses the fabric.
    let fs = tb.add_process(
        "fs",
        cpu(1),
        ctrls[1],
        FsService::new(FsMode::Mediated, "fs", "blk"),
    );
    tb.start_process(fs);
    tb.run();

    // The client resolves `fs.create` while the fabric is still healthy
    // (a lookup through the registry reaches the owning Controller), …
    let cli = tb.add_process(
        "cli",
        cpu(2),
        ctrls[2],
        OneShotClient::create(4096).deferred(),
    );
    tb.start_process(cli);
    tb.run();
    let target = tb.with_service::<OneShotClient, _>(cli, |c| c.target.expect("lookup failed"));

    // … then node 1 ↔ node 0 is severed (the client's node keeps full
    // connectivity) and only now does the client fire the create.
    tb.install_fault_plan(
        FaultPlan::new().partition(NodeId(0), NodeId(1), SimTime::ZERO, None),
        13,
    );
    let fos = tb.fos_of::<OneShotClient>(cli);
    fire(vec![4096], target, &fos);
    tb.poke(cli);
    tb.run();
    tb.with_service::<OneShotClient, _>(cli, |c| {
        assert_eq!(
            c.reply,
            Some((Some(fs_err::DEGRADED), 0)),
            "partitioned block adaptor must surface as a typed failure"
        );
    });
}

/// Runs one face-verify request against a frontend allowed `headroom`
/// capability slots beyond what it holds after bootstrap. The request must
/// be answered — empty, so it does not verify — and the run must drain.
fn faceverify_under_quota(headroom: usize) {
    let mut tb = Testbed::paper(14);
    let ctrls = tb.controllers_per_node(false);
    let dep = deploy_faceverify(&mut tb, &ctrls, FvConfig::default(), 256);
    let held = tb.with_controller(ctrls[2], |c| c.capspace_len(dep.frontend));
    tb.set_capspace_quota(dep.frontend, held + headroom);
    let cli = tb.add_process("cli", cpu(2), ctrls[2], FvClient::new(4096, 8, 1, 1));
    tb.start_process(cli);
    assert_eq!(tb.run(), RunOutcome::Drained, "headroom {headroom}");
    tb.with_service::<FvClient, _>(cli, |c| {
        assert_eq!(
            c.samples.len(),
            1,
            "headroom {headroom}: request unanswered"
        );
        assert!(!c.samples[0].all_matched, "headroom {headroom}");
    });
    tb.with_service::<FaceVerifyFrontend, _>(dep.frontend, |f| assert_eq!(f.served, 0));
}

/// The frontend's capability space fills while it builds a slot's views
/// and continuations, after the request was admitted to the slot. Two
/// slots admit the delivered request's query buffer and reply but not the
/// first view; six admit the four views but not the continuations.
#[test]
fn faceverify_answers_when_its_capability_space_fills_mid_setup() {
    faceverify_under_quota(2);
    faceverify_under_quota(6);
}
