//! The §6.5 baseline face-verification stack: frontend + NFS + NVMe-oF +
//! rCUDA, all centralized through the frontend (star topology).
//!
//! Per request the frontend (1) fetches the reference images over NFS
//! (which may in turn fetch from the NVMe-oF target), (2) ships query and
//! reference images to the remote GPU via an rCUDA host-to-device copy,
//! (3) launches and synchronizes the kernel, (4) copies the distances back,
//! and (5) answers the client. Data crosses the network three times
//! (NVMe-oF, NFS, rCUDA) versus FractOS's single NVMe→GPU transfer.

#![expect(
    clippy::expect_used,
    reason = "baseline state machine: phase invariant, must abort the experiment"
)]

use std::collections::HashMap;

use fractos_net::{Endpoint, Fabric, TrafficClass};
use fractos_services::closed_loop::ClosedLoop;
use fractos_services::matcher::{synth_faces_into, MATCH_THRESHOLD};
use fractos_services::FvSample;
use fractos_sim::{Actor, Ctx, Msg, Shared, SimDuration};

use crate::raw::{raw_send, Peer};
use crate::rcuda::{DriverReply, RcudaClient, KERNEL_CALLS};
use crate::storage::{NfsOp, NfsReply, NFS_CLIENT_OVERHEAD};

/// Client → frontend request.
pub struct VerifyReq {
    /// Images per batch.
    pub batch: u64,
    /// First identity of the contiguous window.
    pub first_id: u64,
    /// Query images, `batch × img` bytes.
    pub queries: Vec<u8>,
    /// Reply routing.
    pub reply: (Peer, u64),
}

/// Frontend → client reply with per-pair distances.
pub struct VerifyReply {
    /// Echoed token.
    pub token: u64,
    /// One distance byte per pair.
    pub distances: Vec<u8>,
}

enum Phase {
    NfsRead,
    /// Call number `.0` of the rCUDA kernel-execution sequence
    /// ([`RcudaClient::kernel_call`]).
    Gpu(u64),
    /// Write the distances back through NFS (Fig 2's output path).
    NfsWrite,
}

struct ReqState {
    batch: u64,
    img: u64,
    /// Byte offset of the reference images in the exported DB file.
    db_offset: u64,
    queries: Vec<u8>,
    db: Vec<u8>,
    /// Distances held while the optional output write completes.
    distances: Vec<u8>,
    reply: (Peer, u64),
    phase: Phase,
}

/// The baseline frontend actor.
pub struct BaselineFrontend {
    /// Where the frontend runs.
    pub endpoint: Endpoint,
    fabric: Shared<Fabric>,
    /// The NFS server.
    pub nfs: Peer,
    rcuda: RcudaClient,
    /// Bytes per image.
    pub img: u64,
    /// When set, results are written back through NFS before replying
    /// (the full Fig 2 star: steps 6–7 through the filesys node).
    pub store_results: bool,
    reqs: HashMap<u64, ReqState>,
    next_req: u64,
    /// Maps an outstanding NFS/rCUDA token to its request.
    token_to_req: HashMap<u64, u64>,
    nfs_token: u64,
    /// Served requests (tests).
    pub served: u64,
}

impl BaselineFrontend {
    /// Creates the frontend.
    pub fn new(
        endpoint: Endpoint,
        fabric: Shared<Fabric>,
        nfs: Peer,
        rcuda_server: Peer,
        img: u64,
    ) -> Self {
        BaselineFrontend {
            endpoint,
            fabric: fabric.clone(),
            nfs,
            rcuda: RcudaClient::new(endpoint, rcuda_server, fabric),
            img,
            store_results: false,
            reqs: HashMap::new(),
            next_req: 0,
            token_to_req: HashMap::new(),
            nfs_token: 1 << 32,
            /* NFS tokens live in a disjoint range from rCUDA tokens. */
            served: 0,
        }
    }

    fn step(&mut self, ctx: &mut Ctx<'_>, req_id: u64) {
        let state = self.reqs.get_mut(&req_id).expect("live request");
        let (batch, img) = (state.batch, state.img);
        match state.phase {
            Phase::NfsRead => {
                let offset = state.db_offset;
                let token = self.nfs_token;
                self.nfs_token += 1;
                self.token_to_req.insert(token, req_id);
                let me = Peer {
                    actor: ctx.self_id(),
                    endpoint: self.endpoint,
                };
                let fabric = self.fabric.clone();
                raw_send(
                    ctx,
                    &fabric,
                    self.endpoint,
                    self.nfs,
                    64,
                    TrafficClass::Control,
                    NFS_CLIENT_OVERHEAD,
                    NfsOp::Read {
                        offset,
                        len: batch * img,
                        reply: (me, token),
                    },
                );
            }
            Phase::Gpu(call) => {
                // The H2D copy ships queries ++ db in one bulk transfer.
                let token = self.rcuda.kernel_call(ctx, call, batch, img, || {
                    let mut data = state.queries.clone();
                    data.extend_from_slice(&state.db);
                    data
                });
                self.token_to_req.insert(token, req_id);
            }
            Phase::NfsWrite => {
                let data = state.distances.clone();
                let token = self.nfs_token;
                self.nfs_token += 1;
                self.token_to_req.insert(token, req_id);
                let me = Peer {
                    actor: ctx.self_id(),
                    endpoint: self.endpoint,
                };
                let fabric = self.fabric.clone();
                raw_send(
                    ctx,
                    &fabric,
                    self.endpoint,
                    self.nfs,
                    data.len() as u64,
                    TrafficClass::Data,
                    NFS_CLIENT_OVERHEAD,
                    NfsOp::Write {
                        // Output region beyond the database.
                        offset: 0,
                        data,
                        reply: (me, token),
                    },
                );
            }
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, req_id: u64, distances: Vec<u8>) {
        let state = self.reqs.remove(&req_id).expect("live");
        self.served += 1;
        let fabric = self.fabric.clone();
        raw_send(
            ctx,
            &fabric,
            self.endpoint,
            state.reply.0,
            state.batch,
            TrafficClass::Control,
            SimDuration::ZERO,
            VerifyReply {
                token: state.reply.1,
                distances,
            },
        );
    }
}

impl Actor for BaselineFrontend {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<VerifyReq>() {
            Err(other) => other,
            Ok(req) => {
                let req = *req;
                let id = self.next_req;
                self.next_req += 1;
                self.reqs.insert(
                    id,
                    ReqState {
                        batch: req.batch,
                        img: self.img,
                        db_offset: req.first_id * self.img,
                        queries: req.queries,
                        db: Vec::new(),
                        distances: Vec::new(),
                        reply: req.reply,
                        phase: Phase::NfsRead,
                    },
                );
                self.step(ctx, id);
                return;
            }
        };
        let msg = match msg.downcast::<NfsReply>() {
            Err(other) => other,
            Ok(reply) => {
                let Some(req_id) = self.token_to_req.remove(&reply.token) else {
                    return;
                };
                let state = self.reqs.get_mut(&req_id).expect("live");
                match state.phase {
                    Phase::NfsRead => {
                        state.db = reply.data;
                        state.phase = Phase::Gpu(0);
                        self.step(ctx, req_id);
                    }
                    Phase::NfsWrite => {
                        let distances = std::mem::take(&mut state.distances);
                        self.finish(ctx, req_id, distances);
                    }
                    _ => unreachable!("NFS reply outside an NFS phase"),
                }
                return;
            }
        };
        if let Ok(reply) = msg.downcast::<DriverReply>() {
            let Some(req_id) = self.token_to_req.remove(&reply.token) else {
                return;
            };
            let state = self.reqs.get_mut(&req_id).expect("live");
            match state.phase {
                Phase::Gpu(call) if call + 1 < KERNEL_CALLS => {
                    state.phase = Phase::Gpu(call + 1);
                    self.step(ctx, req_id);
                }
                // The D2H copy came back with the distances.
                Phase::Gpu(_) => {
                    if self.store_results {
                        state.distances = reply.data;
                        state.phase = Phase::NfsWrite;
                        self.step(ctx, req_id);
                    } else {
                        self.finish(ctx, req_id, reply.data);
                    }
                }
                Phase::NfsRead | Phase::NfsWrite => {
                    unreachable!("NFS replies carry NfsReply")
                }
            }
        }
    }
}

/// The baseline load client (mirrors `fractos_services::FvClient`).
pub struct BaselineClient {
    /// Where the client runs.
    pub endpoint: Endpoint,
    /// The frontend.
    pub frontend: Peer,
    fabric: Shared<Fabric>,
    /// Bytes per image.
    pub img: u64,
    /// Batch size.
    pub batch: u64,
    run: ClosedLoop,
    /// Completed samples.
    pub samples: Vec<FvSample>,
}

/// Kick-off message.
pub struct Start;

impl BaselineClient {
    /// Creates the client.
    pub fn new(
        endpoint: Endpoint,
        frontend: Peer,
        fabric: Shared<Fabric>,
        img: u64,
        batch: u64,
        requests: u64,
        in_flight: u64,
    ) -> Self {
        BaselineClient {
            endpoint,
            frontend,
            fabric,
            img,
            batch,
            run: ClosedLoop::new(requests, in_flight),
            samples: Vec::new(),
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let Some(token) = self.run.next(ctx.now()) else {
            return;
        };
        // Same scattered id windows as the FractOS client.
        let first_id = (token * 53 + 17) % (256 - self.batch).max(1);
        let mut queries = vec![0; (self.batch * self.img) as usize];
        synth_faces_into(first_id, self.img as usize, token + 1, &mut queries);
        let me = Peer {
            actor: ctx.self_id(),
            endpoint: self.endpoint,
        };
        let size = queries.len() as u64;
        let fabric = self.fabric.clone();
        raw_send(
            ctx,
            &fabric,
            self.endpoint,
            self.frontend,
            size,
            TrafficClass::Data,
            SimDuration::ZERO,
            VerifyReq {
                batch: self.batch,
                first_id,
                queries,
                reply: (me, token),
            },
        );
    }
}

/// Handles of a deployed baseline stack.
#[derive(Debug, Clone, Copy)]
pub struct BaselineDeployment {
    /// The NVMe-oF target actor (storage node).
    pub target: fractos_sim::ActorId,
    /// The NFS server actor (GPU node's host CPU).
    pub nfs: fractos_sim::ActorId,
    /// The rCUDA daemon actor (GPU node's host CPU).
    pub rcuda: fractos_sim::ActorId,
    /// The frontend actor (frontend node).
    pub frontend: fractos_sim::ActorId,
    /// Frontend peer handle for clients.
    pub frontend_peer: Peer,
}

/// Deploys the §6.5 baseline stack on the paper's 3-node layout: NVMe-oF
/// target on node 0, NFS server and rCUDA daemon on node 1's host CPU,
/// frontend on node 2. The database (`db_count` synthetic faces of `img`
/// bytes) is pre-populated on the target, mirroring the FractOS loader.
pub fn deploy_baseline(
    sim: &mut dyn fractos_sim::Runtime,
    fabric: &Shared<Fabric>,
    img: u64,
    db_count: u64,
) -> BaselineDeployment {
    use fractos_devices::{GpuParams, NvmeParams};
    use fractos_net::NodeId;

    let target_ep = Endpoint::cpu(NodeId(0));
    let mut target_actor = crate::storage::NvmeOfTarget::new(
        target_ep,
        fabric.clone(),
        NvmeParams::default(),
        db_count * img,
    );
    {
        let (dev, ns) = target_actor.device_mut();
        let mut data = vec![0; (db_count * img) as usize];
        synth_faces_into(0, img as usize, 0, &mut data);
        dev.write(ns, 0, &data).expect("db fits the namespace");
    }
    let target = sim.add_actor_on(0, "nvmeof-target", Box::new(target_actor));

    let nfs_ep = Endpoint::cpu(NodeId(1));
    let nfs = sim.add_actor_on(
        1,
        "nfs-server",
        Box::new(crate::storage::NfsServer::new(
            nfs_ep,
            fabric.clone(),
            Peer {
                actor: target,
                endpoint: target_ep,
            },
        )),
    );

    let rcuda_ep = Endpoint::cpu(NodeId(1));
    let rcuda = sim.add_actor_on(
        1,
        "rcuda-daemon",
        Box::new(
            crate::rcuda::RcudaServer::new(rcuda_ep, fabric.clone(), GpuParams::default(), 4 << 20)
                .with_kernel(
                    fractos_services::FACE_VERIFY_KERNEL,
                    fractos_services::FaceVerifyKernel,
                ),
        ),
    );

    let frontend_ep = Endpoint::cpu(NodeId(2));
    let frontend = sim.add_actor_on(
        2,
        "baseline-frontend",
        Box::new(BaselineFrontend::new(
            frontend_ep,
            fabric.clone(),
            Peer {
                actor: nfs,
                endpoint: nfs_ep,
            },
            Peer {
                actor: rcuda,
                endpoint: rcuda_ep,
            },
            img,
        )),
    );

    BaselineDeployment {
        target,
        nfs,
        rcuda,
        frontend,
        frontend_peer: Peer {
            actor: frontend,
            endpoint: frontend_ep,
        },
    }
}

impl Actor for BaselineClient {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        if msg.downcast_ref::<Start>().is_some() {
            for _ in 0..self.run.prime() {
                self.issue(ctx);
            }
            return;
        }
        if let Ok(reply) = msg.downcast::<VerifyReply>() {
            let Some(issued) = self.run.complete(reply.token, ctx.now()) else {
                return;
            };
            let all_matched =
                !reply.distances.is_empty() && reply.distances.iter().all(|&d| d < MATCH_THRESHOLD);
            self.samples.push(FvSample {
                issued,
                completed: ctx.now(),
                all_matched,
            });
            self.issue(ctx);
        }
    }
}
