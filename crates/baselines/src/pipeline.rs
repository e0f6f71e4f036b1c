//! The centralized pipeline driver for the composition experiment (Fig 8).
//!
//! [`CentralDriver`] runs against the same FractOS
//! [`PipelineStage`](fractos_services::pipeline::PipelineStage) services as
//! the distributed chain driver, but keeps the application centralized —
//! control returns to the client after every hop. Its [`DataPath`] selects
//! where the data goes meanwhile:
//!
//! * [`DataPath::ViaClient`] — centralized application *and* data ("star"):
//!   the client copies the data to each stage and receives it back, stage
//!   by stage (e.g. rCUDA-style designs, Fig 1 top-left);
//! * [`DataPath::Direct`] — centralized control, direct data ("fast-star"):
//!   stages forward data directly to the next stage's buffer (e.g.
//!   LegoOS-style designs, Fig 1 bottom-left).

use fractos_cap::{Cid, Perms};
use fractos_core::prelude::*;
use fractos_core::types::Syscall;
use fractos_devices::proto::imm;
use fractos_services::pipeline::{stage_lookups, TAG_PIPE_REPLY};
use fractos_sim::{SimDuration, SimTime};

/// Where a centralized driver's data travels between stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPath {
    /// Through the client's buffer, before and after every stage (star).
    ViaClient,
    /// Stage to stage; only the last stage writes to the client (fast-star).
    Direct,
}

/// The centralized (star or fast-star) driver.
pub struct CentralDriver {
    /// Where the data travels.
    pub data: DataPath,
    /// Number of stages.
    pub stages: usize,
    /// Bytes streamed per iteration.
    pub size: u64,
    /// Iterations to run.
    pub iterations: u64,
    stage_reqs: Vec<Cid>,
    stage_bufs: Vec<Cid>,
    client_buf: Option<Cid>,
    current_stage: usize,
    started_at: SimTime,
    remaining: u64,
    /// Completed iteration latencies.
    pub latencies: Vec<SimDuration>,
}

impl CentralDriver {
    /// Creates the driver.
    pub fn new(data: DataPath, stages: usize, size: u64, iterations: u64) -> Self {
        CentralDriver {
            data,
            stages,
            size,
            iterations,
            stage_reqs: Vec::new(),
            stage_bufs: Vec::new(),
            client_buf: None,
            current_stage: 0,
            started_at: SimTime::ZERO,
            remaining: iterations,
            latencies: Vec::new(),
        }
    }

    fn iterate(&mut self, fos: &Fos<Self>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.started_at = fos.now();
        self.current_stage = 0;
        match self.data {
            DataPath::ViaClient => self.hop(fos),
            // Seed: data into stage 0's buffer (one transfer).
            DataPath::Direct => self.copy_to_stage(0, fos, |s, fos| s.hop(fos)),
        }
    }

    /// One hop: get stage `i` invoked with the right destination and wait
    /// for its completion invoke.
    fn hop(&mut self, fos: &Fos<Self>) {
        let i = self.current_stage;
        if i == self.stages {
            self.latencies
                .push(fos.now().duration_since(self.started_at));
            self.iterate(fos);
            return;
        }
        let client_buf = self.client_buf.expect("allocated");
        match self.data {
            // Data transfer 1: client → stage; transfer 2 happens inside
            // the stage (stage → client).
            DataPath::ViaClient => self.copy_to_stage(i, fos, move |s, fos| {
                s.invoke_stage(i, client_buf, fos);
            }),
            // Destination = stage `i+1`'s buffer (or the client sink).
            DataPath::Direct => {
                let dst = if i + 1 == self.stages {
                    client_buf
                } else {
                    self.stage_bufs[i + 1]
                };
                self.invoke_stage(i, dst, fos);
            }
        }
    }

    /// Copies the client buffer into stage `i`'s buffer, then runs `then`.
    fn copy_to_stage(
        &self,
        i: usize,
        fos: &Fos<Self>,
        then: impl FnOnce(&mut Self, &Fos<Self>) + Send + 'static,
    ) {
        let client_buf = self.client_buf.expect("allocated");
        fos.call(
            Syscall::MemoryDiminish {
                cid: self.stage_bufs[i],
                offset: 0,
                size: self.size,
                drop_perms: Perms::NONE,
            },
            move |_s: &mut Self, res, fos| {
                let SyscallResult::NewCid(view) = res else {
                    return;
                };
                fos.memory_copy(client_buf, view, move |s: &mut Self, res, fos| {
                    fos.call_ignore(Syscall::CapRevoke { cid: view });
                    debug_assert_eq!(res, SyscallResult::Ok);
                    then(s, fos);
                });
            },
        );
    }

    /// Control: invoke stage `i` to move its data to `dst` and reply to us.
    fn invoke_stage(&self, i: usize, dst: Cid, fos: &Fos<Self>) {
        fos.invoke_with(
            self.stage_reqs[i],
            vec![imm(self.size)],
            vec![dst],
            vec![(TAG_PIPE_REPLY, vec![])],
        );
    }
}

impl Service for CentralDriver {
    fn on_start(&mut self, fos: &Fos<Self>) {
        // Every stage's handles, then the client buffer, then go.
        fos.chain(stage_lookups(self.stages), |s: &mut Self, res, fos| {
            let handles = res.expect("pipeline stages published");
            for pair in handles.chunks(2) {
                s.stage_reqs.push(pair[0]);
                s.stage_bufs.push(pair[1]);
            }
            fos.memory_create_new(s.size, Perms::RW, |s: &mut Self, _addr, buf, fos| {
                s.client_buf = buf.ok();
                s.iterate(fos);
            });
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        if req.tag != TAG_PIPE_REPLY {
            return;
        }
        self.current_stage += 1;
        self.hop(fos);
    }
}
