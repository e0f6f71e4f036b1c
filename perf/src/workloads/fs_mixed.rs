//! `fs_mixed`: 16 KiB reads and writes through the mediated file system.
//!
//! Paper testbed: block adaptor and NVMe on node 0, `FsService` in
//! `FsMode::Mediated` on node 1, the benchmark's client on node 2. An
//! operation is one I/O on a 64 MiB file, four in flight; a seeded coin
//! makes it a write (to a random slot, carrying a pattern derived from its
//! sequence number) or a read (of a slot written earlier, compared against
//! that write's pattern).

use fractos_cap::{Cid, ControllerAddr, Perms};
use fractos_core::prelude::*;
use fractos_devices::proto::{imm, imm_at};
use fractos_devices::{BlockAdaptor, NvmeParams};
use fractos_net::{NetParams, Topology, TrafficStats};
use fractos_services::fs::{FsMode, FsService};

use super::{
    ctrl_counters, make_runtime, settle, start_stagger_ns, Backend, LayerCounters, Outcome,
    SplitMix64, World,
};
use crate::micro::call_with_continuation;
use crate::traced::TraceHandle;

const TAG_CLIENT: u64 = 0x7200;
const FILE_BYTES: u64 = 64 << 20;
const IO_BYTES: u64 = 16 << 10;
const SLOTS: u64 = FILE_BYTES / IO_BYTES;
const IN_FLIGHT: usize = 4;

/// Continuation selectors (first immediate of the client's own Requests).
const ON_CREATED: u64 = 0;
const ON_DONE: u64 = 1;
const ON_ERROR: u64 = 9;

/// The bytes write number `seq` stores.
fn pattern(seed: u64, seq: u64) -> Vec<u8> {
    let mut rng = SplitMix64(seed ^ seq.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut data = Vec::with_capacity(IO_BYTES as usize);
    while data.len() < IO_BYTES as usize {
        data.extend_from_slice(&rng.next().to_le_bytes());
    }
    data
}

struct Op {
    seq: u64,
    slot: u64,
    write: bool,
    issued_at: SimTime,
    buf: (u64, Cid),
}

struct Client {
    seed: u64,
    ios: u64,
    rng: SplitMix64,
    /// `[read Request, write Request]` of the file.
    handles: Vec<Cid>,
    bufs: Vec<(u64, Cid)>,
    ready: bool,
    issued: u64,
    in_flight: Vec<Op>,
    /// Sequence number of the last completed write per slot.
    last_write: Vec<Option<u64>>,
    written: Vec<u64>,
    lat_ns: Vec<u64>,
    verified_reads: u64,
    mismatches: u64,
    errors: u64,
    digest: u64,
}

impl Client {
    fn new(ios: u64, seed: u64) -> Self {
        Client {
            seed,
            ios,
            rng: SplitMix64(seed),
            handles: Vec::new(),
            bufs: Vec::new(),
            ready: false,
            issued: 0,
            in_flight: Vec::new(),
            last_write: vec![None; SLOTS as usize],
            written: Vec::new(),
            lat_ns: Vec::with_capacity(ios as usize),
            verified_reads: 0,
            mismatches: 0,
            errors: 0,
            digest: 0,
        }
    }

    /// Registers the I/O buffers one after another, then reports ready.
    fn register_buffers(&mut self, fos: &Fos<Self>) {
        if self.bufs.len() == IN_FLIGHT {
            self.ready = self.handles.len() == 2;
            return;
        }
        fos.memory_create_new(IO_BYTES, Perms::RW, |s: &mut Self, addr, cid, fos| {
            if let Ok(cid) = cid {
                s.bufs.push((addr, cid));
                s.register_buffers(fos);
            }
        });
    }

    /// A slot no in-flight operation touches, so every read has exactly
    /// one write it must reflect.
    fn free_slot(&mut self, read: bool) -> u64 {
        loop {
            let slot = if read && !self.written.is_empty() {
                self.written[self.rng.below(self.written.len() as u64) as usize]
            } else {
                self.rng.below(SLOTS)
            };
            if self.in_flight.iter().all(|op| op.slot != slot) {
                return slot;
            }
        }
    }

    fn issue(&mut self, fos: &Fos<Self>) {
        if self.issued >= self.ios {
            return;
        }
        let Some(buf) = self.bufs.pop() else { return };
        let seq = self.issued;
        self.issued += 1;
        let write = self.rng.next() & 1 == 0 || self.written.is_empty();
        let slot = self.free_slot(!write);
        if write && fos.mem_write(buf.0, 0, &pattern(self.seed, seq)).is_err() {
            self.errors += 1;
            return;
        }
        self.in_flight.push(Op {
            seq,
            slot,
            write,
            issued_at: fos.now(),
            buf,
        });
        let handle = self.handles[usize::from(write)];
        let mint = |selector| Syscall::RequestCreate {
            base: None,
            tag: TAG_CLIENT,
            imms: vec![imm(selector), imm(seq)],
            caps: vec![],
        };
        fos.call_all(
            vec![mint(ON_DONE), mint(ON_ERROR)],
            move |s: &mut Self, conts, fos| {
                let [SyscallResult::NewCid(done), SyscallResult::NewCid(error)] = conts[..] else {
                    s.errors += 1;
                    return;
                };
                fos.request_derive(
                    handle,
                    vec![imm(slot * IO_BYTES), imm(IO_BYTES)],
                    vec![buf.1, done, error],
                    |s: &mut Self, res, fos| {
                        let SyscallResult::NewCid(call) = res else {
                            s.errors += 1;
                            return;
                        };
                        fos.request_invoke(call, |s: &mut Self, res, _| {
                            if !res.is_ok() {
                                s.errors += 1;
                            }
                        });
                    },
                );
            },
        );
    }

    fn complete(&mut self, seq: u64, fos: &Fos<Self>) {
        let Some(i) = self.in_flight.iter().position(|op| op.seq == seq) else {
            self.errors += 1;
            return;
        };
        let op = self.in_flight.swap_remove(i);
        if op.write {
            if self.last_write[op.slot as usize].replace(op.seq).is_none() {
                self.written.push(op.slot);
            }
        } else {
            // Volumes start zero-filled, so a never-written slot has an
            // expected content too.
            let expect = match self.last_write[op.slot as usize] {
                Some(w) => pattern(self.seed, w),
                None => vec![0; IO_BYTES as usize],
            };
            match fos.mem_read(op.buf.0, 0, IO_BYTES) {
                Ok(data) if data.as_slice() == expect.as_slice() => {
                    self.verified_reads += 1;
                    self.digest ^=
                        fractos_core::fnv1a(&data.as_slice()[..64]).rotate_left(seq as u32);
                }
                _ => self.mismatches += 1,
            }
        }
        self.lat_ns
            .push(fos.now().duration_since(op.issued_at).as_nanos());
        self.bufs.push(op.buf);
        self.issue(fos);
    }
}

impl Service for Client {
    /// Set-up: create the file, keep its handles, register the buffers.
    fn on_start(&mut self, fos: &Fos<Self>) {
        fos.kv_get("fs.create", |_s: &mut Self, res, fos| {
            if let SyscallResult::NewCid(create) = res {
                let size = vec![imm(FILE_BYTES)];
                call_with_continuation(fos, TAG_CLIENT, ON_CREATED, create, size, vec![]);
            }
        });
    }

    fn on_request(&mut self, req: IncomingRequest, fos: &Fos<Self>) {
        match (imm_at(&req.imms, 0), imm_at(&req.imms, 1)) {
            (Some(ON_CREATED), _) => {
                self.handles = req.caps.clone();
                self.register_buffers(fos);
            }
            (Some(ON_DONE), Some(seq)) => self.complete(seq, fos),
            (Some(ON_ERROR), Some(seq)) => {
                // A typed error from the FS or the device: the operation
                // failed, but the run goes on so the count is complete.
                self.errors += 1;
                if let Some(i) = self.in_flight.iter().position(|op| op.seq == seq) {
                    let op = self.in_flight.swap_remove(i);
                    self.bufs.push(op.buf);
                }
                self.issue(fos);
            }
            _ => self.errors += 1,
        }
    }
}

struct FsWorld {
    tb: Testbed,
    ctrls: Vec<ControllerAddr>,
    blk: ProcId,
    fs: ProcId,
    client: ProcId,
    ios: u64,
    seed: u64,
}

pub fn build(
    ios: u64,
    backend: Backend,
    seed: u64,
    traced: bool,
) -> (Box<dyn World>, Option<TraceHandle>) {
    let topology = Topology::paper_testbed();
    let params = NetParams::paper();
    let (rt, handle) = make_runtime(backend, &topology, &params, seed, traced);
    let mut tb = Testbed::with_runtime(topology, params, rt);
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
        cpu(1),
        ctrls[1],
        FsService::new(FsMode::Mediated, "fs", "blk"),
    );
    tb.start_process(fs);
    tb.run();
    let client = tb.add_process("client", cpu(2), ctrls[2], Client::new(ios, seed));
    tb.start_process(client);
    tb.run();
    assert!(
        tb.with_service::<Client, _>(client, |c| c.ready),
        "fs client bootstrap failed"
    );
    settle(&mut tb, client);
    tb.reset_traffic();

    let world = FsWorld {
        tb,
        ctrls,
        blk,
        fs,
        client,
        ios,
        seed,
    };
    (Box::new(world), handle)
}

impl World for FsWorld {
    fn rt(&mut self) -> &mut dyn Runtime {
        self.tb.sim.as_mut()
    }

    fn traffic(&self) -> TrafficStats {
        self.tb.traffic()
    }

    fn enable_telemetry(&mut self, period: SimDuration) {
        self.tb.enable_telemetry(period);
    }

    fn start(&mut self) {
        let delay = SimDuration::from_nanos(start_stagger_ns(&mut SplitMix64(self.seed)));
        self.tb
            .fos_of::<Client>(self.client)
            .sleep(delay, |s: &mut Client, fos| {
                for _ in 0..IN_FLIGHT {
                    s.issue(fos);
                }
            });
        self.tb.poke(self.client);
    }

    fn finish(&mut self) -> Outcome {
        let ios = self.ios;
        let fs_done = self
            .tb
            .with_service::<FsService, _>(self.fs, |f| f.completed_ops);
        self.tb.with_service::<Client, _>(self.client, |c| {
            // Completed == issued, no error continuation fired, and every
            // read returned the bytes of the write it follows.
            let completed = c.lat_ns.len() as u64;
            let failed = (ios - completed.min(ios))
                .max(c.errors + c.mismatches)
                .max(ios.abs_diff(fs_done));
            Outcome {
                attempted: ios,
                failed,
                lat_ns: c.lat_ns.clone(),
                output_digest: c.digest ^ c.verified_reads,
            }
        })
    }

    fn counters(&mut self) -> LayerCounters {
        let mut c = ctrl_counters(&mut self.tb, &self.ctrls, &[self.blk, self.fs, self.client]);
        (c.nvme_ops, c.nvme_cache) = self
            .tb
            .with_service::<BlockAdaptor, _>(self.blk, |b| (b.device().ops, b.cache_stats()));
        c
    }
}
