//! The baseline storage stack: NVMe-over-Fabrics target, Linux-style page
//! cache, and an NFS/ext4-style file server (§6.4, §6.5 comparators).
//!
//! Fig 10's "Disaggregated Baseline" is an in-kernel NVMe-oF block stack
//! whose page cache absorbs writes and read-ahead accelerates sequential
//! reads; §6.5's baseline is a frontend fetching files via NFS from a
//! server whose ext4 is backed by NVMe-oF. Both are modelled here as raw
//! actors on the fabric.

#![expect(
    clippy::expect_used,
    reason = "baseline page store: read of a page the script wrote earlier"
)]

use std::collections::HashMap;

use fractos_devices::{BlockOp, NvmeDevice, NvmeParams};
use fractos_net::{Endpoint, Fabric, TrafficClass};
use fractos_sim::{Actor, Ctx, Msg, Shared, SimDuration};

use crate::raw::{raw_send, Peer};

/// In-kernel processing overhead per NVMe-oF target operation.
pub const NVMEOF_TARGET_OVERHEAD: SimDuration = SimDuration::from_micros(3);

/// Processing overhead per NFS server operation (RPC decode, VFS walk,
/// ext4, RPC encode — the in-kernel NFS path costs considerably more per
/// operation than an RDMA verb).
pub const NFS_SERVER_OVERHEAD: SimDuration = SimDuration::from_micros(15);

/// Client-side kernel NFS stack cost per operation (syscall, RPC encode,
/// completion handling at the frontend).
pub const NFS_CLIENT_OVERHEAD: SimDuration = SimDuration::from_micros(10);

/// Page size of the cache model.
pub const PAGE_SIZE: u64 = 4096;

/// Pages prefetched ahead on a sequential read streak.
pub const READAHEAD_PAGES: u64 = 32;

/// NVMe-oF wire operations.
pub enum NvmeOfOp {
    /// Read `len` bytes at `offset`.
    Read {
        /// Byte offset on the namespace.
        offset: u64,
        /// Length.
        len: u64,
        /// Reply routing.
        reply: (Peer, u64),
    },
    /// Write bytes at `offset`.
    Write {
        /// Byte offset on the namespace.
        offset: u64,
        /// The data.
        data: Vec<u8>,
        /// Reply routing.
        reply: (Peer, u64),
    },
}

/// NVMe-oF completion.
pub struct NvmeOfCompletion {
    /// Echoed token.
    pub token: u64,
    /// Data for reads.
    pub data: Vec<u8>,
}

/// The NVMe-oF target: one namespace over the NVMe device model.
pub struct NvmeOfTarget {
    /// Where the target runs.
    pub endpoint: Endpoint,
    fabric: Shared<Fabric>,
    device: NvmeDevice,
    namespace: u64,
    /// Operations served (tests).
    pub ops_served: u64,
}

impl NvmeOfTarget {
    /// Creates a target with a namespace of `size` bytes.
    pub fn new(endpoint: Endpoint, fabric: Shared<Fabric>, params: NvmeParams, size: u64) -> Self {
        let mut device = NvmeDevice::new(params);
        let namespace = device.create_volume(size);
        NvmeOfTarget {
            endpoint,
            fabric,
            device,
            namespace,
            ops_served: 0,
        }
    }

    /// Direct access to the namespace contents (harness pre-population).
    pub fn device_mut(&mut self) -> (&mut NvmeDevice, u64) {
        (&mut self.device, self.namespace)
    }
}

impl Actor for NvmeOfTarget {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let Ok(op) = msg.downcast::<NvmeOfOp>() else {
            return;
        };
        let op = *op;
        self.ops_served += 1;
        match op {
            NvmeOfOp::Read { offset, len, reply } => {
                let delay = self.device.service_time(ctx.now(), BlockOp::Read, len);
                let data = self
                    .device
                    .read(self.namespace, offset, len)
                    .unwrap_or_default();
                let fabric = self.fabric.clone();
                raw_send(
                    ctx,
                    &fabric,
                    self.endpoint,
                    reply.0,
                    data.len() as u64,
                    TrafficClass::Data,
                    delay + NVMEOF_TARGET_OVERHEAD,
                    NvmeOfCompletion {
                        token: reply.1,
                        data,
                    },
                );
            }
            NvmeOfOp::Write {
                offset,
                data,
                reply,
            } => {
                let delay = self
                    .device
                    .service_time(ctx.now(), BlockOp::Write, data.len() as u64);
                // Acknowledging a write the device refused would report
                // lost data as stored.
                self.device
                    .write(self.namespace, offset, &data)
                    .expect("write fits the namespace");
                let fabric = self.fabric.clone();
                raw_send(
                    ctx,
                    &fabric,
                    self.endpoint,
                    reply.0,
                    0,
                    TrafficClass::Control,
                    delay + NVMEOF_TARGET_OVERHEAD,
                    NvmeOfCompletion {
                        token: reply.1,
                        data: Vec::new(),
                    },
                );
            }
        }
    }
}

/// A Linux-style page cache: write absorption and sequential read-ahead.
pub struct PageCache {
    pages: HashMap<u64, Vec<u8>>,
    /// Last page read, to detect sequential streaks.
    last_page: Option<u64>,
    /// Pages already requested from the backend (read-ahead in flight).
    prefetching: HashMap<u64, bool>,
    /// Cache hits / misses (tests and the Fig 10 discussion).
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl Default for PageCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PageCache {
    /// An empty cache.
    pub fn new() -> Self {
        PageCache {
            pages: HashMap::new(),
            last_page: None,
            prefetching: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Whether the byte range is fully cached.
    pub fn covers(&self, offset: u64, len: u64) -> bool {
        let first = offset / PAGE_SIZE;
        let last = (offset + len.max(1) - 1) / PAGE_SIZE;
        (first..=last).all(|p| self.pages.contains_key(&p))
    }

    /// Reads a cached range.
    ///
    /// # Panics
    ///
    /// Panics if the range is not covered; check [`PageCache::covers`].
    pub fn read(&self, offset: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = offset;
        while pos < offset + len {
            let page = pos / PAGE_SIZE;
            let off = (pos % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize) - off).min((offset + len - pos) as usize);
            let data = self.pages.get(&page).expect("range not cached");
            out.extend_from_slice(&data[off..off + take]);
            pos += take as u64;
        }
        out
    }

    /// Installs backend data covering `[offset, offset+data.len())`
    /// (page-aligned).
    pub fn fill(&mut self, offset: u64, data: &[u8]) {
        debug_assert_eq!(offset % PAGE_SIZE, 0);
        for (i, chunk) in data.chunks(PAGE_SIZE as usize).enumerate() {
            let page = offset / PAGE_SIZE + i as u64;
            let mut v = chunk.to_vec();
            v.resize(PAGE_SIZE as usize, 0);
            self.pages.insert(page, v);
            self.prefetching.remove(&page);
        }
    }

    /// Writes through the cache (dirty pages modelled as instantly clean —
    /// write-back happens off the measured path).
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let page = abs / PAGE_SIZE;
            let off = (abs % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min(data.len() - pos);
            let entry = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
            entry[off..off + take].copy_from_slice(&data[pos..pos + take]);
            pos += take;
        }
    }

    /// Records a read access and returns the page-aligned extent the server
    /// should fetch (including read-ahead), or `None` on a full hit.
    pub fn plan_fetch(&mut self, offset: u64, len: u64) -> Option<(u64, u64)> {
        let first = offset / PAGE_SIZE;
        let last = (offset + len.max(1) - 1) / PAGE_SIZE;
        let sequential =
            self.last_page == Some(first.wrapping_sub(1)) || self.last_page == Some(first);
        self.last_page = Some(last);
        if self.covers(offset, len) {
            self.hits += 1;
            return None;
        }
        self.misses += 1;
        let ahead = if sequential { READAHEAD_PAGES } else { 0 };
        let start = first * PAGE_SIZE;
        let pages = last - first + 1 + ahead;
        Some((start, pages * PAGE_SIZE))
    }
}

/// NFS wire operations (one big file namespace, like the paper's DB file).
pub enum NfsOp {
    /// Read `len` bytes at `offset` of the exported file.
    Read {
        /// Byte offset.
        offset: u64,
        /// Length.
        len: u64,
        /// Reply routing.
        reply: (Peer, u64),
    },
    /// Write bytes.
    Write {
        /// Byte offset.
        offset: u64,
        /// Data.
        data: Vec<u8>,
        /// Reply routing.
        reply: (Peer, u64),
    },
}

/// NFS reply.
pub struct NfsReply {
    /// Echoed token.
    pub token: u64,
    /// Data for reads.
    pub data: Vec<u8>,
}

enum ServerPending {
    Read {
        offset: u64,
        len: u64,
        reply: (Peer, u64),
    },
}

/// The NFS/ext4 file server, backed by an NVMe-oF namespace through the
/// page cache.
pub struct NfsServer {
    /// Where the server runs.
    pub endpoint: Endpoint,
    fabric: Shared<Fabric>,
    /// The backing NVMe-oF target.
    pub target: Peer,
    /// The page cache ("Linux cache on the FS-service node", §6.4).
    pub cache: PageCache,
    next_token: u64,
    pending: HashMap<u64, ServerPending>,
    /// Requests served (tests).
    pub served: u64,
}

impl NfsServer {
    /// Creates the server.
    pub fn new(endpoint: Endpoint, fabric: Shared<Fabric>, target: Peer) -> Self {
        NfsServer {
            endpoint,
            fabric,
            target,
            cache: PageCache::new(),
            next_token: 0,
            pending: HashMap::new(),
            served: 0,
        }
    }

    fn reply_read(&mut self, ctx: &mut Ctx<'_>, offset: u64, len: u64, reply: (Peer, u64)) {
        self.served += 1;
        let data = self.cache.read(offset, len);
        let fabric = self.fabric.clone();
        raw_send(
            ctx,
            &fabric,
            self.endpoint,
            reply.0,
            len,
            TrafficClass::Data,
            NFS_SERVER_OVERHEAD,
            NfsReply {
                token: reply.1,
                data,
            },
        );
    }

    fn fetch(&mut self, ctx: &mut Ctx<'_>, start: u64, len: u64, pending: ServerPending) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, pending);
        let me = Peer {
            actor: ctx.self_id(),
            endpoint: self.endpoint,
        };
        let fabric = self.fabric.clone();
        raw_send(
            ctx,
            &fabric,
            self.endpoint,
            self.target,
            48,
            TrafficClass::Control,
            NFS_SERVER_OVERHEAD,
            NvmeOfOp::Read {
                offset: start,
                len,
                reply: (me, token),
            },
        );
    }
}

impl Actor for NfsServer {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<NfsOp>() {
            Err(other) => other,
            Ok(op) => {
                self.handle_op(*op, ctx);
                return;
            }
        };
        if let Ok(done) = msg.downcast::<NvmeOfCompletion>() {
            let Some(pending) = self.pending.remove(&done.token) else {
                // Write-back ack.
                return;
            };
            match pending {
                ServerPending::Read { offset, len, reply } => {
                    // Install the fetched pages, then serve from cache.
                    let start = offset / PAGE_SIZE * PAGE_SIZE;
                    self.cache.fill(start, &done.data);
                    self.reply_read(ctx, offset, len, reply);
                }
            }
        }
    }
}

impl NfsServer {
    fn handle_op(&mut self, op: NfsOp, ctx: &mut Ctx<'_>) {
        {
            match op {
                NfsOp::Read { offset, len, reply } => match self.cache.plan_fetch(offset, len) {
                    None => self.reply_read(ctx, offset, len, reply),
                    Some((start, flen)) => {
                        self.fetch(ctx, start, flen, ServerPending::Read { offset, len, reply })
                    }
                },
                NfsOp::Write {
                    offset,
                    data,
                    reply,
                } => {
                    // ext4 + page cache absorb the write; write-back to the
                    // target happens off the measured path.
                    self.served += 1;
                    self.cache.write(offset, &data);
                    let me_fabric = self.fabric.clone();
                    // Background write-back (fire and forget).
                    let me = Peer {
                        actor: ctx.self_id(),
                        endpoint: self.endpoint,
                    };
                    let wb_token = self.next_token;
                    self.next_token += 1;
                    raw_send(
                        ctx,
                        &me_fabric,
                        self.endpoint,
                        self.target,
                        data.len() as u64,
                        TrafficClass::Data,
                        SimDuration::from_millis(5), // delayed write-back
                        NvmeOfOp::Write {
                            offset,
                            data,
                            reply: (me, wb_token),
                        },
                    );
                    raw_send(
                        ctx,
                        &me_fabric,
                        self.endpoint,
                        reply.0,
                        0,
                        TrafficClass::Control,
                        NFS_SERVER_OVERHEAD,
                        NfsReply {
                            token: reply.1,
                            data: Vec::new(),
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractos_net::{NetParams, NodeId, Topology};
    use fractos_sim::{Runtime, RuntimeExt, Sim};

    #[test]
    #[should_panic(expected = "write fits the namespace")]
    fn target_refuses_to_acknowledge_an_out_of_range_write() {
        // The one-shard engine: the panic surfaces on this thread, message
        // intact.
        let mut sim = Sim::new(9);
        let fabric = Shared::new(Fabric::new(Topology::paper_testbed(), NetParams::paper()));
        let endpoint = Endpoint::cpu(NodeId(0));
        let target = sim.add_actor_on(
            0,
            "nvmeof",
            Box::new(NvmeOfTarget::new(
                endpoint,
                fabric,
                NvmeParams::default(),
                PAGE_SIZE,
            )),
        );
        let reply = Peer {
            actor: target,
            endpoint,
        };
        sim.post(
            SimDuration::ZERO,
            target,
            NvmeOfOp::Write {
                offset: PAGE_SIZE,
                data: vec![1; 8],
                reply: (reply, 0),
            },
        );
        sim.run();
    }

    #[test]
    fn cache_roundtrip_and_coverage() {
        let mut c = PageCache::new();
        assert!(!c.covers(0, 10));
        c.fill(0, &[7; 8192]);
        assert!(c.covers(0, 8192));
        assert!(c.covers(4000, 200));
        assert_eq!(c.read(4000, 200), vec![7; 200]);
        assert!(!c.covers(8192, 1));
    }

    #[test]
    fn cache_write_then_read() {
        let mut c = PageCache::new();
        c.write(100, b"abc");
        assert!(c.covers(100, 3));
        assert_eq!(c.read(100, 3), b"abc");
    }

    #[test]
    fn plan_fetch_hit_miss_and_readahead() {
        let mut c = PageCache::new();
        // Random first access: no read-ahead.
        let (start, len) = c.plan_fetch(PAGE_SIZE * 10, 100).unwrap();
        assert_eq!((start, len), (PAGE_SIZE * 10, PAGE_SIZE));
        c.fill(start, &vec![0; len as usize]);
        assert!(c.plan_fetch(PAGE_SIZE * 10, 100).is_none(), "now cached");
        // Sequential follow-up: read-ahead kicks in.
        let (_, len) = c.plan_fetch(PAGE_SIZE * 11, PAGE_SIZE).unwrap();
        assert!(len > PAGE_SIZE, "read-ahead extends the fetch: {len}");
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn unaligned_multi_page_reads() {
        let mut c = PageCache::new();
        let mut data = vec![0u8; 3 * PAGE_SIZE as usize];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 256) as u8;
        }
        c.fill(0, &data);
        let got = c.read(PAGE_SIZE - 10, 20);
        assert_eq!(
            got,
            data[(PAGE_SIZE - 10) as usize..(PAGE_SIZE + 10) as usize]
        );
    }
}
