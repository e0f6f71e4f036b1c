#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::iter_over_hash_type)]
#![warn(missing_docs)]
//! FractOS-rs core: the distributed OS layer of the paper (§3–§4).
//!
//! FractOS elevates disaggregated devices to first-class citizens: Memory
//! and Request objects live in a global namespace protected by distributed
//! capabilities; continuation-based Requests let devices invoke each other
//! directly without centralized application control; trusted Controllers —
//! deployable on host CPUs or SmartNICs — implement RPC routing, address
//! translation, delegation, immediate owner-side revocation, monitors and
//! failure translation.
//!
//! Module map:
//!
//! * [`types`] — Memory/Request descriptors, the Table-1 syscall surface;
//! * [`wire`] — the wire codec: one layout declaration per message
//!   generates both encode and decode (sizes feed traffic accounting);
//!   [`wire_peer`] declares the Controller ↔ Controller messages;
//! * [`memstore`] — simulated Process memory + RDMA windows (real bytes);
//! * [`messages`] — Process↔Controller and Controller↔Controller messages;
//! * [`process`] — the Process runtime and `libfractos` CPS API;
//! * [`controller`] — the Controller actor (the trusted OS layer);
//! * [`directory`] — shared cluster directory;
//! * [`testbed`] — cluster assembly and failure injection;
//! * [`retry`] — retransmission policy + duplicate suppression for the
//!   control plane under an armed fault plan;
//! * [`msgmodel`] — the analytic message-complexity model of §2.1.
//!
//! # Examples
//!
//! A two-process cluster where a client invokes a service Request:
//!
//! ```
//! use fractos_core::prelude::*;
//!
//! struct Echo { hits: u32 }
//! impl Service for Echo {
//!     fn on_start(&mut self, fos: &Fos<Self>) {
//!         // Publish an RPC endpoint.
//!         fos.request_create_new(7, vec![], vec![], |_s, res, fos| {
//!             fos.kv_put("echo", res.cid(), |_, _, _| {});
//!         });
//!     }
//!     fn on_request(&mut self, req: IncomingRequest, _fos: &Fos<Self>) {
//!         assert_eq!(req.tag, 7);
//!         self.hits += 1;
//!     }
//! }
//!
//! struct Client;
//! impl Service for Client {
//!     fn on_start(&mut self, fos: &Fos<Self>) {
//!         fos.kv_get("echo", |_s, res, fos| {
//!             fos.request_invoke(res.cid(), |_, _, _| {});
//!         });
//!     }
//!     fn on_request(&mut self, _req: IncomingRequest, _fos: &Fos<Self>) {}
//! }
//!
//! let mut tb = Testbed::paper(42);
//! let ctrls = tb.controllers_per_node(false);
//! let svc = tb.add_process("echo", cpu(0), ctrls[0], Echo { hits: 0 });
//! let cli = tb.add_process("client", cpu(1), ctrls[1], Client);
//! tb.start_process(svc);
//! tb.run();
//! tb.start_process(cli);
//! tb.run();
//! tb.with_service::<Echo, _>(svc, |e| assert_eq!(e.hits, 1));
//! ```

pub mod controller;
pub mod directory;
pub mod integrity;
pub mod memstore;
pub mod messages;
pub mod msgmodel;
pub mod process;
pub mod retry;
pub mod testbed;
pub mod types;
pub mod verify;
pub mod watchdog;
pub mod wire;
pub mod wire_peer;

/// Everything a service implementation typically needs.
pub mod prelude {
    pub use fractos_cap::{CapError, Cid, ControllerAddr, Perms};
    pub use fractos_net::{Endpoint, Location, NodeId, Payload};
    pub use fractos_sim::{Runtime, RuntimeExt, RuntimeKind, SimDuration, SimTime};

    pub use crate::controller::ControllerActor;
    pub use crate::process::{Fos, NullService, ProcessActor, Service};
    pub use crate::testbed::{cpu, gpu, nvme, CtrlPlacement, Testbed};
    pub use crate::types::{FosError, IncomingRequest, MonitorCb, ProcId, Syscall, SyscallResult};
}

pub use controller::ControllerActor;
pub use directory::{Directory, ServiceInstance};
pub use integrity::{extent_sum, flip_bit, fnv1a, ExtentSums};
pub use memstore::MemoryStore;
pub use process::{Fos, NullService, ProcessActor, Service};
pub use testbed::{CtrlPlacement, Testbed};
pub use types::{
    FosError, IncomingRequest, MemoryDesc, MonitorCb, ObjPayload, ProcId, RequestDesc, Syscall,
    SyscallResult,
};
pub use verify::{
    verify_plan, verify_syscall, verify_table, PlanPath, PlanReport, PlanStep, VerifyError,
    VerifyErrorKind,
};
pub use watchdog::WatchdogActor;
