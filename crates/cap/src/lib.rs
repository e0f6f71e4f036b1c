#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Distributed capability machinery for FractOS-rs (§3.5–§3.6 of the paper).
//!
//! FractOS protects Memory and Request objects with capabilities that are
//! *owner-centric*: the object lives at exactly one Controller, every use
//! contacts that Controller, and revocation is therefore an immediate local
//! invalidation plus an out-of-critical-path cleanup broadcast. Delegations
//! are never tracked; selective revocation is provided by explicitly created
//! revocation-tree nodes (`cap_create_revtree`, Redell's caretaker pattern)
//! and by the implicit per-delegation children minted when a
//! `monitor_delegate` is armed.
//!
//! This crate owns the pure data-structure layer:
//!
//! * [`ids`] — capability references `(controller, epoch, object)` and
//!   per-Process `cid` indices;
//! * [`perms`] — monotone Memory permissions;
//! * [`space`] — fd-style per-Process capability spaces, with a holder
//!   index for revocation cleanup;
//! * [`table`] — the per-Controller object table with revocation trees,
//!   reboot epochs, monitor callbacks and failure translation.
//!
//! The OS layer (`fractos-core`) drives these tables over the simulated
//! network and charges the message/processing costs the paper measures in
//! Fig 7.
//!
//! # Examples
//!
//! ```
//! use fractos_cap::{ObjectTable, ControllerAddr, ProcessToken};
//!
//! let mut table: ObjectTable<&str> = ObjectTable::new(ControllerAddr(0));
//! let provider = ProcessToken(1);
//! let cap = table.create(provider, "ssd-block-42");
//!
//! // A separately revocable handle for one client:
//! let client_cap = table.create_revtree_node(cap.object, provider).unwrap();
//! assert_eq!(*table.resolve(client_cap).unwrap(), "ssd-block-42");
//!
//! // Revoking the client handle leaves the provider's object intact.
//! table.revoke(client_cap.object).unwrap();
//! assert!(table.resolve(client_cap).is_err());
//! assert!(table.resolve(cap).is_ok());
//! ```

pub mod error;
pub mod ids;
pub mod perms;
pub mod space;
pub mod table;

pub use error::{CapError, Result};
pub use ids::{CapRef, Cid, ControllerAddr, Epoch, ObjectId, ProcessToken};
pub use perms::Perms;
pub use space::CapSpace;
pub use table::{MonitorEvent, ObjectTable, RevokeOutcome, Watcher};
