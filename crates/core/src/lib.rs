//! # shrimp-core — virtual memory-mapped communication (VMMC)
//!
//! This crate is the paper's primary contribution: a basic multicomputer
//! communication mechanism with extremely low latency and high bandwidth,
//! achieved by letting applications transfer data directly between two
//! virtual address spaces over the network (paper §2).
//!
//! The pieces:
//!
//! * [`ShrimpSystem`] — builds the whole machine (nodes, NICs, daemons,
//!   backplane, Ethernet) on a simulation kernel;
//! * [`Vmmc`] — the per-process user-level endpoint: import-export
//!   mappings, deliberate update ([`Vmmc::send`]), automatic update
//!   ([`Vmmc::bind_au`]), and notifications;
//! * [`ByteRing`] — the cyclic shared queue of §4.2 / §4.3, the one
//!   byte channel under VRPC and stream sockets;
//! * [`SlotChannel`] — the message slot of §4.1 (data slots, a flag and
//!   a credit word each way), the one channel under the collectives and
//!   the service's record stream;
//! * [`Rendezvous`] — the set-up meeting point where parties publish
//!   their exported buffers' names and wait for each other;
//! * [`Daemon`] — the trusted per-node mapping server;
//! * [`VmmcError`] — what can go wrong.
//!
//! ## A complete two-node transfer
//!
//! ```
//! use shrimp_sim::Kernel;
//! use shrimp_core::{ShrimpSystem, SystemConfig, ExportOpts};
//! use shrimp_node::CacheMode;
//! use shrimp_sim::SimChannel;
//!
//! let kernel = Kernel::new();
//! let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
//! let names: SimChannel<shrimp_core::BufferName> = SimChannel::new();
//!
//! let rx = system.endpoint(1, "receiver");
//! let tx = system.endpoint(0, "sender");
//!
//! let names2 = names.clone();
//! kernel.spawn("receiver", move |ctx| {
//!     let buf = rx.proc_().alloc(4096, CacheMode::WriteBack);
//!     let name = rx.export(ctx, buf, 4096, ExportOpts::default()).unwrap();
//!     names2.send(&ctx.handle(), name);
//!     // VMMC has no receive call: poll the tail word of the buffer.
//!     rx.wait_u32(ctx, buf.add(4092), 64, |v| v == 0xC0DE).unwrap();
//!     assert_eq!(rx.proc_().peek(buf, 5).unwrap(), b"hello");
//! });
//!
//! kernel.spawn("sender", move |ctx| {
//!     use shrimp_mesh::NodeId;
//!     let name = names.recv(ctx);
//!     let dst = tx.import(ctx, NodeId(1), name).unwrap();
//!     let src = tx.proc_().alloc(4096, CacheMode::WriteBack);
//!     tx.proc_().write(ctx, src, b"hello").unwrap();
//!     tx.proc_().write_u32(ctx, src.add(4092), 0xC0DE).unwrap();
//!     tx.send(ctx, src, &dst, 0, 4096).unwrap();
//! });
//!
//! kernel.run_until_quiescent()?;
//! # Ok::<(), shrimp_sim::SimError>(())
//! ```
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod daemon;
mod endpoint;
mod error;
mod rendezvous;
mod ring;
mod slot;
mod system;

pub use daemon::{BufferName, Daemon, ExportPerms, ExportRecord, MappingInfo};
pub use endpoint::{
    AuBinding, ExportOpts, ImportHandle, NotifyEvent, NotifyHandler, SendHandle, Vmmc,
};
pub use error::VmmcError;
pub use rendezvous::Rendezvous;
pub use ring::{ByteRing, RingExport, RingPath};
pub use slot::{bulk_head, PostedChunk, SlotChannel, SlotExport, SlotShape};
pub use system::{ShrimpSystem, SystemConfig, SystemReport};
