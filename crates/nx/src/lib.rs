//! # shrimp-nx — NX message passing on VMMC
//!
//! A compatibility implementation of the Intel NX multicomputer
//! message-passing interface (csend/crecv, isend/irecv/msgwait, probes,
//! info calls, and global operations), built entirely at user level on
//! virtual memory-mapped communication, following paper §4.1:
//!
//! * small messages use a **one-copy protocol** through fixed-size
//!   packet buffers with explicit send credits (consumable out of order,
//!   matching NX's typed receives);
//! * large messages use a **zero-copy scout/rendezvous protocol** with
//!   an optimistic sender-side safe copy (the copy is off the critical
//!   path — footnote 1);
//! * control information always travels by automatic update; message
//!   data moves by automatic or deliberate update according to
//!   [`NxConfig::send_variant`];
//! * a sender that finds all packet buffers full interrupts the receiver
//!   through a notification page to request credits (§6 "Interrupts").
//!
//! Start from [`NxWorld::new`] and call [`NxWorld::join`] in each rank's
//! process; see `examples/` at the workspace root for complete programs.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod collective;
mod config;
mod proc;
mod wire;
mod world;

pub use config::{NxConfig, SendVariant};
pub use proc::{MsgHandle, NxError, NxInfo, NxProc, NxStats, RecvHandler, INTERNAL_TYPE_BASE};
pub use wire::PKT_PAYLOAD;
pub use world::NxWorld;
