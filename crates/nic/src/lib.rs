//! # shrimp-nic — the SHRIMP network interface model
//!
//! The custom SHRIMP network interface is the key system component: two
//! printed-circuit boards connecting each PC to both the Xpress memory
//! bus (a very simple snooping card) and the EISA expansion bus (all the
//! logic), implementing hardware support for virtual memory-mapped
//! communication (paper §3.2, Figure 2).
//!
//! This crate models every datapath block of that figure:
//!
//! * snoop logic + [`OutgoingPageTable`] + [`Packetizer`] (automatic
//!   update, write combining, combine timer);
//! * the deliberate-update engine ([`Nic::du_transfer`]) with its EISA
//!   DMA source reads and the word-alignment restriction;
//! * the incoming DMA engine with the per-packet [`IncomingPageTable`]
//!   check, freeze-and-interrupt on protection violation, and the
//!   two-flag notification interrupt rule.
//!
//! The arbiter of Figure 2 (incoming given priority over outgoing at the
//! NIC's port) is subsumed by the FIFO bus model: both directions
//! contend on the EISA bandwidth resource.
//!
//! Every block decides in one place: a plain-data state machine (the
//! private `machine` module) that takes each event — a snooped write, a
//! packet arrival, a DMA completion, a timer — and returns what to do.
//! [`Nic`] is its driver and the only part that touches the node, the
//! backplane or the kernel.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Every decision of the NIC as one pure, lock-free state machine
/// (`NicMachine::step`), which [`Nic`] drives: it steps the machine
/// under one lock and carries out the actions with the lock released.
mod machine;
mod nic;
mod packetizer;
mod tables;

pub use nic::{
    DuRequest, FetchDesc, FetchRequest, NakReason, Nic, NicPacket, NicStats, PacketKind,
    IRQ_NOTIFICATION, IRQ_RECV_FREEZE,
};
pub use packetizer::{OutPacket, OutWrite, Packetizer};
pub use tables::{IncomingPageTable, IptEntry, OptEntry, OutgoingPageTable};
