//! # shrimp-sockets — stream sockets on VMMC
//!
//! A user-level library compatible with Unix stream sockets (paper
//! §4.3). Connections are established over the commodity Ethernet — a
//! regular internet-domain exchange carries the data needed to set up
//! the two VMMC mappings — and all data then flows through circular
//! buffers in the mapped regions:
//!
//! * [`SocketVariant::Du2Copy`] — sender staging copy (handles all
//!   alignment) + one deliberate update, receiver copy;
//! * [`SocketVariant::Du1Copy`] — deliberate update straight from user
//!   memory where word alignment allows, receiver copy;
//! * [`SocketVariant::Au2Copy`] — the sender-side copy into the
//!   automatic-update-bound ring *is* the send, receiver copy.
//!
//! No zero-copy variant exists: it would require exporting the
//! receiver's user memory to an untrusted sender (§4.3).
//!
//! Use [`listen`] + [`Listener::accept`] on the server,
//! [`connect`] on the client, then [`ShrimpSocket::send`] /
//! [`ShrimpSocket::recv`] — byte-stream semantics, no message
//! boundaries, no per-message headers.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod socket;
mod wire;

pub use socket::{connect, listen, Listener, ShrimpSocket, SocketError};
pub use wire::{SetupFrame, SocketVariant, RING_BYTES};
