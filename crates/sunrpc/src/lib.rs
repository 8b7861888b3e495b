//! # shrimp-sunrpc — VRPC: SunRPC-compatible remote procedure call
//!
//! A fast, fully compatible implementation of the SunRPC runtime (paper
//! §4.2), restructured for virtual memory-mapped communication exactly
//! as Figure 6 shows:
//!
//! * the network protocol stack is replaced with the **SBL** — a pair of
//!   VMMC mappings forming a bidirectional stream, one cyclic shared
//!   queue per direction (`shrimp_core::ByteRing`, framed into records);
//! * the stream layer is folded into the **XDR** layer ([`XdrEncoder`] /
//!   [`XdrDecoder`]), so argument marshaling writes straight into the
//!   transport (no sender-side copy);
//! * the stub generator and kernel are unchanged — [`CallHeader`] /
//!   [`ReplyHeader`] carry the full RFC 1057 wire format, including the
//!   "nontrivial header" that separates VRPC from the specialized RPC of
//!   `shrimp-srpc`.
//!
//! Servers register procedure handlers ([`VrpcServer`]); clients bind
//! through the [`RpcDirectory`] — the portmapper step, one exchange of
//! region names through the core binder — and issue
//! [`VrpcClient::call`].
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod client;
mod msg;
mod server;
mod stream;
mod xdr;

pub use client::{costs, RpcError, VrpcClient};
pub use msg::{AcceptStat, CallHeader, ReplyHeader, MSG_CALL, MSG_REPLY, RPC_VERS};
pub use server::{ProcHandler, ServerConn, VrpcServer};
pub use stream::StreamVariant;
pub use xdr::{XdrDecoder, XdrEncoder, XdrError};

/// The per-system service directory (the portmapper): program number →
/// listener queue, each request carrying the stream variant the client
/// wants. Each side then exports one region and imports the peer's, and
/// the pair forms the bidirectional stream.
pub type RpcDirectory = shrimp_core::Binder<u32, StreamVariant>;
