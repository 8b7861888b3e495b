//! # shrimp-srpc — the specialized SHRIMP RPC
//!
//! The non-compatible RPC system of paper §5: a real RPC system with a
//! stub generator that reads an interface definition file
//! ([`parse_interface`]) and produces marshaling plans
//! ([`InterfacePlan`]) — plus the equivalent generated stub source
//! ([`emit_client_stub`]) — designed from scratch for SHRIMP:
//!
//! * each binding is one receive buffer on each side with bidirectional
//!   import-export (automatic update) mappings between them, following
//!   Bershad's URPC;
//! * the client stub fills memory locations consecutively — arguments,
//!   then the flag one word after — as one store run into the buffer's
//!   *call area*, so the hardware combines the whole call into a single
//!   packet (`tests/wire.rs` counts them at the NIC);
//! * OUT and INOUT parameters are written by the procedure *by
//!   reference* into the buffer's *reply area* and propagate back to the
//!   client in the background, overlapped with the server's computation;
//!   when the procedure ends the server just writes the reply flag —
//!   which, after sets made in declaration order, continues their store
//!   run, so the whole reply is a single packet too;
//! * an `opaque<N>` sends only the bytes a call uses — its bytes, then a
//!   length word — and the run still ends at the flag, so the receiver
//!   finds every field by walking back from it;
//! * no headers: the entire protocol overhead is one flag word each way,
//!   which is why the null call costs 9.5 µs round trip against SunRPC's
//!   29 µs (Figure 8; 9.76 against 29.7 here), with software overhead
//!   under 1 µs.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codegen;
mod idl;
mod layout;
mod runtime;

pub use codegen::emit_client_stub;
pub use idl::{parse_interface, Dir, Interface, Param, ParseError, ProcDef, Ty};
pub use layout::{InterfacePlan, ParamSlot, ProcPlan};
pub use runtime::{
    decode_run, OutWriter, SrpcClient, SrpcConn, SrpcDirectory, SrpcError, SrpcHandler, SrpcServer,
    Val,
};
