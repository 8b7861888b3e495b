//! # shrimp-coll — topology-aware collectives directly on VMMC
//!
//! The paper's libraries (NX, RPC, sockets) layer message passing over
//! virtual memory-mapped communication; this crate does the same for
//! *collective* operations, the way mapped-memory machines earn their
//! scaling: all export/import geometry is established **once**, when
//! the communicator is created, and every collective afterwards is
//! nothing but stores and sends into persistently mapped buffers — the
//! paper's separation of control from data: flags, acks and payloads of
//! at most [`EAGER_BYTES`] are stores into an automatic-update control
//! page, a bulk payload is a deliberate-update tail beside a head the
//! CPU stores through the same automatic-update mirror — with
//! flag-after-data completion (paper §2.2's in-order delivery is the
//! completion mechanism — the flag word is stored after the payload has
//! left, so its arrival proves the data landed).
//!
//! * [`CollWorld`] — the job-wide factory; each rank calls
//!   [`CollWorld::join`]/[`CollWorld::try_join`] to build its
//!   [`CollComm`].
//! * [`CollComm`] — persistent channels to the ring neighbors (mesh
//!   snake order: every ring hop is one mesh link), the `±2^k` partners
//!   (recursive doubling, dissemination, binomial trees for any root),
//!   and — on small communicators — every rank.
//! * [`ops`](CollComm::barrier) — `barrier`, `broadcast`, `reduce`,
//!   `allgather`, `reduce_scatter`, `allreduce`. Broadcast, reduce,
//!   allgather and allreduce have two or three algorithms each, chosen
//!   by a size/node-count selector or pinned explicitly through
//!   `broadcast_with`, `reduce_with`, `allgather_with` and
//!   `allreduce_with`; the barrier is dissemination and the
//!   reduce-scatter the snake ring.
//!
//! Chunked pipelining: every algorithm is calls to one chunked
//! transfer, which moves vectors in [`CHUNK_BYTES`] pieces through the
//! two slots of each channel (`shrimp_core::SlotChannel`), so a bulk
//! chunk's deliberate update is in flight while the sender copies or
//! combines the chunk before it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod comm;
mod geometry;
mod hw;
mod ops;

pub use comm::{CollComm, CollConfig, CollError, CollWorld, CHUNK_BYTES, EAGER_BYTES};
pub use hw::CollImpl;
pub use ops::{
    block_range, rd_cutoff_bytes, AllgatherAlg, AllreduceAlg, BcastAlg, ReduceAlg, ReduceOp,
};
