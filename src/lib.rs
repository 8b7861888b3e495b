//! # shrimp — the SHRIMP multicomputer reproduction
//!
//! A full reimplementation, as a deterministic simulation, of the system
//! described in *Early Experience with Message-Passing on the SHRIMP
//! Multicomputer* (Felten et al., ISCA 1996): virtual memory-mapped
//! communication (VMMC) on a network of commodity PCs, plus every
//! user-level communication library the paper evaluates.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`sim`] — deterministic discrete-event kernel with blocking
//!   processes;
//! * [`mesh`] — the Paragon-style 2-D wormhole routing backplane;
//! * [`node`] — PC nodes: paged memory, MMU, Xpress/EISA buses, cost
//!   model, Ethernet;
//! * [`nic`] — the SHRIMP network interface (snoop logic, page tables,
//!   combining, deliberate-update engine, incoming DMA);
//! * [`vmmc`] — **the paper's contribution**: import-export mappings,
//!   deliberate and automatic update, notifications, the daemon;
//! * [`coll`] — topology-aware collective communication over
//!   persistent VMMC geometry (rings, binomial trees, pipelining);
//! * [`nx`] — NX message passing (one-copy credits + zero-copy
//!   rendezvous);
//! * [`sunrpc`] — SunRPC-compatible VRPC (XDR over a cyclic shared
//!   queue);
//! * [`srpc`] — the specialized SHRIMP RPC with its IDL stub generator;
//! * [`sockets`] — stream sockets with Ethernet connection setup;
//! * [`svc`] — a sharded, primary–backup replicated KV serving
//!   subsystem with an open-loop load engine (latency-vs-load curves,
//!   failover measurement);
//! * [`obs`] — virtual-time observability: causal message ids, per-layer
//!   spans, exact latency breakdowns, Perfetto trace export.
//!
//! Start with the `examples/` directory: `quickstart.rs` builds the
//! four-node prototype and moves bytes in a few dozen lines. The
//! `bench` workloads in `shrimp-bench` regenerate every figure of the
//! paper's evaluation (see DESIGN.md and EXPERIMENTS.md).

#![warn(missing_docs)]

pub use shrimp_coll as coll;
pub use shrimp_core as vmmc;
pub use shrimp_mesh as mesh;
pub use shrimp_nic as nic;
pub use shrimp_node as node;
pub use shrimp_nx as nx;
pub use shrimp_obs as obs;
pub use shrimp_rmc as rmc;
pub use shrimp_sim as sim;
pub use shrimp_sockets as sockets;
pub use shrimp_srpc as srpc;
pub use shrimp_sunrpc as sunrpc;
pub use shrimp_svc as svc;

/// Convenience prelude: the types nearly every program starts from.
pub mod prelude {
    pub use shrimp_core::{ExportOpts, ShrimpSystem, SystemConfig, Vmmc};
    pub use shrimp_mesh::NodeId;
    pub use shrimp_node::{CacheMode, CostModel, VAddr};
    pub use shrimp_sim::{Ctx, Kernel, SimChannel, SimDur, SimTime};
}
