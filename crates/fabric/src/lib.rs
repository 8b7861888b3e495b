//! # shrimp-fabric
//!
//! The topology zoo for the SHRIMP backplane. The paper's prototype
//! hard-wires a 2-D mesh of iMRCs with oblivious dimension-order wormhole
//! routing; this crate lifts everything the backplane timing model needs
//! to know about a fabric behind the [`Topology`] trait — node/router
//! mapping, route computation, link enumeration, per-hop wire cost, and
//! (crucially) the declared [`DeliveryOrder`] from which the VMMC layer
//! *derives* its in-order delivery contract instead of assuming it.
//!
//! Implementations:
//!
//! * [`Mesh2D`] — the reference topology, bit-identical in behavior to the
//!   pre-trait hard-wired mesh, and [`Torus2D`] — the same grid with
//!   wraparound links, routed the shorter way round each dimension. Both
//!   are one [`Grid`] router; wraparound is its compile-time parameter.
//! * [`FatTree`] — two-level indirect network with switch-only routers;
//!   pair-hashed spine selection keeps delivery in-order.
//! * [`Dragonfly`] — locally full-meshed groups joined by long global
//!   links ([`GLOBAL_WIRE_FACTOR`]× wire latency).
//! * [`AdaptiveMesh`] — Valiant two-phase randomized routing, the
//!   non-minimal [`DeliveryOrder::Unordered`] ablation against the paper's
//!   oblivious routing.
//!
//! [`SpanningTree`] builds the deterministic BFS tree that the in-network
//! combining stage (fetch-and-add, in-switch reduce/broadcast) runs along.

mod adaptive;
mod dragonfly;
mod fattree;
mod grid;
mod id;
mod topology;
mod tree;

pub use adaptive::AdaptiveMesh;
pub use dragonfly::{Dragonfly, GLOBAL_WIRE_FACTOR};
pub use fattree::FatTree;
pub use grid::{Grid, Mesh2D, Torus2D};
pub use id::{Coord, Direction, NodeId};
pub use topology::{DeliveryOrder, Hop, Link, NodeIter, RouterId, Topology, TopologyRef};
pub use tree::SpanningTree;
