//! # shrimp-fabric
//!
//! The topology zoo for the SHRIMP backplane. The paper's prototype
//! hard-wires a 2-D mesh of iMRCs with oblivious dimension-order wormhole
//! routing; this crate lifts everything the backplane timing model needs
//! to know about a fabric behind the [`Topology`] trait — route
//! computation, link enumeration and per-hop wire cost. Every fabric has
//! one router under each compute node (a router's id is its node's
//! index) and routes each pair along one fixed path, so over FIFO
//! channels it delivers each pair's packets in order, the contract VMMC
//! and every library above it relies on.
//!
//! Implementations:
//!
//! * [`Mesh2D`] — the reference topology, bit-identical in behavior to the
//!   pre-trait hard-wired mesh, and [`Torus2D`] — the same grid with
//!   wraparound links, routed the shorter way round each dimension. Both
//!   are one [`Grid`] router; wraparound is its compile-time parameter.
//! * [`Dragonfly`] — locally full-meshed groups joined by long global
//!   links ([`GLOBAL_WIRE_FACTOR`]× wire latency).
//!
//! [`SpanningTree`] builds the deterministic BFS tree that the in-network
//! combining stage (fetch-and-add, in-switch reduce/broadcast) runs along.

mod dragonfly;
mod grid;
mod id;
mod topology;
mod tree;

pub use dragonfly::{Dragonfly, GLOBAL_WIRE_FACTOR};
pub use grid::{Grid, Mesh2D, Torus2D};
pub use id::{Coord, Direction, NodeId};
pub use topology::{Hop, Link, NodeIter, RouterId, Topology, TopologyRef};
pub use tree::SpanningTree;
