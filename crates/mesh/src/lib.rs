//! # shrimp-mesh — the routing backplane
//!
//! The SHRIMP prototype connects its four PC nodes with an Intel routing
//! backplane: a two-dimensional mesh of Intel Mesh Routing Chips (iMRCs)
//! — the same network used in the Paragon multicomputer — supporting
//! deadlock-free, oblivious wormhole routing and preserving the order of
//! messages from each sender to each receiver.
//!
//! This crate models that backplane for the simulation, generalized over
//! the `shrimp-fabric` topology zoo:
//!
//! * [`Backplane`] — channel reservation timelines, per-hop head latency,
//!   serialization and contention, over any [`Topology`]; the per-pair
//!   in-order delivery guarantee is *derived* from the topology's
//!   declared [`DeliveryOrder`] (asserted
//!   on every delivery for in-order fabrics, counted as
//!   [`MeshStats::reordered`] otherwise);
//! * [`LinkParams`] — calibrated channel parameters
//!   ([`LinkParams::paragon`] approximates the prototype's backplane);
//! * the `collnet` module — in-network computing: a combining stage and
//!   in-switch broadcast in the routers, along a fabric spanning tree
//!   ([`HwGroup`], [`HwOp`], `Backplane::hw_*`).
//!
//! The topology types themselves ([`Mesh2D`], `Torus2D`, `FatTree`,
//! `Dragonfly`, `AdaptiveMesh`) live in `shrimp-fabric`; the most common
//! ones are re-exported here for convenience.
//!
//! See the `backplane` module docs for the fidelity discussion.
//!
//! ```
//! use shrimp_sim::Kernel;
//! use shrimp_mesh::{Backplane, LinkParams, Mesh2D, NodeId};
//! use std::sync::Arc;
//!
//! let kernel = Kernel::new();
//! let net: Arc<Backplane<&'static str>> = Backplane::new(
//!     kernel.handle(),
//!     Arc::new(Mesh2D::shrimp_prototype()),
//!     LinkParams::paragon(),
//! );
//! net.attach(NodeId(1), |d| assert_eq!(d.payload, "hello"));
//! net.inject(NodeId(0), NodeId(1), 5, "hello");
//! kernel.run_until_quiescent()?;
//! # Ok::<(), shrimp_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backplane;
mod collnet;

pub use backplane::{Backplane, Delivery, LinkParams, MeshStats};
pub use collnet::{HwDone, HwGroup, HwOp};
// Re-export the fabric vocabulary so downstream crates keep a single
// import path for "the network".
pub use shrimp_fabric::{
    AdaptiveMesh, Coord, DeliveryOrder, Direction, Dragonfly, FatTree, Hop, Link, Mesh2D, NodeId,
    RouterId, SpanningTree, Topology, TopologyRef, Torus2D,
};
