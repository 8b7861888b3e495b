//! The `Topology` trait: what the backplane needs to know about a fabric.
//!
//! The SHRIMP prototype hard-wires a 2-D mesh of iMRCs with oblivious
//! dimension-order wormhole routing. This trait lifts that contract so the
//! same backplane timing model can drive a torus or a dragonfly. Every fabric keeps the iMRC's guarantee: the route between
//! a pair is a pure function of the pair, so over FIFO channels packets
//! arrive in the order they were sent, which every library protocol
//! relies on.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::id::NodeId;

/// Identifies a router in the fabric. Every router hosts one compute
/// node: router `i` is node `i`'s injection/ejection point.
pub type RouterId = usize;

/// A shared handle to a topology; the backplane and every layer above it
/// hold one of these.
pub type TopologyRef = Arc<dyn Topology>;

/// One hop of a route: the router a packet is at and the output port it
/// leaves through. `Topology::link(router, port)` names the next router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Router the packet occupies before the hop.
    pub router: RouterId,
    /// Output port it takes.
    pub port: usize,
}

/// A unidirectional physical link, for fault planning and enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Router the link leaves.
    pub from: RouterId,
    /// Output port on `from`.
    pub port: usize,
    /// Router the link enters.
    pub to: RouterId,
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.p{}->r{}", self.from, self.port, self.to)
    }
}

/// Iterator over the compute-node ids of a topology.
///
/// A concrete type (rather than `impl Iterator`) so [`Topology`] stays
/// object-safe.
#[derive(Debug, Clone)]
pub struct NodeIter {
    range: Range<usize>,
}

impl NodeIter {
    /// Iterate nodes `0..len`.
    pub fn new(len: usize) -> NodeIter {
        NodeIter { range: 0..len }
    }
}

impl Iterator for NodeIter {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        self.range.next().map(NodeId)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for NodeIter {
    fn next_back(&mut self) -> Option<NodeId> {
        self.range.next_back().map(NodeId)
    }
}

impl ExactSizeIterator for NodeIter {}

/// A network fabric: route computation, link enumeration and per-hop
/// cost.
///
/// # Contract
///
/// * Compute nodes and routers are both `0..len()`; node `i` injects at
///   router `i`.
/// * [`route`](Topology::route)`(src, dst, salt)` returns the hop list: the
///   first hop starts at router `src.0`, each `link(hop.router, hop.port)`
///   is the next hop's router, and the final link lands on router `dst.0`.
///   The route is empty iff `src == dst`.
/// * `route` ignores `salt`: the path is a pure function of the pair,
///   which (with FIFO links) is exactly the pairwise path-invariance
///   in-order delivery needs.
/// * Every route's length equals [`min_distance`](Topology::min_distance)
///   of the pair.
pub trait Topology: fmt::Debug + Send + Sync {
    /// Short name ("mesh", "torus", ...) for reports and bench output.
    fn name(&self) -> &'static str;

    /// Number of compute nodes, which is also the number of routers.
    fn len(&self) -> usize;

    /// True for a degenerate 0-node fabric (never constructible; present
    /// for API completeness).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Upper bound on output ports across all routers; valid port numbers
    /// are `0..ports()` (some may be unconnected on a given router).
    fn ports(&self) -> usize;

    /// Router at the far end of `(router, port)`, or `None` if that port
    /// is unconnected.
    fn link(&self, router: RouterId, port: usize) -> Option<RouterId>;

    /// The hop sequence from `src` to `dst`. Every fabric ignores `salt`
    /// (the backplane passes 0): a route that varied per packet would
    /// let packets of one pair overtake each other. The parameter stays
    /// only because callers outside the library still pass it.
    fn route(&self, src: NodeId, dst: NodeId, salt: u64) -> Vec<Hop>;

    /// Length of a shortest path between two nodes, in links (excluding
    /// injection/ejection).
    fn min_distance(&self, a: NodeId, b: NodeId) -> usize;

    /// Relative wire length of `(router, port)`; per-hop wire latency is
    /// scaled by this. 1.0 for ordinary backplane traces; dragonfly global
    /// links are longer.
    fn wire_factor(&self, _router: RouterId, _port: usize) -> f64 {
        1.0
    }

    /// `(width, height)` when the compute nodes form a row-major 2-D grid
    /// (mesh, torus); layers that lay out communication patterns
    /// geometrically (the collectives snake ring) use this.
    fn grid_dims(&self) -> Option<(usize, usize)> {
        None
    }

    /// All compute-node ids.
    fn nodes(&self) -> NodeIter {
        NodeIter::new(self.len())
    }

    /// Every unidirectional link in the fabric, in `(router, port)` order.
    fn links(&self) -> Vec<Link> {
        let mut out = Vec::new();
        for from in 0..self.len() {
            for port in 0..self.ports() {
                if let Some(to) = self.link(from, port) {
                    out.push(Link { from, port, to });
                }
            }
        }
        out
    }

    /// Longest shortest path between any two compute nodes, in links.
    fn diameter(&self) -> usize {
        let mut d = 0;
        for a in self.nodes() {
            for b in self.nodes() {
                d = d.max(self.min_distance(a, b));
            }
        }
        d
    }
}
