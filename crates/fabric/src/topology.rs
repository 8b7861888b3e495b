//! The `Topology` trait: what the backplane needs to know about a fabric.
//!
//! The SHRIMP prototype hard-wires a 2-D mesh of iMRCs with oblivious
//! dimension-order wormhole routing. This trait lifts that contract so the
//! same backplane timing model can drive a torus, a fat-tree, a dragonfly,
//! or an adaptively-routed mesh — and so the VMMC layer can *derive* its
//! in-order delivery assumption from the topology's declared guarantee
//! instead of assuming it.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::id::NodeId;

/// Identifies a router in the fabric. Routers `0..len()` host the compute
/// nodes (router `i` is node `i`'s injection/ejection point); indirect
/// topologies (fat-tree) add switch-only routers with ids `>= len()`.
pub type RouterId = usize;

/// A shared handle to a topology; the backplane and every layer above it
/// hold one of these.
pub type TopologyRef = Arc<dyn Topology>;

/// What a topology promises about the relative order of packets sent
/// between one (source, destination) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOrder {
    /// Every packet between a given pair follows the same path over FIFO
    /// links, so packets arrive in injection order. VMMC's flag-after-data
    /// update protocol requires this.
    InOrder,
    /// Packets between a pair may take different paths (adaptive or
    /// randomized routing) and can overtake each other. VMMC cannot run
    /// directly on such a fabric without a reorder stage.
    Unordered,
}

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

/// A network fabric: node/router mapping, route computation, link
/// enumeration, per-hop cost, and the ordering guarantee the layers above
/// may rely on.
///
/// # Contract
///
/// * Compute nodes are `0..len()`; node `i` injects at router
///   [`router_of`](Topology::router_of)`(i)` (dense node routers first).
/// * [`route`](Topology::route)`(src, dst, salt)` returns the hop list: the
///   first hop starts at `router_of(src)`, each `link(hop.router, hop.port)`
///   is the next hop's router, and the final link lands on `router_of(dst)`.
///   The route is empty iff `src == dst`.
/// * When [`ordering`](Topology::ordering) is
///   [`DeliveryOrder::InOrder`], `route` must ignore `salt` — the path is a
///   pure function of the pair, which (with FIFO links) is exactly the
///   pairwise path-invariance in-order delivery needs.
/// * When [`minimal`](Topology::minimal) is true, every route's length
///   equals [`min_distance`](Topology::min_distance) of the pair.
pub trait Topology: fmt::Debug + Send + Sync {
    /// Short name ("mesh", "torus", ...) for reports and bench output.
    fn name(&self) -> &'static str;

    /// Number of compute nodes.
    fn len(&self) -> usize;

    /// True for a degenerate 0-node fabric (never constructible; present
    /// for API completeness).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total routers, including switch-only routers. Defaults to one
    /// router per node.
    fn routers(&self) -> usize {
        self.len()
    }

    /// Router a node injects at / ejects from.
    fn router_of(&self, node: NodeId) -> RouterId {
        debug_assert!(node.0 < self.len());
        node.0
    }

    /// Upper bound on output ports across all routers; valid port numbers
    /// are `0..ports()` (some may be unconnected on a given router).
    fn ports(&self) -> usize;

    /// Router at the far end of `(router, port)`, or `None` if that port
    /// is unconnected.
    fn link(&self, router: RouterId, port: usize) -> Option<RouterId>;

    /// The hop sequence from `src` to `dst`. `salt` seeds route
    /// randomization for adaptive topologies and MUST be ignored by
    /// topologies declaring [`DeliveryOrder::InOrder`].
    fn route(&self, src: NodeId, dst: NodeId, salt: u64) -> Vec<Hop>;

    /// Length of a shortest path between two nodes, in links (excluding
    /// injection/ejection).
    fn min_distance(&self, a: NodeId, b: NodeId) -> usize;

    /// The ordering guarantee this fabric provides between each pair.
    fn ordering(&self) -> DeliveryOrder;

    /// Whether every route is a shortest path.
    fn minimal(&self) -> bool {
        true
    }

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
        for from in 0..self.routers() {
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

/// SplitMix64: cheap stateless mixer for deterministic route
/// randomization and pair hashing.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
