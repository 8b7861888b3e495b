//! The 2-D grid: the reference mesh and its torus, one router with
//! wraparound as a compile-time switch.
//!
//! [`Mesh2D`] is the SHRIMP prototype's Paragon backplane of Intel Mesh
//! Routing Chips (iMRCs) under oblivious dimension-order wormhole
//! routing (Dally & Seitz): every packet goes first along X, then along
//! Y. The route is a pure function of (source, destination), so all
//! packets between a pair follow the same path, which (with FIFO links)
//! yields the in-order delivery guarantee the VMMC layer relies on.
//!
//! [`Torus2D`] adds wraparound links in both dimensions — the topology
//! knob the PMS cluster work showed matters most for bisection-bound
//! workloads. Each dimension goes the shorter way round, halving the
//! diameter and doubling the bisection of an equal-sized mesh. Ties (an
//! even ring with the destination exactly opposite) break toward
//! East/South, so the route stays a pure function of the pair and
//! in-order delivery holds.

use crate::id::NodeId;
use crate::topology::{Hop, RouterId, Topology};

/// A rectangular `width × height` grid of routers, with wraparound links
/// in both dimensions when `WRAP`; named [`Mesh2D`] and [`Torus2D`].
///
/// Nodes are numbered row-major and output port numbers are
/// [`Direction::index`](crate::Direction::index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid<const WRAP: bool> {
    width: usize,
    height: usize,
}

/// A rectangular 2-D mesh.
///
/// The 4-node SHRIMP prototype is a 2×2 mesh
/// ([`Mesh2D::shrimp_prototype`]); the paper's planned expansion to 16
/// nodes is 4×4.
///
/// # Examples
///
/// ```
/// use shrimp_fabric::{Mesh2D, NodeId, Topology};
/// let t = Mesh2D::new(4, 4);
/// assert_eq!(t.len(), 16);
/// let route = t.route(NodeId(0), NodeId(15), 0);
/// assert_eq!(route.len(), 6); // 3 east + 3 south
/// ```
pub type Mesh2D = Grid<false>;

/// A 2-D torus: the mesh with wraparound links, routed the shorter way
/// round each dimension.
pub type Torus2D = Grid<true>;

impl Mesh2D {
    /// The 2×2 mesh of the four-node prototype system.
    pub fn shrimp_prototype() -> Mesh2D {
        Mesh2D::new(2, 2)
    }
}

impl<const WRAP: bool> Grid<WRAP> {
    /// Create a `width × height` grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Grid<WRAP> {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        Grid { width, height }
    }

    /// `[x, y]` of a node.
    fn cell(&self, node: NodeId) -> [usize; 2] {
        let (w, h) = (self.width, self.height);
        assert!(
            node.0 < w * h,
            "node {node} out of range for a {w}×{h} grid"
        );
        [node.0 % w, node.0 / w]
    }

    fn router_at(&self, [x, y]: [usize; 2]) -> RouterId {
        y * self.width + x
    }

    /// How to cross one dimension of extent `size` from `from` to `to`:
    /// whether up (East/South), and the hop count. A mesh goes straight;
    /// a torus goes the shorter way round, up on a tie.
    fn plan(from: usize, to: usize, size: usize) -> (bool, usize) {
        if !WRAP {
            return (from < to, from.abs_diff(to));
        }
        let up = (to + size - from) % size;
        if up <= size - up {
            (true, up)
        } else {
            (false, size - up)
        }
    }

    /// One step up or down a dimension of extent `size`: `None` off a
    /// mesh's edge, where a torus wraps round.
    fn step(at: usize, size: usize, up: bool) -> Option<usize> {
        match up {
            true if at + 1 < size => Some(at + 1),
            false if at > 0 => Some(at - 1),
            _ if !WRAP => None,
            true => Some(0),
            false => Some(size - 1),
        }
    }
}

impl<const WRAP: bool> Topology for Grid<WRAP> {
    fn name(&self) -> &'static str {
        if WRAP {
            "torus"
        } else {
            "mesh"
        }
    }

    fn len(&self) -> usize {
        self.width * self.height
    }

    fn ports(&self) -> usize {
        4
    }

    fn link(&self, router: RouterId, port: usize) -> Option<RouterId> {
        if router >= self.len() || port >= 4 {
            return None;
        }
        let (axis, up) = (port / 2, port.is_multiple_of(2));
        let mut at = self.cell(NodeId(router));
        let from = at[axis];
        at[axis] = Self::step(from, [self.width, self.height][axis], up)?;
        // A torus dimension of extent 1 wraps onto the router itself;
        // report the port as unconnected instead of as a self-loop.
        (at[axis] != from).then(|| self.router_at(at))
    }

    /// The dimension-order hops from `src` to `dst`: all of X, then all
    /// of Y.
    fn route(&self, src: NodeId, dst: NodeId, _salt: u64) -> Vec<Hop> {
        let (mut at, to) = (self.cell(src), self.cell(dst));
        let sizes = [self.width, self.height];
        let plans = [0, 1].map(|axis| Self::plan(at[axis], to[axis], sizes[axis]));
        let mut hops = Vec::with_capacity(plans[0].1 + plans[1].1);
        for (axis, (up, n)) in plans.into_iter().enumerate() {
            // Up then down, X then Y: the `Direction::index` order.
            let port = 2 * axis + usize::from(!up);
            for _ in 0..n {
                hops.push(Hop {
                    router: self.router_at(at),
                    port,
                });
                at[axis] =
                    Self::step(at[axis], sizes[axis], up).expect("a planned hop stays on the grid");
            }
        }
        hops
    }

    fn min_distance(&self, a: NodeId, b: NodeId) -> usize {
        let (a, b) = (self.cell(a), self.cell(b));
        Self::plan(a[0], b[0], self.width).1 + Self::plan(a[1], b[1], self.height).1
    }

    fn grid_dims(&self) -> Option<(usize, usize)> {
        Some((self.width, self.height))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Direction;

    /// The directions in port order.
    const DIRS: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::South,
        Direction::North,
    ];

    fn hops(t: &dyn Topology, src: usize, dst: usize) -> Vec<(RouterId, Direction)> {
        let route = t.route(NodeId(src), NodeId(dst), 0);
        route.iter().map(|h| (h.router, DIRS[h.port])).collect()
    }

    #[test]
    fn ports_are_direction_indices() {
        for (port, d) in DIRS.into_iter().enumerate() {
            assert_eq!(d.index(), port);
        }
    }

    #[test]
    fn prototype_is_2x2() {
        let t = Mesh2D::shrimp_prototype();
        assert_eq!(t.len(), 4);
        assert_eq!(t.cell(NodeId(3)), [1, 1]);
        assert_eq!(t.router_at([0, 1]), 2);
    }

    #[test]
    fn route_is_x_then_y() {
        use Direction::{East, South};
        // (1,0) -> (2,3)
        let route = hops(&Mesh2D::new(4, 4), 1, 14);
        assert_eq!(route, [(1, East), (2, South), (6, South), (10, South)]);
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = Mesh2D::new(3, 3);
        assert!(t.route(NodeId(4), NodeId(4), 0).is_empty());
        assert_eq!(t.min_distance(NodeId(4), NodeId(4)), 0);
    }

    #[test]
    fn route_westward_and_northward() {
        use Direction::{North, West};
        // (2,1) -> (0,0)
        let route = hops(&Mesh2D::new(3, 2), 5, 0);
        assert_eq!(route, [(5, West), (4, West), (3, North)]);
    }

    #[test]
    fn neighbors_respect_edges() {
        let t = Mesh2D::new(2, 2);
        let link = |r, d: Direction| t.link(r, d.index());
        assert_eq!(link(0, Direction::East), Some(1));
        assert_eq!(link(0, Direction::West), None);
        assert_eq!(link(0, Direction::South), Some(2));
        assert_eq!(link(0, Direction::North), None);
        assert_eq!(link(3, Direction::East), None);
        assert_eq!(link(3, Direction::North), Some(1));
        assert_eq!(t.link(4, 0), None);
        assert_eq!(t.link(0, 4), None);
    }

    #[test]
    fn route_length_equals_min_distance() {
        for t in [&Mesh2D::new(5, 4) as &dyn Topology, &Torus2D::new(5, 4)] {
            for a in t.nodes() {
                for b in t.nodes() {
                    assert_eq!(t.route(a, b, 0).len(), t.min_distance(a, b));
                }
            }
        }
    }

    #[test]
    fn links_are_grid_edges() {
        let t = Mesh2D::new(2, 2);
        // 4 nodes x 2 internal links each (corner nodes have exactly two
        // neighbors in a 2x2) = 8 unidirectional links.
        assert_eq!(t.links().len(), 8);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_of_invalid_node_panics() {
        Mesh2D::new(2, 2).cell(NodeId(4));
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        Mesh2D::new(0, 3);
    }

    #[test]
    fn wrap_route_is_shorter() {
        // (0,0) -> (3,0): one westward wrap hop, not three east.
        let t = Torus2D::new(4, 4);
        assert_eq!(hops(&t, 0, 3), [(0, Direction::West)]);
        assert_eq!(t.min_distance(NodeId(0), NodeId(3)), 1);
    }

    #[test]
    fn tie_breaks_east_and_south() {
        let t = Torus2D::new(4, 4);
        // (0,0) -> (2,2): both ways are 2 hops in each dimension; ties go
        // East then South.
        let route = t.route(NodeId(0), NodeId(10), 0);
        assert_eq!(route[0].port, Direction::East.index());
        assert_eq!(route[2].port, Direction::South.index());
        assert_eq!(route.len(), 4);
    }

    #[test]
    fn torus_diameter_halves_mesh() {
        assert_eq!(Torus2D::new(8, 8).diameter(), 8);
        assert_eq!(Torus2D::new(4, 4).diameter(), 4);
    }

    #[test]
    fn degenerate_dimension_has_no_self_loop() {
        let t = Torus2D::new(1, 4);
        assert_eq!(t.link(0, Direction::East.index()), None);
        assert_eq!(t.link(0, Direction::South.index()), Some(1));
        // Wrap north from row 0 lands on row 3.
        assert_eq!(t.link(0, Direction::North.index()), Some(3));
    }

    #[test]
    fn width_two_has_parallel_links() {
        let t = Torus2D::new(2, 2);
        // East and West from node 0 both reach node 1 — two parallel
        // links on distinct ports.
        assert_eq!(t.link(0, Direction::East.index()), Some(1));
        assert_eq!(t.link(0, Direction::West.index()), Some(1));
    }
}
