//! Communicator geometry: which peers each rank keeps persistent
//! channels to, the mesh-aware ring order, and the binomial tree.
//!
//! Everything here is pure arithmetic computed identically by every
//! rank, so no coordination is needed to agree on the shapes.

use shrimp_mesh::{Coord, Topology};

/// Mesh-aware ring order: a permutation of the communicator's ranks
/// such that consecutive ranks (cyclically) sit on mesh-adjacent nodes
/// whenever the grid admits a Hamiltonian cycle (`w*h` even, both
/// dimensions ≥ 2). Ranks are ordered by their node's position along a
/// snake through the grid; with an odd×odd or 1×k grid the snake is a
/// Hamiltonian *path* and the single closing hop is multi-hop.
#[derive(Debug, Clone)]
pub(crate) struct RingOrder {
    /// `ring[pos]` = rank at ring position `pos`.
    pub(crate) ring: Vec<usize>,
    /// `pos_of[rank]` = ring position of `rank`.
    pub(crate) pos_of: Vec<usize>,
}

impl RingOrder {
    /// Build the ring for ranks living on `nodes[rank]` of `topo`.
    ///
    /// Grid topologies (mesh, torus) get the mesh-aware snake; a fabric
    /// without grid coordinates (the dragonfly) falls back to a linear
    /// order over node ids, which keeps each group's nodes, one local
    /// hop apart, next to each other in the ring.
    pub(crate) fn new(topo: &dyn Topology, nodes: &[usize]) -> RingOrder {
        let (w, h) = topo.grid_dims().unwrap_or((topo.len(), 1));
        let snake = snake_positions(w, h);
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        // Sort ranks by their node's snake position; ties (two ranks on
        // one node) break by rank for determinism.
        order.sort_by_key(|&r| (snake[nodes[r]], r));
        let mut pos_of = vec![0; nodes.len()];
        for (pos, &r) in order.iter().enumerate() {
            pos_of[r] = pos;
        }
        RingOrder {
            ring: order,
            pos_of,
        }
    }

    /// Rank after `rank` in ring order.
    pub(crate) fn next(&self, rank: usize) -> usize {
        self.ring[(self.pos_of[rank] + 1) % self.ring.len()]
    }

    /// Rank before `rank` in ring order.
    pub(crate) fn prev(&self, rank: usize) -> usize {
        let n = self.ring.len();
        self.ring[(self.pos_of[rank] + n - 1) % n]
    }
}

/// Snake position of every node (row-major node index → position along
/// the snake). For `w*h` even with `w,h ≥ 2` the snake is a Hamiltonian
/// cycle: one boundary row/column is traversed first, the interior
/// serpentines, and the opposite boundary column walks back — every
/// consecutive pair (including last→first) is a single mesh hop.
fn snake_positions(w: usize, h: usize) -> Vec<usize> {
    let cells = cycle_or_path(w, h);
    let mut pos = vec![0usize; w * h];
    for (p, c) in cells.iter().enumerate() {
        pos[c.y * w + c.x] = p;
    }
    pos
}

fn cycle_or_path(w: usize, h: usize) -> Vec<Coord> {
    if h >= 2 && w >= 2 && h.is_multiple_of(2) {
        return cycle_even_h(w, h);
    }
    if h >= 2 && w >= 2 && w.is_multiple_of(2) {
        // Transpose the even-height construction.
        return cycle_even_h(h, w)
            .into_iter()
            .map(|c| Coord { x: c.y, y: c.x })
            .collect();
    }
    // Odd×odd or a 1-wide strip: boustrophedon Hamiltonian path; the
    // wrap link back to (0,0) is the one multi-hop ring link.
    let mut cells = Vec::with_capacity(w * h);
    for y in 0..h {
        if y % 2 == 0 {
            for x in 0..w {
                cells.push(Coord { x, y });
            }
        } else {
            for x in (0..w).rev() {
                cells.push(Coord { x, y });
            }
        }
    }
    cells
}

/// Hamiltonian cycle for even `h`: east along row 0, serpentine through
/// columns `1..w` of rows `1..h`, then north up column 0.
fn cycle_even_h(w: usize, h: usize) -> Vec<Coord> {
    let mut cells = Vec::with_capacity(w * h);
    for x in 0..w {
        cells.push(Coord { x, y: 0 });
    }
    for y in 1..h {
        if y % 2 == 1 {
            for x in (1..w).rev() {
                cells.push(Coord { x, y });
            }
        } else {
            for x in 1..w {
                cells.push(Coord { x, y });
            }
        }
    }
    for y in (1..h).rev() {
        cells.push(Coord { x: 0, y });
    }
    cells
}

/// The peer set rank `me` keeps persistent channels to: the ring
/// neighbors and every `me ± 2^k (mod n)` partner, which covers
/// recursive doubling, dissemination, and binomial trees for any root.
/// At n ≤ 5 and n = 7 that is every other rank, so the flat algorithm
/// variants work there too.
pub(crate) fn peer_set(me: usize, n: usize, ring: &RingOrder) -> Vec<usize> {
    let mut peers = vec![ring.next(me), ring.prev(me)];
    let mut dist = 1usize;
    while dist < n {
        peers.push((me + dist) % n);
        peers.push((me + n - dist) % n);
        dist *= 2;
    }
    peers.sort_unstable();
    peers.dedup();
    peers.retain(|&p| p != me);
    peers
}

/// Binomial tree with *contiguous subtrees* over virtual ranks
/// (vrank = `(rank - root) mod n`): the parent of `v` clears its lowest
/// set bit, and `v`'s subtree is the contiguous range
/// `[v, min(v + lowbit(v), n))` — which is what lets tree gathers and
/// scatters move whole contiguous block ranges.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinomialTree {
    /// Communicator size.
    pub(crate) n: usize,
}

impl BinomialTree {
    fn lowbit(v: usize) -> usize {
        v & v.wrapping_neg()
    }

    /// Parent of virtual rank `v` (None for the root).
    pub(crate) fn parent(&self, v: usize) -> Option<usize> {
        if v == 0 {
            None
        } else {
            Some(v - Self::lowbit(v))
        }
    }

    /// Children of virtual rank `v`, nearest first (`v+1, v+2, v+4, …`).
    pub(crate) fn children(&self, v: usize) -> Vec<usize> {
        let limit = if v == 0 { self.n } else { Self::lowbit(v) };
        let mut out = Vec::new();
        let mut bit = 1usize;
        while bit < limit {
            if v + bit < self.n {
                out.push(v + bit);
            }
            bit *= 2;
        }
        out
    }

    /// The contiguous virtual-rank range `[v, end)` rooted at `v`.
    pub(crate) fn subtree(&self, v: usize) -> (usize, usize) {
        let end = if v == 0 {
            self.n
        } else {
            (v + Self::lowbit(v)).min(self.n)
        };
        (v, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_ring(w: usize, h: usize) {
        let topo = shrimp_mesh::Mesh2D::new(w, h);
        let nodes: Vec<usize> = (0..w * h).collect();
        let ring = RingOrder::new(&topo, &nodes);
        let n = w * h;
        // A permutation.
        let mut seen = vec![false; n];
        for &r in &ring.ring {
            assert!(!seen[r]);
            seen[r] = true;
        }
        // Every hop single-distance when a cycle exists; at most one
        // long link otherwise.
        let mut long = 0;
        for p in 0..n {
            let a = shrimp_mesh::NodeId(nodes[ring.ring[p]]);
            let b = shrimp_mesh::NodeId(nodes[ring.ring[(p + 1) % n]]);
            if topo.min_distance(a, b) != 1 {
                long += 1;
            }
        }
        if w >= 2 && h >= 2 && (w * h).is_multiple_of(2) {
            assert_eq!(long, 0, "{w}x{h} snake should be a cycle");
        } else {
            assert!(long <= 1, "{w}x{h} snake should have one wrap link");
        }
    }

    #[test]
    fn snake_rings_are_single_hop() {
        for (w, h) in [(2, 2), (4, 4), (8, 8), (2, 3), (3, 2), (4, 2), (2, 4)] {
            check_ring(w, h);
        }
    }

    #[test]
    fn snake_paths_cover_odd_grids() {
        for (w, h) in [(1, 2), (1, 5), (3, 3), (5, 3), (1, 16)] {
            check_ring(w, h);
        }
    }

    #[test]
    fn binomial_subtrees_are_contiguous_and_cover() {
        for n in 2..=17 {
            let t = BinomialTree { n };
            for v in 0..n {
                let (lo, hi) = t.subtree(v);
                assert_eq!(lo, v);
                // Children's subtrees tile [v+1, hi).
                let mut at = v + 1;
                let mut kids = t.children(v);
                kids.sort_unstable();
                for c in kids {
                    let (clo, chi) = t.subtree(c);
                    assert_eq!(clo, at, "n={n} v={v}");
                    at = chi;
                }
                assert_eq!(at, hi, "n={n} v={v}");
                if let Some(p) = t.parent(v) {
                    assert!(t.children(p).contains(&v));
                }
            }
        }
    }

    #[test]
    fn peer_sets_reach_every_rank_up_to_five_and_at_seven() {
        for n in (2..=5).chain([7]) {
            let topo = shrimp_mesh::Mesh2D::new(n, 1);
            let ring = RingOrder::new(&topo, &(0..n).collect::<Vec<_>>());
            for me in 0..n {
                let others: Vec<usize> = (0..n).filter(|&p| p != me).collect();
                assert_eq!(peer_set(me, n, &ring), others, "n={n} me={me}");
            }
        }
    }

    #[test]
    fn tree_partners_are_pow2_offsets() {
        // Channel coverage: every parent/child link is a ±2^k offset in
        // virtual-rank space, hence a ±2^k offset mod n in rank space.
        for n in 2..=16 {
            let t = BinomialTree { n };
            for v in 1..n {
                let p = t.parent(v).unwrap();
                let d = v - p;
                assert!(d.is_power_of_two());
            }
        }
    }
}
