//! Fabric-built spanning trees, the skeleton for in-network collectives.
//!
//! The combining stage in each router (fetch-and-add combining, in-switch
//! reduce/broadcast) runs along a spanning tree of the physical link
//! graph: contributions flow up toward the root, combined at each router;
//! results flow back down the same tree. The tree is built by
//! deterministic BFS over [`Topology::link`] in ascending port order, so
//! every build over the same topology yields the same tree.

use crate::topology::{RouterId, Topology};
use std::collections::VecDeque;

/// A rooted spanning tree over a topology's router/link graph.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    root: RouterId,
    /// Per router: `(parent, port from this router toward parent)`;
    /// `None` for the root and for routers unreachable from it.
    up: Vec<Option<(RouterId, usize)>>,
    /// Per router: `(child, port from this router toward child)`, in BFS
    /// discovery order.
    children: Vec<Vec<(RouterId, usize)>>,
    depth: Vec<usize>,
}

impl SpanningTree {
    /// Build the BFS spanning tree rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a router of `topo`.
    pub fn build(topo: &dyn Topology, root: RouterId) -> SpanningTree {
        let n = topo.len();
        assert!(root < n, "root {root} out of range for {} routers", n);
        let mut up = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut depth = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        depth[root] = 0;
        queue.push_back(root);
        while let Some(r) = queue.pop_front() {
            for port in 0..topo.ports() {
                let Some(c) = topo.link(r, port) else {
                    continue;
                };
                if depth[c] != usize::MAX {
                    continue;
                }
                depth[c] = depth[r] + 1;
                // The child's up-port: its lowest-numbered port back to
                // the parent (parallel links pick the first).
                let back = (0..topo.ports())
                    .find(|&p| topo.link(c, p) == Some(r))
                    .expect("link graph must be symmetric for tree collectives");
                up[c] = Some((r, back));
                children[r].push((c, port));
                queue.push_back(c);
            }
        }
        SpanningTree {
            root,
            up,
            children,
            depth,
        }
    }

    /// The root router.
    pub fn root(&self) -> RouterId {
        self.root
    }

    /// `(parent, up-port)` of a router; `None` at the root.
    pub fn parent(&self, r: RouterId) -> Option<(RouterId, usize)> {
        self.up[r]
    }

    /// Children of a router with the down-port reaching each.
    pub fn children(&self, r: RouterId) -> &[(RouterId, usize)] {
        &self.children[r]
    }

    /// Hop distance from the root; `usize::MAX` if unreachable.
    pub fn depth(&self, r: RouterId) -> usize {
        self.depth[r]
    }

    /// Whether every router is reachable from the root.
    pub fn is_spanning(&self) -> bool {
        self.depth.iter().all(|&d| d != usize::MAX)
    }

    /// Routers in bottom-up order (leaves before their parents): reverse
    /// BFS order, the schedule for combining passes.
    pub fn bottom_up(&self) -> Vec<RouterId> {
        let mut order: Vec<RouterId> = (0..self.depth.len())
            .filter(|&r| self.depth[r] != usize::MAX)
            .collect();
        order.sort_by_key(|&r| std::cmp::Reverse(self.depth[r]));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dragonfly, Mesh2D, Torus2D};

    fn check_spanning(topo: &dyn Topology, root: RouterId) {
        let tree = SpanningTree::build(topo, root);
        assert!(tree.is_spanning(), "{} tree must span", topo.name());
        // Every non-root router has a parent whose link points back at it.
        for r in 0..topo.len() {
            if r == root {
                assert!(tree.parent(r).is_none());
                continue;
            }
            let (p, up_port) = tree.parent(r).unwrap();
            assert_eq!(topo.link(r, up_port), Some(p));
            assert!(tree.children(p).iter().any(|&(c, _)| c == r));
            assert_eq!(tree.depth(r), tree.depth(p) + 1);
        }
    }

    #[test]
    fn trees_span_every_topology() {
        check_spanning(&Mesh2D::new(4, 4), 0);
        check_spanning(&Mesh2D::new(4, 4), 5);
        check_spanning(&Torus2D::new(4, 4), 0);
        check_spanning(&Dragonfly::new(4, 4), 3);
    }

    #[test]
    fn build_is_deterministic() {
        let topo = Torus2D::new(4, 4);
        let a = SpanningTree::build(&topo, 0);
        let b = SpanningTree::build(&topo, 0);
        for r in 0..topo.len() {
            assert_eq!(a.parent(r), b.parent(r));
            assert_eq!(a.children(r), b.children(r));
        }
    }

    #[test]
    fn bottom_up_visits_children_first() {
        let topo = Mesh2D::new(3, 3);
        let tree = SpanningTree::build(&topo, 4);
        let order = tree.bottom_up();
        let pos = |r: RouterId| order.iter().position(|&x| x == r).unwrap();
        for r in 0..topo.len() {
            if let Some((p, _)) = tree.parent(r) {
                assert!(pos(r) < pos(p));
            }
        }
        assert_eq!(*order.last().unwrap(), 4);
    }
}
