//! Two-level fat-tree: leaf switches over the nodes, spine switches over
//! the leaves.
//!
//! The first indirect topology in the zoo — routers outnumber nodes, and
//! the switch-only routers (leaves, spines) carry no compute. Every
//! inter-leaf packet goes up through its leaf to a spine and back down;
//! the spine is chosen by a hash of the (source, destination) pair, so the
//! path is pair-invariant and in-order delivery holds even though the
//! fabric load-balances across spines.

use crate::id::NodeId;
use crate::topology::{Hop, RouterId, Topology};

/// A two-level fat-tree over `nodes` compute nodes: `ceil(nodes/arity)`
/// leaf switches, each serving up to `arity` nodes, fully connected to
/// `spines` spine switches.
///
/// Router ids: `0..nodes` are per-node routers (one up port each), then
/// the leaves, then the spines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTree {
    nodes: usize,
    arity: usize,
    spines: usize,
    leaves: usize,
}

impl FatTree {
    /// Create a fat-tree over `nodes` nodes with `arity` nodes per leaf
    /// and `spines` spine switches.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(nodes: usize, arity: usize, spines: usize) -> FatTree {
        assert!(
            nodes > 0 && arity > 0 && spines > 0,
            "fat-tree parameters must be positive"
        );
        FatTree {
            nodes,
            arity,
            spines,
            leaves: nodes.div_ceil(arity),
        }
    }

    /// Leaf-switch router id serving `node`.
    pub fn leaf_of(&self, node: NodeId) -> RouterId {
        self.nodes + node.0 / self.arity
    }

    /// Spine-switch router id chosen for the `(src, dst)` pair — a pure
    /// function of the pair, which is what keeps delivery in-order.
    fn spine_for(&self, src: NodeId, dst: NodeId) -> usize {
        (splitmix64(((src.0 as u64) << 32) | dst.0 as u64) % self.spines as u64) as usize
    }

    fn first_spine(&self) -> RouterId {
        self.nodes + self.leaves
    }
}

impl Topology for FatTree {
    fn name(&self) -> &'static str {
        "fattree"
    }

    fn len(&self) -> usize {
        self.nodes
    }

    fn routers(&self) -> usize {
        self.nodes + self.leaves + self.spines
    }

    fn ports(&self) -> usize {
        // Node routers use 1 port, leaves arity + spines, spines one per
        // leaf.
        (self.arity + self.spines).max(self.leaves).max(1)
    }

    fn link(&self, router: RouterId, port: usize) -> Option<RouterId> {
        if router < self.nodes {
            // Node router: single up port to its leaf.
            (port == 0).then(|| self.leaf_of(NodeId(router)))
        } else if router < self.first_spine() {
            let leaf = router - self.nodes;
            if port < self.arity {
                // Down to a node router.
                let node = leaf * self.arity + port;
                (node < self.nodes).then_some(node)
            } else if port < self.arity + self.spines {
                // Up to a spine.
                Some(self.first_spine() + (port - self.arity))
            } else {
                None
            }
        } else if router < self.routers() {
            // Spine: one down port per leaf.
            (port < self.leaves).then(|| self.nodes + port)
        } else {
            None
        }
    }

    fn route(&self, src: NodeId, dst: NodeId, _salt: u64) -> Vec<Hop> {
        assert!(
            src.0 < self.nodes && dst.0 < self.nodes,
            "node out of range"
        );
        if src == dst {
            return Vec::new();
        }
        let leaf_s = self.leaf_of(src);
        let leaf_d = self.leaf_of(dst);
        let up = Hop {
            router: src.0,
            port: 0,
        };
        let down_to_dst = Hop {
            router: leaf_d,
            port: dst.0 % self.arity,
        };
        if leaf_s == leaf_d {
            return vec![up, down_to_dst];
        }
        let spine = self.spine_for(src, dst);
        vec![
            up,
            Hop {
                router: leaf_s,
                port: self.arity + spine,
            },
            Hop {
                router: self.first_spine() + spine,
                port: leaf_d - self.nodes,
            },
            down_to_dst,
        ]
    }

    fn min_distance(&self, a: NodeId, b: NodeId) -> usize {
        if a == b {
            0
        } else if self.leaf_of(a) == self.leaf_of(b) {
            2
        } else {
            4
        }
    }
}

/// SplitMix64: a cheap stateless mixer, here the pair hash that picks a
/// spine.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_leaf_route_skips_spine() {
        let t = FatTree::new(16, 4, 2);
        let route = t.route(NodeId(0), NodeId(3), 0);
        assert_eq!(route.len(), 2);
        assert_eq!(route[0], Hop { router: 0, port: 0 });
        assert_eq!(
            route[1],
            Hop {
                router: 16,
                port: 3
            }
        );
    }

    #[test]
    fn inter_leaf_route_crosses_one_spine() {
        let t = FatTree::new(16, 4, 2);
        let route = t.route(NodeId(1), NodeId(14), 0);
        assert_eq!(route.len(), 4);
        // Up from node router into leaf 0.
        assert_eq!(t.link(route[0].router, route[0].port), Some(16));
        // Leaf up-port lands on a spine.
        let spine = t.link(route[1].router, route[1].port).unwrap();
        assert!((20..22).contains(&spine));
        // Spine down-port lands on leaf 3 (serves nodes 12..16).
        assert_eq!(t.link(route[2].router, route[2].port), Some(19));
        // Leaf down-port lands on node 14's router.
        assert_eq!(t.link(route[3].router, route[3].port), Some(14));
    }

    #[test]
    fn spine_choice_is_pair_invariant() {
        let t = FatTree::new(16, 4, 2);
        for salt in [0u64, 1, 99] {
            assert_eq!(
                t.route(NodeId(1), NodeId(14), salt),
                t.route(NodeId(1), NodeId(14), 0)
            );
        }
    }

    #[test]
    fn router_and_port_counts() {
        let t = FatTree::new(16, 4, 2);
        assert_eq!(t.routers(), 16 + 4 + 2);
        assert_eq!(t.ports(), 6); // leaf: 4 down + 2 up
                                  // Ragged last leaf: 10 nodes, arity 4 -> 3 leaves.
        let r = FatTree::new(10, 4, 2);
        assert_eq!(r.routers(), 10 + 3 + 2);
        // Leaf 2 serves nodes 8, 9 only.
        assert_eq!(r.link(12, 0), Some(8));
        assert_eq!(r.link(12, 1), Some(9));
        assert_eq!(r.link(12, 2), None);
    }

    #[test]
    fn distances() {
        let t = FatTree::new(16, 4, 2);
        assert_eq!(t.min_distance(NodeId(5), NodeId(5)), 0);
        assert_eq!(t.min_distance(NodeId(5), NodeId(6)), 2);
        assert_eq!(t.min_distance(NodeId(5), NodeId(12)), 4);
        assert_eq!(t.diameter(), 4);
    }
}
