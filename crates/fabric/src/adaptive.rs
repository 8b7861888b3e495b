//! Valiant two-phase randomized routing on the 2-D mesh — the ablation
//! against the paper's oblivious dimension-order routing.
//!
//! Each packet picks a random intermediate node (seeded by the per-packet
//! salt) and routes dimension-order source → intermediate → destination.
//! This spreads adversarial traffic across the whole fabric at the price
//! of non-minimal paths — and, crucially, of the in-order delivery
//! guarantee: two packets between the same pair can take different routes
//! and overtake each other, so this topology declares
//! [`DeliveryOrder::Unordered`] and VMMC refuses to run on it. The
//! `topobench` ablation quantifies exactly what the paper's oblivious
//! choice buys and costs.

use crate::grid::Mesh2D;
use crate::id::NodeId;
use crate::topology::{splitmix64, DeliveryOrder, Hop, RouterId, Topology};

/// A `width × height` mesh under Valiant randomized routing. Geometry
/// (node numbering, ports, links) is identical to [`Mesh2D`]; only route
/// selection differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveMesh {
    mesh: Mesh2D,
}

impl AdaptiveMesh {
    /// Create a `width × height` adaptively-routed mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> AdaptiveMesh {
        AdaptiveMesh {
            mesh: Mesh2D::new(width, height),
        }
    }

    /// The intermediate node a packet with `salt` bounces through.
    fn intermediate(&self, src: NodeId, dst: NodeId, salt: u64) -> NodeId {
        let pair = ((src.0 as u64) << 32) | dst.0 as u64;
        NodeId((splitmix64(salt ^ pair.rotate_left(17)) % self.mesh.len() as u64) as usize)
    }
}

impl Topology for AdaptiveMesh {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn len(&self) -> usize {
        self.mesh.len()
    }

    fn ports(&self) -> usize {
        self.mesh.ports()
    }

    fn link(&self, router: RouterId, port: usize) -> Option<RouterId> {
        self.mesh.link(router, port)
    }

    fn route(&self, src: NodeId, dst: NodeId, salt: u64) -> Vec<Hop> {
        if src == dst {
            return Vec::new();
        }
        let mid = self.intermediate(src, dst, salt);
        let mut hops =
            Vec::with_capacity(self.min_distance(src, mid) + self.min_distance(mid, dst));
        self.mesh.walk(src, mid, &mut hops);
        self.mesh.walk(mid, dst, &mut hops);
        hops
    }

    fn min_distance(&self, a: NodeId, b: NodeId) -> usize {
        self.mesh.min_distance(a, b)
    }

    fn ordering(&self) -> DeliveryOrder {
        DeliveryOrder::Unordered
    }

    fn minimal(&self) -> bool {
        false
    }

    fn grid_dims(&self) -> Option<(usize, usize)> {
        self.mesh.grid_dims()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_vary_with_salt() {
        let t = AdaptiveMesh::new(4, 4);
        let baseline = t.route(NodeId(0), NodeId(15), 0);
        let varied = (1..32u64).any(|salt| t.route(NodeId(0), NodeId(15), salt) != baseline);
        assert!(varied, "Valiant routing should depend on the salt");
    }

    #[test]
    fn routes_are_at_least_minimal_length() {
        let t = AdaptiveMesh::new(4, 4);
        for salt in 0..8u64 {
            for a in t.nodes() {
                for b in t.nodes() {
                    let route = t.route(a, b, salt);
                    assert!(route.len() >= t.min_distance(a, b));
                    if a == b {
                        assert!(route.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn declares_unordered() {
        let t = AdaptiveMesh::new(4, 4);
        assert_eq!(t.ordering(), DeliveryOrder::Unordered);
        assert!(!t.minimal());
    }
}
