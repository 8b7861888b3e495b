//! Property tests for the topology zoo: the routing invariants every layer
//! above the fabric relies on.
//!
//! * Routes are *valid*: each hop's link exists and leads to the next
//!   hop's router, and the last link lands on the destination's router.
//! * Routes are *minimal*: every route is a shortest path.
//! * Routes are *deterministic*: every topology ignores the salt, so the
//!   path is a pure function of the pair. Pairwise path-invariance is
//!   precisely what turns FIFO links into an in-order fabric, and it is
//!   what lets the backplane route every packet with a constant salt.

use proptest::prelude::*;
use shrimp_fabric::{Dragonfly, Hop, Mesh2D, NodeId, Topology, TopologyRef, Torus2D};
use std::sync::Arc;

/// Strategy over every topology kind in the zoo, with small-to-moderate
/// parameters (up to 8×8-class sizes).
fn any_topology() -> impl Strategy<Value = TopologyRef> {
    prop_oneof![
        (1usize..9, 1usize..9).prop_map(|(w, h)| Arc::new(Mesh2D::new(w, h)) as TopologyRef),
        (1usize..9, 1usize..9).prop_map(|(w, h)| Arc::new(Torus2D::new(w, h)) as TopologyRef),
        (1usize..10, 1usize..9).prop_map(|(g, a)| Arc::new(Dragonfly::new(g, a)) as TopologyRef),
    ]
}

/// Check that `route` is a well-formed hop chain from `src` to `dst`.
fn assert_route_valid(topo: &dyn Topology, src: NodeId, dst: NodeId, route: &[Hop]) {
    if src == dst {
        assert!(
            route.is_empty(),
            "{}: self-route must be empty",
            topo.name()
        );
        return;
    }
    assert!(
        !route.is_empty(),
        "{}: {src}->{dst} route empty",
        topo.name()
    );
    assert_eq!(route[0].router, src.0);
    let mut at = route[0].router;
    for hop in route {
        assert_eq!(hop.router, at, "{}: route hops must chain", topo.name());
        at = topo.link(hop.router, hop.port).unwrap_or_else(|| {
            panic!(
                "{}: route uses missing link r{}.p{}",
                topo.name(),
                hop.router,
                hop.port
            )
        });
    }
    assert_eq!(at, dst.0, "{}: route must end at dst", topo.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every route is a chain of existing links from source router to
    /// destination router, for every topology and any salt.
    #[test]
    fn routes_are_valid(topo in any_topology(), pair in (0usize..4096, 0usize..4096), salt in 0u64..1024) {
        let n = topo.len();
        let src = NodeId(pair.0 % n);
        let dst = NodeId(pair.1 % n);
        let route = topo.route(src, dst, salt);
        assert_route_valid(topo.as_ref(), src, dst, &route);
    }

    /// Every route's length is exactly `min_distance`, for every salt.
    #[test]
    fn every_route_is_a_shortest_path(topo in any_topology(), pair in (0usize..4096, 0usize..4096), salt in 0u64..1024) {
        let n = topo.len();
        let src = NodeId(pair.0 % n);
        let dst = NodeId(pair.1 % n);
        let route = topo.route(src, dst, salt);
        let min = topo.min_distance(src, dst);
        prop_assert_eq!(route.len(), min, "{} routes off a shortest path", topo.name());
    }

    /// Every topology ignores the salt: the route between a pair is the
    /// same whatever salt it is asked with.
    #[test]
    fn every_route_ignores_its_salt(
        topo in any_topology(), pair in (0usize..4096, 0usize..4096)
    ) {
        let n = topo.len();
        let src = NodeId(pair.0 % n);
        let dst = NodeId(pair.1 % n);
        let baseline = topo.route(src, dst, 0);
        for salt in [1u64, 7, 0xdead_beef, u64::MAX] {
            prop_assert_eq!(
                &topo.route(src, dst, salt),
                &baseline,
                "{} routes vary with salt",
                topo.name()
            );
        }
    }

    /// The link table is consistent: `links()` agrees with `link()`, and
    /// every link is between real routers. A W×H grid has W·H nodes and
    /// the name of its kind.
    #[test]
    fn link_enumeration_is_consistent(topo in any_topology(), w in 1usize..9, h in 1usize..9) {
        let grids: [(TopologyRef, &str); 2] = [
            (Arc::new(Mesh2D::new(w, h)), "mesh"),
            (Arc::new(Torus2D::new(w, h)), "torus"),
        ];
        for (grid, kind) in grids {
            prop_assert_eq!(grid.len(), w * h);
            prop_assert_eq!(grid.name(), kind);
        }
        let links = topo.links();
        for l in &links {
            prop_assert!(l.from < topo.len());
            prop_assert!(l.to < topo.len());
            prop_assert_eq!(topo.link(l.from, l.port), Some(l.to));
            prop_assert!(l.from != l.to, "self-loops are forbidden");
        }
        // And the reverse: every connected port appears exactly once.
        let mut count = 0usize;
        for r in 0..topo.len() {
            for p in 0..topo.ports() {
                if topo.link(r, p).is_some() {
                    count += 1;
                }
            }
        }
        prop_assert_eq!(count, links.len());
    }
}
