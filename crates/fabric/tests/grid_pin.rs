//! One digest over everything the grid topologies compute, so a rewrite
//! of the mesh or torus router is checked bit for bit: every route's
//! `(router, port)` list, every link, and each distance, diameter and
//! grid shape of `Mesh2D` and `Torus2D` at every size up to 8×8, plus
//! the dragonfly's diameter as the topology zoo builds it.

use shrimp_fabric::{Dragonfly, Mesh2D, NodeId, Topology, Torus2D};

/// 64-bit FNV-1a over the little-endian bytes of each word fed in.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: usize) {
        for b in (v as u64).to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Routes between every pair (each prefixed by its length), every
/// `(router, port)` link slot, every pair's distance, the diameter and
/// the grid shape.
fn fold(h: &mut Fnv, t: &dyn Topology) {
    h.word(t.len());
    for a in t.nodes() {
        for b in t.nodes() {
            let route = t.route(a, b, 0);
            h.word(route.len());
            for hop in route {
                h.word(hop.router);
                h.word(hop.port);
            }
            h.word(t.min_distance(a, b));
        }
    }
    for r in 0..t.len() {
        for p in 0..t.ports() {
            h.word(t.link(r, p).map_or(usize::MAX, |to| to));
        }
    }
    h.word(t.diameter());
    let (w, h_) = t.grid_dims().unwrap_or((0, 0));
    h.word(w);
    h.word(h_);
}

#[test]
fn grid_routes_links_and_distances_are_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for w in 1..=8 {
        for ht in 1..=8 {
            fold(&mut h, &Mesh2D::new(w, ht));
            fold(&mut h, &Torus2D::new(w, ht));
        }
    }
    for nodes in [4, 16, 64] {
        let side = (nodes as f64).sqrt() as usize;
        h.word(Dragonfly::new(side, side).diameter());
    }
    assert_eq!(h.0, 0xbc6d_aa39_f90c_11ce, "the grid digest moved");
}

#[test]
fn the_zoo_diameters_are_the_closed_forms() {
    for w in 1..=8 {
        for ht in 1..=8 {
            assert_eq!(Mesh2D::new(w, ht).diameter(), w - 1 + ht - 1);
            assert_eq!(Torus2D::new(w, ht).diameter(), w / 2 + ht / 2);
        }
    }
    let far = NodeId(15);
    assert_eq!(Mesh2D::new(4, 4).min_distance(NodeId(0), far), 6);
    assert_eq!(Torus2D::new(4, 4).min_distance(NodeId(0), far), 2);
}
