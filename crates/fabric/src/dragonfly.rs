//! Dragonfly: groups of locally full-meshed routers joined by long global
//! links.
//!
//! Each group is an all-to-all clique of `a` routers (one compute node
//! per router); every pair of groups is joined by exactly one global link,
//! spread round-robin across the group's routers. Global links model the
//! long inter-cabinet cables of real dragonflies: their wire latency is
//! scaled by [`GLOBAL_WIRE_FACTOR`]. Minimal routing is at most
//! local → global → local (three hops) and is a pure function of the
//! pair, so delivery is in-order.

use crate::id::NodeId;
use crate::topology::{Hop, RouterId, Topology};

/// Wire-latency multiplier for global (inter-group) links relative to
/// local (intra-group) links.
pub const GLOBAL_WIRE_FACTOR: f64 = 3.0;

/// A dragonfly of `groups` groups, each an all-to-all clique of
/// `routers` routers with one compute node apiece.
///
/// Router `G*routers + i` is router `i` of group `G`. Local ports are
/// `0..routers` (port `j` reaches local router `j`; the self port is
/// unconnected); global ports follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dragonfly {
    groups: usize,
    routers: usize,
}

impl Dragonfly {
    /// Create a dragonfly with `groups` groups of `routers` routers each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(groups: usize, routers: usize) -> Dragonfly {
        assert!(
            groups > 0 && routers > 0,
            "dragonfly parameters must be positive"
        );
        Dragonfly { groups, routers }
    }

    /// Global link index `t` on group `g`'s side reaching group `h`:
    /// defined by `h = (g + 1 + t) mod groups`, so `t` ranges over
    /// `0..groups-1` and never names the group itself.
    fn global_link_to(&self, g: usize, h: usize) -> usize {
        (h + self.groups - g - 1) % self.groups
    }

    /// `(router, global port)` carrying group `g`'s global link `t`; links
    /// are spread round-robin across the group's routers.
    fn global_attach(&self, g: usize, t: usize) -> (RouterId, usize) {
        (
            g * self.routers + t % self.routers,
            self.routers + t / self.routers,
        )
    }
}

impl Topology for Dragonfly {
    fn name(&self) -> &'static str {
        "dragonfly"
    }

    fn len(&self) -> usize {
        self.groups * self.routers
    }

    fn ports(&self) -> usize {
        if self.groups > 1 {
            self.routers + (self.groups - 1).div_ceil(self.routers)
        } else {
            self.routers
        }
    }

    fn link(&self, router: RouterId, port: usize) -> Option<RouterId> {
        if router >= self.len() {
            return None;
        }
        let g = router / self.routers;
        let i = router % self.routers;
        if port < self.routers {
            // Local clique: port j reaches local router j.
            (port != i).then(|| g * self.routers + port)
        } else {
            let t = (port - self.routers) * self.routers + i;
            if self.groups < 2 || t > self.groups - 2 {
                return None;
            }
            let h = (g + 1 + t) % self.groups;
            let back = self.global_link_to(h, g);
            Some(h * self.routers + back % self.routers)
        }
    }

    fn route(&self, src: NodeId, dst: NodeId, _salt: u64) -> Vec<Hop> {
        assert!(
            src.0 < self.len() && dst.0 < self.len(),
            "node out of range"
        );
        if src == dst {
            return Vec::new();
        }
        let gs = src.0 / self.routers;
        let gd = dst.0 / self.routers;
        if gs == gd {
            return vec![Hop {
                router: src.0,
                port: dst.0 % self.routers,
            }];
        }
        let t = self.global_link_to(gs, gd);
        let (exit, gport) = self.global_attach(gs, t);
        let t_back = self.global_link_to(gd, gs);
        let entry = gd * self.routers + t_back % self.routers;
        let mut hops = Vec::with_capacity(3);
        if src.0 != exit {
            hops.push(Hop {
                router: src.0,
                port: exit % self.routers,
            });
        }
        hops.push(Hop {
            router: exit,
            port: gport,
        });
        if entry != dst.0 {
            hops.push(Hop {
                router: entry,
                port: dst.0 % self.routers,
            });
        }
        hops
    }

    // The length of the shortest *direct* path (through the single global
    // link joining the two groups) — the standard dragonfly minimal route.
    // A rare indirect two-global path through a third group can have fewer
    // hops, but minimal routing never takes it and its long-wire cost is
    // higher anyway.
    fn min_distance(&self, a: NodeId, b: NodeId) -> usize {
        if a == b {
            return 0;
        }
        let ga = a.0 / self.routers;
        let gb = b.0 / self.routers;
        if ga == gb {
            return 1;
        }
        let t = self.global_link_to(ga, gb);
        let (exit, _) = self.global_attach(ga, t);
        let t_back = self.global_link_to(gb, ga);
        let entry = gb * self.routers + t_back % self.routers;
        1 + usize::from(a.0 != exit) + usize::from(entry != b.0)
    }

    fn wire_factor(&self, _router: RouterId, port: usize) -> f64 {
        if port >= self.routers {
            GLOBAL_WIRE_FACTOR
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_links_pair_up() {
        let t = Dragonfly::new(4, 4);
        // Every global link must be symmetric: following it and then the
        // reverse link returns to the start.
        for l in t.links() {
            if l.port >= 4 {
                let back = t
                    .links()
                    .into_iter()
                    .find(|b| b.from == l.to && b.to == l.from && b.port >= 4);
                assert!(back.is_some(), "global link {l} has no reverse");
            }
        }
        // 4 groups -> 6 group pairs -> 12 unidirectional global links.
        let globals = t.links().iter().filter(|l| l.port >= 4).count();
        assert_eq!(globals, 12);
    }

    #[test]
    fn intra_group_is_one_hop() {
        let t = Dragonfly::new(4, 4);
        let route = t.route(NodeId(1), NodeId(3), 0);
        assert_eq!(route, vec![Hop { router: 1, port: 3 }]);
        assert_eq!(t.min_distance(NodeId(1), NodeId(3)), 1);
    }

    #[test]
    fn inter_group_is_at_most_three_hops() {
        let t = Dragonfly::new(4, 4);
        for a in t.nodes() {
            for b in t.nodes() {
                let route = t.route(a, b, 0);
                assert!(route.len() <= 3);
                assert_eq!(route.len(), t.min_distance(a, b));
            }
        }
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn global_ports_are_long_wires() {
        let t = Dragonfly::new(4, 4);
        assert_eq!(t.wire_factor(0, 2), 1.0);
        assert!(t.wire_factor(0, 4) > 1.0);
    }

    #[test]
    fn single_group_is_a_clique() {
        let t = Dragonfly::new(1, 4);
        assert_eq!(t.ports(), 4);
        assert_eq!(t.route(NodeId(0), NodeId(3), 0).len(), 1);
        assert_eq!(t.link(0, 0), None); // self port
    }

    #[test]
    fn one_router_groups_still_connect() {
        let t = Dragonfly::new(3, 1);
        // Groups of one router: all traffic is global.
        for a in t.nodes() {
            for b in t.nodes() {
                if a != b {
                    assert_eq!(t.route(a, b, 0).len(), 1);
                }
            }
        }
    }
}
