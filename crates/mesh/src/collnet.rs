//! In-network computing: the routers' combining stage.
//!
//! Routers gain a fetch-and-add/reduce combining unit and an in-switch
//! broadcast replicator, running along a fabric-built [`SpanningTree`]
//! (the Ultracomputer lineage: move synchronization and reduction *into*
//! the switches). `shrimp-coll` offloads `barrier`/`allreduce`/`bcast`
//! here behind its `CollImpl::Hardware` selector.
//!
//! ## Timing model
//!
//! Hardware-collective traffic shares the ordinary channel reservation
//! timelines, so it contends with (and is delayed by) regular packets,
//! brownouts, and per-link stalls like any other traffic:
//!
//! * a *contribution* is injected on the node's injection channel and
//!   reaches its router one `router_delay + wire_latency` later;
//! * each router holds the combined value until its last expected input
//!   arrives, paying [`LinkParams::combine_delay`] per input
//!   ([`LinkParams`](crate::LinkParams)), then forwards one combined
//!   packet up its tree link;
//! * at the root the result turns around and is replicated down the same
//!   tree, one packet per child link, ejecting at every member router.
//!
//! Everything is computed with the same synchronous path-reservation style
//! as [`Backplane::inject`](crate::Backplane::inject): the cascade is
//! resolved (channels reserved, completion events scheduled) the moment
//! the last contribution arrives, which keeps replay bit-identical.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_fabric::{NodeId, RouterId, SpanningTree};
use shrimp_sim::{SimDur, SimTime};

use crate::backplane::{Backplane, CH_EJECT, CH_INJECT};

/// The combining operations a router's ALU stage supports, over 8-byte
/// lanes (bit patterns of `i64`/`f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwOp {
    /// Wrapping integer sum — the fetch-and-add combining unit. Barriers
    /// are a 1-lane fetch-and-add of 1.
    SumI64,
    /// IEEE f64 sum. Combining order is the (deterministic) tree order,
    /// which may round differently than a software ring.
    SumF64,
    /// IEEE f64 max.
    MaxF64,
}

impl HwOp {
    fn combine(self, acc: &mut Vec<u64>, input: &[u64]) {
        if acc.is_empty() {
            acc.extend_from_slice(input);
            return;
        }
        assert_eq!(acc.len(), input.len(), "hw combine lane-count mismatch");
        for (a, &b) in acc.iter_mut().zip(input) {
            *a = match self {
                HwOp::SumI64 => (*a as i64).wrapping_add(b as i64) as u64,
                HwOp::SumF64 => (f64::from_bits(*a) + f64::from_bits(b)).to_bits(),
                HwOp::MaxF64 => f64::from_bits(*a).max(f64::from_bits(b)).to_bits(),
            };
        }
    }
}

/// Completion callback for a hardware collective: fires on the member's
/// node at the virtual time the result's tail leaves its ejection
/// channel, carrying the combined (or broadcast) lanes.
pub type HwDone = Box<dyn FnOnce(SimTime, Arc<Vec<u64>>) + Send>;

struct ReduceRound {
    pending: u32,
    ready: SimTime,
    acc: Vec<u64>,
}

#[derive(Default)]
struct ReduceState {
    /// Per member node: how many contributions it has made (its current
    /// round number).
    node_round: HashMap<usize, u64>,
    /// Per router: its in-flight combining buffers, by round.
    rounds: Vec<HashMap<u64, ReduceRound>>,
    /// Registered completion callbacks, per (member node, round).
    done: HashMap<(usize, u64), HwDone>,
}

/// A broadcast result parked for a receiver: when it arrived, and the
/// replicated lanes.
type BcastParked = (SimTime, Arc<Vec<u64>>);

#[derive(Default)]
struct BcastState {
    /// The root's next send round.
    send_round: u64,
    /// Per receiving node: its next receive round.
    recv_round: HashMap<usize, u64>,
    /// Results that arrived before the receiver registered.
    delivered: HashMap<(usize, u64), BcastParked>,
    /// Receivers that registered before the result arrived (registration
    /// time kept so completion never predates the receive call).
    waiting: HashMap<(usize, u64), (SimTime, HwDone)>,
}

/// A hardware collective group: the fabric spanning tree connecting a set
/// of member nodes, with per-router expected-input counts (pruned to
/// branches that actually carry members). Built by
/// [`Backplane::hw_group`]; reusable for any number of rounds.
pub struct HwGroup {
    tree: SpanningTree,
    members: Vec<NodeId>,
    /// Per router: whether its node is a member (the member at router
    /// `r` is node `r`).
    member: Vec<bool>,
    /// Per router: member-local contribution (0/1) + active children.
    expected: Vec<u32>,
    /// Tree children pruned to subtrees containing members, with the
    /// down-port reaching each.
    active_children: Vec<Vec<(RouterId, usize)>>,
    reduce: Mutex<ReduceState>,
    bcast: Mutex<BcastState>,
}

impl std::fmt::Debug for HwGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwGroup")
            .field("root", &self.tree.root())
            .field("members", &self.members.len())
            .finish_non_exhaustive()
    }
}

impl HwGroup {
    /// The member nodes, in the order given to [`Backplane::hw_group`].
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Worst member-to-root depth — the cascade's critical path length in
    /// tree hops.
    pub fn depth(&self) -> usize {
        self.members
            .iter()
            .map(|&m| self.tree.depth(m.0))
            .max()
            .unwrap_or(0)
    }
}

impl<P: Send + 'static> Backplane<P> {
    /// Build a hardware collective group over `members`, rooted at
    /// `root`'s router. The spanning tree covers the whole fabric but the
    /// combining schedule is pruned to branches carrying members.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, contains duplicates, or does not
    /// contain `root`.
    pub fn hw_group(&self, members: &[NodeId], root: NodeId) -> Arc<HwGroup> {
        assert!(!members.is_empty(), "hw group needs at least one member");
        assert!(members.contains(&root), "root must be a member");
        let topo = self.topology();
        let tree = SpanningTree::build(topo.as_ref(), root.0);
        let n = topo.len();
        let mut member = vec![false; n];
        for &m in members {
            assert!(
                tree.depth(m.0) != usize::MAX,
                "member {m} unreachable from root"
            );
            assert!(
                !std::mem::replace(&mut member[m.0], true),
                "duplicate member {m}"
            );
        }
        // Prune: a branch is active iff its subtree contains a member.
        let mut active = vec![false; n];
        for r in tree.bottom_up() {
            if member[r] || active[r] {
                active[r] = true;
                if let Some((p, _)) = tree.parent(r) {
                    active[p] = true;
                }
            }
        }
        let mut expected = vec![0u32; n];
        let mut active_children = vec![Vec::new(); n];
        for r in 0..n {
            if !active[r] {
                continue;
            }
            let kids: Vec<(RouterId, usize)> = tree
                .children(r)
                .iter()
                .copied()
                .filter(|&(c, _)| active[c])
                .collect();
            expected[r] = kids.len() as u32 + u32::from(member[r]);
            active_children[r] = kids;
        }
        Arc::new(HwGroup {
            tree,
            members: members.to_vec(),
            member,
            expected,
            active_children,
            reduce: Mutex::new(ReduceState {
                rounds: (0..n).map(|_| HashMap::new()).collect(),
                ..ReduceState::default()
            }),
            bcast: Mutex::new(BcastState::default()),
        })
    }

    /// Contribute `lanes` to the group's current in-network all-reduce
    /// round under `op`. When every member has contributed, the combined
    /// result cascades back down the tree; `done` fires on this member's
    /// node at its result-ejection time.
    ///
    /// Successive rounds pipeline safely: round `k + 1` contributions can
    /// be in flight while round `k` results are still descending.
    pub fn hw_contribute(
        self: &Arc<Self>,
        g: &HwGroup,
        node: NodeId,
        lanes: &[u64],
        op: HwOp,
        done: HwDone,
    ) {
        let now = self.sim().now();
        let p = self.params();
        let r = node.0;
        assert!(
            g.member.get(r) == Some(&true),
            "{node} is not a member of this hw group"
        );
        let ser = SimDur::per_bytes(lanes.len() * 8 + p.header_bytes, p.link_bytes_per_sec);
        let mut st = g.reduce.lock();
        let round = {
            let c = st.node_round.entry(node.0).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        st.done.insert((node.0, round), done);
        // Inject the contribution: NIC -> local router.
        let (start, _) = self.reserve(
            self.channel_index(r, CH_INJECT),
            now + p.injection_overhead,
            ser,
        );
        let t = start + p.router_delay + p.wire_latency;
        self.hw_ascend(g, &mut st, r, round, t, lanes.to_vec(), op, ser);
    }

    /// In-network barrier: a 1-lane fetch-and-add of 1. `done` fires when
    /// the full count returns to this member.
    pub fn hw_barrier(self: &Arc<Self>, g: &HwGroup, node: NodeId, done: HwDone) {
        self.hw_contribute(g, node, &[1], HwOp::SumI64, done);
    }

    /// Walk a combined value up the tree, reserving each up-link as the
    /// router's combining stage drains. Returns once an un-filled router
    /// absorbs the value; at the root the result turns around and
    /// descends.
    #[allow(clippy::too_many_arguments)]
    fn hw_ascend(
        self: &Arc<Self>,
        g: &HwGroup,
        st: &mut ReduceState,
        mut r: RouterId,
        round: u64,
        mut t: SimTime,
        mut lanes: Vec<u64>,
        op: HwOp,
        ser: SimDur,
    ) {
        let p = self.params();
        loop {
            let rr = st.rounds[r].entry(round).or_insert_with(|| ReduceRound {
                pending: g.expected[r],
                ready: SimTime::ZERO,
                acc: Vec::new(),
            });
            op.combine(&mut rr.acc, &lanes);
            rr.ready = rr.ready.max(t + p.combine_delay);
            rr.pending -= 1;
            if rr.pending > 0 {
                return;
            }
            let rr = st.rounds[r].remove(&round).unwrap();
            if r == g.tree.root() {
                let value = Arc::new(rr.acc);
                self.hw_descend_reduce(g, st, round, rr.ready, &value, ser);
                return;
            }
            let (parent, up_port) = g.tree.parent(r).expect("non-root router has a parent");
            let (start, _) = self.reserve(self.channel_index(r, 2 + up_port), rr.ready, ser);
            t = start + p.router_delay + self.hop_wire(r, up_port);
            lanes = rr.acc;
            r = parent;
        }
    }

    /// Replicate the combined result down the tree, ejecting at every
    /// member router and firing its registered callback.
    fn hw_descend_reduce(
        self: &Arc<Self>,
        g: &HwGroup,
        st: &mut ReduceState,
        round: u64,
        t0: SimTime,
        value: &Arc<Vec<u64>>,
        ser: SimDur,
    ) {
        let p = self.params();
        let mut stack = vec![(g.tree.root(), t0)];
        while let Some((r, t)) = stack.pop() {
            if g.member[r] {
                let (_, tail) = self.reserve(self.channel_index(r, CH_EJECT), t, ser);
                let done = st
                    .done
                    .remove(&(r, round))
                    .expect("hw contribution without a registered callback");
                let v = Arc::clone(value);
                self.sim().schedule_at(tail, move || done(tail, v));
            }
            for &(c, port) in &g.active_children[r] {
                let (start, _) = self.reserve(self.channel_index(r, 2 + port), t, ser);
                stack.push((c, start + p.router_delay + self.hop_wire(r, port)));
            }
        }
    }

    /// In-switch broadcast, send side: must be called on the group's root
    /// member. Replicates `lanes` down the tree to every other member and
    /// returns the root-local completion time (its NIC finished injecting
    /// the packet — the root does not wait for the leaves).
    pub fn hw_bcast_send(self: &Arc<Self>, g: &HwGroup, node: NodeId, lanes: &[u64]) -> SimTime {
        let now = self.sim().now();
        let p = self.params();
        let r = node.0;
        assert_eq!(r, g.tree.root(), "hw_bcast_send requires the root member");
        let ser = SimDur::per_bytes(lanes.len() * 8 + p.header_bytes, p.link_bytes_per_sec);
        let value = Arc::new(lanes.to_vec());
        let mut st = g.bcast.lock();
        let round = st.send_round;
        st.send_round += 1;
        // Inject at the root, then replicate down.
        let (start, inject_done) = self.reserve(
            self.channel_index(r, CH_INJECT),
            now + p.injection_overhead,
            ser,
        );
        let t0 = start + p.router_delay + p.wire_latency;
        let mut stack = vec![(r, t0)];
        while let Some((at_r, t)) = stack.pop() {
            if at_r != r && g.member[at_r] {
                let (_, tail) = self.reserve(self.channel_index(at_r, CH_EJECT), t, ser);
                match st.waiting.remove(&(at_r, round)) {
                    Some((reg, done)) => {
                        let fire = tail.max(reg);
                        let v = Arc::clone(&value);
                        self.sim().schedule_at(fire, move || done(fire, v));
                    }
                    None => {
                        st.delivered
                            .insert((at_r, round), (tail, Arc::clone(&value)));
                    }
                }
            }
            for &(c, port) in &g.active_children[at_r] {
                let (s, _) = self.reserve(self.channel_index(at_r, 2 + port), t, ser);
                stack.push((c, s + p.router_delay + self.hop_wire(at_r, port)));
            }
        }
        inject_done
    }

    /// In-switch broadcast, receive side: registers for the member's next
    /// broadcast round. `done` fires at the result's ejection time (or
    /// immediately if the data already arrived — it waited in the NIC).
    pub fn hw_bcast_recv(self: &Arc<Self>, g: &HwGroup, node: NodeId, done: HwDone) {
        let now = self.sim().now();
        let r = node.0;
        assert!(
            g.member.get(r) == Some(&true),
            "{node} is not a member of this hw group"
        );
        assert_ne!(r, g.tree.root(), "the root does not receive its own bcast");
        let mut st = g.bcast.lock();
        let round = {
            let c = st.recv_round.entry(node.0).or_insert(0);
            let v = *c;
            *c += 1;
            v
        };
        match st.delivered.remove(&(node.0, round)) {
            Some((t, v)) => {
                let fire = t.max(now);
                self.sim().schedule_at(fire, move || done(fire, v));
            }
            None => {
                st.waiting.insert((node.0, round), (now, done));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkParams;
    use shrimp_fabric::{Dragonfly, Mesh2D, TopologyRef, Torus2D};
    use shrimp_sim::Kernel;

    fn run_allreduce(topo: TopologyRef, contribs: &[i64]) -> Vec<(usize, SimTime, i64)> {
        let n = topo.len();
        assert_eq!(contribs.len(), n);
        let kernel = Kernel::new();
        let net: Arc<Backplane<u64>> = Backplane::new(kernel.handle(), topo, LinkParams::paragon());
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        let g = net.hw_group(&members, NodeId(0));
        let results = Arc::new(Mutex::new(Vec::new()));
        for (i, &c) in contribs.iter().enumerate() {
            let results = Arc::clone(&results);
            net.hw_contribute(
                &g,
                NodeId(i),
                &[c as u64],
                HwOp::SumI64,
                Box::new(move |at, v| {
                    results.lock().push((i, at, v[0] as i64));
                }),
            );
        }
        kernel.run_until_quiescent().unwrap();
        let mut v = results.lock().clone();
        v.sort_by_key(|&(i, _, _)| i);
        v
    }

    #[test]
    fn allreduce_sums_on_every_topology() {
        let contribs: Vec<i64> = (0..16).map(|i| i * i - 5).collect();
        let want: i64 = contribs.iter().sum();
        for topo in [
            Arc::new(Mesh2D::new(4, 4)) as TopologyRef,
            Arc::new(Torus2D::new(4, 4)) as TopologyRef,
            Arc::new(Dragonfly::new(4, 4)) as TopologyRef,
        ] {
            let name = topo.name();
            let got = run_allreduce(topo, &contribs);
            assert_eq!(got.len(), 16, "{name}");
            for &(i, at, sum) in &got {
                assert_eq!(sum, want, "{name} member {i}");
                assert!(at > SimTime::ZERO, "{name}");
            }
        }
    }

    #[test]
    fn barrier_counts_members() {
        let kernel = Kernel::new();
        let net: Arc<Backplane<u64>> = Backplane::new(
            kernel.handle(),
            Arc::new(Mesh2D::new(2, 2)),
            LinkParams::paragon(),
        );
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let g = net.hw_group(&members, NodeId(0));
        let counts = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4 {
            let counts = Arc::clone(&counts);
            net.hw_barrier(
                &g,
                NodeId(i),
                Box::new(move |_, v| counts.lock().push(v[0])),
            );
        }
        kernel.run_until_quiescent().unwrap();
        assert_eq!(*counts.lock(), vec![4, 4, 4, 4]);
    }

    #[test]
    fn staggered_rounds_pipeline() {
        // Two rounds where members contribute at scattered times; each
        // round's sum must still be exact and completion monotone per
        // member.
        let kernel = Kernel::new();
        let net: Arc<Backplane<u64>> = Backplane::new(
            kernel.handle(),
            Arc::new(Torus2D::new(2, 2)),
            LinkParams::paragon(),
        );
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let g = net.hw_group(&members, NodeId(0));
        let log = Arc::new(Mutex::new(Vec::new()));
        for round in 0..2u64 {
            for i in 0..4usize {
                let net2 = Arc::clone(&net);
                let g2 = Arc::clone(&g);
                let log2 = Arc::clone(&log);
                let delay = SimDur::from_ns((round * 4000 + (i as u64) * 977) as f64);
                kernel.schedule_in(delay, move || {
                    net2.hw_contribute(
                        &g2,
                        NodeId(i),
                        &[(round + 1) * 10 + i as u64],
                        HwOp::SumI64,
                        Box::new(move |at, v| log2.lock().push((round, i, at, v[0]))),
                    );
                });
            }
        }
        kernel.run_until_quiescent().unwrap();
        let log = log.lock().clone();
        assert_eq!(log.len(), 8);
        for &(round, _, _, sum) in &log {
            let want = (0..4).map(|i| (round + 1) * 10 + i).sum::<u64>();
            assert_eq!(sum, want, "round {round}");
        }
    }

    #[test]
    fn bcast_reaches_every_member_in_either_registration_order() {
        let kernel = Kernel::new();
        let net: Arc<Backplane<u64>> = Backplane::new(
            kernel.handle(),
            Arc::new(Dragonfly::new(2, 4)),
            LinkParams::paragon(),
        );
        let members: Vec<NodeId> = (0..8).map(NodeId).collect();
        let g = net.hw_group(&members, NodeId(0));
        let got = Arc::new(Mutex::new(Vec::new()));
        // Half the receivers register before the send, half after.
        for i in 1..4usize {
            let got = Arc::clone(&got);
            net.hw_bcast_recv(
                &g,
                NodeId(i),
                Box::new(move |at, v| {
                    got.lock().push((i, at, v.clone()));
                }),
            );
        }
        let send_done = net.hw_bcast_send(&g, NodeId(0), &[99, 7]);
        assert!(send_done > SimTime::ZERO);
        for i in 4..8usize {
            let net2 = Arc::clone(&net);
            let g2 = Arc::clone(&g);
            let got2 = Arc::clone(&got);
            kernel.schedule_in(SimDur::from_us(50.0), move || {
                net2.hw_bcast_recv(
                    &g2,
                    NodeId(i),
                    Box::new(move |at, v| {
                        got2.lock().push((i, at, v.clone()));
                    }),
                );
            });
        }
        kernel.run_until_quiescent().unwrap();
        let got = got.lock().clone();
        assert_eq!(got.len(), 7);
        for (i, at, v) in got {
            assert_eq!(*v, vec![99, 7], "member {i}");
            assert!(at > SimTime::ZERO);
        }
    }

    #[test]
    fn float_ops_combine() {
        let kernel = Kernel::new();
        let net: Arc<Backplane<u64>> = Backplane::new(
            kernel.handle(),
            Arc::new(Mesh2D::new(2, 2)),
            LinkParams::paragon(),
        );
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let g = net.hw_group(&members, NodeId(0));
        let out = Arc::new(Mutex::new(Vec::new()));
        for i in 0..4usize {
            let out = Arc::clone(&out);
            let lanes = [(i as f64 + 0.25).to_bits(), (10.0 - i as f64).to_bits()];
            net.hw_contribute(
                &g,
                NodeId(i),
                &lanes,
                HwOp::SumF64,
                Box::new(move |_, v| out.lock().push(v.clone())),
            );
        }
        kernel.run_until_quiescent().unwrap();
        let out = out.lock().clone();
        for v in out {
            assert!((f64::from_bits(v[0]) - 7.0).abs() < 1e-9);
            assert!((f64::from_bits(v[1]) - 34.0).abs() < 1e-9);
        }
    }

    #[test]
    fn subgroup_prunes_tree() {
        // Only two corner members on a 4x4 mesh: the cascade must still
        // complete and count exactly 2.
        let kernel = Kernel::new();
        let net: Arc<Backplane<u64>> = Backplane::new(
            kernel.handle(),
            Arc::new(Mesh2D::new(4, 4)),
            LinkParams::paragon(),
        );
        let members = [NodeId(0), NodeId(15)];
        let g = net.hw_group(&members, NodeId(0));
        let out = Arc::new(Mutex::new(Vec::new()));
        for &m in &members {
            let out = Arc::clone(&out);
            net.hw_barrier(&g, m, Box::new(move |_, v| out.lock().push(v[0])));
        }
        kernel.run_until_quiescent().unwrap();
        assert_eq!(*out.lock(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_contribution_panics() {
        let kernel = Kernel::new();
        let net: Arc<Backplane<u64>> = Backplane::new(
            kernel.handle(),
            Arc::new(Mesh2D::new(2, 2)),
            LinkParams::paragon(),
        );
        let g = net.hw_group(&[NodeId(0), NodeId(1)], NodeId(0));
        net.hw_barrier(&g, NodeId(3), Box::new(|_, _| {}));
    }
}
