//! `CollImpl::Hardware`: offload to the fabric's in-network combining
//! stage.
//!
//! The software algorithms in [`crate::CollComm`] move every byte
//! through VMMC channels between end hosts. With in-network computing
//! (`shrimp_mesh::HwGroup`) the routers themselves combine
//! contributions and replicate results along a fabric spanning tree, so
//! a barrier or allreduce crosses each tree link exactly once in each
//! direction — no `log n` software rounds, no end-host store-and-forward.
//!
//! Only the collectives with router support offload — `barrier`,
//! `allreduce`, `broadcast`; everything else (and every
//! `broadcast_with` / `allreduce_with` call pinning an explicit
//! software algorithm) runs the software path unchanged. The offload
//! also requires *one rank per node*: the combining stage identifies
//! contributors by router, so a communicator that doubles up ranks on a
//! node silently falls back to software.
//!
//! Caveat for `SumF64`: the hardware combines in deterministic spanning
//! -tree order, which may round differently than the software ring —
//! bitwise results can differ between the two implementations (both are
//! valid f64 sums).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::ShrimpSystem;
use shrimp_mesh::{Backplane, HwDone, HwGroup, HwOp, NodeId};
use shrimp_nic::NicPacket;
use shrimp_node::VAddr;
use shrimp_sim::{Ctx, SimChannel, SimTime};

use crate::comm::{CollComm, CollError};
use crate::ops::ReduceOp;

/// Which engine executes a communicator's collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollImpl {
    /// The software algorithms over persistent VMMC channels (PR 2).
    #[default]
    Software,
    /// In-network offload: routers combine and replicate along a fabric
    /// spanning tree for `barrier`/`allreduce`/`broadcast`; other
    /// collectives (and `broadcast_with` / `allreduce_with` algorithm
    /// pins) stay software.
    Hardware,
}

/// Shared cache of hardware groups, keyed by the root *node* (the tree
/// shape only depends on where it is rooted). Lives in the
/// [`CollWorld`](crate::CollWorld) so all ranks reuse one tree.
pub(crate) type HwGroupCache = Arc<Mutex<HashMap<usize, Arc<HwGroup>>>>;

/// Per-communicator handle on the in-network engine.
pub(crate) struct HwColl {
    net: Arc<Backplane<NicPacket>>,
    /// rank -> node index (all distinct, checked at construction).
    nodes: Vec<usize>,
    groups: HwGroupCache,
}

impl HwColl {
    /// Build the engine handle, or `None` when the rank layout cannot
    /// offload (two ranks sharing a node).
    pub(crate) fn try_new(
        system: &Arc<ShrimpSystem>,
        nodes: &[usize],
        groups: HwGroupCache,
    ) -> Option<HwColl> {
        let mut seen = vec![false; system.len()];
        for &n in nodes {
            if std::mem::replace(&mut seen[n], true) {
                return None;
            }
        }
        Some(HwColl {
            net: Arc::clone(system.net()),
            nodes: nodes.to_vec(),
            groups,
        })
    }

    /// The group rooted at `root_rank`'s node, built on first use.
    fn group_for(&self, root_rank: usize) -> Arc<HwGroup> {
        let root_node = self.nodes[root_rank];
        Arc::clone(self.groups.lock().entry(root_node).or_insert_with(|| {
            let members: Vec<NodeId> = self.nodes.iter().map(|&n| NodeId(n)).collect();
            self.net.hw_group(&members, NodeId(root_node))
        }))
    }
}

impl ReduceOp {
    fn hw(self) -> HwOp {
        match self {
            ReduceOp::SumF64 => HwOp::SumF64,
            ReduceOp::SumI64 => HwOp::SumI64,
            ReduceOp::MaxF64 => HwOp::MaxF64,
        }
    }
}

fn to_lanes(raw: &[u8]) -> Vec<u64> {
    raw.chunks(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(b)
        })
        .collect()
}

fn from_lanes(lanes: &[u64], len: usize) -> Vec<u8> {
    let mut out: Vec<u8> = lanes.iter().flat_map(|l| l.to_le_bytes()).collect();
    out.truncate(len);
    out
}

impl CollComm {
    /// Whether this communicator offloads to the in-network engine.
    pub fn uses_hardware(&self) -> bool {
        self.hw.is_some()
    }

    /// In-network barrier: a 1-lane fetch-and-add of 1 through the
    /// spanning tree rooted at rank 0's node.
    pub(crate) fn hw_barrier(&mut self, ctx: &Ctx) -> Result<(), CollError> {
        self.hw_wait(ctx, 0, |net, g, me, done| {
            net.hw_contribute(g, me, &[1], HwOp::SumI64, done)
        });
        Ok(())
    }

    /// In-network allreduce: one ascent (combining) and one descent
    /// (replication) over the tree, whatever the vector size.
    pub(crate) fn hw_allreduce(
        &mut self,
        ctx: &Ctx,
        buf: VAddr,
        count: usize,
        op: ReduceOp,
    ) -> Result<(), CollError> {
        if count == 0 {
            return Ok(());
        }
        let len = count * op.elem_bytes();
        let lanes = to_lanes(&self.vmmc.proc_().read(ctx, buf, len)?);
        let combined = self.hw_wait(ctx, 0, |net, g, me, done| {
            net.hw_contribute(g, me, &lanes, op.hw(), done)
        });
        self.vmmc
            .proc_()
            .write(ctx, buf, &from_lanes(&combined, len))?;
        Ok(())
    }

    /// In-switch broadcast: the root injects once; the routers replicate
    /// down the tree rooted at the root's own node.
    pub(crate) fn hw_broadcast(
        &mut self,
        ctx: &Ctx,
        root: usize,
        buf: VAddr,
        len: usize,
    ) -> Result<(), CollError> {
        self.check_root(root);
        if self.rank == root {
            let lanes = to_lanes(&self.vmmc.proc_().read(ctx, buf, len)?);
            let hw = self.hw.as_ref().expect("hw path needs an engine");
            let me = NodeId(hw.nodes[root]);
            // The root completes when its NIC finishes injecting — it
            // does not wait for the leaves (same contract as a software
            // tree root's last send).
            ctx.sleep_until(hw.net.hw_bcast_send(&hw.group_for(root), me, &lanes));
        } else {
            let lanes = self.hw_wait(ctx, root, |net, g, me, done| net.hw_bcast_recv(g, me, done));
            self.vmmc
                .proc_()
                .write(ctx, buf, &from_lanes(&lanes, len))?;
        }
        Ok(())
    }

    /// Hand `arm` this member's place in the group rooted at
    /// `root_rank` and a completion, and block until the result it is
    /// called with has ejected here.
    fn hw_wait(
        &self,
        ctx: &Ctx,
        root_rank: usize,
        arm: impl FnOnce(&Arc<Backplane<NicPacket>>, &HwGroup, NodeId, HwDone),
    ) -> Arc<Vec<u64>> {
        let hw = self.hw.as_ref().expect("hw path needs an engine");
        let me = NodeId(hw.nodes[self.rank]);
        let ch: SimChannel<(SimTime, Arc<Vec<u64>>)> = SimChannel::new();
        let ch2 = ch.clone();
        let h = ctx.handle();
        let done = Box::new(move |at, v| ch2.send(&h, (at, v)));
        arm(&hw.net, &hw.group_for(root_rank), me, done);
        let (at, lanes) = ch.recv(ctx);
        ctx.sleep_until(at);
        lanes
    }
}
