//! The communicator: persistent channel geometry and the chunk
//! primitives every collective is built from.
//!
//! At communicator creation each rank exports one *channel region* per
//! peer in its [`peer_set`](crate::geometry::peer_set) and imports the
//! matching regions its peers exported for it. All mappings are created
//! once and reused for the life of the communicator — a collective call
//! performs **zero** export/import traffic, only stores and sends into
//! already-mapped memory (the design point the paper's library
//! protocols argue for).
//!
//! Each channel pair is a [`SlotChannel`], the message slot of the
//! paper's §4.1 that `shrimp-core` writes once (its module doc has the
//! protocol): this crate cuts vectors into chunks, combines or copies
//! each one out of its slot, and runs the rendezvous.

use std::collections::HashMap;
use std::sync::Arc;

use shrimp_core::{BufferName, Rendezvous, ShrimpSystem, SlotChannel, SlotShape, Vmmc, VmmcError};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, UserProc, VAddr};
use shrimp_sim::{Ctx, RetryPolicy, SimDur};

use crate::geometry::{peer_set, RingOrder};
use crate::hw::{CollImpl, HwColl, HwGroupCache};
use crate::ops::ReduceOp;

/// Largest payload, in bytes, that rides the control page beside its
/// flag instead of a deliberate update into the data slot, and the
/// granule of a larger payload's head, which the CPU stores into the
/// data slot by automatic update while the deliberate update carries
/// the tail. An eager chunk costs one timed copy into write-through
/// memory and no send call; past a few hundred bytes the copy's
/// per-byte cost overtakes the send's fixed one. Swept on the
/// benchmark's 64-rank `coll_8x8`, whose `virt_slow_us` is the
/// geometric mean of its 64 B, 1 KiB and 8 KiB allreduces, in µs:
/// 128 → 301.6, 256 → 302.7, 512 → 315.3, 1 024 → 316.3. 128 B leads
/// by 0.4 %; from 512 B a payload under 820 B has no head at all and a
/// 2 KiB chunk's head is 1 KiB, not 1 280 B. (Before bulk heads: 333.5,
/// 333.6, 335.5 and 334.1.)
pub const EAGER_BYTES: usize = 256;

/// Payload bytes per pipeline chunk: one data slot.
pub const CHUNK_BYTES: usize = 2048;

/// Every channel of every communicator: 64 spin polls before a flag or
/// credit wait blocks.
const SHAPE: SlotShape = SlotShape {
    slot: CHUNK_BYTES,
    eager: EAGER_BYTES,
    polls: 64,
};

/// Tuning knobs for a communicator.
#[derive(Debug, Clone, Default)]
pub struct CollConfig {
    /// Which engine executes collectives (see [`CollImpl`]).
    pub impl_: CollImpl,
}

/// Collective-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollError {
    /// An underlying VMMC operation failed.
    Vmmc(VmmcError),
    /// A bounded setup wait gave up.
    Timeout {
        /// The operation that timed out.
        op: &'static str,
        /// Total virtual time spent waiting.
        waited: SimDur,
    },
    /// The requested algorithm needs channels this communicator did not
    /// build (the flat variants without a channel to every rank).
    Unsupported(&'static str),
}

impl std::fmt::Display for CollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollError::Vmmc(e) => write!(f, "vmmc: {e}"),
            CollError::Timeout { op, waited } => write!(f, "{op} timed out after {waited}"),
            CollError::Unsupported(what) => write!(f, "algorithm unavailable: {what}"),
        }
    }
}

impl std::error::Error for CollError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollError::Vmmc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<VmmcError> for CollError {
    fn from(e: VmmcError) -> Self {
        CollError::Vmmc(e)
    }
}

impl From<shrimp_node::MemFault> for CollError {
    fn from(e: shrimp_node::MemFault) -> Self {
        CollError::Vmmc(VmmcError::from(e))
    }
}

/// The communicator factory: one per job, shared by every rank's
/// process. Mirrors the NX loader's rendezvous role.
pub struct CollWorld {
    system: Arc<ShrimpSystem>,
    impl_: CollImpl,
    nodes: Vec<usize>,
    /// Region exported by `to` for sender `from`, keyed `(from, to)`.
    rendezvous: Rendezvous<(usize, usize), BufferName>,
    /// Hardware spanning-tree cache shared by every rank (one tree per
    /// root node).
    hw_groups: HwGroupCache,
}

impl std::fmt::Debug for CollWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollWorld")
            .field("ranks", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl CollWorld {
    /// Create a world with one rank per entry of `nodes` (the node index
    /// each rank runs on).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or names an out-of-range node.
    pub fn new(system: Arc<ShrimpSystem>, config: CollConfig, nodes: Vec<usize>) -> Arc<CollWorld> {
        assert!(!nodes.is_empty(), "a communicator needs at least one rank");
        for &n in &nodes {
            assert!(n < system.len(), "node {n} out of range");
        }
        Arc::new(CollWorld {
            system,
            impl_: config.impl_,
            rendezvous: Rendezvous::new(nodes.len()),
            nodes,
            hw_groups: HwGroupCache::default(),
        })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty world (never constructible).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node index hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.nodes[rank]
    }

    /// Infallible [`CollWorld::try_join`] with the bootstrap retry
    /// policy; creates a fresh process on the rank's node.
    ///
    /// # Panics
    ///
    /// Panics on setup failure.
    pub fn join(self: &Arc<Self>, ctx: &Ctx, rank: usize) -> CollComm {
        self.try_join(ctx, rank, RetryPolicy::bootstrap(), None)
            .expect("collective communicator setup")
    }

    /// Build rank `rank`'s communicator: export this rank's channel
    /// regions, rendezvous with every other rank, then import the
    /// peers' regions. `proc_` supplies an existing process whose
    /// address space the communicator should share (how NX layers its
    /// collectives over this crate); `None` creates a fresh process.
    ///
    /// # Errors
    ///
    /// [`CollError::Timeout`] if some rank never arrives within the
    /// policy's budget; mapping-establishment failures otherwise.
    ///
    /// # Panics
    ///
    /// Panics with an out-of-range rank (a caller bug, not a runtime
    /// fault).
    pub fn try_join(
        self: &Arc<Self>,
        ctx: &Ctx,
        rank: usize,
        policy: RetryPolicy,
        proc_: Option<UserProc>,
    ) -> Result<CollComm, CollError> {
        assert!(rank < self.len(), "rank {rank} out of range");
        let node = self.node_of(rank);
        let vmmc = match proc_ {
            Some(p) => self.system.endpoint_on(node, p),
            None => self.system.endpoint(node, format!("coll-rank{rank}")),
        };
        let n = self.len();
        let me = rank;
        let topo = self.system.topology();
        let ring = RingOrder::new(topo.as_ref(), &self.nodes);
        let peers = peer_set(me, n, &ring);

        // Phase 1: export one region per in-peer and publish the names.
        let mut exports = HashMap::new();
        for &peer in &peers {
            let local = SlotChannel::export(&vmmc, ctx, SHAPE, policy)?;
            self.rendezvous.publish((peer, me), local.name);
            exports.insert(peer, local);
        }

        // Rendezvous, bounded like the NX loader's.
        if !self.rendezvous.arrive(ctx, me, policy.total_budget()) {
            return Err(CollError::Timeout {
                op: "communicator rendezvous",
                waited: policy.total_budget(),
            });
        }

        // Phase 2: import each peer's region for us.
        let mut channels = HashMap::new();
        for &peer in &peers {
            let name = self.rendezvous.published(&(me, peer));
            let out = vmmc.import_retry(ctx, NodeId(self.node_of(peer)), name, policy)?;
            let local = exports.remove(&peer).expect("exported in phase 1");
            channels.insert(peer, local.join(&vmmc, ctx, out)?);
        }

        let hw = if self.impl_ == CollImpl::Hardware {
            HwColl::try_new(&self.system, &self.nodes, Arc::clone(&self.hw_groups))
        } else {
            None
        };

        Ok(CollComm {
            vmmc,
            rank: me,
            n,
            // Every rank must agree, and a rank's own channels do not
            // say: on a 3×2 mesh the ring gives four of six ranks a
            // channel to every other, and two not.
            has_flat: (0..n).all(|r| peer_set(r, n, &ring).len() + 1 == n),
            ring,
            channels,
            owed: None,
            scratch: None,
            hw,
        })
    }
}

/// One rank's collective communicator: the persistent geometry plus
/// the chunk engine. Created by [`CollWorld::try_join`]; all collective
/// operations live in [`crate::ops`].
pub struct CollComm {
    pub(crate) vmmc: Vmmc,
    pub(crate) rank: usize,
    pub(crate) n: usize,
    pub(crate) ring: RingOrder,
    channels: HashMap<usize, SlotChannel>,
    /// Every rank has a channel to every other, so the flat variants
    /// work.
    pub(crate) has_flat: bool,
    /// The peer whose channel holds the ack of this rank's last consume,
    /// if it has not been stored yet: a rank owes at most one.
    owed: Option<usize>,
    /// Lazily grown word-aligned buffer backing the value-based
    /// convenience calls (`allreduce_f64` etc.).
    scratch: Option<(VAddr, usize)>,
    /// The in-network engine handle when [`CollImpl::Hardware`] is
    /// selected and the rank layout supports it.
    pub(crate) hw: Option<HwColl>,
}

impl std::fmt::Debug for CollComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollComm")
            .field("rank", &self.rank)
            .field("n", &self.n)
            .field("channels", &self.channels.len())
            .finish_non_exhaustive()
    }
}

impl CollComm {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a single-rank communicator (trivially never: `new`
    /// accepts one rank, where every collective is a no-op).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The underlying VMMC endpoint (shared address space).
    pub fn vmmc(&self) -> &Vmmc {
        &self.vmmc
    }

    /// Whether all-pairs channels exist (the flat variants work).
    pub fn has_flat_channels(&self) -> bool {
        self.has_flat
    }

    /// The endpoint and the channel pair with `peer`.
    pub(crate) fn chan(&mut self, peer: usize) -> (&Vmmc, &mut SlotChannel) {
        let ch = self.channels.get_mut(&peer);
        let ch = ch.unwrap_or_else(|| panic!("no channel to rank {peer}"));
        (&self.vmmc, ch)
    }

    /// Receive one `len`-byte chunk from `peer` out of the slot it
    /// landed in into `dst` — copied, or combined element-wise into what
    /// `dst` holds under `op` — then release it to the peer. The ack
    /// this rank still owes from an earlier consume is stored first,
    /// before the flag's first poll, so that store overlaps the wait.
    /// This chunk's own ack is stored before returning or, under `owe`,
    /// left owed until the next [`CollComm::settle`] (where those are:
    /// [`CollComm::transfer`]).
    pub(crate) fn recv_chunk(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        dst: VAddr,
        len: usize,
        op: Option<ReduceOp>,
        owe: bool,
    ) -> Result<(), CollError> {
        self.settle(ctx)?;
        let (vmmc, ch) = self.chan(peer);
        ch.wait_flag(vmmc, ctx, None)?;
        let slot = ch.payload(len);
        let p = vmmc.proc_();
        match op {
            Some(op) if len > 0 => {
                let other = p.read(ctx, slot, len)?;
                let mut acc = p.read(ctx, dst, len)?;
                op.fold(&mut acc, &other);
                p.write(ctx, dst, &acc)?;
            }
            // An empty chunk copies nothing and charges nothing.
            _ => p.copy(ctx, slot, dst, len)?,
        }
        ch.release(1, len);
        if len > 0 {
            self.owed = Some(peer);
        }
        if owe {
            Ok(())
        } else {
            self.settle(ctx)
        }
    }

    /// Store the ack this rank owes, if it owes one; owing nothing, it
    /// charges nothing.
    pub(crate) fn settle(&mut self, ctx: &Ctx) -> Result<(), CollError> {
        if let Some(peer) = self.owed {
            let (vmmc, ch) = self.chan(peer);
            ch.store_ack(vmmc, ctx)?;
            self.owed = None;
        }
        Ok(())
    }

    /// Grow-on-demand scratch buffer for the value-based calls.
    pub(crate) fn scratch(&mut self, bytes: usize) -> VAddr {
        match self.scratch {
            Some((va, cap)) if cap >= bytes => va,
            _ => {
                let cap = bytes.next_power_of_two().max(64);
                let va = self.vmmc.proc_().alloc(cap, CacheMode::WriteBack);
                self.scratch = Some((va, cap));
                va
            }
        }
    }
}
