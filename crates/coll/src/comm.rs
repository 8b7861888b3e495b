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
//! ## Channel protocol
//!
//! A channel `s → r` is one region exported by `r`, written only by
//! `s`, and it separates control from data the way the paper's
//! libraries do: bulk payloads are deliberate updates into the data
//! slots, everything else is a store into `s`'s local *mirror* of the
//! region's control page, which is bound to it for automatic update.
//!
//! ```text
//! | slot 0 payload | … | slot S-1 payload | pad to a page |
//! | flag[0..S] | ack | eager slot 0 | … | eager slot S-1 |   ← control page
//! ```
//!
//! A chunk is sent in two halves, so a bulk payload can be in flight
//! while the sender does other work (the chunk engine combines the
//! previous chunk there):
//!
//! * **Post — eager or bulk**: a payload of at most [`EAGER_BYTES`] is
//!   copied into the mirror's eager slot `(seq-1) % S` (any alignment,
//!   no send call); a larger one is a non-blocking deliberate update
//!   into the data slot of the same index, and the post hands back its
//!   send handle. Both sides know the chunk's length, so the receiver
//!   reads the slot the same rule names.
//! * **Flag — after the data**: the sender waits out the send handle, if
//!   there is one, then stores the flag word `= seq` into the mirror.
//!   Automatic-update packets leave in store order, and a completed send
//!   has its last piece already placed in the outgoing FIFO, so the flag
//!   lands after the payload on either path and the receiver polls one
//!   word. A sender has at most one chunk posted and not yet flagged, so
//!   the bounce buffer a deliberate update reads from is never reused
//!   early.
//! * **Ack / flow control**: a credit is owed only for a payload, the
//!   one thing a later chunk can overwrite (NX's packet-buffer credits,
//!   §4.1, are the same idea). The `ack` word in region `s → r` is
//!   stored by `s` after it consumes a *non-empty* chunk from the
//!   reverse channel `r → s` and carries that chunk's `seq` — the
//!   highest payload `seq` consumed, cumulative because delivery is in
//!   order. The sender remembers, per slot, the `seq` of the newest
//!   payload it left there; a non-empty chunk waits for `ack ≥` that
//!   before overwriting the slot, so `S = 2` slots double-buffer (the
//!   sender's deliberate update of chunk `k+1` is in flight while the
//!   peer's chunk `k` is combined; see `transfer` in `ops.rs`). An
//!   empty chunk — every barrier edge — is its flag
//!   alone: it never waits and is never acked. Its flag may overwrite
//!   the flag of an unconsumed payload in the same slot; the receiver
//!   polls for `flag ≥ seq`, so a later seq still releases it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{
    BufferName, ExportOpts, ImportHandle, SendHandle, ShrimpSystem, Vmmc, VmmcError,
};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, UserProc, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, Gate, RetryPolicy, SimDur};

use crate::geometry::{peer_set, RingOrder, FLAT_LIMIT};
use crate::hw::{CollImpl, HwColl, HwGroupCache};
use crate::ops::ReduceOp;

/// Largest payload, in bytes, that rides the control page beside its
/// flag instead of a deliberate update into the data slot. An eager
/// chunk costs one timed copy into write-through memory and no send
/// call; past a few hundred bytes the copy's per-byte cost overtakes the
/// send's fixed one. Swept on the benchmark's 64-rank `coll_8x8`, whose
/// `virt_slow_us` is the geometric mean of its 64 B, 1 KiB and 8 KiB
/// allreduces, in µs: 128 → 333.5, 256 → 333.6, 512 → 335.5,
/// 1 024 → 334.1 — flat within 0.6 % from 128 B to 1 KiB.
pub const EAGER_BYTES: usize = 256;

/// Spin polls before blocking in flag/ack waits.
const POLL_BUDGET: usize = 64;

/// Tuning knobs for a communicator.
#[derive(Debug, Clone)]
pub struct CollConfig {
    /// Payload bytes per pipeline chunk (word multiple).
    pub chunk_bytes: usize,
    /// Which engine executes collectives (see [`CollImpl`]).
    pub impl_: CollImpl,
}

impl Default for CollConfig {
    fn default() -> CollConfig {
        CollConfig {
            chunk_bytes: 2048,
            impl_: CollImpl::Software,
        }
    }
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
    /// build (the flat variants on more than 16 ranks).
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

/// Chunk slots per channel direction: double buffering. It is also the
/// fewest the chunk engine can run on — `transfer` posts chunk `c+1`
/// before it consumes chunk `c`, and that post waits for the ack of
/// chunk `c+1-SLOTS`, which with one slot is the chunk the peer has not
/// yet consumed because it is waiting the same way.
const SLOTS: usize = 2;

/// Region layout helper: the data slots from offset 0, then the control
/// page at [`ctl_off`](Self::ctl_off). `flag`, `ACK` and `eager` are
/// offsets *within* the control page, the same in the region and in the
/// sender's mirror of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelLayout {
    pub(crate) chunk: usize,
}

impl ChannelLayout {
    const ACK: usize = 4 * SLOTS;

    fn slot_off(&self, slot: usize) -> usize {
        slot * self.chunk
    }
    fn ctl_off(&self) -> usize {
        (SLOTS * self.chunk).next_multiple_of(PAGE_SIZE)
    }
    const fn flag(slot: usize) -> usize {
        4 * slot
    }
    /// Eager slots start on an 8-byte boundary so reduction lanes sit
    /// naturally aligned.
    const fn eager(slot: usize) -> usize {
        (Self::ACK + 4).next_multiple_of(8) + slot * EAGER_BYTES
    }
    fn total(&self) -> usize {
        self.ctl_off() + Self::eager(SLOTS)
    }
}

const _: () = assert!(
    ChannelLayout::eager(SLOTS) <= PAGE_SIZE,
    "control words and eager payloads overflow the control page"
);

/// The slot a chunk's sequence number names.
fn slot_of(seq: u32) -> usize {
    ((seq - 1) as usize) % SLOTS
}

/// Both directions of the persistent channel pair with one peer.
struct Channel {
    /// Base of the local region written by the peer: their bulk payloads
    /// in the data slots and, in the control page at
    /// [`ChannelLayout::ctl_off`], their flags and eager payloads and the
    /// ack word for *our* sends to them.
    in_base: VAddr,
    /// Import of the peer's region for us (we deliberate-update bulk
    /// payloads into its data slots).
    out: ImportHandle,
    /// Word-aligned bounce buffer for unaligned bulk chunk sources.
    staging: VAddr,
    /// Local mirror of `out`'s control page, bound to it for automatic
    /// update: a store here is our flag, eager payload or ack arriving
    /// there.
    out_ctl: VAddr,
    /// Next sequence number we send.
    next_send: u32,
    /// Per slot, the sequence number of the newest chunk that left a
    /// payload there: the ack a later payload must see before reusing it.
    unacked: [Option<u32>; SLOTS],
    /// Next sequence number we expect to receive.
    next_recv: u32,
}

/// A chunk whose payload has moved but whose flag is not yet stored:
/// what [`CollComm::post_chunk`] hands to [`CollComm::flag_chunk`].
pub(crate) struct Posted {
    peer: usize,
    seq: u32,
    /// A bulk payload's deliberate update, possibly still in flight;
    /// `None` for an eager or empty chunk, which may be flagged at once.
    pub(crate) du: Option<SendHandle>,
}

/// Sequence comparison with wraparound (`a ≥ b`).
fn seq_ge(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) as i32 >= 0
}

/// The communicator factory: one per job, shared by every rank's
/// process. Mirrors the NX loader's rendezvous role.
pub struct CollWorld {
    system: Arc<ShrimpSystem>,
    layout: ChannelLayout,
    impl_: CollImpl,
    nodes: Vec<usize>,
    /// Region exported by `to` for sender `from`, keyed `(from, to)`.
    published: Mutex<HashMap<(usize, usize), BufferName>>,
    joined: AtomicUsize,
    ready: Gate,
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
    /// Panics if `nodes` is empty, names an out-of-range node, or the
    /// chunk is not a positive word multiple.
    pub fn new(system: Arc<ShrimpSystem>, config: CollConfig, nodes: Vec<usize>) -> Arc<CollWorld> {
        assert!(!nodes.is_empty(), "a communicator needs at least one rank");
        assert!(
            config.chunk_bytes >= 4 && config.chunk_bytes.is_multiple_of(4),
            "chunk_bytes must be a positive word multiple"
        );
        let layout = ChannelLayout {
            chunk: config.chunk_bytes,
        };
        for &n in &nodes {
            assert!(n < system.len(), "node {n} out of range");
        }
        Arc::new(CollWorld {
            system,
            layout,
            impl_: config.impl_,
            nodes,
            published: Mutex::default(),
            joined: AtomicUsize::new(0),
            ready: Gate::new(),
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
        let layout = self.layout;

        // Phase 1: export one region per in-peer and publish the names.
        let mut in_bases: HashMap<usize, VAddr> = HashMap::new();
        for &peer in &peers {
            let base = vmmc.proc_().alloc(layout.total(), CacheMode::WriteBack);
            let name =
                vmmc.export_retry(ctx, base, layout.total(), ExportOpts::default(), policy)?;
            self.published.lock().insert((peer, me), name);
            in_bases.insert(peer, base);
        }

        // Rendezvous, bounded like the NX loader's.
        if self.joined.fetch_add(1, Ordering::SeqCst) + 1 == n {
            self.ready.open(&ctx.handle());
        }
        if !self
            .ready
            .wait_deadline(ctx, ctx.now() + policy.total_budget())
        {
            return Err(CollError::Timeout {
                op: "communicator rendezvous",
                waited: policy.total_budget(),
            });
        }

        // Phase 2: import each peer's region for us.
        let mut channels: HashMap<usize, Channel> = HashMap::new();
        for &peer in &peers {
            let name = self.published.lock()[&(me, peer)];
            let out = vmmc.import_retry(ctx, NodeId(self.node_of(peer)), name, policy)?;
            let out_ctl = vmmc.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            // Combining stays off: its 0.8 us timer would sit on every
            // lone flag and ack (64-rank barrier 33.6 -> 39.0 us with it
            // on, 64 B allreduce 78.6 -> 84.0).
            vmmc.bind_au(ctx, out_ctl, &out, layout.ctl_off(), 1, false, false)?;
            channels.insert(
                peer,
                Channel {
                    in_base: in_bases[&peer],
                    out,
                    staging: vmmc.proc_().alloc(layout.chunk, CacheMode::WriteBack),
                    out_ctl,
                    next_send: 1,
                    unacked: [None; SLOTS],
                    next_recv: 1,
                },
            );
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
            layout,
            ring,
            channels,
            has_flat: n <= FLAT_LIMIT,
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
    pub(crate) layout: ChannelLayout,
    pub(crate) ring: RingOrder,
    channels: HashMap<usize, Channel>,
    pub(crate) has_flat: bool,
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

    fn chan(&mut self, peer: usize) -> &mut Channel {
        self.channels
            .get_mut(&peer)
            .unwrap_or_else(|| panic!("no channel to rank {peer}"))
    }

    /// Post one chunk (`len ≤ chunk_bytes`, may be 0 for a pure flag)
    /// to `peer`: a payload waits until the peer has consumed the last
    /// payload left in its slot, then moves — eagerly through the
    /// control-page mirror, or by a non-blocking deliberate update into
    /// the data slot, still in flight when this returns; an empty chunk
    /// does neither. The chunk reaches the peer only once
    /// [`flag_chunk`](Self::flag_chunk) is called on what this returns,
    /// which must happen before the next post.
    pub(crate) fn post_chunk(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        src: VAddr,
        len: usize,
    ) -> Result<Posted, CollError> {
        debug_assert!(len <= self.layout.chunk);
        let layout = self.layout;
        let (seq, in_base, staging, out_ctl) = {
            let ch = self.chan(peer);
            (ch.next_send, ch.in_base, ch.staging, ch.out_ctl)
        };
        let slot = slot_of(seq);
        let mut du = None;
        if len > 0 {
            // Flow control: the peer's acks for our sends arrive in
            // *our* local region (written by the peer).
            if let Some(need) = self.chan(peer).unacked[slot] {
                let ack_va = in_base.add(layout.ctl_off() + ChannelLayout::ACK);
                self.vmmc
                    .wait_u32(ctx, ack_va, POLL_BUDGET, |v| seq_ge(v, need))?;
            }
            if len > EAGER_BYTES {
                let from = if src.is_word_aligned() {
                    src
                } else {
                    // Word-align through the bounce buffer (timed copy).
                    self.vmmc.proc_().copy(ctx, src, staging, len)?;
                    staging
                };
                let padded = (len + 3) & !3;
                let out = &self.channels[&peer].out;
                du = Some(self.vmmc.send_nonblocking(
                    ctx,
                    from,
                    out,
                    layout.slot_off(slot),
                    padded,
                )?);
            } else {
                let eager = out_ctl.add(ChannelLayout::eager(slot));
                self.vmmc.proc_().copy(ctx, src, eager, len)?;
            }
            self.chan(peer).unacked[slot] = Some(seq);
        }
        self.chan(peer).next_send = seq.wrapping_add(1);
        Ok(Posted { peer, seq, du })
    }

    /// Release a posted chunk to its peer: wait out its deliberate
    /// update, if it has one, then store the flag word. Flag after data:
    /// a completed send's packets are already ahead of this store's in
    /// the outgoing FIFO, and delivery is in order.
    pub(crate) fn flag_chunk(&mut self, ctx: &Ctx, posted: Posted) -> Result<(), CollError> {
        if let Some(du) = &posted.du {
            self.vmmc.send_wait(ctx, du);
        }
        let out_ctl = self.chan(posted.peer).out_ctl;
        let flag = out_ctl.add(ChannelLayout::flag(slot_of(posted.seq)));
        self.vmmc.proc_().write_u32(ctx, flag, posted.seq)?;
        Ok(())
    }

    /// Receive one `len`-byte chunk from `peer` out of the slot it
    /// landed in (eager or data, by the sender's rule) into `dst` —
    /// copied, or combined element-wise into what `dst` holds under
    /// `op`. A payload is acknowledged once consumed, never before, so
    /// the sender cannot overwrite data still being read; an empty chunk
    /// frees nothing and is not acknowledged.
    pub(crate) fn recv_chunk(
        &mut self,
        ctx: &Ctx,
        peer: usize,
        dst: VAddr,
        len: usize,
        op: Option<ReduceOp>,
    ) -> Result<(), CollError> {
        let layout = self.layout;
        let (seq, in_base, out_ctl) = {
            let ch = self.chan(peer);
            (ch.next_recv, ch.in_base, ch.out_ctl)
        };
        let in_ctl = in_base.add(layout.ctl_off());
        let slot = slot_of(seq);
        let flag_va = in_ctl.add(ChannelLayout::flag(slot));
        self.vmmc
            .wait_u32(ctx, flag_va, POLL_BUDGET, |v| seq_ge(v, seq))?;
        let slot_va = if len > EAGER_BYTES {
            in_base.add(layout.slot_off(slot))
        } else {
            in_ctl.add(ChannelLayout::eager(slot))
        };
        let p = self.vmmc.proc_();
        match op {
            Some(op) if len > 0 => {
                let other = p.read(ctx, slot_va, len)?;
                let mut acc = p.read(ctx, dst, len)?;
                op.fold(&mut acc, &other);
                p.write(ctx, dst, &acc)?;
            }
            // An empty chunk copies nothing and charges nothing.
            _ => p.copy(ctx, slot_va, dst, len)?,
        }
        if len > 0 {
            // Ack into the reverse channel's control page on the peer.
            p.write_u32(ctx, out_ctl.add(ChannelLayout::ACK), seq)?;
        }
        self.chan(peer).next_recv = seq.wrapping_add(1);
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
