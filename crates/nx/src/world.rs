//! NX job setup: connection establishment between every process pair.
//!
//! In NX a connection is set up between each pair of processes at
//! initialization time (paper §4 "Connections"). [`NxWorld`] plays the
//! role of the NX loader: each rank's process calls [`NxWorld::join`],
//! which exports one region per peer, publishes their names through the
//! loader (the trusted third party), waits for every other rank, and
//! then imports its peers' regions and creates the automatic-update
//! bindings.
//!
//! A connection is one region per direction, in core's channel shape:
//! the region for s → r is exported by r and written only by s, and its
//! tail (`wire.rs`) carries s's credits and scout replies for r → s and
//! the urgent word, so a rank maps one region per peer and exports one.
//! It binds two mirrors onto each import: the whole region, for packet
//! buffers, credits and replies, and its last page again with the
//! destination-interrupt flag set, for the urgent word alone. The
//! export carries a notification handler so that only that binding's
//! stores interrupt: the receiver's next library call takes the
//! notification and is charged its signal delivery (paper §6
//! "Interrupts"). The handler itself does nothing, since every freed
//! packet buffer's credit has already gone back.

use std::collections::HashMap;
use std::sync::Arc;

use shrimp_core::{BufferName, ExportOpts, ImportHandle, Rendezvous, ShrimpSystem};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, RetryPolicy};

use crate::config::NxConfig;
use crate::proc::{NxError, NxProc, Peers, PendingLarge};
use crate::wire::{Layout, CREDIT_SLOTS, PKT_BUF};

/// The NX job: fixed set of processes, one per rank.
pub struct NxWorld {
    system: Arc<ShrimpSystem>,
    config: NxConfig,
    /// Export names by ordered pair (sender, receiver).
    rendezvous: Rendezvous<(usize, usize), BufferName>,
    /// Collective-communication factory: the `g*` calls run on
    /// `shrimp-coll` communicators sharing each rank's address space.
    /// It also holds the node index hosting each rank.
    coll: Arc<shrimp_coll::CollWorld>,
}

impl std::fmt::Debug for NxWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NxWorld")
            .field("ranks", &self.len())
            .finish_non_exhaustive()
    }
}

/// This rank's connection with one remote rank: a direction each way,
/// each owning its view of the two regions, its credits and its
/// completion state. The protocol steps are their methods, in `proc.rs`.
pub(crate) struct Peer {
    pub out: OutConn,
    pub inc: InConn,
}

/// Sender-side state for one outgoing connection (this rank → peer).
pub(crate) struct OutConn {
    /// Geometry of both regions.
    pub layout: Layout,
    /// The peer's region.
    pub data: ImportHandle,
    /// Local AU mirror of the peer's region (write-through, bound).
    pub au_send: VAddr,
    /// The urgent word, in a local AU page bound to the last page of the
    /// peer's region (interrupting).
    pub urgent: VAddr,
    /// Local staging area (one packet buffer + a spare descriptor + a
    /// done word), word-aligned, used by the deliberate-update paths.
    pub staging: VAddr,
    /// Local view of our exported region: the peer's credits and replies
    /// for this direction land in its tail.
    pub local: VAddr,
    /// Free packet buffers.
    pub free: Vec<usize>,
    /// Credits consumed so far (index of the next credit to wait for).
    pub credits_taken: u64,
    /// Times every buffer was in use and a send had to wait for one.
    pub credit_stalls: u64,
    /// Next message sequence number.
    pub next_seq: u32,
    /// Next large-transfer id.
    pub next_msgid: u32,
    /// Outstanding large sends awaiting the receiver's reply.
    pub pending_large: Vec<PendingLarge>,
    /// Imports of the peer's exported user buffers (zero-copy), by name.
    pub zc_imports: HashMap<u64, ImportHandle>,
    /// Pool of safe-copy buffers for the optimistic large-send protocol.
    /// Each outstanding large send holds its own buffer until its
    /// transfer completes (a shared buffer would let a later send
    /// corrupt an earlier pending one's safe copy).
    pub bounce_pool: Vec<BounceBuf>,
}

/// One safe-copy buffer in the pool.
pub(crate) struct BounceBuf {
    pub va: VAddr,
    pub cap: usize,
    pub in_use: bool,
}

/// Receiver-side state for one incoming connection (peer → this rank).
pub(crate) struct InConn {
    /// Geometry of both regions.
    pub layout: Layout,
    /// Local view of our exported region.
    pub data_local: VAddr,
    /// The AU mirror of the peer's region ([`OutConn::au_send`]): our
    /// credits and replies for this direction leave through its tail.
    pub au_send: VAddr,
    /// Credits returned so far, one per freed packet buffer.
    pub credits_returned: u64,
    /// Exported user receive buffers (zero-copy), keyed by (va, len).
    pub user_exports: HashMap<(u64, usize), BufferName>,
}

impl NxWorld {
    /// Create a world with one rank per entry of `nodes` (the node index
    /// each rank runs on).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or names an out-of-range node, or if
    /// `config.packet_buffers` is not 1 to 64: with none the first send
    /// waits forever, and past the credit ring's size an early credit is
    /// overwritten before the sender takes it.
    pub fn new(system: Arc<ShrimpSystem>, config: NxConfig, nodes: Vec<usize>) -> Arc<NxWorld> {
        assert!(
            (1..=CREDIT_SLOTS).contains(&config.packet_buffers),
            "packet_buffers must be 1 to {CREDIT_SLOTS}, not {}",
            config.packet_buffers
        );
        let rendezvous = Rendezvous::new(nodes.len());
        let coll = shrimp_coll::CollWorld::new(
            Arc::clone(&system),
            shrimp_coll::CollConfig::default(),
            nodes,
        );
        Arc::new(NxWorld {
            system,
            config,
            rendezvous,
            coll,
        })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.coll.len()
    }

    /// True for an empty world (never constructible).
    pub fn is_empty(&self) -> bool {
        self.coll.is_empty()
    }

    /// The configuration all ranks share.
    pub fn config(&self) -> &NxConfig {
        &self.config
    }

    /// The node index hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        self.coll.node_of(rank)
    }

    /// Called once from each rank's process: allocates and exports this
    /// rank's region for each peer, rendezvouses with every other rank,
    /// then imports and binds. Returns the rank's NX library instance.
    ///
    /// # Panics
    ///
    /// Panics if called twice for the same rank, with an out-of-range
    /// rank, or on mapping-establishment failure; use
    /// [`NxWorld::try_join`] where setup faults must surface as errors.
    pub fn join(self: &Arc<Self>, ctx: &Ctx, rank: usize) -> NxProc {
        self.try_join(ctx, rank, RetryPolicy::bootstrap())
            .expect("NX job setup")
    }

    /// Fallible [`NxWorld::join`]: bounds the rendezvous wait by the
    /// policy's total budget and retries imports through daemon outages
    /// with the policy's backoff schedule.
    ///
    /// # Errors
    ///
    /// [`NxError::Timeout`] if some rank never arrives within the
    /// budget; mapping-establishment failures otherwise.
    ///
    /// # Panics
    ///
    /// Panics if called twice for the same rank or with an out-of-range
    /// rank (caller bugs, not runtime faults).
    pub fn try_join(
        self: &Arc<Self>,
        ctx: &Ctx,
        rank: usize,
        policy: RetryPolicy,
    ) -> Result<NxProc, NxError> {
        assert!(rank < self.len(), "rank {rank} out of range");
        let vmmc = self
            .system
            .endpoint(self.node_of(rank), format!("nx-rank{rank}"));
        let layout = Layout {
            npkt: self.config.packet_buffers,
        };
        let n = self.len();

        // Phase 1: export one region per peer and publish its name. Its
        // handler serves the urgent word, the peer being out of buffers,
        // and is empty: credits go back as each buffer is freed. Core
        // sets an export's interrupt bit only when it has a handler.
        let mut exported = Vec::with_capacity(n);
        for peer in (0..n).filter(|&peer| peer != rank) {
            let local = vmmc.proc_().alloc(layout.total(), CacheMode::WriteBack);
            let opts = ExportOpts {
                handler: Some(Box::new(|_ctx, _ev| {})),
                ..Default::default()
            };
            let name = vmmc.export(ctx, local, layout.total(), opts)?;
            self.rendezvous.publish((peer, rank), name);
            exported.push(local);
        }

        // Rendezvous, bounded: a rank that never shows up (crashed node,
        // wedged loader) must not hang the job forever.
        if !self.rendezvous.arrive(ctx, rank, policy.total_budget()) {
            return Err(NxError::Timeout {
                op: "join rendezvous",
                waited: policy.total_budget(),
            });
        }

        // Phase 2: import each peer's region and bind its two mirrors.
        let mut exported = exported.into_iter();
        let mut peers = Vec::with_capacity(n);
        for peer in 0..n {
            if peer == rank {
                peers.push(None);
                continue;
            }
            let name = self.rendezvous.published(&(rank, peer));
            let data = vmmc.import_retry(ctx, NodeId(self.node_of(peer)), name, policy)?;
            let pages = layout.total() / PAGE_SIZE;
            let au_send = vmmc.proc_().alloc(layout.total(), CacheMode::WriteBack);
            vmmc.bind_au(ctx, au_send, &data, 0, pages, true, false)?;
            let last = layout.total() - PAGE_SIZE;
            let urgent = vmmc.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            vmmc.bind_au(ctx, urgent, &data, last, 1, true, true)?;
            let staging = vmmc.proc_().alloc(PKT_BUF + 64, CacheMode::WriteBack);
            let local = exported.next().expect("phase 1 exported to every peer");
            let out = OutConn {
                layout,
                data,
                au_send,
                urgent: urgent.add(layout.urgent() - last),
                staging,
                local,
                free: (0..self.config.packet_buffers).collect(),
                credits_taken: 0,
                credit_stalls: 0,
                next_seq: 1,
                next_msgid: 1,
                pending_large: Vec::new(),
                zc_imports: HashMap::new(),
                bounce_pool: Vec::new(),
            };
            let inc = InConn {
                layout,
                data_local: local,
                au_send,
                credits_returned: 0,
                user_exports: HashMap::new(),
            };
            peers.push(Some(Peer { out, inc }));
        }

        // Finally, build this rank's collective communicator on the
        // same process, so the persistent channel geometry shares the
        // NX address space (user buffers are directly sendable).
        let coll = self
            .coll
            .try_join(ctx, rank, policy, Some(vmmc.proc_().clone()))?;

        Ok(NxProc::new(
            vmmc,
            rank,
            self.config.clone(),
            Peers(peers),
            coll,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrimp_core::SystemConfig;
    use shrimp_sim::Kernel;

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_world_rejected() {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        NxWorld::new(system, NxConfig::default(), vec![]);
    }

    fn world_with_packet_buffers(packet_buffers: usize) {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let config = NxConfig {
            packet_buffers,
            ..NxConfig::default()
        };
        NxWorld::new(system, config, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "packet_buffers must be 1 to 64, not 0")]
    fn no_packet_buffers_rejected() {
        world_with_packet_buffers(0);
    }

    #[test]
    #[should_panic(expected = "packet_buffers must be 1 to 64, not 65")]
    fn more_packet_buffers_than_credit_slots_rejected() {
        world_with_packet_buffers(65);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_rejected() {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        NxWorld::new(system, NxConfig::default(), vec![0, 9]);
    }

    #[test]
    fn join_wires_all_ranks() {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let world = NxWorld::new(Arc::clone(&system), NxConfig::default(), vec![0, 1, 2, 3]);
        for rank in 0..4 {
            let world = Arc::clone(&world);
            kernel.spawn(format!("rank{rank}"), move |ctx| {
                let nx = world.join(ctx, rank);
                assert_eq!(nx.mynode(), rank);
                assert_eq!(nx.numnodes(), 4);
            });
        }
        kernel.run_until_quiescent().unwrap();
        assert!(system.violations().is_empty());
    }
}
