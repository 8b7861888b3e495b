//! NX job setup: connection establishment between every process pair.
//!
//! In NX a connection is set up between each pair of processes at
//! initialization time (paper §4 "Connections"). [`NxWorld`] plays the
//! role of the NX loader: each rank's process calls [`NxWorld::join`],
//! which exports its receive-side regions, publishes their names through
//! the loader (the trusted third party), waits for every other rank, and
//! then imports its peers' regions and creates the automatic-update
//! bindings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shrimp_core::{BufferName, ExportOpts, ExportPerms, ImportHandle, Rendezvous, ShrimpSystem};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, RetryPolicy};

use crate::config::NxConfig;
use crate::proc::{NxError, NxProc, Peers, PendingLarge};
use crate::wire::{CtrlLayout, DataLayout, CREDIT_SLOTS, PKT_BUF};

/// Which region of an ordered pair a published name refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RegionKind {
    /// Packet buffers + done slots, exported by the receiver.
    Data,
    /// Credit ring + reply slots, exported by the sender.
    Ctrl,
    /// Interrupt page, exported by the receiver.
    Urgent,
}

/// The NX job: fixed set of processes, one per rank.
pub struct NxWorld {
    system: Arc<ShrimpSystem>,
    config: NxConfig,
    /// Export names by region and ordered pair (sender, receiver).
    rendezvous: Rendezvous<(RegionKind, usize, usize), BufferName>,
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
/// each owning its mapped regions, its credits and its completion
/// state. The protocol steps are their methods, in `proc.rs`.
pub(crate) struct Peer {
    pub out: OutConn,
    pub inc: InConn,
}

/// Sender-side state for one outgoing connection (this rank → peer).
pub(crate) struct OutConn {
    /// Geometry of the peer's data region.
    pub layout: DataLayout,
    /// The peer's data region.
    pub data: ImportHandle,
    /// Local AU mirror of the peer's data region (write-through, bound).
    pub au_send: VAddr,
    /// Local AU page bound to the peer's urgent page (interrupting).
    pub urgent: VAddr,
    /// Local staging area (one packet buffer + a spare descriptor + a
    /// done word), word-aligned, used by the deliberate-update paths.
    pub staging: VAddr,
    /// Local view of our exported control region (credits arrive here).
    pub ctrl_local: VAddr,
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
    /// Geometry of our exported data region.
    pub layout: DataLayout,
    /// Local view of our exported data region.
    pub data_local: VAddr,
    /// Local AU region bound to the peer's control region.
    pub ctrl_au: VAddr,
    /// Credits returned so far.
    pub credits_returned: u64,
    /// Buffers consumed but whose credits have not been flushed yet.
    pub pending_credits: Vec<usize>,
    /// Set by the urgent-page notification handler: the sender is out of
    /// buffers, flush credits now.
    pub flush_requested: Arc<AtomicBool>,
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
    /// rank's receive-side regions, rendezvouses with every other rank,
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
        let layout = DataLayout {
            npkt: self.config.packet_buffers,
        };
        let n = self.len();

        // Phase 1: export receive-side regions and publish their names.
        let mut exported = Vec::with_capacity(n);
        for peer in (0..n).filter(|&peer| peer != rank) {
            // Data region (peer sends to me).
            let data_local = vmmc.proc_().alloc(layout.total(), CacheMode::WriteBack);
            let data_name = vmmc.export(ctx, data_local, layout.total(), ExportOpts::default())?;
            // Urgent page with a handler that requests a credit flush.
            let urgent_local = vmmc.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let flush_requested = Arc::new(AtomicBool::new(false));
            let fr = Arc::clone(&flush_requested);
            let urgent_name = vmmc.export(
                ctx,
                urgent_local,
                PAGE_SIZE,
                ExportOpts {
                    perms: ExportPerms::Any,
                    handler: Some(Box::new(move |_ctx, _ev| {
                        fr.store(true, Ordering::SeqCst);
                    })),
                    ..Default::default()
                },
            )?;
            // Control region (I send to peer; peer writes credits back).
            let ctrl_local = vmmc
                .proc_()
                .alloc(CtrlLayout::total(), CacheMode::WriteBack);
            let ctrl_name =
                vmmc.export(ctx, ctrl_local, CtrlLayout::total(), ExportOpts::default())?;

            let pubs = &self.rendezvous;
            pubs.publish((RegionKind::Data, peer, rank), data_name);
            pubs.publish((RegionKind::Urgent, peer, rank), urgent_name);
            pubs.publish((RegionKind::Ctrl, rank, peer), ctrl_name);
            exported.push((data_local, flush_requested, ctrl_local));
        }

        // Rendezvous, bounded: a rank that never shows up (crashed node,
        // wedged loader) must not hang the job forever.
        if !self.rendezvous.arrive(ctx, rank, policy.total_budget()) {
            return Err(NxError::Timeout {
                op: "join rendezvous",
                waited: policy.total_budget(),
            });
        }

        // Phase 2: import peers' regions and create AU bindings.
        let mut exported = exported.into_iter();
        let mut peers = Vec::with_capacity(n);
        for peer in 0..n {
            if peer == rank {
                peers.push(None);
                continue;
            }
            let pubs = &self.rendezvous;
            let data_name = pubs.published(&(RegionKind::Data, rank, peer));
            let urgent_name = pubs.published(&(RegionKind::Urgent, rank, peer));
            let ctrl_name = pubs.published(&(RegionKind::Ctrl, peer, rank));
            let peer_node = NodeId(self.node_of(peer));

            // Outgoing: peer's data region + urgent page.
            let data = vmmc.import_retry(ctx, peer_node, data_name, policy)?;
            let au_send = vmmc.proc_().alloc(layout.total(), CacheMode::WriteBack);
            vmmc.bind_au(
                ctx,
                au_send,
                &data,
                0,
                layout.total() / PAGE_SIZE,
                true,
                false,
            )?;
            let urgent_import = vmmc.import_retry(ctx, peer_node, urgent_name, policy)?;
            let urgent = vmmc.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            vmmc.bind_au(ctx, urgent, &urgent_import, 0, 1, true, true)?;
            let staging = vmmc.proc_().alloc(PKT_BUF + 64, CacheMode::WriteBack);
            let (data_local, flush_requested, ctrl_local) =
                exported.next().expect("phase 1 exported to every peer");
            let out = OutConn {
                layout,
                data,
                au_send,
                urgent,
                staging,
                ctrl_local,
                free: (0..self.config.packet_buffers).collect(),
                credits_taken: 0,
                credit_stalls: 0,
                next_seq: 1,
                next_msgid: 1,
                pending_large: Vec::new(),
                zc_imports: HashMap::new(),
                bounce_pool: Vec::new(),
            };

            // Incoming: bind to the peer's control region for credits.
            let ctrl_import = vmmc.import_retry(ctx, peer_node, ctrl_name, policy)?;
            let ctrl_au = vmmc
                .proc_()
                .alloc(CtrlLayout::total(), CacheMode::WriteBack);
            vmmc.bind_au(
                ctx,
                ctrl_au,
                &ctrl_import,
                0,
                CtrlLayout::total() / PAGE_SIZE,
                true,
                false,
            )?;
            let inc = InConn {
                layout,
                data_local,
                ctrl_au,
                credits_returned: 0,
                pending_credits: Vec::new(),
                flush_requested,
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
