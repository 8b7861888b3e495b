//! Cluster assembly: shard placement, routing epochs, the watchdog's
//! poll, and shutdown choreography.
//!
//! Placement is *chained*: with `N` nodes and `N` shards, node `s`
//! runs the primary of shard `s` and the backup replica of shard
//! `(s - 1) mod N` — the paper-era "one server per node" layout where
//! replication traffic is one hop along the ring: live records, their
//! flag and ack words all by automatic update, sync batches by a
//! deliberate update beside an automatic-update head.
//!
//! A shard's *route* is `(primary, backup, epoch)`; every epoch bump
//! fences the previous generation (service names are epoch-qualified
//! and the serve fence re-checks the route before any reply). Every
//! recovery decision — promotion, revival, a migration's or re-arm's
//! claim, demotion, abort, the activation CAS — is an arm of one pure
//! `ShardMachine::step` (`machine.rs`), and the cluster keeps every
//! shard's machine under one lock. The watchdog polls daemon liveness every
//! [`WATCH_INTERVAL`] and steps the machines in a fixed order: per
//! shard, promote then revive; queued migrations (fault-plan
//! `Directive { op: "migrate" }` entries) in directive order; per
//! shard, re-arm. Each transition is recorded as a [`ClusterEvent`]:
//!
//! * **Promotion** — the primary's daemon is down (or restarted since
//!   the route was established) and a live backup exists: the backup
//!   becomes the primary under a bumped epoch and its store becomes
//!   authoritative. Zero acked writes are lost because the commit
//!   point of every replicated write is the backup's ack.
//! * **Revival** — an unreplicated shard's primary daemon restarted:
//!   the shard's mappings died with the daemon but its process memory
//!   did not (the RAMC re-establishment model), so a fresh worker
//!   generation re-exports the same store under a bumped epoch.
//! * **Migration** — a planned handoff moves a shard's primary to a
//!   chosen node: concurrent snapshot, write freeze, delta drain, cut,
//!   then the epoch bump activates the target.
//! * **Re-replication** — a shard left without a backup (after a
//!   promotion, migration, or replication degradation) gets a new one:
//!   the next alive node after the primary, synced over a fresh VMMC
//!   channel, re-armed under a bumped epoch.
//!
//! Migration and re-replication run as a *sync*, as does each chained
//! shard's epoch-0 bring-up: one `server::Sync` value, built by the
//! machine's claim (or at construction), run by its orchestrator and
//! installed by the machine's activation CAS.
//!
//! Clients discover every transition through their bounded-wait
//! timeouts and re-bind against the refreshed route; a deposed
//! generation can never answer a current-epoch request.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use shrimp_core::{BufferName, ShrimpSystem};
use shrimp_sim::{Ctx, SimDur, SimTime};
use shrimp_srpc::{parse_interface, Interface, SrpcDirectory};

use crate::machine::{Action, Event, Liveness, ShardMachine};
use crate::read_through::RtRegion;
use crate::server;
use crate::store::{Op, ShardStore};
use crate::{fnv1a_fold, ShardRing, FNV_SEED};

/// The KV fast-path interface. Keys and values are `opaque<N>`, so a
/// request carries only its own bytes, and each direction is still one
/// store run ending at its flag: one combined packet for a whole
/// request and one for its reply (`tests/wire.rs` counts both). `get`'s
/// reply is stored when the handler returns; `put`'s and `del`'s fixed
/// replies as they are set, so their handlers set them in the order
/// declared here.
const KV_IDL: &str = "interface Kv {
    put(in key: opaque<32>, in val: opaque<64>, out seq: u32, out existed: bool);
    get(in key: opaque<32>, out seq: u32, out found: bool, out val: opaque<64>);
    del(in key: opaque<32>, out seq: u32, out existed: bool);
}";

/// How often a worker blocked on a frozen shard re-polls the freeze
/// flag. Freezes last one delta drain, so this stays coarse enough to
/// not flood the event queue and fine enough to not stretch the
/// handoff.
pub(crate) const FREEZE_POLL: SimDur = SimDur::from_ps(10_000_000); // 10 us

/// Watchdog poll cadence; also the bounded-wait slice between
/// promotion/shutdown checks in every polling service process. A crash
/// is acted on within one interval, and the client's first retry
/// backoff is sized to outlast it (`client.rs`).
pub const WATCH_INTERVAL: SimDur = SimDur::from_ps(100_000_000); // 100 us

/// Cluster shape and the serving options callers choose between.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Number of shards (≤ nodes; the chained layout uses one per
    /// node).
    pub shards: usize,
    /// Whether each shard keeps a chained backup replica (and whether
    /// the watchdog re-arms one after it is lost).
    pub replication: bool,
    /// Serve workers pre-spawned per shard per epoch — the maximum
    /// concurrent client bindings a shard accepts.
    pub conns_per_shard: usize,
    /// Serve reads from the backup replica when the primary is slow:
    /// a timed-out read hedges to the backup's read-only service.
    /// Safe because the commit point of every acked write is the
    /// backup's ack — the replica is never behind an acked write.
    pub hedge_reads: bool,
    /// Reply wait before a read gives up on the primary and hedges.
    pub hedge_after: SimDur,
    /// Serve cache-resident `get`s with a one-sided remote fetch of
    /// the primary's exported value-slot table instead of an RPC round
    /// trip (see [`crate::SvcConfig`] and the `read_through` module
    /// docs). The client validates epoch and key on every fetched slot
    /// and falls back to the RPC path on any mismatch, so this is a
    /// pure fast path — never a consistency change.
    pub read_through: bool,
}

impl SvcConfig {
    /// The chained one-shard-per-node layout for an `n`-node system.
    pub fn chained(nodes: usize) -> SvcConfig {
        SvcConfig {
            shards: nodes,
            replication: nodes >= 2,
            conns_per_shard: 2 * nodes,
            hedge_reads: false,
            hedge_after: SimDur::from_us(200.0),
            read_through: false,
        }
    }
}

/// A shard's current route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRoute {
    /// Node index of the serving primary.
    pub primary: usize,
    /// Node index of the backup replica, if one is live.
    pub backup: Option<usize>,
    /// Routing epoch — bumped at every promotion, revival, migration,
    /// and re-arm; service names are epoch-qualified.
    pub epoch: u32,
}

/// One recorded routing transition — the cluster's self-healing audit
/// trail. Deterministic under replay, so benches digest the rendered
/// log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A backup was promoted to primary after its primary died.
    Promoted {
        /// When.
        at: SimTime,
        /// Affected shard.
        shard: usize,
        /// Deposed primary node.
        from: usize,
        /// Promoted backup node.
        to: usize,
        /// The new epoch.
        epoch: u32,
    },
    /// Replication degraded: the backup was dropped from the route.
    BackupLost {
        /// When.
        at: SimTime,
        /// Affected shard.
        shard: usize,
        /// The node whose replica went stale.
        node: usize,
    },
    /// A new backup finished its snapshot sync and chained replication
    /// re-armed under a bumped epoch.
    Rearmed {
        /// When.
        at: SimTime,
        /// Affected shard.
        shard: usize,
        /// The (unchanged) primary node.
        primary: usize,
        /// The freshly armed backup node.
        backup: usize,
        /// The new epoch.
        epoch: u32,
    },
    /// A planned handoff moved the shard's primary to a new node.
    Migrated {
        /// When.
        at: SimTime,
        /// Affected shard.
        shard: usize,
        /// Source primary node.
        from: usize,
        /// Target primary node.
        to: usize,
        /// The new epoch.
        epoch: u32,
    },
    /// An unreplicated shard's primary daemon restarted and a fresh
    /// worker generation resumed serving its store.
    Revived {
        /// When.
        at: SimTime,
        /// Affected shard.
        shard: usize,
        /// The reviving primary node.
        node: usize,
        /// The new epoch.
        epoch: u32,
    },
}

impl ClusterEvent {
    /// Deterministic one-line rendering.
    pub fn render(&self) -> String {
        let ps = |t: &SimTime| t.since(SimTime::ZERO).as_ps();
        match self {
            ClusterEvent::Promoted {
                at,
                shard,
                from,
                to,
                epoch,
            } => format!(
                "promote shard={shard} epoch={epoch} node{from}->node{to} at_ps={}",
                ps(at)
            ),
            ClusterEvent::BackupLost { at, shard, node } => {
                format!("backup-lost shard={shard} node{node} at_ps={}", ps(at))
            }
            ClusterEvent::Rearmed {
                at,
                shard,
                primary,
                backup,
                epoch,
            } => format!(
                "rearm shard={shard} epoch={epoch} primary=node{primary} backup=node{backup} at_ps={}",
                ps(at)
            ),
            ClusterEvent::Migrated {
                at,
                shard,
                from,
                to,
                epoch,
            } => format!(
                "migrate shard={shard} epoch={epoch} node{from}->node{to} at_ps={}",
                ps(at)
            ),
            ClusterEvent::Revived {
                at,
                shard,
                node,
                epoch,
            } => format!("revive shard={shard} epoch={epoch} node{node} at_ps={}", ps(at)),
        }
    }
}

/// A running KV cluster: spawn once per system, then create
/// [`SvcClient`](crate::SvcClient)s against it.
pub struct SvcCluster {
    system: Arc<ShrimpSystem>,
    directory: Arc<SrpcDirectory>,
    cfg: SvcConfig,
    ring: Arc<ShardRing>,
    iface: Interface,
    /// Every shard's routing and transition state, under one lock.
    machines: Mutex<Vec<ShardMachine>>,
    events: Mutex<Vec<ClusterEvent>>,
    /// How many system fault-plan directives have been consumed.
    directive_cursor: AtomicUsize,
    /// Monotonic tag making transition process/endpoint names unique.
    generations: AtomicUsize,
    shutdown: AtomicBool,
    clients: AtomicUsize,
    /// Per shard, the newest generation's exported value-slot table
    /// (read-through): its write handle and where clients import it
    /// from. Locked strictly *after* the shard's store lock, never
    /// before.
    rt_regions: Mutex<Vec<Option<RtRegion>>>,
}

impl std::fmt::Debug for SvcCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvcCluster")
            .field("shards", &self.cfg.shards)
            .finish_non_exhaustive()
    }
}

impl SvcCluster {
    /// Spawn the serving processes (per shard: serve workers, the
    /// replication orchestrator, the backup receiver; plus one
    /// watchdog) onto the system's kernel and return the cluster
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics when the config asks for more shards than nodes, or for
    /// replication on a single-node system.
    pub fn spawn(system: &Arc<ShrimpSystem>, cfg: SvcConfig) -> Arc<SvcCluster> {
        let nodes = system.len();
        assert!(
            cfg.shards >= 1 && cfg.shards <= nodes,
            "shards must fit nodes"
        );
        assert!(
            !cfg.replication || nodes >= 2,
            "replication needs at least two nodes"
        );
        let iface = parse_interface(KV_IDL).expect("the KV IDL is a static string; it parses");
        let machine = |s: usize| {
            let backup = cfg.replication.then(|| (s + 1) % nodes);
            ShardMachine::new(s, s % nodes, backup, system.daemon(s % nodes).restarts())
        };
        let machines = (0..cfg.shards).map(machine).collect();
        let cluster = Arc::new(SvcCluster {
            system: Arc::clone(system),
            directory: SrpcDirectory::new(),
            ring: Arc::new(ShardRing::new(cfg.shards)),
            iface,
            machines: Mutex::new(machines),
            events: Mutex::new(Vec::new()),
            directive_cursor: AtomicUsize::new(0),
            generations: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            clients: AtomicUsize::new(0),
            rt_regions: Mutex::new((0..cfg.shards).map(|_| None).collect()),
            cfg,
        });
        for s in 0..cluster.cfg.shards {
            server::spawn_shard(&cluster, s);
        }
        server::spawn_watchdog(&cluster);
        cluster
    }

    /// The epoch-qualified service name a shard's workers listen on.
    pub fn service(shard: usize, epoch: u32) -> String {
        format!("kv{shard}e{epoch}")
    }

    /// The epoch-qualified name of a shard's read-only hedge service
    /// on the backup replica.
    pub fn hedge_service(shard: usize, epoch: u32) -> String {
        format!("kvh{shard}e{epoch}")
    }

    /// The system the cluster runs on.
    pub fn system(&self) -> &Arc<ShrimpSystem> {
        &self.system
    }

    /// The RPC binder directory.
    pub fn directory(&self) -> &Arc<SrpcDirectory> {
        &self.directory
    }

    /// The cluster configuration.
    pub fn config(&self) -> &SvcConfig {
        &self.cfg
    }

    /// The consistent-hash routing ring.
    pub fn ring(&self) -> &Arc<ShardRing> {
        &self.ring
    }

    /// The parsed KV interface.
    pub(crate) fn iface(&self) -> &Interface {
        &self.iface
    }

    /// A shard's current route.
    pub fn route(&self, shard: usize) -> ShardRoute {
        self.machines.lock()[shard].route()
    }

    /// Every shard's machine, locked.
    pub(crate) fn machines(&self) -> MutexGuard<'_, Vec<ShardMachine>> {
        self.machines.lock()
    }

    /// Every node's daemon, now.
    pub(crate) fn liveness(&self) -> Vec<Liveness> {
        (0..self.system.len())
            .map(|n| {
                let d = self.system.daemon(n);
                let (down, restarts) = (d.is_down(), d.restarts());
                Liveness { down, restarts }
            })
            .collect()
    }

    /// A fresh unique tag for transition process and endpoint names.
    pub(crate) fn next_gen(&self) -> usize {
        self.generations.fetch_add(1, Ordering::SeqCst)
    }

    /// Every routing transition so far, in order.
    pub fn events(&self) -> Vec<ClusterEvent> {
        self.events.lock().clone()
    }

    /// Deterministic rendering of the whole transition trail.
    pub fn event_log(&self) -> String {
        let events = self.events.lock();
        let mut out = String::new();
        for e in events.iter() {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// The store currently authoritative for a shard (follows
    /// promotions and migrations).
    pub fn authoritative_store(&self, shard: usize) -> Arc<Mutex<ShardStore>> {
        Arc::clone(self.machines.lock()[shard].store())
    }

    /// The live backup replica's store, if the shard is currently
    /// replicated (for replication-equality checks).
    pub fn backup_store(&self, shard: usize) -> Option<Arc<Mutex<ShardStore>>> {
        self.machines.lock()[shard]
            .backup()
            .map(|b| Arc::clone(&b.store))
    }

    /// FNV-1a digest across every shard's authoritative store — the
    /// cluster-state fingerprint benches commit.
    pub fn state_digest(&self) -> u64 {
        (0..self.cfg.shards).fold(FNV_SEED, |h, s| {
            let d = self.authoritative_store(s).lock().digest();
            fnv1a_fold(h, &d.to_le_bytes())
        })
    }

    /// Announce `n` more client processes whose completion gates
    /// cluster shutdown.
    pub fn register_clients(&self, n: usize) {
        self.clients.fetch_add(n, Ordering::SeqCst);
    }

    /// A registered client finished; the last one out triggers
    /// shutdown so the watchdog and pollers stop scheduling wake-ups
    /// and the kernel can quiesce.
    pub fn client_done(&self) {
        if self.clients.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.begin_shutdown();
        }
    }

    /// Ask every polling service process to exit at its next bounded
    /// wait.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Record one transition.
    pub(crate) fn record_event(&self, e: ClusterEvent) {
        self.events.lock().push(e);
    }

    // ----- read-through slot tables ---------------------------------

    /// Install a generation's exported slot table. A stale exporter
    /// (its epoch already deposed) must never clobber a newer table, so
    /// installation keeps the highest epoch — and only the highest: a
    /// crash-looping daemon's deposed tables are dropped, not kept.
    pub(crate) fn install_rt(&self, shard: usize, region: RtRegion) {
        let slot = &mut self.rt_regions.lock()[shard];
        if slot.as_ref().is_none_or(|r| r.epoch < region.epoch) {
            *slot = Some(region);
        }
    }

    /// Publish one applied mutation to the shard's slot table. Called
    /// with the shard's store lock held, so slot images land in store
    /// sequence order; a no-op until the epoch's exporter has
    /// installed its table (the exporter then seeds every entry under
    /// the same lock).
    pub(crate) fn rt_publish(&self, shard: usize, epoch: u32, op: &Op, seq: u64) {
        let regions = self.rt_regions.lock();
        if let Some(r) = regions[shard].as_ref().filter(|r| r.epoch == epoch) {
            match op {
                Op::Put { key, val } => r.write_slot(key, seq, Some(val)),
                Op::Del { key } => r.write_slot(key, seq, None),
            }
        }
    }

    /// Where the slot table of `epoch` — the shard's current one, the
    /// only one clients ask about — lives, once its exporter has
    /// installed it.
    pub(crate) fn rt_pub(&self, shard: usize, epoch: u32) -> Option<(usize, BufferName)> {
        let regions = self.rt_regions.lock();
        regions[shard]
            .as_ref()
            .filter(|r| r.epoch == epoch)
            .map(|r| r.at)
    }

    // ----- write freeze ---------------------------------------------

    /// Admit one mutation under `epoch`. Blocks (in virtual time)
    /// while the shard is frozen for a delta drain; returns `false`
    /// when the generation was deposed or shutdown began — the caller
    /// must drop the mutation (its reply is fenced anyway).
    pub(crate) fn enter_write(&self, ctx: &Ctx, shard: usize, epoch: u32) -> bool {
        loop {
            if self.is_shutdown() {
                return false;
            }
            {
                let mut machines = self.machines.lock();
                let m = &mut machines[shard];
                if m.route().epoch != epoch {
                    return false;
                }
                if !m.frozen {
                    m.writers += 1;
                    return true;
                }
            }
            ctx.advance(FREEZE_POLL);
        }
    }

    /// The mutation admitted by [`enter_write`](Self::enter_write)
    /// finished (applied and replicated, or degraded).
    pub(crate) fn exit_write(&self, shard: usize) {
        self.machines.lock()[shard].writers -= 1;
    }

    /// Freeze writes on a shard and drain the mutations already
    /// admitted. Returns `false` (leaving the freeze up — the caller
    /// unfreezes on every path) when shutdown interrupts the drain.
    pub(crate) fn freeze_writes(&self, ctx: &Ctx, shard: usize) -> bool {
        self.machines.lock()[shard].frozen = true;
        loop {
            if self.is_shutdown() {
                return false;
            }
            if self.machines.lock()[shard].writers == 0 {
                return true;
            }
            ctx.advance(FREEZE_POLL);
        }
    }

    /// Lift a write freeze.
    pub(crate) fn unfreeze_writes(&self, shard: usize) {
        self.machines.lock()[shard].frozen = false;
    }

    // ----- the watchdog's poll --------------------------------------

    /// One watchdog poll at `now`, stepped in its fixed order: per
    /// shard, promote then revive; newly fired `migrate` directives
    /// queued, then every queued handoff claimed if it can start, in
    /// directive order across shards; per shard, re-arm. Returns what
    /// the machines decided, in that order.
    pub(crate) fn watch(&self, now: SimTime) -> Vec<Action> {
        let live = self.liveness();
        let dirs = self.system.directives();
        let seen = self.directive_cursor.swap(dirs.len(), Ordering::SeqCst);
        let mut machines = self.machines.lock();
        let tick = |m: &mut ShardMachine| m.step(Event::Tick(now, &live));
        let mut acts: Vec<Action> = machines.iter_mut().flat_map(tick).collect();
        // Every migrate directive so far, in firing order: a new one is
        // queued, then each is claimed if still queued and startable.
        for (ticket, &(_, op, a, b)) in dirs.iter().enumerate() {
            let (shard, to) = (a as usize, b as usize);
            if op == "migrate" && shard < machines.len() && to < live.len() {
                if ticket >= seen {
                    machines[shard].step(Event::Migrate(ticket, to));
                }
                acts.extend(machines[shard].step(Event::Claim(now, &live, ticket)));
            }
        }
        let rearm = |m: &mut ShardMachine| m.step(Event::Rearm(now, &live));
        acts.extend(machines.iter_mut().flat_map(rearm));
        acts
    }
}
