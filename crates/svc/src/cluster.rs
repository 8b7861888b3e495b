//! Cluster assembly: shard placement, routing epochs, the watchdog's
//! self-healing protocol, and shutdown choreography.
//!
//! Placement is *chained*: with `N` nodes and `N` shards, node `s`
//! runs the primary of shard `s` and the backup replica of shard
//! `(s - 1) mod N` — the paper-era "one server per node" layout where
//! replication traffic is one hop along the ring: records by
//! deliberate update, their flag and ack words by automatic update.
//!
//! A shard's *route* is `(primary, backup, epoch)`; every epoch bump
//! fences the previous generation (service names are epoch-qualified
//! and the serve fence re-checks the route before any reply). The
//! watchdog polls daemon liveness every [`WATCH_INTERVAL`] and drives
//! four transitions, each recorded as a [`ClusterEvent`]:
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
//!   then the epoch bump activates the target
//!   ([`SvcCluster::request_migration`] or a scripted fault-plan
//!   `Directive { op: "migrate" }`).
//! * **Re-replication** — a shard left without a backup (after a
//!   promotion, migration, or replication degradation) gets a new one:
//!   the watchdog picks the next alive node, streams a snapshot over a
//!   fresh VMMC channel, and re-arms chained replication under a
//!   bumped epoch. This closes the PR 5 "demoted, never replaced" gap.
//!
//! Clients discover every transition through their bounded-wait
//! timeouts and re-bind against the refreshed route; a deposed
//! generation can never answer a current-epoch request.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ShrimpSystem};
use shrimp_sim::{Ctx, SimChannel, SimDur, SimTime};
use shrimp_srpc::{parse_interface, Interface, SrpcDirectory};

use crate::read_through::RtRegion;
use crate::server::{self, ReplReq, Transition};
use crate::store::{Op, ShardStore};
use crate::{fnv1a_fold, ShardRing, FNV_SEED};

/// The KV fast-path interface: fixed-size slots keep each direction's
/// marshaling run consecutive, so a whole request is one combined
/// packet and so is its reply (`tests/wire.rs` counts them) — as long
/// as a handler sets its results in the order declared here.
const KV_IDL: &str = "interface Kv {
    put(in key: opaque[32], in klen: u32, in val: opaque[64], in vlen: u32,
        out seq: u32, out existed: bool);
    get(in key: opaque[32], in klen: u32,
        out seq: u32, out found: bool, out val: opaque[64], out vlen: u32);
    del(in key: opaque[32], in klen: u32,
        out seq: u32, out existed: bool);
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

/// Cooldown after losing a backup (or aborting a transition) before the
/// watchdog re-arms, so crash-loops don't thrash the sync path: three
/// watchdog polls.
const REARM_GRACE: SimDur = SimDur::from_ps(300_000_000); // 300 us

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

/// One recorded failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Promotion {
    /// Virtual time the watchdog promoted.
    pub at: SimTime,
    /// Affected shard.
    pub shard: usize,
    /// Deposed primary node.
    pub from: usize,
    /// Promoted backup node.
    pub to: usize,
    /// The new epoch.
    pub epoch: u32,
}

impl Promotion {
    /// Deterministic one-line rendering.
    pub fn render(&self) -> String {
        format!(
            "promote shard={} epoch={} node{}->node{} at_ps={}",
            self.shard,
            self.epoch,
            self.from,
            self.to,
            self.at.since(SimTime::ZERO).as_ps()
        )
    }
}

/// One recorded routing transition — the cluster's self-healing audit
/// trail. Deterministic under replay, so benches digest the rendered
/// log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A backup was promoted to primary after its primary died.
    Promoted(Promotion),
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
            ClusterEvent::Promoted(p) => p.render(),
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

/// The live replication attachment of a shard: where the replica
/// lives, its store, and the promotion signal into its receiver.
#[derive(Debug, Clone)]
pub(crate) struct BackupLink {
    /// Backup node index.
    pub(crate) node: usize,
    /// The replica store (authoritative after promotion).
    pub(crate) store: Arc<Mutex<ShardStore>>,
    /// Watchdog → receiver: "serve under this epoch".
    pub(crate) promo: SimChannel<u32>,
}

/// Per-shard routing and transition state, all under one lock so a
/// route change and its store wiring are atomic.
struct ShardState {
    route: ShardRoute,
    /// The primary node's daemon restart count when the route was
    /// established — a restart since then means a crash the liveness
    /// poll may have missed entirely.
    primary_restarts: u64,
    /// The authoritative store of the current generation.
    store: Arc<Mutex<ShardStore>>,
    /// The live backup attachment, if any.
    backup: Option<BackupLink>,
    /// A write freeze is in force (migration/re-arm delta drain).
    frozen: bool,
    /// Mutations currently inside apply+replicate.
    writers: usize,
    /// A transition orchestrator owns this shard right now.
    busy: bool,
    /// No re-arm/migration before this instant (post-failure
    /// cooldown).
    not_before: SimTime,
}

/// Outcome of trying to claim a queued migration.
enum Claim {
    /// Claimed: the shard is marked busy; spawn this sync.
    Start(Transition),
    /// Not startable right now; retry at the next poll.
    Keep,
    /// Already satisfied (primary is the target); drop it.
    Drop,
}

/// What a finished sync installs under the activation CAS.
pub(crate) enum Activation {
    /// Re-arm: same primary, new backup, replication back on.
    Rearm {
        /// The new backup attachment.
        link: BackupLink,
    },
    /// Migration: new primary serving the synced store, unreplicated
    /// until the watchdog re-arms.
    Migrate {
        /// Target primary node.
        to: usize,
        /// The synced store the target serves.
        store: Arc<Mutex<ShardStore>>,
    },
}

/// A running KV cluster: spawn once per system, then create
/// [`SvcClient`](crate::SvcClient)s against it.
pub struct SvcCluster {
    system: Arc<ShrimpSystem>,
    directory: Arc<SrpcDirectory>,
    cfg: SvcConfig,
    ring: Arc<ShardRing>,
    iface: Interface,
    states: Mutex<Vec<ShardState>>,
    events: Mutex<Vec<ClusterEvent>>,
    /// Planned migrations awaiting a healthy window, oldest first.
    migrations: Mutex<VecDeque<(usize, usize)>>,
    /// How many system fault-plan directives have been consumed.
    directive_cursor: AtomicUsize,
    /// Monotonic tag making transition process/endpoint names unique.
    generations: AtomicUsize,
    shutdown: AtomicBool,
    clients: AtomicUsize,
    /// Epoch-0 replication channels, one per chained shard (later
    /// generations create their own).
    initial_repl: Vec<Option<SimChannel<ReplReq>>>,
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
        let mut states = Vec::with_capacity(cfg.shards);
        let mut initial_repl = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let primary = s % nodes;
            let backup = cfg.replication.then(|| (s + 1) % nodes);
            states.push(ShardState {
                route: ShardRoute {
                    primary,
                    backup,
                    epoch: 0,
                },
                primary_restarts: system.daemon(primary).restarts(),
                store: Arc::new(Mutex::new(ShardStore::new())),
                backup: backup.map(|node| BackupLink {
                    node,
                    store: Arc::new(Mutex::new(ShardStore::new())),
                    promo: SimChannel::new(),
                }),
                frozen: false,
                writers: 0,
                busy: false,
                not_before: SimTime::ZERO,
            });
            initial_repl.push(backup.map(|_| SimChannel::new()));
        }
        let cluster = Arc::new(SvcCluster {
            system: Arc::clone(system),
            directory: SrpcDirectory::new(),
            ring: Arc::new(ShardRing::new(cfg.shards)),
            iface,
            states: Mutex::new(states),
            events: Mutex::new(Vec::new()),
            migrations: Mutex::new(VecDeque::new()),
            directive_cursor: AtomicUsize::new(0),
            generations: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            clients: AtomicUsize::new(0),
            initial_repl,
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
        self.states.lock()[shard].route
    }

    /// The epoch-0 replication channel of a chained shard.
    pub(crate) fn initial_repl(&self, shard: usize) -> Option<SimChannel<ReplReq>> {
        self.initial_repl[shard].clone()
    }

    /// A fresh unique tag for transition process and endpoint names.
    pub(crate) fn next_gen(&self) -> usize {
        self.generations.fetch_add(1, Ordering::SeqCst)
    }

    /// Every promotion so far, in order.
    pub fn promotions(&self) -> Vec<Promotion> {
        self.events
            .lock()
            .iter()
            .filter_map(|e| match e {
                ClusterEvent::Promoted(p) => Some(*p),
                _ => None,
            })
            .collect()
    }

    /// Deterministic rendering of the promotion sequence — the
    /// failover-determinism fingerprint (promotions only; see
    /// [`SvcCluster::event_log`] for the full trail).
    pub fn promotion_log(&self) -> String {
        let mut out = String::new();
        for p in self.promotions() {
            out.push_str(&p.render());
            out.push('\n');
        }
        out
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
        Arc::clone(&self.states.lock()[shard].store)
    }

    /// The live backup replica's store, if the shard is currently
    /// replicated (for replication-equality checks).
    pub fn backup_store(&self, shard: usize) -> Option<Arc<Mutex<ShardStore>>> {
        self.states.lock()[shard]
            .backup
            .as_ref()
            .map(|b| Arc::clone(&b.store))
    }

    /// The live backup attachment (construction-time wiring for the
    /// epoch-0 receiver).
    pub(crate) fn backup_link(&self, shard: usize) -> Option<BackupLink> {
        self.states.lock()[shard].backup.clone()
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

    /// Queue a planned handoff of `shard`'s primary to node `to`. The
    /// watchdog starts the sync at its next poll once the shard is
    /// healthy and un-frozen; the handoff completes with an epoch bump
    /// and a [`ClusterEvent::Migrated`] record. Scripted fault-plan
    /// `Directive { op: "migrate", a: shard, b: to }` entries land in
    /// the same queue.
    pub fn request_migration(&self, shard: usize, to: usize) {
        assert!(shard < self.cfg.shards, "no such shard");
        assert!(to < self.system.len(), "no such node");
        self.migrations.lock().push_back((shard, to));
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
                let mut states = self.states.lock();
                let st = &mut states[shard];
                if st.route.epoch != epoch {
                    return false;
                }
                if !st.frozen {
                    st.writers += 1;
                    return true;
                }
            }
            ctx.advance(FREEZE_POLL);
        }
    }

    /// The mutation admitted by [`enter_write`](Self::enter_write)
    /// finished (applied and replicated, or degraded).
    pub(crate) fn exit_write(&self, shard: usize) {
        self.states.lock()[shard].writers -= 1;
    }

    /// Freeze writes on a shard and drain the mutations already
    /// admitted. Returns `false` (leaving the freeze up — the caller
    /// unfreezes on every path) when shutdown interrupts the drain.
    pub(crate) fn freeze_writes(&self, ctx: &Ctx, shard: usize) -> bool {
        self.states.lock()[shard].frozen = true;
        loop {
            if self.is_shutdown() {
                return false;
            }
            if self.states.lock()[shard].writers == 0 {
                return true;
            }
            ctx.advance(FREEZE_POLL);
        }
    }

    /// Lift a write freeze.
    pub(crate) fn unfreeze_writes(&self, shard: usize) {
        self.states.lock()[shard].frozen = false;
    }

    // ----- transitions ----------------------------------------------

    /// Replication for this shard degraded: drop the backup from the
    /// route so the watchdog can never promote a stale replica, and
    /// start the re-arm cooldown.
    pub(crate) fn demote_backup(&self, now: SimTime, shard: usize) {
        let lost = {
            let mut states = self.states.lock();
            let st = &mut states[shard];
            st.not_before = now + REARM_GRACE;
            match st.backup.take() {
                Some(link) => {
                    st.route.backup = None;
                    Some(link.node)
                }
                None => None,
            }
        };
        if let Some(node) = lost {
            self.record_event(ClusterEvent::BackupLost {
                at: now,
                shard,
                node,
            });
        }
    }

    /// Whether the primary's daemon is up and has not restarted since
    /// the route was established.
    fn primary_healthy(&self, st: &ShardState) -> bool {
        let d = self.system.daemon(st.route.primary);
        !d.is_down() && d.restarts() == st.primary_restarts
    }

    /// Watchdog step: if the primary's daemon is down — or restarted
    /// since the route was established — and a live backup exists,
    /// promote it under a bumped epoch. Returns whether a promotion
    /// happened.
    pub(crate) fn promote_if_down(&self, ctx: &Ctx, shard: usize) -> bool {
        let (promotion, promo) = {
            let mut states = self.states.lock();
            let st = &mut states[shard];
            if st.backup.is_none() || self.primary_healthy(st) {
                return false;
            }
            let link = st.backup.take().expect("checked above");
            let from = st.route.primary;
            let epoch = st.route.epoch + 1;
            st.route = ShardRoute {
                primary: link.node,
                backup: None,
                epoch,
            };
            st.primary_restarts = self.system.daemon(link.node).restarts();
            st.store = Arc::clone(&link.store);
            st.not_before = ctx.now() + REARM_GRACE;
            (
                Promotion {
                    at: ctx.now(),
                    shard,
                    from,
                    to: link.node,
                    epoch,
                },
                link.promo,
            )
        };
        self.record_event(ClusterEvent::Promoted(promotion));
        promo.send(&ctx.handle(), promotion.epoch);
        true
    }

    /// Watchdog step: an unreplicated shard whose primary daemon
    /// restarted gets a fresh worker generation on the same store.
    /// Returns the `(epoch, node, store)` to respawn under.
    pub(crate) fn revive_if_restarted(
        &self,
        ctx: &Ctx,
        shard: usize,
    ) -> Option<(u32, usize, Arc<Mutex<ShardStore>>)> {
        let mut states = self.states.lock();
        let st = &mut states[shard];
        if st.backup.is_some() || st.busy {
            return None;
        }
        let d = self.system.daemon(st.route.primary);
        if d.is_down() || d.restarts() == st.primary_restarts {
            return None;
        }
        st.route.epoch += 1;
        st.primary_restarts = d.restarts();
        let out = (st.route.epoch, st.route.primary, Arc::clone(&st.store));
        let event = ClusterEvent::Revived {
            at: ctx.now(),
            shard,
            node: st.route.primary,
            epoch: st.route.epoch,
        };
        drop(states);
        self.record_event(event);
        Some(out)
    }

    /// Watchdog step: drain newly fired fault-plan migration
    /// directives into the queue, then claim every queued migration
    /// whose shard is healthy and idle. Claimed entries are marked
    /// busy; the caller spawns their sync orchestrators.
    pub(crate) fn claim_migrations(&self, ctx: &Ctx) -> Vec<(usize, Transition)> {
        let dirs = self.system.directives();
        let seen = self.directive_cursor.swap(dirs.len(), Ordering::SeqCst);
        {
            let mut q = self.migrations.lock();
            for (_, op, a, b) in dirs.into_iter().skip(seen) {
                if op == "migrate"
                    && (a as usize) < self.cfg.shards
                    && (b as usize) < self.system.len()
                {
                    q.push_back((a as usize, b as usize));
                }
            }
        }
        let mut claimed = Vec::new();
        let mut keep = VecDeque::new();
        let pending = {
            let mut q = self.migrations.lock();
            std::mem::take(&mut *q)
        };
        for (shard, to) in pending {
            match self.claim_migration(ctx, shard, to) {
                Claim::Start(t) => claimed.push((shard, t)),
                Claim::Keep => keep.push_back((shard, to)),
                Claim::Drop => {}
            }
        }
        let mut q = self.migrations.lock();
        while let Some(e) = keep.pop_front() {
            q.push_back(e);
        }
        claimed
    }

    /// Try to claim one migration: the source primary and the target
    /// daemon must be alive, the shard idle and past its cooldown.
    fn claim_migration(&self, ctx: &Ctx, shard: usize, to: usize) -> Claim {
        let mut states = self.states.lock();
        let st = &mut states[shard];
        if st.route.primary == to {
            return Claim::Drop;
        }
        if st.busy || st.frozen || ctx.now() < st.not_before {
            return Claim::Keep;
        }
        if !self.primary_healthy(st) || self.system.daemon(to).is_down() {
            return Claim::Keep;
        }
        st.busy = true;
        Claim::Start(Transition::Migrate {
            expect_epoch: st.route.epoch,
            from: st.route.primary,
            to,
        })
    }

    /// Watchdog step: an unreplicated, healthy, idle shard past its
    /// cooldown gets a new backup — the next alive node after the
    /// primary. Marks the shard busy and returns the sync transition.
    pub(crate) fn claim_rearm(&self, ctx: &Ctx, shard: usize) -> Option<Transition> {
        if !self.cfg.replication {
            return None;
        }
        let nodes = self.system.len();
        let mut states = self.states.lock();
        let st = &mut states[shard];
        if st.backup.is_some() || st.busy || st.frozen || ctx.now() < st.not_before {
            return None;
        }
        if !self.primary_healthy(st) {
            return None;
        }
        let to = (1..nodes)
            .map(|i| (st.route.primary + i) % nodes)
            .find(|&n| !self.system.daemon(n).is_down())?;
        st.busy = true;
        Some(Transition::Rearm {
            expect_epoch: st.route.epoch,
            from: st.route.primary,
            to,
        })
    }

    /// A transition orchestrator failed or was deposed: release the
    /// shard and start the cooldown.
    pub(crate) fn abort_transition(&self, now: SimTime, shard: usize) {
        let mut states = self.states.lock();
        let st = &mut states[shard];
        st.busy = false;
        st.not_before = now + REARM_GRACE;
    }

    /// The activation CAS: install a finished sync if and only if the
    /// route epoch is still the one the sync started under (a
    /// concurrent promotion wins otherwise). Returns the new epoch on
    /// success.
    pub(crate) fn activate(
        &self,
        ctx: &Ctx,
        shard: usize,
        expect_epoch: u32,
        activation: Activation,
    ) -> Option<u32> {
        let (event, epoch) = {
            let mut states = self.states.lock();
            let st = &mut states[shard];
            st.busy = false;
            if st.route.epoch != expect_epoch {
                st.not_before = ctx.now() + REARM_GRACE;
                return None;
            }
            let epoch = expect_epoch + 1;
            st.route.epoch = epoch;
            let event = match activation {
                Activation::Rearm { link } => {
                    let backup = link.node;
                    st.route.backup = Some(backup);
                    st.backup = Some(link);
                    ClusterEvent::Rearmed {
                        at: ctx.now(),
                        shard,
                        primary: st.route.primary,
                        backup,
                        epoch,
                    }
                }
                Activation::Migrate { to, store } => {
                    let from = st.route.primary;
                    st.route.primary = to;
                    st.route.backup = None;
                    st.primary_restarts = self.system.daemon(to).restarts();
                    st.store = store;
                    st.backup = None;
                    ClusterEvent::Migrated {
                        at: ctx.now(),
                        shard,
                        from,
                        to,
                        epoch,
                    }
                }
            };
            (event, epoch)
        };
        self.record_event(event);
        Some(epoch)
    }
}
