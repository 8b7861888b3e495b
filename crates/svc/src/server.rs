//! The serving processes: per-shard RPC workers, the replication
//! record stream, the sync/transition orchestrators, the backup
//! receiver, hedge read workers, and the self-healing watchdog.
//!
//! ## Record stream
//!
//! Every replication and sync path speaks one wire protocol, whose byte
//! layouts and control words are [`crate::wire`]'s. The receiver exports
//! one region per stream — record area, then a flag word — written only
//! by the sender, and the sender exports a single *ack word* written
//! only by the receiver. Records are numbered by a *stream index*
//! starting at 1 (independent of the store sequence each record
//! carries). Records move by deliberate update; both control words are
//! automatic-update stores. The flag word always holds the highest
//! stream index whose data has been deposited; the sender stores it
//! after the records' blocking send completes, so VMMC's in-order
//! delivery lands it behind every record it covers (flag-after-data),
//! and one monotone word replaces per-record doorbells. The receiver
//! drains and applies every record the flag admits, then stores the
//! drained tail into the ack word — one ack per batch.
//!
//! Records are packed (variable-length) in both phases; the phases
//! differ in where records land:
//!
//! * **Bulk** (snapshot + delta + cut): records run back-to-back from
//!   the start of the region and ship as one deliberate update per
//!   batch. SHRIMP's per-transfer overhead (two PIO accesses, DU engine
//!   and DMA setup, and the 30 MB/s EISA source read) makes small sends
//!   expensive, so batching is what keeps a migration's freeze window
//!   short (§4's amortization argument). Batches are stop-and-wait: the
//!   region is reused only after the previous batch's ack. The cut
//!   record is always the last of its batch.
//! * **Live** (after the cut): each record lands in the slot
//!   `(i-1) % S` and ships only its own bytes. The commit wait below
//!   makes the live stream stop-and-wait too, so a slot is never
//!   overwritten before its ack.
//!
//! For live replication the sender holds the client's reply until the
//! record's ack arrives: **the commit point is the backup's ack**, so
//! every acknowledged write exists on the replica when the primary
//! dies. Bulk sync phases commit transitively through the cut
//! record's ack.
//!
//! ## Degradation and healing
//!
//! When a backup's daemon dies (or its channel can never be
//! established), the sender *demotes* the backup — clearing it from
//! the route before the degraded write is acknowledged, so neither
//! the watchdog nor a hedged read can ever trust a stale replica —
//! and keeps serving unreplicated. The watchdog then re-arms a fresh
//! backup via the snapshot sync path, restoring the single-failure
//! guarantee instead of PR 5's "demoted, never replaced" end state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts, Vmmc, VmmcError};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, VAddr};
use shrimp_sim::{Ctx, Gate, RetryPolicy, SimChannel};
use shrimp_srpc::{OutWriter, SrpcHandler, SrpcServer, Val};

use crate::cluster::{Activation, BackupLink, SvcCluster, WATCH_INTERVAL};
use crate::read_through::spawn_rt_exporter;
use crate::store::{Applied, Op, ShardStore, MAX_VAL};
use crate::wire::{
    live_offset, Kind, Record, WordWaiter, WordWriter, BATCH_MAX_RECS, REC_BYTES, REGION_BYTES,
    REPL_SLOTS,
};

/// Serve workers on the backup answering hedged reads — a small fixed
/// pool, since hedges are the retry tail, not the fast path.
const HEDGE_WORKERS: usize = 2;

/// One end of a stream's rendezvous: what that side exported, and a
/// gate opened once it is set.
#[derive(Debug, Default)]
struct LinkEnd {
    at: Mutex<Option<(NodeId, BufferName)>>,
    ready: Gate,
}

/// Which end of a record stream a process is.
#[derive(Clone, Copy)]
enum Side {
    /// Exports the record+flag region.
    Receiver = 0,
    /// Exports the ack word.
    Sender = 1,
}

/// Export/import rendezvous for one record stream.
#[derive(Debug, Default)]
pub(crate) struct ReplLink([LinkEnd; 2]);

impl ReplLink {
    /// Export `len` bytes at `va` as `side`'s end and publish them,
    /// then wait for the peer's end, import it, and bind the writer of
    /// this side's control word at offset `word` there. `None` when
    /// either daemon stays down past the bootstrap budget, or the
    /// binding fails.
    fn rendezvous<'v>(
        &self,
        ctx: &Ctx,
        vmmc: &'v Vmmc,
        side: Side,
        va: VAddr,
        len: usize,
        word: usize,
    ) -> Option<WordWriter<'v>> {
        let boot = RetryPolicy::bootstrap();
        let (mine, peer) = (&self.0[side as usize], &self.0[1 - side as usize]);
        let name = vmmc
            .export_retry(ctx, va, len, ExportOpts::default(), boot)
            .ok()?;
        *mine.at.lock() = Some((vmmc.node_id(), name));
        mine.ready.open(&ctx.handle());
        if !peer
            .ready
            .wait_deadline(ctx, ctx.now() + boot.total_budget())
        {
            return None;
        }
        let (node, name) = (*peer.at.lock())?;
        let dst = vmmc.import_retry(ctx, node, name, boot).ok()?;
        WordWriter::new(vmmc, ctx, dst, word).ok()
    }
}

/// Shared control word between a sync orchestrator and its receiver.
#[derive(Debug)]
pub(crate) struct GenCtl {
    /// The transition failed or was deposed; the receiver unwinds.
    abort: AtomicBool,
    /// The activation CAS succeeded; the receiver is the live backup.
    active: AtomicBool,
}

impl GenCtl {
    fn new(active: bool) -> GenCtl {
        GenCtl {
            abort: AtomicBool::new(false),
            active: AtomicBool::new(active),
        }
    }

    fn set_abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    fn is_abort(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    fn set_active(&self) {
        self.active.store(true, Ordering::SeqCst);
    }

    fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }
}

/// One queued mutation from a serve worker to the live replicator.
pub(crate) struct ReplReq {
    /// The primary-assigned store sequence.
    pub(crate) seq: u64,
    /// The mutation itself (replayed verbatim on the backup).
    pub(crate) op: Op,
    /// Completion: `true` once the backup acked, `false` when
    /// replication degraded and the write is primary-only.
    pub(crate) done: SimChannel<bool>,
}

/// A transition the watchdog (or `spawn_shard`) hands to a sync
/// orchestrator process.
pub(crate) enum Transition {
    /// Epoch-0 bring-up of a chained shard: no snapshot (both stores
    /// are empty), just the cut record and then live replication.
    Initial {
        /// The construction-time backup attachment.
        backup: BackupLink,
        /// The epoch-0 replication channel the serve workers hold.
        repl: SimChannel<ReplReq>,
        /// Shared control with the construction-time receiver.
        ctl: Arc<GenCtl>,
        /// Rendezvous with the construction-time receiver.
        link: Arc<ReplLink>,
    },
    /// Arm a new backup for an unreplicated shard: snapshot + delta +
    /// cut, then flip to live replication under a bumped epoch.
    Rearm {
        /// Route epoch the claim was made under (activation CAS).
        expect_epoch: u32,
        /// Source primary node.
        from: usize,
        /// The new backup node.
        to: usize,
    },
    /// Planned handoff of the primary: snapshot + delta + cut, then
    /// the target serves under a bumped epoch (unreplicated until the
    /// watchdog re-arms).
    Migrate {
        /// Route epoch the claim was made under (activation CAS).
        expect_epoch: u32,
        /// Source primary node.
        from: usize,
        /// Target primary node.
        to: usize,
    },
}

/// The liveness-and-epoch fence of one service process: what it checks
/// before every reply and between the slices of every bounded wait.
struct Fence {
    cluster: Arc<SvcCluster>,
    shard: usize,
    /// The node whose daemon must stay up.
    node: usize,
    /// That daemon's restart count when the fence was built — a restart
    /// since is a crash the liveness poll may have missed entirely.
    birth: u64,
    /// The route epoch to hold, where the process has one: a deposed
    /// generation (promotion, migration, a newer re-arm) stops.
    epoch: Option<u32>,
    /// Hedge replicas: `node` must also still be the route's backup, so
    /// a demoted replica can never answer.
    as_backup: bool,
}

impl Fence {
    /// A fence on `node`'s daemon as it is now.
    fn new(cluster: &Arc<SvcCluster>, shard: usize, node: usize, epoch: Option<u32>) -> Fence {
        Fence {
            cluster: Arc::clone(cluster),
            shard,
            node,
            birth: cluster.system().daemon(node).restarts(),
            epoch,
            as_backup: false,
        }
    }

    /// Whether the process must stop: shutdown began, the daemon is
    /// down or has restarted, or the route moved on.
    fn tripped(&self) -> bool {
        let d = self.cluster.system().daemon(self.node);
        if self.cluster.is_shutdown() || d.is_down() || d.restarts() != self.birth {
            return true;
        }
        let route = self.cluster.route(self.shard);
        self.epoch.is_some_and(|e| route.epoch != e)
            || (self.as_backup && route.backup != Some(self.node))
    }
}

/// Spawn every process serving one shard under the initial route.
pub(crate) fn spawn_shard(cluster: &Arc<SvcCluster>, shard: usize) {
    let primary = cluster.route(shard).primary;
    let repl = cluster.initial_repl(shard);
    let store = cluster.authoritative_store(shard);
    spawn_serve_workers(cluster, shard, 0, primary, store, repl.clone());
    if let (Some(backup), Some(repl)) = (cluster.backup_link(shard), repl) {
        let link = Arc::new(ReplLink::default());
        let ctl = Arc::new(GenCtl::new(true));
        let (l, c) = (Arc::clone(&link), Arc::clone(&ctl));
        spawn_receiver(cluster, shard, l, backup.clone(), c, RecvMode::Backup);
        if cluster.config().hedge_reads {
            spawn_hedge_workers(cluster, shard, 0, backup.node, Arc::clone(&backup.store));
        }
        let initial = Transition::Initial {
            backup,
            repl,
            ctl,
            link,
        };
        spawn_transition(cluster, shard, initial);
    }
}

/// Truncate a fixed-slot opaque argument to its companion length.
fn unpad(bytes: &Val, len: &Val) -> Vec<u8> {
    match (bytes, len) {
        (Val::Bytes(b), Val::U32(n)) => b[..(*n as usize).min(b.len())].to_vec(),
        _ => Vec::new(),
    }
}

/// The `get` procedure, the same on a primary and on a hedge replica:
/// look the key up in `store` and set the results in the order `KV_IDL`
/// declares them, so the reply is one store run and one packet.
fn get_handler(store: Arc<Mutex<ShardStore>>) -> SrpcHandler {
    Box::new(move |ctx, ins, out| {
        let key = unpad(&ins[0], &ins[1]);
        let (seq, val) = {
            let g = store.lock();
            let (s, v) = g.get(&key);
            (s, v.map(|v| v.to_vec()))
        };
        let _ = out.set(ctx, "seq", &Val::U32(seq as u32));
        let _ = out.set(ctx, "found", &Val::Bool(val.is_some()));
        let mut padded = val.unwrap_or_default();
        let vlen = padded.len() as u32;
        padded.resize(MAX_VAL, 0);
        let _ = out.set(ctx, "val", &Val::Bytes(padded));
        let _ = out.set(ctx, "vlen", &Val::U32(vlen));
    })
}

/// Set a mutating procedure's results, in `KV_IDL`'s order. `None` —
/// nothing was applied — answers with sequence 0, visibly a non-write.
fn reply_applied(ctx: &Ctx, out: &mut OutWriter<'_>, a: Option<Applied>) {
    let _ = out.set(ctx, "seq", &Val::U32(a.map_or(0, |a| a.seq as u32)));
    let _ = out.set(ctx, "existed", &Val::Bool(a.is_some_and(|a| a.existed)));
}

/// The write path of one primary generation.
#[derive(Clone)]
struct Writer {
    cluster: Arc<SvcCluster>,
    shard: usize,
    epoch: u32,
    store: Arc<Mutex<ShardStore>>,
    /// The live replicator's queue (chained shards).
    repl: Option<SimChannel<ReplReq>>,
}

impl Writer {
    /// Apply a mutation as the primary and (when chained) hold the
    /// reply until the backup acks.
    ///
    /// Admission goes through the cluster's write gate: a frozen shard
    /// (delta drain in progress) blocks the mutation in virtual time,
    /// and a deposed generation gets `None` — the mutation is dropped,
    /// which is sound because the serve fence abandons the reply of a
    /// deposed epoch before it is sent.
    fn mutate(&self, ctx: &Ctx, op: Op) -> Option<Applied> {
        let (cluster, shard, epoch) = (&self.cluster, self.shard, self.epoch);
        if !cluster.enter_write(ctx, shard, epoch) {
            return None;
        }
        // The sequence assignment and the replication enqueue happen
        // with no virtual-time operation between them, so records reach
        // the replicator in sequence order even with many concurrent
        // workers. The read-through slot publication rides inside the
        // same store lock acquisition: slot images are ordered exactly
        // like store sequences, and they land before the commit point
        // (the backup's ack), so the slot table is never behind an
        // acknowledged write.
        let applied = {
            let mut g = self.store.lock();
            let a = g.apply_next(&op);
            if cluster.config().read_through {
                cluster.rt_publish(shard, epoch, &op, a.seq);
            }
            a
        };
        if let Some(tx) = &self.repl {
            let done: SimChannel<bool> = SimChannel::new();
            let req = ReplReq {
                seq: applied.seq,
                op,
                done: done.clone(),
            };
            tx.send(&ctx.handle(), req);
            // Commit point: the backup applied the record (or
            // replication degraded and the route's backup was demoted
            // first).
            done.recv(ctx);
        }
        cluster.exit_write(shard);
        Some(applied)
    }

    /// A mutating procedure: `op_of` builds the mutation from the
    /// call's arguments.
    fn handler(&self, op_of: fn(&[Val]) -> Op) -> SrpcHandler {
        let w = self.clone();
        Box::new(move |ctx, ins, out| reply_applied(ctx, out, w.mutate(ctx, op_of(ins))))
    }
}

/// Spawn one RPC worker per name on the node `fence` watches, serving
/// `service` with the procedures `register` installs. Each worker is
/// one concurrent client binding; it dies when its fence trips — the
/// node's daemon died (process death) or its epoch was deposed.
fn spawn_workers(
    cluster: &Arc<SvcCluster>,
    names: impl Iterator<Item = String>,
    service: String,
    fence: impl Fn() -> Fence + Clone + Send + 'static,
    register: impl Fn(&mut SrpcServer) + Clone + Send + 'static,
) {
    let h = cluster.system().sim();
    for name in names {
        let (cluster, service) = (Arc::clone(cluster), service.clone());
        let (fence, register) = (fence.clone(), register.clone());
        h.spawn(name.clone(), move |ctx| {
            let fence = fence();
            let vmmc = cluster.system().endpoint(fence.node, name);
            let mut srv = SrpcServer::new(vmmc, cluster.iface());
            register(&mut srv);
            loop {
                // Establishment fails only under daemon outage — the
                // connecting client times out and re-routes.
                let Ok(mut conn) = srv.accept(ctx, cluster.directory(), &service) else {
                    return;
                };
                let r = srv.serve_fenced(ctx, &mut conn, || fence.tripped());
                if fence.tripped() || r.is_err() {
                    return;
                }
                // Graceful close: recycle the worker for another
                // binding under the same epoch.
            }
        });
    }
}

/// Spawn the pre-allocated RPC workers for `(shard, epoch)` on `node`.
fn spawn_serve_workers(
    cluster: &Arc<SvcCluster>,
    shard: usize,
    epoch: u32,
    node: usize,
    store: Arc<Mutex<ShardStore>>,
    repl: Option<SimChannel<ReplReq>>,
) {
    if cluster.config().read_through {
        spawn_rt_exporter(cluster, shard, epoch, node, Arc::clone(&store));
    }
    let workers = 0..cluster.config().conns_per_shard;
    let cl = Arc::clone(cluster);
    let writer = Writer {
        cluster: Arc::clone(cluster),
        shard,
        epoch,
        store,
        repl,
    };
    spawn_workers(
        cluster,
        workers.map(move |w| format!("svc-s{shard}-e{epoch}-w{w}")),
        SvcCluster::service(shard, epoch),
        move || Fence::new(&cl, shard, node, Some(epoch)),
        move |srv| {
            srv.register(
                "put",
                writer.handler(|ins| Op::Put {
                    key: unpad(&ins[0], &ins[1]),
                    val: unpad(&ins[2], &ins[3]),
                }),
            );
            srv.register("get", get_handler(Arc::clone(&writer.store)));
            srv.register(
                "del",
                writer.handler(|ins| Op::Del {
                    key: unpad(&ins[0], &ins[1]),
                }),
            );
        },
    );
}

/// Spawn the backup-side read-only workers answering hedged reads for
/// `(shard, epoch)`. Serving the replica is safe because the commit
/// point of every acked write is the backup's ack — the replica's
/// entry for any acked key is at least as new. The fence additionally
/// requires the node to still be the route's backup, so a demoted
/// replica can never answer.
fn spawn_hedge_workers(
    cluster: &Arc<SvcCluster>,
    shard: usize,
    epoch: u32,
    node: usize,
    store: Arc<Mutex<ShardStore>>,
) {
    let cl = Arc::clone(cluster);
    spawn_workers(
        cluster,
        (0..HEDGE_WORKERS).map(move |w| format!("svc-hedge-s{shard}-e{epoch}-w{w}")),
        SvcCluster::hedge_service(shard, epoch),
        move || Fence {
            as_backup: true,
            ..Fence::new(&cl, shard, node, Some(epoch))
        },
        move |srv| {
            srv.register("get", get_handler(Arc::clone(&store)));
            // The hedge service is read-only; the client never routes
            // mutations here, and a misdirected one applies nothing.
            for m in ["put", "del"] {
                srv.register(m, Box::new(|ctx, _ins, out| reply_applied(ctx, out, None)));
            }
        },
    );
}

/// Sender half of one record stream: staging buffers, the two control
/// words, and the monotonically growing stream index.
struct RecordSender<'a> {
    vmmc: &'a Vmmc,
    rec_stage: VAddr,
    batch_stage: VAddr,
    /// The receiver's flag word, right behind the record area of the
    /// same import.
    flag: WordWriter<'a>,
    /// The ack word the receiver deposits into.
    ack: WordWaiter<'a>,
    /// Watches the *receiver's* daemon, under the *sender's* epoch.
    fence: Fence,
    /// Next stream index (starts at 1).
    idx: u64,
}

impl RecordSender<'_> {
    /// Bounded wait for the ack word to reach stream index `need`;
    /// `false` means the stream must degrade or abort.
    fn acked(&self, ctx: &Ctx, need: u64) -> bool {
        let fence = || self.fence.tripped();
        self.ack.wait_ge(ctx, need as u32, fence).is_ok()
    }

    /// Stage `bytes` and deposit them at `off` in the record area.
    fn deposit(&self, ctx: &Ctx, stage: VAddr, bytes: &[u8], off: usize) -> bool {
        self.vmmc.proc_().write(ctx, stage, bytes).is_ok()
            && self
                .vmmc
                .send(ctx, stage, self.flag.dst(), off, bytes.len())
                .is_ok()
    }

    /// Deposit one live record in its slot, raise the flag behind it,
    /// and wait out the bounded ack that is the write's commit point.
    /// Waiting for the ack before the next record is also what keeps a
    /// slot from being overwritten before its ack.
    fn send(&mut self, ctx: &Ctx, rec: &Record<'_>) -> bool {
        let idx = self.idx;
        let mut img = Vec::with_capacity(REC_BYTES);
        rec.encode(&mut img);
        if !self.deposit(ctx, self.rec_stage, &img, live_offset(idx)) {
            return false;
        }
        self.flag.raise(ctx, idx as u32);
        self.idx += 1;
        self.acked(ctx, idx)
    }

    /// Stream bulk records as packed batches: as many as fit in the
    /// record area per deliberate update, one flag raise per batch.
    /// Batches are stop-and-wait — the area is reused only once the
    /// previous batch's ack has drained — and commit transitively
    /// through [`RecordSender::commit`] after the cut.
    fn send_packed(&mut self, ctx: &Ctx, recs: &[Record<'_>]) -> bool {
        let mut rest = recs;
        while !rest.is_empty() {
            let mut buf = Vec::with_capacity(REGION_BYTES);
            let mut n = 0;
            while n < rest.len() && buf.len() + rest[n].len() <= REGION_BYTES {
                rest[n].encode(&mut buf);
                n += 1;
            }
            rest = &rest[n..];
            let tail = self.idx + n as u64 - 1;
            if !self.commit(ctx) || !self.deposit(ctx, self.batch_stage, &buf, 0) {
                return false;
            }
            self.flag.raise(ctx, tail as u32);
            self.idx = tail + 1;
        }
        true
    }

    /// Wait until everything sent so far has been applied and acked —
    /// the bulk phases' commit point (for the sync, the cut's ack).
    fn commit(&self, ctx: &Ctx) -> bool {
        self.idx <= 1 || self.acked(ctx, self.idx - 1)
    }
}

/// What the receiver does after the cut record.
enum RecvMode {
    /// Keep applying live records and watch for promotion (backup
    /// replica).
    Backup,
    /// Exit once the cut is acked (migration target — the orchestrator
    /// spawns the serve generation).
    Sink,
}

/// Apply one received record. Before the cut, entries load at their
/// original sequence (they arrive sorted by key); after it (`live`)
/// they replay in sequence order.
fn apply(store: &Mutex<ShardStore>, rec: &Record<'_>, live: bool) {
    let mut g = store.lock();
    match rec.op() {
        None => g.set_last_seq(rec.seq),
        Some(op) if live => {
            g.apply_at(rec.seq, &op);
        }
        Some(Op::Put { key, val }) => g.load_entry(rec.seq, key, Some(val)),
        Some(Op::Del { key }) => g.load_entry(rec.seq, key, None),
    }
}

/// The receiver half of one record stream: exports the region, applies
/// records by phase (snapshot load → cut → live), and acks by stream
/// index.
fn spawn_receiver(
    cluster: &Arc<SvcCluster>,
    shard: usize,
    link: Arc<ReplLink>,
    backup: BackupLink,
    ctl: Arc<GenCtl>,
    mode: RecvMode,
) {
    let cluster = Arc::clone(cluster);
    let name = format!("svc-recv-s{shard}-g{}", cluster.next_gen());
    let h = cluster.system().sim().clone();
    h.spawn(name.clone(), move |ctx| {
        let BackupLink {
            node: bnode,
            store,
            promo,
        } = backup;
        let vmmc = cluster.system().endpoint(bnode, name);
        let total = REGION_BYTES + 4;
        let base = vmmc.proc_().alloc(total, CacheMode::WriteBack);
        let watches_promo = matches!(mode, RecvMode::Backup);
        // Promoted: the replica becomes the shard under the bumped
        // epoch, unreplicated until the watchdog re-arms. Records past
        // `next` were never acked to any client.
        let promoted =
            |epoch| spawn_serve_workers(&cluster, shard, epoch, bnode, Arc::clone(&store), None);

        let Some(ack) = link.rendezvous(ctx, &vmmc, Side::Receiver, base, total, 0) else {
            // A promotion may have raced the failed set-up. An empty
            // replica is still zero-lost: no write was ever acked
            // through this link, and without the link no write was
            // ever acked as replicated at all.
            if watches_promo {
                if let Some(epoch) = promo.try_recv() {
                    promoted(epoch);
                }
            }
            return;
        };
        let flag = WordWaiter::new(&vmmc, base.add(REGION_BYTES));
        // Birth after setup: a crash ridden out by the bootstrap
        // retries counts as a (re)start, not a death. No epoch: the
        // receiver outlives its own activation's bump.
        let fence = Fence::new(&cluster, shard, bnode, None);
        let mut next: u64 = 1;
        // Past the cut record: loads become live applies.
        let mut synced = false;
        loop {
            if fence.tripped() || ctl.is_abort() {
                return;
            }
            if watches_promo {
                // Deposed (migrated away or demoted) — but a racing
                // promotion signal still wins.
                let deposed = ctl.is_active() && cluster.route(shard).backup != Some(bnode);
                if let Some(epoch) = promo.try_recv() {
                    return promoted(epoch);
                }
                if deposed {
                    return;
                }
            }
            if synced && !ctl.is_active() {
                // Cut acked, activation CAS pending: no records can
                // arrive until the orchestrator unfreezes writes.
                ctx.advance(WATCH_INTERVAL);
                continue;
            }
            // One slice at a time: its expiry comes back to the loop
            // head, where the promotion/abort/liveness checks re-run.
            let tail = match flag.wait_ge(ctx, next as u32, || true) {
                Ok(v) => v,
                Err(VmmcError::Timeout { .. }) => continue,
                Err(_) => return,
            };
            // Every record the flag admits has landed (in-order
            // delivery); drain them all, then ack the tail once.
            let n = tail.wrapping_sub(next as u32).wrapping_add(1) as u64;
            let mut was_cut = false;
            if !synced {
                // Bulk batch: packed records from the region start.
                if n > BATCH_MAX_RECS as u64 {
                    return;
                }
                let Ok(raw) = vmmc.proc_().read(ctx, base, REGION_BYTES) else {
                    return;
                };
                let mut rest = &raw[..];
                for k in 0..n {
                    let Some((used, rec)) = Record::decode(rest) else {
                        return;
                    };
                    rest = &rest[used..];
                    // The cut always closes its batch.
                    was_cut = rec.kind == Kind::Cut;
                    if was_cut && k + 1 != n {
                        return;
                    }
                    apply(&store, &rec, false);
                }
                synced = was_cut;
            } else {
                // Live records in their slots, at most one window's
                // worth outstanding.
                if n > REPL_SLOTS as u64 {
                    return;
                }
                for idx in next..next + n {
                    let slot = base.add(live_offset(idx));
                    let Ok(raw) = vmmc.proc_().read(ctx, slot, REC_BYTES) else {
                        return;
                    };
                    let Some((_, rec)) = Record::decode(&raw) else {
                        return;
                    };
                    apply(&store, &rec, true);
                }
            }
            // A dead node acks nothing: its sender degrades on the
            // fenced ack wait.
            if fence.tripped() {
                return;
            }
            ack.raise(ctx, tail);
            next += n;
            if was_cut && matches!(mode, RecvMode::Sink) {
                return;
            }
        }
    });
}

/// Answer every further replication request as degraded. The process
/// parks on the channel; once its worker generation is fenced nothing
/// more arrives.
fn drain_degraded(ctx: &Ctx, rx: &SimChannel<ReplReq>) -> ! {
    loop {
        let req = rx.recv(ctx);
        req.done.send(&ctx.handle(), false);
    }
}

/// Where a transition's stream leads once its cut is acked.
enum Goal {
    /// Epoch-0 bring-up: live replication on the construction-time
    /// queue, no activation.
    Initial(SimChannel<ReplReq>),
    /// Re-arm: the activation CAS, then a fresh serve generation at the
    /// source feeding live replication through this new queue.
    Rearm(SimChannel<ReplReq>),
    /// Migration: the activation CAS, then the target serves.
    Migrate,
}

/// Everything a transition resolved before its channel exists.
struct Plan {
    /// Route epoch the stream runs under (the activation CAS expects it).
    expect_epoch: u32,
    /// Source primary node — the sender's.
    source: usize,
    link: Arc<ReplLink>,
    ctl: Arc<GenCtl>,
    /// The receiving end: its node, its store, its promotion channel.
    target: BackupLink,
    goal: Goal,
}

impl Plan {
    /// Resolve `kind`. Re-arm and migration spawn their receiver here;
    /// the initial transition got one at construction.
    fn of(cluster: &Arc<SvcCluster>, shard: usize, kind: Transition) -> Plan {
        let (expect_epoch, source, to, migrating) = match kind {
            Transition::Initial {
                backup,
                repl,
                ctl,
                link,
            } => {
                return Plan {
                    expect_epoch: 0,
                    source: cluster.route(shard).primary,
                    link,
                    ctl,
                    target: backup,
                    goal: Goal::Initial(repl),
                }
            }
            Transition::Rearm {
                expect_epoch,
                from,
                to,
            } => (expect_epoch, from, to, false),
            Transition::Migrate {
                expect_epoch,
                from,
                to,
            } => (expect_epoch, from, to, true),
        };
        let plan = Plan {
            expect_epoch,
            source,
            link: Arc::new(ReplLink::default()),
            ctl: Arc::new(GenCtl::new(false)),
            target: BackupLink {
                node: to,
                store: Arc::new(Mutex::new(ShardStore::new())),
                promo: SimChannel::new(),
            },
            goal: if migrating {
                Goal::Migrate
            } else {
                Goal::Rearm(SimChannel::new())
            },
        };
        let mode = if migrating {
            RecvMode::Sink
        } else {
            RecvMode::Backup
        };
        let (link, ctl) = (Arc::clone(&plan.link), Arc::clone(&plan.ctl));
        spawn_receiver(cluster, shard, link, plan.target.clone(), ctl, mode);
        plan
    }

    /// The stream failed before its commit point. Epoch-0 replication
    /// degrades exactly like a mid-stream failure; a sync aborts and
    /// releases the shard for a later attempt.
    fn fail(&self, ctx: &Ctx, cluster: &SvcCluster, shard: usize) {
        if let Goal::Initial(rx) = &self.goal {
            cluster.demote_backup(ctx.now(), shard);
            drain_degraded(ctx, rx);
        }
        self.ctl.set_abort();
        cluster.abort_transition(ctx.now(), shard);
    }
}

/// Spawn the sync/transition orchestrator for one shard. It owns the
/// sender half of the record stream: establishes the channel, runs the
/// snapshot + delta + cut phases (for re-arm and migration), performs
/// the activation CAS, and — for replication transitions — stays on as
/// the live replicator until the stream degrades or the generation is
/// deposed.
pub(crate) fn spawn_transition(cluster: &Arc<SvcCluster>, shard: usize, kind: Transition) {
    let cluster = Arc::clone(cluster);
    let name = format!("svc-sync-s{shard}-g{}", cluster.next_gen());
    let h = cluster.system().sim().clone();
    h.spawn(name.clone(), move |ctx| {
        let plan = Plan::of(&cluster, shard, kind);
        let (expect_epoch, target) = (plan.expect_epoch, &plan.target);
        let vmmc = cluster.system().endpoint(plan.source, name);
        let ack_va = vmmc.proc_().alloc(4, CacheMode::WriteBack);
        let flag = plan
            .link
            .rendezvous(ctx, &vmmc, Side::Sender, ack_va, 4, REGION_BYTES);
        let Some(flag) = flag else {
            return plan.fail(ctx, &cluster, shard);
        };
        let mut tx = RecordSender {
            vmmc: &vmmc,
            rec_stage: vmmc.proc_().alloc(REC_BYTES, CacheMode::WriteBack),
            batch_stage: vmmc.proc_().alloc(REGION_BYTES, CacheMode::WriteBack),
            flag,
            ack: WordWaiter::new(&vmmc, ack_va),
            fence: Fence::new(&cluster, shard, target.node, Some(expect_epoch)),
            idx: 1,
        };

        let rx = if let Goal::Initial(rx) = &plan.goal {
            // Both stores are empty; the cut pins the receiver at
            // sequence 0 and everything after is live.
            if !tx.send_packed(ctx, &[Record::cut(0)]) || !tx.commit(ctx) {
                return plan.fail(ctx, &cluster, shard);
            }
            rx
        } else {
            let src_store = cluster.authoritative_store(shard);
            // Phase 1 — concurrent snapshot: one lock acquisition
            // fixes the cut; writes keep flowing while it streams.
            let (snap, cut) = {
                let g = src_store.lock();
                (g.entries(), g.last_seq())
            };
            let recs: Vec<_> = snap.iter().map(Record::of_entry).collect();
            let streamed = tx.send_packed(ctx, &recs);
            // Phase 2 — freeze writes and drain the in-flight ones,
            // then stream the delta the snapshot missed, closed by the
            // cut in the same batch.
            let mut ok = streamed && cluster.freeze_writes(ctx, shard);
            if ok {
                let (delta, fin) = {
                    let g = src_store.lock();
                    (g.entries_since(cut), g.last_seq())
                };
                let mut recs: Vec<_> = delta.iter().map(Record::of_entry).collect();
                recs.push(Record::cut(fin));
                // Phase 3 — the cut's ack commits the whole stream.
                ok = tx.send_packed(ctx, &recs) && tx.commit(ctx);
            }
            if !ok {
                if streamed {
                    cluster.unfreeze_writes(shard);
                }
                return plan.fail(ctx, &cluster, shard);
            }
            // Phase 4 — activation CAS under the routing lock; a
            // concurrent promotion wins and aborts the sync.
            let activation = match plan.goal {
                Goal::Migrate => Activation::Migrate {
                    to: target.node,
                    store: Arc::clone(&target.store),
                },
                _ => Activation::Rearm {
                    link: target.clone(),
                },
            };
            let activated = cluster.activate(ctx, shard, expect_epoch, activation);
            match activated {
                Some(_) => plan.ctl.set_active(),
                None => plan.ctl.set_abort(),
            }
            cluster.unfreeze_writes(shard);
            let Some(epoch) = activated else {
                return;
            };
            let store = Arc::clone(&target.store);
            let Goal::Rearm(rx) = &plan.goal else {
                return spawn_serve_workers(&cluster, shard, epoch, target.node, store, None);
            };
            let repl = Some(rx.clone());
            spawn_serve_workers(&cluster, shard, epoch, plan.source, src_store, repl);
            if cluster.config().hedge_reads {
                spawn_hedge_workers(&cluster, shard, epoch, target.node, store);
            }
            tx.fence.epoch = Some(epoch);
            rx
        };

        // Live replication: hold each client reply until the record's
        // ack, demote-before-ack on failure.
        loop {
            let req = rx.recv(ctx);
            if tx.send(ctx, &Record::of_op(req.seq, &req.op)) {
                req.done.send(&ctx.handle(), true);
                continue;
            }
            // Degrade: clear the backup from the route *before*
            // acknowledging the unreplicated write, so no hedge or
            // promotion can trust the stale replica afterwards.
            cluster.demote_backup(ctx.now(), shard);
            req.done.send(&ctx.handle(), false);
            drain_degraded(ctx, rx);
        }
    });
}

/// The cluster watchdog: polls daemon liveness every
/// [`WATCH_INTERVAL`] and drives the self-healing transitions —
/// promotion first, then revival, then claimed migrations, then
/// re-replication.
pub(crate) fn spawn_watchdog(cluster: &Arc<SvcCluster>) {
    let h = cluster.system().sim().clone();
    let cluster = Arc::clone(cluster);
    h.spawn("svc-watchdog", move |ctx| loop {
        if cluster.is_shutdown() {
            return;
        }
        ctx.advance(WATCH_INTERVAL);
        if cluster.is_shutdown() {
            return;
        }
        for shard in 0..cluster.config().shards {
            cluster.promote_if_down(ctx, shard);
            if let Some((epoch, node, store)) = cluster.revive_if_restarted(ctx, shard) {
                spawn_serve_workers(&cluster, shard, epoch, node, store, None);
            }
        }
        for (shard, t) in cluster.claim_migrations(ctx) {
            spawn_transition(&cluster, shard, t);
        }
        for shard in 0..cluster.config().shards {
            if let Some(t) = cluster.claim_rearm(ctx, shard) {
                spawn_transition(&cluster, shard, t);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use shrimp_core::{ShrimpSystem, SystemConfig};
    use shrimp_sim::Kernel;

    use super::*;
    use crate::SvcConfig;

    /// The receiver acks only what it applied: a batch whose second
    /// record does not decode is never acked, though the first did. A
    /// receiver that acked before it decoded would let its sender commit
    /// writes the replica never took.
    #[test]
    fn a_batch_that_does_not_decode_is_never_acked() {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let mut cfg = SvcConfig::chained(system.len());
        cfg.replication = false;
        let cluster = SvcCluster::spawn(&system, cfg);
        let link = Arc::new(ReplLink::default());
        let target = BackupLink {
            node: 1,
            store: Arc::new(Mutex::new(ShardStore::new())),
            promo: SimChannel::new(),
        };
        let ctl = Arc::new(GenCtl::new(false));
        spawn_receiver(&cluster, 0, Arc::clone(&link), target, ctl, RecvMode::Sink);

        let acks = Arc::new(Mutex::new(Vec::new()));
        let (cl, seen) = (Arc::clone(&cluster), Arc::clone(&acks));
        kernel.spawn("sender", move |ctx| {
            let vmmc = cl.system().endpoint(0, "sender");
            let ack_va = vmmc.proc_().alloc(4, CacheMode::WriteBack);
            let flag = link.rendezvous(ctx, &vmmc, Side::Sender, ack_va, 4, REGION_BYTES);
            let mut tx = RecordSender {
                vmmc: &vmmc,
                rec_stage: vmmc.proc_().alloc(REC_BYTES, CacheMode::WriteBack),
                batch_stage: vmmc.proc_().alloc(REGION_BYTES, CacheMode::WriteBack),
                flag: flag.unwrap(),
                ack: WordWaiter::new(&vmmc, ack_va),
                fence: Fence::new(&cl, 0, 1, None),
                idx: 1,
            };
            // One wait slice each, so a missing ack cannot park the test.
            assert!(tx.send_packed(ctx, &[Record::entry(1, b"k", Some(b"v"))]));
            seen.lock().push(tx.ack.wait_ge(ctx, 1, || true));
            let mut batch = Vec::new();
            Record::entry(2, b"k", Some(b"w")).encode(&mut batch);
            let bad = batch.len();
            Record::entry(3, b"k", Some(b"x")).encode(&mut batch);
            batch[bad + 8..bad + 12].copy_from_slice(&9u32.to_le_bytes()); // no such kind
            assert!(tx.deposit(ctx, tx.batch_stage, &batch, 0));
            tx.flag.raise(ctx, 3);
            seen.lock().push(tx.ack.wait_ge(ctx, 2, || true));
            cl.begin_shutdown();
        });
        kernel.run_until_quiescent().unwrap();
        let acks = acks.lock();
        assert!(
            matches!(acks[..], [Ok(1), Err(VmmcError::Timeout { .. })]),
            "{acks:?}"
        );
    }
}
