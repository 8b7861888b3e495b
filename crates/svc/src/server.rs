//! The serving processes: per-shard RPC workers, the replication
//! record stream, the sync orchestrators, the backup receiver, hedge
//! read workers, and the self-healing watchdog.
//!
//! ## Record stream
//!
//! Every replication and sync path speaks one wire protocol: a
//! `shrimp_core::SlotChannel` of shape [`crate::wire::STREAM`] whose
//! reverse direction carries only acks, with [`crate::wire`]'s byte
//! layouts. Records are numbered by the channel's record count from 1
//! (independent of the store sequence each record carries). A chunk's
//! flag, an automatic-update store after its data left, holds the
//! chunk's last record, so VMMC's in-order delivery lands it behind
//! every record it covers (flag-after-data). The receiver reads and
//! applies every record the flag admits — each record's header, then
//! the key and value bytes it names, never past the slot — then acks
//! the drained tail: one ack per chunk.
//!
//! Records are packed (variable-length) in both phases, and every chunk
//! waits for the ack of the one before it:
//!
//! * **Bulk** (snapshot + delta + cut): a chunk is a batch of as many
//!   records as fit a slot, landing in the data slot: its tail by one
//!   deliberate update, its head stored beside it by automatic update.
//!   SHRIMP's per-transfer overhead (two PIO accesses, DU engine and
//!   DMA setup, and the 30 MB/s EISA source read) makes small sends
//!   expensive, so batching is what keeps a migration's freeze window
//!   short (§4's amortization argument). The cut record is always the
//!   last of its batch.
//! * **Live** (after the cut): a chunk is a group commit — the record
//!   the replicator was waiting for, then every record queued behind it
//!   while the packed image still fits an eager slot ([`REC_BYTES`]) —
//!   stored straight into the backup's eager slot by automatic update,
//!   the paper's path for a small message. Concurrent writes to a hot
//!   shard share one flag and one ack instead of paying a round trip
//!   each; an idle shard's chunk is its one record.
//!
//! For live replication the sender holds every grouped client reply
//! until the chunk's ack arrives: **the commit point is the backup's
//! ack**, so every acknowledged write exists on the replica when the
//! primary dies. Bulk sync phases commit transitively through the cut
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

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, Rendezvous, SlotChannel, Vmmc, VmmcError};
use shrimp_mesh::NodeId;
use shrimp_node::VAddr;
use shrimp_sim::{Ctx, RetryPolicy, SimChannel};
use shrimp_srpc::{OutWriter, SrpcHandler, SrpcServer, Val};

use crate::cluster::{SvcCluster, WATCH_INTERVAL};
use crate::machine::{Action, BackupLink, Event, Status};
use crate::read_through::spawn_rt_exporter;
use crate::store::{Applied, Op, ShardStore};
use crate::wire::{
    pad_batch, Kind, Record, BATCH_BYTES, BATCH_MAX_RECS, REC_BYTES, REC_HDR, STREAM,
};

/// Serve workers on the backup answering hedged reads — a small fixed
/// pool, since hedges are the retry tail, not the fast path.
const HEDGE_WORKERS: usize = 2;

/// Which end of a record stream a process is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Side {
    /// Applies records and acks them.
    Receiver = 0,
    /// Sends records and waits for their acks.
    Sender = 1,
}

/// Export/import rendezvous for one record stream: each side publishes
/// its end's node and name.
#[derive(Debug)]
struct ReplLink(Rendezvous<Side, (NodeId, BufferName)>);

impl ReplLink {
    /// Export `side`'s end of the channel and publish it, then wait for
    /// the peer's end, import it, and join the two. `None` when either
    /// daemon stays down past the bootstrap budget, or the join fails.
    fn rendezvous(&self, ctx: &Ctx, vmmc: &Vmmc, side: Side) -> Option<SlotChannel> {
        let boot = RetryPolicy::bootstrap();
        let local = SlotChannel::export(vmmc, ctx, STREAM, boot).ok()?;
        self.0.publish(side, (vmmc.node_id(), local.name));
        if !self.0.arrive(ctx, side as usize, boot.total_budget()) {
            return None;
        }
        let peer = [Side::Sender, Side::Receiver][side as usize];
        let (node, name) = self.0.published(&peer);
        let dst = vmmc.import_retry(ctx, node, name, boot).ok()?;
        local.join(vmmc, ctx, dst).ok()
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

/// What a sync leads to once its cut is acked.
pub(crate) enum SyncKind {
    /// Epoch-0 bring-up of a chained shard: no snapshot (both stores
    /// are empty), just the cut, then live replication on the
    /// construction-time queue; no activation.
    Initial(SimChannel<ReplReq>),
    /// Arm a new backup for an unreplicated shard: snapshot + delta +
    /// cut, the activation CAS, then a fresh serve generation at the
    /// source feeding live replication through this new queue.
    Rearm(SimChannel<ReplReq>),
    /// Planned handoff of the primary: snapshot + delta + cut, the
    /// activation CAS, then the target serves under the bumped epoch
    /// (unreplicated until the watchdog re-arms).
    Migrate,
}

/// One sync: a record stream from a shard's primary to a target,
/// committed by its cut's ack. Decided once — by the machine's claim,
/// or by [`spawn_shard`] for epoch 0 — then run by its orchestrator,
/// read by its receiver (a migration's target is a sink) and installed
/// by the machine's activation CAS.
pub(crate) struct Sync {
    pub(crate) kind: SyncKind,
    /// Route epoch the claim saw: the stream's fence, and what the
    /// activation CAS expects.
    pub(crate) epoch: u32,
    /// Source primary node — the sender's.
    from: usize,
    /// The receiving end: its node, its store, its status's key.
    pub(crate) target: BackupLink,
    /// Rendezvous between the stream's two ends.
    link: Arc<ReplLink>,
}

impl Sync {
    /// A sync into `target`.
    pub(crate) fn new(kind: SyncKind, epoch: u32, from: usize, target: BackupLink) -> Sync {
        Sync {
            kind,
            epoch,
            from,
            target,
            link: Arc::new(ReplLink(Rendezvous::new(2))),
        }
    }

    /// The stream failed before its commit point. Epoch-0 replication
    /// degrades exactly like a mid-stream failure; a sync aborts and
    /// releases the shard for a later attempt.
    fn fail(&self, ctx: &Ctx, cluster: &Arc<SvcCluster>, shard: usize) {
        if let SyncKind::Initial(rx) = &self.kind {
            step(cluster, shard, Event::Degraded(ctx.now()));
            drain_degraded(ctx, rx);
        }
        step(cluster, shard, Event::Failed(ctx.now(), self.target.gen));
    }
}

/// Step `shard`'s machine through `ev`, then run what it decided.
fn step(cluster: &Arc<SvcCluster>, shard: usize, ev: Event<'_>) {
    let acts = cluster.machines()[shard].step(ev);
    run(cluster, acts);
}

/// Run what a machine decided, in order.
fn run(cluster: &Arc<SvcCluster>, acts: Vec<Action>) {
    for act in acts {
        match act {
            Action::Record(e) => cluster.record_event(e),
            Action::Serve(s, epoch, node, store, repl) => {
                spawn_serve_workers(cluster, s, epoch, node, store, repl);
            }
            Action::Hedge(s, epoch, node, store) if cluster.config().hedge_reads => {
                spawn_hedge_workers(cluster, s, epoch, node, store);
            }
            Action::Hedge(..) => {}
            Action::Sync(s, sync) => spawn_sync(cluster, s, sync),
        }
    }
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
    let backup = cluster.machines()[shard].backup().cloned();
    let repl = backup.as_ref().map(|_| SimChannel::new());
    let store = cluster.authoritative_store(shard);
    spawn_serve_workers(cluster, shard, 0, primary, store, repl.clone());
    if let (Some(backup), Some(repl)) = (backup, repl) {
        let sync = Sync::new(SyncKind::Initial(repl), 0, primary, backup);
        spawn_receiver(cluster, shard, &sync);
        if cluster.config().hedge_reads {
            let store = Arc::clone(&sync.target.store);
            spawn_hedge_workers(cluster, shard, 0, sync.target.node, store);
        }
        spawn_sync(cluster, shard, sync);
    }
}

/// An `opaque<N>` argument's bytes (the stub decodes each as `Bytes`).
fn opaque(v: &Val) -> &[u8] {
    match v {
        Val::Bytes(b) => b,
        _ => &[],
    }
}

/// The `get` procedure, the same on a primary and on a hedge replica:
/// look the key up in `store` and set the results. The reply holds an
/// `opaque<N>`, so the writer stores it, flag last, as one run when the
/// handler returns.
fn get_handler(store: Arc<Mutex<ShardStore>>) -> SrpcHandler {
    Box::new(move |ctx, ins, out| {
        let (seq, val) = {
            let g = store.lock();
            let (s, v) = g.get(opaque(&ins[0]));
            (s, v.map(|v| v.to_vec()))
        };
        let _ = out.set(ctx, "seq", &Val::U32(seq as u32));
        let _ = out.set(ctx, "found", &Val::Bool(val.is_some()));
        let _ = out.set(ctx, "val", &Val::Bytes(val.unwrap_or_default()));
    })
}

/// Set a mutating procedure's results, in `KV_IDL`'s order: the reply
/// is fixed-size, so each set is stored at once, and out of order they
/// would not be one run. `None` — nothing was applied — answers with
/// sequence 0, visibly a non-write.
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
                    key: opaque(&ins[0]).to_vec(),
                    val: opaque(&ins[1]).to_vec(),
                }),
            );
            srv.register("get", get_handler(Arc::clone(&writer.store)));
            srv.register(
                "del",
                writer.handler(|ins| Op::Del {
                    key: opaque(&ins[0]).to_vec(),
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

/// Sender half of one record stream: the channel, and the fence its
/// bounded waits check.
struct RecordSender<'a> {
    vmmc: &'a Vmmc,
    ch: SlotChannel,
    /// Watches the *receiver's* daemon, under the *sender's* epoch.
    fence: Fence,
}

impl RecordSender<'_> {
    /// Wait until everything sent so far has been applied and acked, in
    /// [`WATCH_INTERVAL`] slices with the fence checked between them —
    /// a live group's commit point, and the bulk phases' (for the sync,
    /// the cut's ack); it also holds the group's slot credit, so the
    /// next group's post polls for none. `false` means the stream must
    /// degrade or abort.
    fn commit(&mut self, ctx: &Ctx) -> bool {
        loop {
            let slice = ctx.now() + WATCH_INTERVAL;
            match self.ch.wait_acked(self.vmmc, ctx, Some(slice)) {
                Err(VmmcError::Timeout { .. }) if !self.fence.tripped() => {}
                done => return done.is_ok(),
            }
        }
    }

    /// Send one chunk of `records` packed records, its flag behind it.
    fn deposit(&mut self, ctx: &Ctx, img: &[u8], records: u32) -> bool {
        self.ch.send(self.vmmc, ctx, img, records).is_ok()
    }

    /// Stream bulk records as packed batches: as many as fit a slot per
    /// chunk. Each batch waits for the previous one's ack, and the last
    /// commits through [`RecordSender::commit`] after the cut.
    fn send_packed(&mut self, ctx: &Ctx, recs: &[Record<'_>]) -> bool {
        let mut rest = recs;
        while !rest.is_empty() {
            let mut buf = Vec::with_capacity(BATCH_BYTES);
            let mut n = 0;
            while n < rest.len() && buf.len() + rest[n].len() <= BATCH_BYTES {
                rest[n].encode(&mut buf);
                n += 1;
            }
            rest = &rest[n..];
            pad_batch(&mut buf);
            if !self.commit(ctx) || !self.deposit(ctx, &buf, n as u32) {
                return false;
            }
        }
        true
    }
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

/// One record's image from the `room` bytes of its slot left at `at`:
/// its header, then exactly the key and value bytes the header names.
/// `None` on a fault, or on a header that is malformed or names more
/// than the room holds.
fn read_record(vmmc: &Vmmc, ctx: &Ctx, at: VAddr, room: usize) -> Option<Vec<u8>> {
    let p = vmmc.proc_();
    let mut raw = p.read(ctx, at, REC_HDR.min(room)).ok()?;
    let len = Record::size(&raw).filter(|&len| len <= room)?;
    raw.extend(p.read(ctx, at.add(REC_HDR), len - REC_HDR).ok()?);
    Some(raw)
}

/// The receiver half of `sync`'s record stream: exports the region,
/// applies records by phase (snapshot load → cut → live), and acks by
/// stream index. A migration's target is a sink: it exits once the cut
/// is acked, and the activation spawns the serve generation. Every
/// other receiver stays on as the backup replica, watching its sync's
/// status for promotion.
fn spawn_receiver(cluster: &Arc<SvcCluster>, shard: usize, sync: &Sync) {
    let cluster = Arc::clone(cluster);
    let name = format!("svc-recv-s{shard}-g{}", cluster.next_gen());
    let h = cluster.system().sim().clone();
    let link = Arc::clone(&sync.link);
    let sink = matches!(sync.kind, SyncKind::Migrate);
    let BackupLink {
        node: bnode,
        store,
        gen,
    } = sync.target.clone();
    h.spawn(name.clone(), move |ctx| {
        let vmmc = cluster.system().endpoint(bnode, name);
        // Promoted: the replica becomes the shard under the bumped
        // epoch, unreplicated until the watchdog re-arms. Records past
        // its last ack were never acked to any client.
        let promoted =
            |epoch| spawn_serve_workers(&cluster, shard, epoch, bnode, Arc::clone(&store), None);

        let Some(mut ch) = link.rendezvous(ctx, &vmmc, Side::Receiver) else {
            // A promotion may have raced the failed set-up. An empty
            // replica is still zero-lost: no write was ever acked
            // through this link, and without the link no write was
            // ever acked as replicated at all.
            if let Status::Promoted(epoch) = cluster.machines()[shard].status(gen) {
                promoted(epoch);
            }
            return;
        };
        // Birth after setup: a crash ridden out by the bootstrap
        // retries counts as a (re)start, not a death. No epoch: the
        // receiver outlives its own activation's bump.
        let fence = Fence::new(&cluster, shard, bnode, None);
        // Past the cut record: loads become live applies.
        let mut synced = false;
        loop {
            let status = cluster.machines()[shard].status(gen);
            if fence.tripped() || status == Status::Aborted {
                return;
            }
            // Only a backup is promoted or deposed: a sink returns at
            // its cut, before its sync can be active.
            if let Status::Promoted(epoch) = status {
                return promoted(epoch);
            }
            // Deposed: migrated away or demoted.
            if status == Status::Active && cluster.route(shard).backup != Some(bnode) {
                return;
            }
            if synced && status != Status::Active {
                // Cut acked, activation CAS pending: no records can
                // arrive until the orchestrator unfreezes writes.
                ctx.advance(WATCH_INTERVAL);
                continue;
            }
            // One slice at a time: its expiry comes back to the loop
            // head, where the promotion/abort/liveness checks re-run.
            let n = match ch.wait_flag(&vmmc, ctx, Some(ctx.now() + WATCH_INTERVAL)) {
                Ok(n) if n as usize <= BATCH_MAX_RECS => n,
                Err(VmmcError::Timeout { .. }) => continue,
                _ => return,
            };
            // Every record the flag admits has landed (in-order
            // delivery), packed from its slot's start: a bulk batch in
            // the data slot, or a live group in its eager slot.
            // Drain them all, then ack the tail once.
            let room = if synced { REC_BYTES } else { BATCH_BYTES };
            let at = ch.payload(room);
            let (mut off, mut was_cut) = (0, false);
            for k in 0..n {
                let Some(raw) = read_record(&vmmc, ctx, at.add(off), room - off) else {
                    return;
                };
                let Some((used, rec)) = Record::decode(&raw) else {
                    return;
                };
                off += used;
                // The cut always closes its batch.
                was_cut = !synced && rec.kind == Kind::Cut;
                if was_cut && k + 1 != n {
                    return;
                }
                apply(&store, &rec, synced);
            }
            // A dead node acks nothing: its sender degrades on the
            // fenced ack wait.
            if fence.tripped() || ch.ack(&vmmc, ctx, n, room).is_err() {
                return;
            }
            synced |= was_cut;
            if was_cut && sink {
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

/// Spawn the orchestrator of `sync` for one shard. It owns the sender
/// half of the record stream: establishes the channel, runs the
/// snapshot + delta + cut phases (for re-arm and migration), performs
/// the activation CAS, and — for replication syncs — stays on as the
/// live replicator until the stream degrades or the generation is
/// deposed.
pub(crate) fn spawn_sync(cluster: &Arc<SvcCluster>, shard: usize, sync: Sync) {
    let cluster = Arc::clone(cluster);
    let name = format!("svc-sync-s{shard}-g{}", cluster.next_gen());
    let h = cluster.system().sim().clone();
    h.spawn(name.clone(), move |ctx| {
        // First act: the receiver (an epoch-0 bring-up got its own at
        // construction).
        if !matches!(sync.kind, SyncKind::Initial(_)) {
            spawn_receiver(&cluster, shard, &sync);
        }
        let target = &sync.target;
        let vmmc = cluster.system().endpoint(sync.from, name);
        let Some(ch) = sync.link.rendezvous(ctx, &vmmc, Side::Sender) else {
            return sync.fail(ctx, &cluster, shard);
        };
        let mut tx = RecordSender {
            vmmc: &vmmc,
            ch,
            fence: Fence::new(&cluster, shard, target.node, Some(sync.epoch)),
        };

        let rx = if let SyncKind::Initial(rx) = &sync.kind {
            // Both stores are empty; the cut pins the receiver at
            // sequence 0 and everything after is live.
            if !tx.send_packed(ctx, &[Record::cut(0)]) || !tx.commit(ctx) {
                return sync.fail(ctx, &cluster, shard);
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
                return sync.fail(ctx, &cluster, shard);
            }
            // Phase 4 — the machine's activation CAS; a concurrent
            // promotion wins and aborts the sync. The activation spawns
            // the new serve generation.
            let live = cluster.liveness();
            step(&cluster, shard, Event::Committed(ctx.now(), &live, &sync));
            cluster.unfreeze_writes(shard);
            let status = cluster.machines()[shard].status(target.gen);
            let (SyncKind::Rearm(rx), Status::Active) = (&sync.kind, status) else {
                return;
            };
            tx.fence.epoch = Some(sync.epoch + 1);
            rx
        };

        // Live replication, group-committed: every request queued behind
        // the first rides its chunk while the packed image still fits
        // the eager slot, and one ack commits the group; a request that
        // does not fit leads the next chunk. Every grouped reply is held
        // until that ack, demote-before-ack on failure.
        let mut carried = None;
        loop {
            let first = carried.take().unwrap_or_else(|| rx.recv(ctx));
            let mut img = Vec::with_capacity(REC_BYTES);
            Record::of_op(first.seq, &first.op).encode(&mut img);
            let mut group = vec![first];
            while let Some(req) = rx.try_recv() {
                let rec = Record::of_op(req.seq, &req.op);
                if img.len() + rec.len() > REC_BYTES {
                    carried = Some(req);
                    break;
                }
                rec.encode(&mut img);
                group.push(req);
            }
            if tx.deposit(ctx, &img, group.len() as u32) && tx.commit(ctx) {
                for req in group {
                    req.done.send(&ctx.handle(), true);
                }
                continue;
            }
            // Degrade: clear the backup from the route *before*
            // acknowledging the unreplicated writes, so no hedge or
            // promotion can trust the stale replica afterwards.
            step(&cluster, shard, Event::Degraded(ctx.now()));
            for req in group.into_iter().chain(carried) {
                req.done.send(&ctx.handle(), false);
            }
            drain_degraded(ctx, rx);
        }
    });
}

/// The cluster watchdog: every [`WATCH_INTERVAL`], runs what the
/// machines decide on one poll (`SvcCluster::watch`) — promotion first,
/// then revival, then claimed migrations, then re-replication.
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
        run(&cluster, cluster.watch(ctx.now()));
    });
}

#[cfg(test)]
mod tests {
    use shrimp_core::{ShrimpSystem, SystemConfig};
    use shrimp_sim::Kernel;

    use super::*;
    use crate::store::{MAX_KEY, MAX_VAL};
    use crate::SvcConfig;

    type Acks = Vec<Result<(), VmmcError>>;

    /// A sink receiver for shard 0 on node 1, and a sender on node 0
    /// running `body` against it. Returns the acks `body` waited for
    /// and the receiver's store.
    fn against_a_sink(
        body: impl FnOnce(&Ctx, &mut RecordSender<'_>) -> Acks + Send + 'static,
    ) -> (Acks, Arc<Mutex<ShardStore>>) {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let mut cfg = SvcConfig::chained(system.len());
        cfg.replication = false;
        let cluster = SvcCluster::spawn(&system, cfg);
        let sync = cluster.machines()[0].claim(SyncKind::Migrate, 1);
        let (link, store) = (Arc::clone(&sync.link), Arc::clone(&sync.target.store));
        spawn_receiver(&cluster, 0, &sync);

        let acks = Arc::new(Mutex::new(Vec::new()));
        let (cl, seen) = (Arc::clone(&cluster), Arc::clone(&acks));
        kernel.spawn("sender", move |ctx| {
            let vmmc = cl.system().endpoint(0, "sender");
            let ch = link.rendezvous(ctx, &vmmc, Side::Sender).unwrap();
            let mut tx = RecordSender {
                vmmc: &vmmc,
                ch,
                fence: Fence::new(&cl, 0, 1, None),
            };
            *seen.lock() = body(ctx, &mut tx);
            cl.begin_shutdown();
        });
        kernel.run_until_quiescent().unwrap();
        let acks = std::mem::take(&mut *acks.lock());
        (acks, store)
    }

    /// One wait slice for the acks of everything sent, so a missing ack
    /// cannot park the test.
    fn one_slice(ctx: &Ctx, tx: &mut RecordSender<'_>) -> Result<(), VmmcError> {
        let slice = Some(ctx.now() + WATCH_INTERVAL);
        tx.ch.wait_acked(tx.vmmc, ctx, slice)
    }

    /// The receiver acks only what it applied: a batch whose second
    /// record does not decode is never acked, though the first did. A
    /// receiver that acked before it decoded would let its sender commit
    /// writes the replica never took.
    #[test]
    fn a_batch_that_does_not_decode_is_never_acked() {
        let (acks, _) = against_a_sink(|ctx, tx| {
            assert!(tx.send_packed(ctx, &[Record::entry(1, b"k", Some(b"v"))]));
            let first = one_slice(ctx, tx);
            let mut batch = Vec::new();
            Record::entry(2, b"k", Some(b"w")).encode(&mut batch);
            let bad = batch.len();
            Record::entry(3, b"k", Some(b"x")).encode(&mut batch);
            batch[bad + 8..bad + 12].copy_from_slice(&9u32.to_le_bytes()); // no such kind
            pad_batch(&mut batch);
            assert!(tx.deposit(ctx, &batch, 2));
            vec![first, one_slice(ctx, tx)]
        });
        assert!(
            matches!(acks[..], [Ok(()), Err(VmmcError::Timeout { .. })]),
            "{acks:?}"
        );
    }

    /// A sync whose snapshot is empty is one batch of a lone cut, 24
    /// bytes — short enough for an eager slot, but the receiver reads
    /// every batch from the data slot. The short-batch rule sends it
    /// there: it is acked, and the replica stands at the cut.
    #[test]
    fn a_lone_cut_syncs_through_the_data_slot() {
        let (acks, store) = against_a_sink(|ctx, tx| {
            assert!(tx.send_packed(ctx, &[Record::cut(7)]));
            vec![one_slice(ctx, tx)]
        });
        assert!(matches!(acks[..], [Ok(())]), "{acks:?}");
        assert_eq!(store.lock().last_seq(), 7);
    }

    /// The receiver reads no record past its slot: in a full batch,
    /// whose last header names the widest key and value but sits 96
    /// bytes from the slot's end, the record is refused and the batch
    /// never acked. A receiver that trusted the header would read on
    /// into the next slot, decode its zeros as the value and ack.
    #[test]
    fn a_record_that_claims_more_than_its_slot_holds_is_never_acked() {
        let (acks, store) = against_a_sink(|ctx, tx| {
            let (key, val) = ([7; MAX_KEY], [9; MAX_VAL]);
            let mut batch = Vec::new();
            for seq in 1..=7 {
                Record::entry(seq, &key, Some(&val)).encode(&mut batch);
            }
            Record::entry(8, b"", None).encode(&mut batch);
            let last = batch.len();
            Record::entry(9, &key, Some(&val)).encode(&mut batch);
            batch.truncate(BATCH_BYTES);
            assert_eq!(
                BATCH_BYTES - last,
                REC_BYTES - 24,
                "the header fits, its fields do not"
            );
            assert!(tx.deposit(ctx, &batch, 9));
            vec![one_slice(ctx, tx)]
        });
        assert!(
            matches!(acks[..], [Err(VmmcError::Timeout { .. })]),
            "{acks:?}"
        );
        assert_eq!(
            store.lock().get(&[7; MAX_KEY]).0,
            7,
            "the records before it applied"
        );
    }
}
