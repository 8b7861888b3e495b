//! The serving processes: per-shard RPC workers, the replication
//! record stream, the sync/transition orchestrators, the backup
//! receiver, hedge read workers, and the self-healing watchdog.
//!
//! ## Record stream
//!
//! Every replication and sync path speaks one wire protocol. The
//! receiver exports one region per stream, written only by the
//! sender:
//!
//! ```text
//! | rec 0 | … | rec S-1 | flag |
//! ```
//!
//! plus a single 4-byte *ack word* exported by the sender's side,
//! written only by the receiver. Records are numbered by a *stream
//! index* starting at 1 (independent of the store sequence each
//! record carries). The single flag word always holds the highest
//! stream index whose data has been deposited; VMMC's in-order
//! delivery lands the flag behind every record it covers
//! (flag-after-data), so one monotone word replaces per-record
//! doorbells. The receiver drains every record the flag admits, then
//! deposits the drained tail into the ack word — one ack per batch.
//!
//! The stream has two phases with different record layouts:
//!
//! * **Bulk** (snapshot + delta + cut): records are *packed*
//!   back-to-back from the start of the region — variable-length,
//!   word-padded — and shipped as one deliberate update per batch.
//!   SHRIMP's per-transfer overhead (two PIO accesses, DU engine and
//!   DMA setup, and the 30 MB/s EISA source read) makes small sends
//!   expensive, so batching is what keeps a migration's freeze window
//!   short (§4's amortization argument). Batches are stop-and-wait:
//!   the region is reused only after the previous batch's ack.
//! * **Live** (after the cut): each record occupies the fixed-size
//!   slot `(i-1) % S`, window-limited to `S` outstanding records so a
//!   slot is never overwritten before its ack.
//!
//! Three record kinds flow:
//!
//! * `KIND_PUT` / `KIND_DEL` — before the stream's *cut* they are
//!   snapshot entries (loaded at their original store sequence);
//!   after it they are live mutations applied in sequence order.
//! * `KIND_CUT` — closes the snapshot+delta phase, pinning the
//!   receiver's store at the source's exact apply sequence. It is
//!   always the last record of its batch.
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
use shrimp_core::{BufferName, ExportOpts, ImportHandle, Vmmc, VmmcError};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, VAddr};
use shrimp_sim::{Ctx, Gate, RetryPolicy, SimChannel, SimHandle};
use shrimp_srpc::{SrpcHandler, SrpcServer, Val};

use crate::cluster::{Activation, BackupLink, SvcCluster};
use crate::seq_ge;
use crate::store::{Applied, Op, ShardStore, StoreEntry, MAX_KEY, MAX_VAL};

/// Replication record: `[seq u64][kind u32][klen u32][vlen u32][pad]`
/// then the fixed key and value slots.
const REC_HDR: usize = 24;
/// Whole record size — a multiple of the word size, so slot offsets
/// stay aligned for deliberate update.
pub(crate) const REC_BYTES: usize = REC_HDR + MAX_KEY + MAX_VAL;

const KIND_PUT: u32 = 1;
const KIND_DEL: u32 = 2;
/// Closes a snapshot+delta sync: `seq` is the source's exact apply
/// sequence at the cut; key and value are empty.
const KIND_CUT: u32 = 3;

/// Serve workers on the backup answering hedged reads — a small fixed
/// pool, since hedges are the retry tail, not the fast path.
const HEDGE_WORKERS: usize = 2;

/// Poll budget for the stream's flag and ack waits: a short poll burst
/// covering the common in-flight case, then the blocking half of the
/// polling/blocking switch (a landing packet wakes the waiter).
const ACK_POLLS: usize = 16;

/// Export/import rendezvous for one record stream.
#[derive(Debug, Default)]
pub(crate) struct ReplLink {
    /// `(node, name)` of the receiver's record+flag region.
    backup_pub: Mutex<Option<(NodeId, BufferName)>>,
    /// Opened once `backup_pub` is set.
    backup_ready: Gate,
    /// `(node, name)` of the sender's ack word.
    primary_pub: Mutex<Option<(NodeId, BufferName)>>,
    /// Opened once `primary_pub` is set.
    primary_ready: Gate,
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
        /// Backup node.
        bnode: usize,
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

/// Word-align a payload length (the hardware's transfer restriction).
fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

/// Bytes one packed record occupies on the wire.
fn packed_len(klen: usize, vlen: usize) -> usize {
    REC_HDR + pad4(klen) + pad4(vlen)
}

/// Append one variable-length bulk record: the fixed header, then the
/// key and value each padded to a word boundary.
fn encode_packed_into(buf: &mut Vec<u8>, seq: u64, kind: u32, key: &[u8], val: &[u8]) {
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&kind.to_le_bytes());
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(val.len() as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; REC_HDR - 20]);
    buf.extend_from_slice(key);
    buf.resize(buf.len() + (pad4(key.len()) - key.len()), 0);
    buf.extend_from_slice(val);
    buf.resize(buf.len() + (pad4(val.len()) - val.len()), 0);
}

/// One decoded packed record: bytes consumed off the front of the
/// batch, then sequence, kind, key, and value.
type DecodedPacked = (usize, u64, u32, Vec<u8>, Vec<u8>);

/// Parse one packed record from the front of `raw`; returns the bytes
/// consumed plus the fields. `None` on a malformed header.
fn decode_packed(raw: &[u8]) -> Option<DecodedPacked> {
    if raw.len() < REC_HDR {
        return None;
    }
    let seq = u64::from_le_bytes(raw[..8].try_into().ok()?);
    let kind = u32::from_le_bytes(raw[8..12].try_into().ok()?);
    let klen = u32::from_le_bytes(raw[12..16].try_into().ok()?) as usize;
    let vlen = u32::from_le_bytes(raw[16..20].try_into().ok()?) as usize;
    if klen > MAX_KEY || vlen > MAX_VAL || !matches!(kind, KIND_PUT | KIND_DEL | KIND_CUT) {
        return None;
    }
    let used = packed_len(klen, vlen);
    if raw.len() < used {
        return None;
    }
    let key = raw[REC_HDR..REC_HDR + klen].to_vec();
    let val = raw[REC_HDR + pad4(klen)..REC_HDR + pad4(klen) + vlen].to_vec();
    Some((used, seq, kind, key, val))
}

fn encode_record(seq: u64, kind: u32, key: &[u8], val: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; REC_BYTES];
    out[..8].copy_from_slice(&seq.to_le_bytes());
    out[8..12].copy_from_slice(&kind.to_le_bytes());
    out[12..16].copy_from_slice(&(key.len() as u32).to_le_bytes());
    out[16..20].copy_from_slice(&(val.len() as u32).to_le_bytes());
    out[REC_HDR..REC_HDR + key.len()].copy_from_slice(key);
    out[REC_HDR + MAX_KEY..REC_HDR + MAX_KEY + val.len()].copy_from_slice(val);
    out
}

/// Parse one record. `None` on a malformed header — the receiver
/// treats it as channel corruption and unwinds, rather than panicking
/// inside the kernel.
fn decode_record(raw: &[u8]) -> Option<(u64, u32, Vec<u8>, Vec<u8>)> {
    if raw.len() < REC_BYTES {
        return None;
    }
    let seq = u64::from_le_bytes(raw[..8].try_into().ok()?);
    let kind = u32::from_le_bytes(raw[8..12].try_into().ok()?);
    let klen = u32::from_le_bytes(raw[12..16].try_into().ok()?) as usize;
    let vlen = u32::from_le_bytes(raw[16..20].try_into().ok()?) as usize;
    if klen > MAX_KEY || vlen > MAX_VAL || !matches!(kind, KIND_PUT | KIND_DEL | KIND_CUT) {
        return None;
    }
    let key = raw[REC_HDR..REC_HDR + klen].to_vec();
    let val = raw[REC_HDR + MAX_KEY..REC_HDR + MAX_KEY + vlen].to_vec();
    Some((seq, kind, key, val))
}

/// Spawn every process serving one shard under the initial route.
pub(crate) fn spawn_shard(cluster: &Arc<SvcCluster>, shard: usize) {
    let route = cluster.route(shard);
    let h = cluster.system().sim().clone();
    let repl = cluster.initial_repl(shard);
    let store = cluster.authoritative_store(shard);
    spawn_serve_workers(cluster, &h, shard, 0, route.primary, store, repl.clone());
    if let Some(bnode) = route.backup {
        let bstore = cluster
            .backup_store(shard)
            .expect("a chained shard starts with a backup store");
        let promo = cluster
            .backup_promo(shard)
            .expect("a chained shard starts with a promotion channel");
        let link = Arc::new(ReplLink::default());
        let ctl = Arc::new(GenCtl::new(true));
        let gen = cluster.next_gen();
        spawn_receiver(
            cluster,
            &h,
            shard,
            bnode,
            Arc::clone(&link),
            Arc::clone(&bstore),
            promo,
            Arc::clone(&ctl),
            RecvMode::Backup,
            gen,
        );
        if cluster.config().hedge_reads {
            spawn_hedge_workers(cluster, &h, shard, 0, bnode, bstore);
        }
        spawn_transition(
            cluster,
            &h,
            shard,
            Transition::Initial {
                bnode,
                repl: repl.expect("a chained shard has a replication channel"),
                ctl,
                link,
            },
        );
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

/// Apply a mutation as the primary and (when chained) hold the reply
/// until the backup acks.
///
/// Admission goes through the cluster's write gate: a frozen shard
/// (delta drain in progress) blocks the mutation in virtual time, and
/// a deposed generation gets `None` — the mutation is dropped, which
/// is sound because the serve fence abandons the reply of a deposed
/// epoch before it is sent.
fn mutate(
    ctx: &Ctx,
    cluster: &Arc<SvcCluster>,
    shard: usize,
    epoch: u32,
    store: &Mutex<ShardStore>,
    repl: &Option<SimChannel<ReplReq>>,
    op: Op,
) -> Option<Applied> {
    if !cluster.enter_write(ctx, shard, epoch) {
        return None;
    }
    // The sequence assignment and the replication enqueue happen with
    // no virtual-time operation between them, so records reach the
    // replicator in sequence order even with many concurrent workers.
    // The read-through slot publication rides inside the same store
    // lock acquisition: slot images are ordered exactly like store
    // sequences, and they land before the commit point (the backup's
    // ack), so the slot table is never behind an acknowledged write.
    let applied = {
        let mut g = store.lock();
        let a = g.apply_next(&op);
        if cluster.config().read_through {
            cluster.rt_publish(shard, epoch, &op, a.seq);
        }
        a
    };
    if let Some(tx) = repl {
        let done: SimChannel<bool> = SimChannel::new();
        tx.send(
            &ctx.handle(),
            ReplReq {
                seq: applied.seq,
                op,
                done: done.clone(),
            },
        );
        // Commit point: the backup applied the record (or replication
        // degraded and the route's backup was demoted first).
        done.recv(ctx);
    }
    cluster.exit_write(shard);
    Some(applied)
}

/// Spawn the pre-allocated RPC workers for `(shard, epoch)` on `node`.
/// Each worker is one concurrent client binding; it dies when the
/// node's daemon does (process death) or its epoch is deposed.
fn spawn_serve_workers(
    cluster: &Arc<SvcCluster>,
    h: &SimHandle,
    shard: usize,
    epoch: u32,
    node: usize,
    store: Arc<Mutex<ShardStore>>,
    repl: Option<SimChannel<ReplReq>>,
) {
    let service = SvcCluster::service(shard, epoch);
    if cluster.config().read_through {
        crate::read_through::spawn_rt_exporter(cluster, h, shard, epoch, node, Arc::clone(&store));
    }
    for w in 0..cluster.config().conns_per_shard {
        let cluster = Arc::clone(cluster);
        let store = Arc::clone(&store);
        let repl = repl.clone();
        let service = service.clone();
        let name = format!("svc-s{shard}-e{epoch}-w{w}");
        h.spawn(name.clone(), move |ctx| {
            let sys = Arc::clone(cluster.system());
            let birth = sys.daemon(node).restarts();
            let vmmc = sys.endpoint(node, name);
            let mut srv = SrpcServer::new(vmmc, cluster.iface());

            let cl = Arc::clone(&cluster);
            let st = Arc::clone(&store);
            let rp = repl.clone();
            srv.register(
                "put",
                Box::new(move |ctx, ins, out| {
                    let op = Op::Put {
                        key: unpad(&ins[0], &ins[1]),
                        val: unpad(&ins[2], &ins[3]),
                    };
                    let a = mutate(ctx, &cl, shard, epoch, &st, &rp, op);
                    let _ = out.set(ctx, "seq", &Val::U32(a.map_or(0, |a| a.seq as u32)));
                    let _ = out.set(ctx, "existed", &Val::Bool(a.is_some_and(|a| a.existed)));
                }),
            );
            srv.register("get", get_handler(Arc::clone(&store)));
            let cl = Arc::clone(&cluster);
            let st = Arc::clone(&store);
            let rp = repl.clone();
            srv.register(
                "del",
                Box::new(move |ctx, ins, out| {
                    let op = Op::Del {
                        key: unpad(&ins[0], &ins[1]),
                    };
                    let a = mutate(ctx, &cl, shard, epoch, &st, &rp, op);
                    let _ = out.set(ctx, "seq", &Val::U32(a.map_or(0, |a| a.seq as u32)));
                    let _ = out.set(ctx, "existed", &Val::Bool(a.is_some_and(|a| a.existed)));
                }),
            );

            loop {
                let mut conn = match srv.accept(ctx, cluster.directory(), &service) {
                    Ok(c) => c,
                    // Establishment fails only under daemon outage —
                    // the connecting client times out and re-routes.
                    Err(_) => return,
                };
                let fence = || {
                    let d = sys.daemon(node);
                    cluster.is_shutdown()
                        || d.is_down()
                        || d.restarts() != birth
                        || cluster.route(shard).epoch != epoch
                };
                let r = srv.serve_fenced(ctx, &mut conn, fence);
                if fence() || r.is_err() {
                    return;
                }
                // Graceful close: recycle the worker for another
                // binding under the same epoch.
            }
        });
    }
}

/// Spawn the backup-side read-only workers answering hedged reads for
/// `(shard, epoch)`. Serving the replica is safe because the commit
/// point of every acked write is the backup's ack — the replica's
/// entry for any acked key is at least as new. The fence additionally
/// requires the node to still be the route's backup, so a demoted
/// replica can never answer.
fn spawn_hedge_workers(
    cluster: &Arc<SvcCluster>,
    h: &SimHandle,
    shard: usize,
    epoch: u32,
    node: usize,
    store: Arc<Mutex<ShardStore>>,
) {
    let service = SvcCluster::hedge_service(shard, epoch);
    for w in 0..HEDGE_WORKERS {
        let cluster = Arc::clone(cluster);
        let store = Arc::clone(&store);
        let service = service.clone();
        let name = format!("svc-hedge-s{shard}-e{epoch}-w{w}");
        h.spawn(name.clone(), move |ctx| {
            let sys = Arc::clone(cluster.system());
            let birth = sys.daemon(node).restarts();
            let vmmc = sys.endpoint(node, name);
            let mut srv = SrpcServer::new(vmmc, cluster.iface());

            srv.register("get", get_handler(Arc::clone(&store)));
            // The hedge service is read-only; the client never routes
            // mutations here. Mutating methods answer with sequence 0
            // so a misdirected call is visibly a non-write.
            for m in ["put", "del"] {
                srv.register(
                    m,
                    Box::new(move |ctx, _ins, out| {
                        let _ = out.set(ctx, "seq", &Val::U32(0));
                        let _ = out.set(ctx, "existed", &Val::Bool(false));
                    }),
                );
            }

            loop {
                let mut conn = match srv.accept(ctx, cluster.directory(), &service) {
                    Ok(c) => c,
                    Err(_) => return,
                };
                let fence = || {
                    let d = sys.daemon(node);
                    let r = cluster.route(shard);
                    cluster.is_shutdown()
                        || d.is_down()
                        || d.restarts() != birth
                        || r.epoch != epoch
                        || r.backup != Some(node)
                };
                let r = srv.serve_fenced(ctx, &mut conn, fence);
                if fence() || r.is_err() {
                    return;
                }
            }
        });
    }
}

/// Bounded wait on the sender's ack word for `seq_ge(ack, need)`,
/// re-checking shutdown, the receiver's liveness, and this shard's
/// epoch every `watch_interval`. `false` means the stream must
/// degrade or abort.
#[allow(clippy::too_many_arguments)]
fn wait_ack(
    ctx: &Ctx,
    vmmc: &Vmmc,
    ack_va: VAddr,
    need: u32,
    cluster: &Arc<SvcCluster>,
    shard: usize,
    expect_epoch: u32,
    bnode: usize,
    birth: u64,
) -> bool {
    let interval = cluster.config().watch_interval;
    loop {
        match vmmc.wait_u32_deadline(ctx, ack_va, ACK_POLLS, ctx.now() + interval, |v| {
            seq_ge(v, need)
        }) {
            Ok(_) => return true,
            Err(VmmcError::Timeout { .. }) => {
                if cluster.is_shutdown() {
                    return false;
                }
                let d = cluster.system().daemon(bnode);
                if d.is_down() || d.restarts() != birth {
                    return false;
                }
                // Our generation was deposed (promotion, migration, or
                // a newer re-arm) — the receiver stopped acking for
                // us; stop streaming.
                if cluster.route(shard).epoch != expect_epoch {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

/// One bulk record queued for a packed batch.
type PackedRec<'a> = (u64, u32, &'a [u8], &'a [u8]);

/// Sender half of one record stream: staging buffers, the slot window,
/// and the monotonically growing stream index.
struct RecordSender<'a> {
    vmmc: &'a Vmmc,
    dst: ImportHandle,
    rec_stage: VAddr,
    batch_stage: VAddr,
    flag_stage: VAddr,
    ack_va: VAddr,
    slots: u64,
    /// Next stream index (starts at 1).
    idx: u64,
    shard: usize,
    bnode: usize,
    birth: u64,
}

impl RecordSender<'_> {
    /// Deposit one live record: slot flow control, record,
    /// flag-after-data, and the bounded ack wait that is the write's
    /// commit point.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        ctx: &Ctx,
        cluster: &Arc<SvcCluster>,
        expect_epoch: u32,
        seq: u64,
        kind: u32,
        key: &[u8],
        val: &[u8],
    ) -> bool {
        let idx = self.idx;
        if idx > self.slots
            && !wait_ack(
                ctx,
                self.vmmc,
                self.ack_va,
                (idx - self.slots) as u32,
                cluster,
                self.shard,
                expect_epoch,
                self.bnode,
                self.birth,
            )
        {
            return false;
        }
        let rec = encode_record(seq, kind, key, val);
        if self.vmmc.proc_().write(ctx, self.rec_stage, &rec).is_err() {
            return false;
        }
        let slot = ((idx - 1) % self.slots) as usize;
        if self
            .vmmc
            .send(ctx, self.rec_stage, &self.dst, slot * REC_BYTES, REC_BYTES)
            .is_err()
        {
            return false;
        }
        if !self.raise_flag(ctx, idx) {
            return false;
        }
        self.idx += 1;
        wait_ack(
            ctx,
            self.vmmc,
            self.ack_va,
            idx as u32,
            cluster,
            self.shard,
            expect_epoch,
            self.bnode,
            self.birth,
        )
    }

    /// Advance the stream's single flag word to `tail` — in-order
    /// delivery lands it behind every record it covers.
    fn raise_flag(&mut self, ctx: &Ctx, tail: u64) -> bool {
        if self
            .vmmc
            .proc_()
            .write_u32(ctx, self.flag_stage, tail as u32)
            .is_err()
        {
            return false;
        }
        self.vmmc
            .send(
                ctx,
                self.flag_stage,
                &self.dst,
                self.slots as usize * REC_BYTES,
                4,
            )
            .is_ok()
    }

    /// Stream bulk records as packed batches: as many as fit in the
    /// slot region per deliberate update, one flag raise per batch.
    /// Batches are stop-and-wait — the region is reused only once the
    /// previous batch's ack has drained — and commit transitively
    /// through [`RecordSender::commit`] after the cut.
    fn send_packed(
        &mut self,
        ctx: &Ctx,
        cluster: &Arc<SvcCluster>,
        expect_epoch: u32,
        recs: &[PackedRec<'_>],
    ) -> bool {
        let cap = self.slots as usize * REC_BYTES;
        let mut i = 0;
        while i < recs.len() {
            let mut buf = Vec::with_capacity(cap);
            let mut n = 0u64;
            while i < recs.len() {
                let (seq, kind, key, val) = recs[i];
                if buf.len() + packed_len(key.len(), val.len()) > cap {
                    break;
                }
                encode_packed_into(&mut buf, seq, kind, key, val);
                i += 1;
                n += 1;
            }
            debug_assert!(n > 0, "one record always fits the slot region");
            if self.idx > 1 && !self.commit(ctx, cluster, expect_epoch) {
                return false;
            }
            if self
                .vmmc
                .proc_()
                .write(ctx, self.batch_stage, &buf)
                .is_err()
            {
                return false;
            }
            if self
                .vmmc
                .send(ctx, self.batch_stage, &self.dst, 0, buf.len())
                .is_err()
            {
                return false;
            }
            let tail = self.idx + n - 1;
            if !self.raise_flag(ctx, tail) {
                return false;
            }
            self.idx = tail + 1;
        }
        true
    }

    /// Wait until everything sent so far has been applied and acked —
    /// the bulk phases' commit point (for the sync, the cut's ack).
    fn commit(&mut self, ctx: &Ctx, cluster: &Arc<SvcCluster>, expect_epoch: u32) -> bool {
        self.idx <= 1
            || wait_ack(
                ctx,
                self.vmmc,
                self.ack_va,
                (self.idx - 1) as u32,
                cluster,
                self.shard,
                expect_epoch,
                self.bnode,
                self.birth,
            )
    }

    /// Stream one live mutation (commit = the client's ack gate).
    fn send_op(
        &mut self,
        ctx: &Ctx,
        cluster: &Arc<SvcCluster>,
        expect_epoch: u32,
        seq: u64,
        op: &Op,
    ) -> bool {
        let (kind, key, val): (u32, &[u8], &[u8]) = match op {
            Op::Put { key, val } => (KIND_PUT, key, val),
            Op::Del { key } => (KIND_DEL, key, &[]),
        };
        self.send(ctx, cluster, expect_epoch, seq, kind, key, val)
    }
}

/// Bulk records for one snapshot/delta entry list.
fn packed_recs(entries: &[StoreEntry]) -> Vec<PackedRec<'_>> {
    entries
        .iter()
        .map(|(key, seq, val)| match val {
            Some(v) => (*seq, KIND_PUT, key.as_slice(), v.as_slice()),
            None => (*seq, KIND_DEL, key.as_slice(), &[][..]),
        })
        .collect()
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

/// The receiver half of one record stream: exports the slot region,
/// applies records by phase (snapshot load → cut → live), and acks by
/// stream index.
#[allow(clippy::too_many_arguments)]
fn spawn_receiver(
    cluster: &Arc<SvcCluster>,
    h: &SimHandle,
    shard: usize,
    bnode: usize,
    link: Arc<ReplLink>,
    store: Arc<Mutex<ShardStore>>,
    promo: SimChannel<u32>,
    ctl: Arc<GenCtl>,
    mode: RecvMode,
    gen: usize,
) {
    let cluster = Arc::clone(cluster);
    let name = format!("svc-recv-s{shard}-g{gen}");
    h.spawn(name.clone(), move |ctx| {
        let vmmc = cluster.system().endpoint(bnode, name);
        let cfg = cluster.config().clone();
        let boot = RetryPolicy::bootstrap();
        let slots = cfg.repl_slots as usize;
        let total = slots * REC_BYTES + 4;
        let base = vmmc.proc_().alloc(total, CacheMode::WriteBack);

        let ack_dst: Option<ImportHandle> = (|| {
            let bufname = vmmc
                .export_retry(ctx, base, total, ExportOpts::default(), boot)
                .ok()?;
            *link.backup_pub.lock() = Some((vmmc.node_id(), bufname));
            link.backup_ready.open(&ctx.handle());
            let deadline = ctx.now() + boot.total_budget();
            if !link.primary_ready.wait_deadline(ctx, deadline) {
                return None;
            }
            let (pn, pname) = (*link.primary_pub.lock())?;
            vmmc.import_retry(ctx, pn, pname, boot).ok()
        })();
        let Some(ack_dst) = ack_dst else {
            // A promotion may have raced the failed rendezvous. An
            // empty replica is still zero-lost: no write was ever
            // acked through this link, and without the link no write
            // was ever acked as replicated at all.
            if matches!(mode, RecvMode::Backup) {
                if let Some(epoch) = promo.try_recv() {
                    spawn_serve_workers(
                        &cluster,
                        &ctx.handle(),
                        shard,
                        epoch,
                        bnode,
                        Arc::clone(&store),
                        None,
                    );
                }
            }
            return;
        };

        let flag_stage = vmmc.proc_().alloc(4, CacheMode::WriteBack);
        // Birth after setup: a crash ridden out by the bootstrap
        // retries counts as a (re)start, not a death.
        let birth = cluster.system().daemon(bnode).restarts();
        let flag_va = base.add(slots * REC_BYTES);
        let mut next: u64 = 1;
        // Past the cut record: loads become live applies.
        let mut synced = false;
        loop {
            if cluster.is_shutdown() || ctl.is_abort() {
                return;
            }
            let d = cluster.system().daemon(bnode);
            if d.is_down() || d.restarts() != birth {
                return;
            }
            if matches!(mode, RecvMode::Backup) {
                if let Some(epoch) = promo.try_recv() {
                    // Promoted: the replica becomes the shard under
                    // the bumped epoch, unreplicated until the
                    // watchdog re-arms. Records past `next` were
                    // never acked to any client.
                    spawn_serve_workers(
                        &cluster,
                        &ctx.handle(),
                        shard,
                        epoch,
                        bnode,
                        Arc::clone(&store),
                        None,
                    );
                    return;
                }
                if ctl.is_active() && cluster.route(shard).backup != Some(bnode) {
                    // Deposed (migrated away or demoted) — but a
                    // racing promotion signal still wins.
                    if let Some(epoch) = promo.try_recv() {
                        spawn_serve_workers(
                            &cluster,
                            &ctx.handle(),
                            shard,
                            epoch,
                            bnode,
                            Arc::clone(&store),
                            None,
                        );
                    }
                    return;
                }
            }
            if synced && !ctl.is_active() {
                // Cut acked, activation CAS pending: no records can
                // arrive until the orchestrator unfreezes writes.
                ctx.advance(cfg.watch_interval);
                continue;
            }
            let want = next as u32;
            let tail = match vmmc.wait_u32_deadline(
                ctx,
                flag_va,
                ACK_POLLS,
                ctx.now() + cfg.watch_interval,
                |v| seq_ge(v, want),
            ) {
                Ok(v) => v,
                // Timeout is just the bounded-wait slice expiring so
                // the promotion/shutdown/liveness checks re-run.
                Err(VmmcError::Timeout { .. }) => continue,
                Err(_) => return,
            };
            // Every record the flag admits has landed (in-order
            // delivery); drain them all, then ack the tail once.
            let n = tail.wrapping_sub(want).wrapping_add(1) as u64;
            let mut was_cut = false;
            if !synced {
                // Bulk batch: packed records from the region start.
                if n > (slots * REC_BYTES / REC_HDR) as u64 {
                    return;
                }
                let Ok(raw) = vmmc.proc_().read(ctx, base, slots * REC_BYTES) else {
                    return;
                };
                let mut off = 0usize;
                for k in 0..n {
                    let Some((used, seq, kind, key, val)) = decode_packed(&raw[off..]) else {
                        return;
                    };
                    off += used;
                    if kind == KIND_CUT {
                        // The cut always closes its batch.
                        if k + 1 != n {
                            return;
                        }
                        store.lock().set_last_seq(seq);
                        synced = true;
                        was_cut = true;
                    } else {
                        let val = (kind == KIND_PUT).then_some(val);
                        store.lock().load_entry(seq, key, val);
                    }
                }
            } else {
                // Live records in their fixed slots, at most one
                // window's worth outstanding.
                if n > slots as u64 {
                    return;
                }
                for k in 0..n {
                    let idx = next + k;
                    let slot = ((idx - 1) % slots as u64) as usize;
                    let Ok(raw) = vmmc
                        .proc_()
                        .read(ctx, base.add(slot * REC_BYTES), REC_BYTES)
                    else {
                        return;
                    };
                    let Some((seq, kind, key, val)) = decode_record(&raw) else {
                        return;
                    };
                    if kind == KIND_CUT {
                        store.lock().set_last_seq(seq);
                    } else {
                        let op = if kind == KIND_DEL {
                            Op::Del { key }
                        } else {
                            Op::Put { key, val }
                        };
                        store.lock().apply_at(seq, &op);
                    }
                }
            }
            if vmmc.proc_().write_u32(ctx, flag_stage, tail).is_err() {
                return;
            }
            if vmmc.send(ctx, flag_stage, &ack_dst, 0, 4).is_err() {
                return;
            }
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
fn drain_degraded(ctx: &Ctx, rx: &SimChannel<ReplReq>) {
    loop {
        let req = rx.recv(ctx);
        req.done.send(&ctx.handle(), false);
    }
}

/// Spawn the sync/transition orchestrator for one shard. It owns the
/// sender half of the record stream: establishes the channel, runs the
/// snapshot + delta + cut phases (for re-arm and migration), performs
/// the activation CAS, and — for replication transitions — stays on as
/// the live replicator until the stream degrades or the generation is
/// deposed.
pub(crate) fn spawn_transition(
    cluster: &Arc<SvcCluster>,
    h: &SimHandle,
    shard: usize,
    kind: Transition,
) {
    let cluster = Arc::clone(cluster);
    let gen = cluster.next_gen();
    let name = format!("svc-sync-s{shard}-g{gen}");
    h.spawn(name.clone(), move |ctx| {
        let cfg = cluster.config().clone();
        // Per-kind setup; re-arm and migration spawn their receiver
        // here, the initial transition got one at construction.
        let (expect_epoch, source, bnode, link, ctl, repl, dst_store, promo, migrate_to, initial);
        match kind {
            Transition::Initial {
                bnode: b,
                repl: r,
                ctl: c,
                link: l,
            } => {
                expect_epoch = 0;
                source = cluster.route(shard).primary;
                bnode = b;
                link = l;
                ctl = c;
                repl = Some(r);
                dst_store = None;
                promo = None;
                migrate_to = None;
                initial = true;
            }
            Transition::Rearm {
                expect_epoch: e,
                from,
                to,
            }
            | Transition::Migrate {
                expect_epoch: e,
                from,
                to,
            } => {
                let migrating = matches!(kind, Transition::Migrate { .. });
                expect_epoch = e;
                source = from;
                bnode = to;
                link = Arc::new(ReplLink::default());
                ctl = Arc::new(GenCtl::new(false));
                let store = Arc::new(Mutex::new(ShardStore::new()));
                let p: SimChannel<u32> = SimChannel::new();
                let rgen = cluster.next_gen();
                spawn_receiver(
                    &cluster,
                    &ctx.handle(),
                    shard,
                    to,
                    Arc::clone(&link),
                    Arc::clone(&store),
                    p.clone(),
                    Arc::clone(&ctl),
                    if migrating {
                        RecvMode::Sink
                    } else {
                        RecvMode::Backup
                    },
                    rgen,
                );
                repl = (!migrating).then(SimChannel::new);
                dst_store = Some(store);
                promo = Some(p);
                migrate_to = migrating.then_some(to);
                initial = false;
            }
        }

        let vmmc = cluster.system().endpoint(source, name);
        let boot = RetryPolicy::bootstrap();
        let ack_va = vmmc.proc_().alloc(4, CacheMode::WriteBack);
        let peer: Option<ImportHandle> = (|| {
            let bufname = vmmc
                .export_retry(ctx, ack_va, 4, ExportOpts::default(), boot)
                .ok()?;
            *link.primary_pub.lock() = Some((vmmc.node_id(), bufname));
            link.primary_ready.open(&ctx.handle());
            let deadline = ctx.now() + boot.total_budget();
            if !link.backup_ready.wait_deadline(ctx, deadline) {
                return None;
            }
            let (bn, bname) = (*link.backup_pub.lock())?;
            vmmc.import_retry(ctx, bn, bname, boot).ok()
        })();
        let Some(dst) = peer else {
            if initial {
                // Epoch-0 replication never came up: degrade exactly
                // like a mid-stream failure.
                cluster.demote_backup(ctx.now(), shard);
                drain_degraded(ctx, repl.as_ref().expect("initial is chained"));
            } else {
                ctl.set_abort();
                cluster.abort_transition(ctx.now(), shard);
            }
            return;
        };

        let birth = cluster.system().daemon(bnode).restarts();
        let rec_stage = vmmc.proc_().alloc(REC_BYTES, CacheMode::WriteBack);
        let batch_stage = vmmc
            .proc_()
            .alloc(cfg.repl_slots as usize * REC_BYTES, CacheMode::WriteBack);
        let flag_stage = vmmc.proc_().alloc(4, CacheMode::WriteBack);
        let mut tx = RecordSender {
            vmmc: &vmmc,
            dst,
            rec_stage,
            batch_stage,
            flag_stage,
            ack_va,
            slots: cfg.repl_slots as u64,
            idx: 1,
            shard,
            bnode,
            birth,
        };

        let mut live_epoch = expect_epoch;
        if initial {
            // Both stores are empty; the cut pins the receiver at
            // sequence 0 and everything after is live.
            if !tx.send_packed(ctx, &cluster, expect_epoch, &[(0, KIND_CUT, &[], &[])])
                || !tx.commit(ctx, &cluster, expect_epoch)
            {
                cluster.demote_backup(ctx.now(), shard);
                drain_degraded(ctx, repl.as_ref().expect("initial is chained"));
                return;
            }
        } else {
            let src_store = cluster.authoritative_store(shard);
            // Phase 1 — concurrent snapshot: one lock acquisition
            // fixes the cut; writes keep flowing while it streams.
            let (snap, cut) = {
                let g = src_store.lock();
                (g.entries(), g.last_seq())
            };
            let mut ok = tx.send_packed(ctx, &cluster, expect_epoch, &packed_recs(&snap));
            // Phase 2 — freeze writes and drain the in-flight ones,
            // then stream the delta the snapshot missed, closed by the
            // cut in the same batch.
            let mut froze = false;
            if ok {
                froze = true;
                ok = cluster.freeze_writes(ctx, shard);
            }
            if ok {
                let (delta, fin) = {
                    let g = src_store.lock();
                    (g.entries_since(cut), g.last_seq())
                };
                let mut recs = packed_recs(&delta);
                recs.push((fin, KIND_CUT, &[], &[]));
                // Phase 3 — the cut's ack commits the whole stream.
                ok = tx.send_packed(ctx, &cluster, expect_epoch, &recs)
                    && tx.commit(ctx, &cluster, expect_epoch);
            }
            if !ok {
                if froze {
                    cluster.unfreeze_writes(shard);
                }
                ctl.set_abort();
                cluster.abort_transition(ctx.now(), shard);
                return;
            }
            // Phase 4 — activation CAS under the routing lock; a
            // concurrent promotion wins and aborts the sync.
            let activation = match migrate_to {
                Some(to) => Activation::Migrate {
                    to,
                    store: Arc::clone(dst_store.as_ref().expect("sync has a target store")),
                },
                None => Activation::Rearm {
                    link: BackupLink {
                        node: bnode,
                        store: Arc::clone(dst_store.as_ref().expect("sync has a target store")),
                        promo: promo.clone().expect("sync has a promotion channel"),
                    },
                },
            };
            match cluster.activate(ctx, shard, expect_epoch, activation) {
                None => {
                    ctl.set_abort();
                    cluster.unfreeze_writes(shard);
                    return;
                }
                Some(epoch) => {
                    ctl.set_active();
                    cluster.unfreeze_writes(shard);
                    match migrate_to {
                        Some(to) => {
                            spawn_serve_workers(
                                &cluster,
                                &ctx.handle(),
                                shard,
                                epoch,
                                to,
                                Arc::clone(dst_store.as_ref().expect("sync has a target store")),
                                None,
                            );
                            return;
                        }
                        None => {
                            let chan = repl.clone().expect("re-arm owns a replication channel");
                            spawn_serve_workers(
                                &cluster,
                                &ctx.handle(),
                                shard,
                                epoch,
                                source,
                                Arc::clone(&src_store),
                                Some(chan),
                            );
                            if cfg.hedge_reads {
                                spawn_hedge_workers(
                                    &cluster,
                                    &ctx.handle(),
                                    shard,
                                    epoch,
                                    bnode,
                                    Arc::clone(
                                        dst_store.as_ref().expect("sync has a target store"),
                                    ),
                                );
                            }
                            live_epoch = epoch;
                        }
                    }
                }
            }
        }

        // Live replication: hold each client reply until the record's
        // ack, demote-before-ack on failure.
        let rx = repl.expect("live replication owns a channel");
        loop {
            let req = rx.recv(ctx);
            if tx.send_op(ctx, &cluster, live_epoch, req.seq, &req.op) {
                req.done.send(&ctx.handle(), true);
            } else {
                // Degrade: clear the backup from the route *before*
                // acknowledging the unreplicated write, so no hedge or
                // promotion can trust the stale replica afterwards.
                cluster.demote_backup(ctx.now(), shard);
                req.done.send(&ctx.handle(), false);
                break;
            }
        }
        drain_degraded(ctx, &rx);
    });
}

/// The cluster watchdog: polls daemon liveness every `watch_interval`
/// and drives the self-healing transitions — promotion first, then
/// revival, then claimed migrations, then re-replication.
pub(crate) fn spawn_watchdog(cluster: &Arc<SvcCluster>) {
    let h = cluster.system().sim().clone();
    let cluster = Arc::clone(cluster);
    h.spawn("svc-watchdog", move |ctx| loop {
        if cluster.is_shutdown() {
            return;
        }
        ctx.advance(cluster.config().watch_interval);
        if cluster.is_shutdown() {
            return;
        }
        for shard in 0..cluster.config().shards {
            cluster.promote_if_down(ctx, shard);
            if let Some((epoch, node, store)) = cluster.revive_if_restarted(ctx, shard) {
                spawn_serve_workers(&cluster, &ctx.handle(), shard, epoch, node, store, None);
            }
        }
        for (shard, t) in cluster.claim_migrations(ctx) {
            spawn_transition(&cluster, &ctx.handle(), shard, t);
        }
        for shard in 0..cluster.config().shards {
            if let Some(t) = cluster.claim_rearm(ctx, shard) {
                spawn_transition(&cluster, &ctx.handle(), shard, t);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let op_key = b"alpha".to_vec();
        let op_val = b"some value".to_vec();
        let (seq, kind, key, val) =
            decode_record(&encode_record(77, KIND_PUT, &op_key, &op_val)).expect("well-formed");
        assert_eq!((seq, kind), (77, KIND_PUT));
        assert_eq!(key, op_key);
        assert_eq!(val, op_val);

        let (seq, kind, key, val) =
            decode_record(&encode_record(78, KIND_DEL, &op_key, &[])).expect("well-formed");
        assert_eq!((seq, kind), (78, KIND_DEL));
        assert_eq!(key, op_key);
        assert!(val.is_empty());

        let (seq, kind, key, val) =
            decode_record(&encode_record(1234, KIND_CUT, &[], &[])).expect("well-formed");
        assert_eq!((seq, kind), (1234, KIND_CUT));
        assert!(key.is_empty() && val.is_empty());

        assert_eq!(REC_BYTES % 4, 0, "slot offsets must stay word-aligned");
    }

    #[test]
    fn packed_roundtrip() {
        let mut buf = Vec::new();
        encode_packed_into(&mut buf, 9, KIND_PUT, b"alpha", b"some value");
        encode_packed_into(&mut buf, 10, KIND_DEL, b"beta!!", b"");
        encode_packed_into(&mut buf, 11, KIND_CUT, b"", b"");
        assert_eq!(buf.len() % 4, 0, "packed batches stay word-aligned");

        let (used, seq, kind, key, val) = decode_packed(&buf).expect("well-formed");
        assert_eq!((seq, kind), (9, KIND_PUT));
        assert_eq!(
            (key.as_slice(), val.as_slice()),
            (&b"alpha"[..], &b"some value"[..])
        );
        assert_eq!(used, packed_len(5, 10));

        let (used2, seq, kind, key, val) = decode_packed(&buf[used..]).expect("well-formed");
        assert_eq!((seq, kind), (10, KIND_DEL));
        assert_eq!(key, b"beta!!");
        assert!(val.is_empty());

        let (used3, seq, kind, key, val) = decode_packed(&buf[used + used2..]).expect("cut");
        assert_eq!((seq, kind, used3), (11, KIND_CUT, REC_HDR));
        assert!(key.is_empty() && val.is_empty());
        assert_eq!(used + used2 + used3, buf.len());

        assert!(decode_packed(&buf[..10]).is_none(), "truncated header");
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert!(decode_packed(&bad).is_none(), "unknown kind");
    }

    #[test]
    fn decode_rejects_malformed_records() {
        assert!(decode_record(&[0u8; 8]).is_none(), "truncated");
        let mut bad_kind = encode_record(1, KIND_PUT, b"k", b"v");
        bad_kind[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(decode_record(&bad_kind).is_none(), "unknown kind");
        let mut bad_len = encode_record(1, KIND_PUT, b"k", b"v");
        bad_len[12..16].copy_from_slice(&(MAX_KEY as u32 + 1).to_le_bytes());
        assert!(decode_record(&bad_len).is_none(), "oversized key length");
    }
}
