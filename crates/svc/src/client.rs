//! The client library: consistent-hash routing, per-shard persistent
//! bindings, deadline-budgeted retries, and hedged reads.
//!
//! A client holds at most one RPC binding per shard, established
//! lazily against the shard's *current* routing epoch and reused for
//! every subsequent call — the persistent-channel fast path. Failure
//! handling is entirely timeout-driven, bounded two ways:
//!
//! * **Attempts** — at most `MAX_ATTEMPTS` tries per operation
//!   ([`SvcError::Exhausted`] past that).
//! * **Time** — a per-request deadline budget of `OP_BUDGET`: every
//!   bind and reply wait is clamped to the budget's remainder and the
//!   operation fails with [`SvcError::DeadlineExceeded`] once it
//!   expires, so one request can never stall a caller across an entire
//!   failover storm.
//!
//! A failed attempt poisons its binding (the server may still answer
//! the abandoned sequence later), so the client drops it, sleeps a
//! *jittered* exponential backoff — doubling from `RETRY_BASE` up to
//! `RETRY_CAP`, scaled by a deterministic per-client factor in
//! `[0.75, 1.25)` so synchronized clients fan out instead of thundering
//! back in lockstep — and re-binds against whatever route the cluster
//! then advertises.
//!
//! With [`hedge_reads`](crate::SvcConfig::hedge_reads) on, a read that
//! outlives [`hedge_after`](crate::SvcConfig::hedge_after) *hedges*:
//! it is re-issued against the backup replica's read-only service
//! instead of waiting out the primary. Replica reads are safe because
//! the commit point of every acked write is the backup's ack — the
//! replica is never behind any acknowledged write, and a demoted
//! replica is fenced server-side before the demotion is acked.

use std::sync::Arc;

use shrimp_core::{ImportHandle, Vmmc};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, VAddr};
use shrimp_sim::{Ctx, SimDur, SimTime, SplitMix64};
use shrimp_srpc::{SrpcClient, SrpcError, Val};

use crate::cluster::SvcCluster;
use crate::read_through::slot_of;
use crate::store::{Applied, Op, MAX_KEY, MAX_VAL};
use crate::wire::slot::{self, SLOT_BYTES};
use crate::{fnv1a, SvcError};

/// Bound on one binder exchange: ten watchdog polls.
const BIND_TIMEOUT: SimDur = SimDur::from_ps(1_000_000_000); // 1 ms
/// Bound on one RPC's reply wait: about eleven warm replicated `put`s
/// (36 µs each on the 2×2 mesh).
const OP_TIMEOUT: SimDur = SimDur::from_ps(400_000_000); // 400 us
/// First retry backoff; doubles per attempt up to [`RETRY_CAP`]. Even
/// its shortest jittered sleep (× 0.75) outlasts one
/// [`WATCH_INTERVAL`](crate::WATCH_INTERVAL), so a retry meets the
/// route the watchdog's next poll advertises.
const RETRY_BASE: SimDur = SimDur::from_ps(150_000_000); // 150 us
/// Backoff ceiling: ten times the base.
const RETRY_CAP: SimDur = SimDur::from_ps(1_500_000_000); // 1.5 ms
/// Per-request deadline budget: the client gives up with
/// [`SvcError::DeadlineExceeded`] once an operation has been in flight
/// this long, regardless of attempts left. Capped backoffs alone spend
/// it in about ten attempts.
const OP_BUDGET: SimDur = SimDur::from_ps(12_000_000_000); // 12 ms
/// Attempt budget per operation (secondary bound under the deadline
/// budget).
const MAX_ATTEMPTS: u32 = 16;

/// Per-shard bindings, each valid for the routing epoch it was made
/// under.
type Cache<T> = Vec<Option<(u32, T)>>;

/// Client-side resilience counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Reads hedged to the backup replica after the primary stalled.
    pub hedges: u64,
    /// Hedged reads the backup answered (the request succeeded without
    /// waiting out the primary's recovery).
    pub hedge_wins: u64,
    /// Reads answered by a one-sided fetch of the primary's slot table
    /// (no RPC round trip).
    pub fetch_hits: u64,
    /// Read-through attempts whose fetched slot did not answer (empty
    /// slot, hash collision, or a deposed epoch) — the read fell back
    /// to the RPC path.
    pub fetch_misses: u64,
    /// Read-through attempts refused by the transport (fetch NAK,
    /// daemon outage, stale import) — the read fell back to the RPC
    /// path and the cached import was dropped.
    pub fetch_errors: u64,
}

/// A KV client bound to one node. Not `Send`-shared: each client
/// process owns its own.
pub struct SvcClient {
    cluster: Arc<SvcCluster>,
    node: usize,
    tag: String,
    /// RPC bindings to shard primaries.
    conns: Cache<SrpcClient>,
    /// RPC bindings to backup replicas' read-only hedge services.
    hedge_conns: Cache<SrpcClient>,
    /// Imports of primaries' read-through slot tables.
    rt_conns: Cache<ImportHandle>,
    /// Lazily created fetch endpoint and its slot-sized landing buffer
    /// (read-through only).
    rt: Option<(Vmmc, VAddr)>,
    endpoints: u64,
    rng: SplitMix64,
    stats: ClientStats,
}

impl std::fmt::Debug for SvcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SvcClient")
            .field("node", &self.node)
            .field("tag", &self.tag)
            .finish_non_exhaustive()
    }
}

fn as_u32(v: &Val) -> u32 {
    match v {
        Val::U32(x) => *x,
        _ => 0,
    }
}

fn as_bool(v: &Val) -> bool {
    matches!(v, Val::Bool(true))
}

/// A mutating procedure's reply.
fn applied(outs: Vec<Val>) -> Applied {
    Applied {
        seq: as_u32(&outs[0]) as u64,
        existed: as_bool(&outs[1]),
    }
}

/// Sort a transport failure: `Ok` to retry past it, `Err` to fail with.
fn retryable(e: SrpcError) -> Result<SvcError, SvcError> {
    let e = SvcError::from(e);
    if e.is_retryable() {
        Ok(e)
    } else {
        Err(e)
    }
}

impl SvcClient {
    /// A client living on node `node`; `tag` disambiguates endpoint
    /// names when a node hosts several clients.
    pub fn new(cluster: &Arc<SvcCluster>, node: usize, tag: impl Into<String>) -> SvcClient {
        let tag = tag.into();
        let shards = cluster.config().shards;
        SvcClient {
            cluster: Arc::clone(cluster),
            node,
            rng: SplitMix64::new(fnv1a(tag.as_bytes()) ^ node as u64),
            tag,
            conns: (0..shards).map(|_| None).collect(),
            hedge_conns: (0..shards).map(|_| None).collect(),
            rt_conns: (0..shards).map(|_| None).collect(),
            rt: None,
            endpoints: 0,
            stats: ClientStats::default(),
        }
    }

    /// The shard a key routes to.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.cluster.ring().shard_of(key)
    }

    /// Resilience counters accumulated so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Insert or overwrite `key`. On a replicated shard the returned
    /// ack means the write reached the backup.
    pub fn put(&mut self, ctx: &Ctx, key: &[u8], val: &[u8]) -> Result<Applied, SvcError> {
        check_len(key, MAX_KEY)?;
        check_len(val, MAX_VAL)?;
        let shard = self.shard_of(key);
        let args = [Val::Bytes(key.to_vec()), Val::Bytes(val.to_vec())];
        self.call(ctx, shard, "put", &args).map(applied)
    }

    /// Read `key`: `(entry sequence, value)` — `(0, None)` when never
    /// written, a tombstone's sequence with `None` when deleted.
    ///
    /// With [`read_through`](crate::SvcConfig::read_through) on, the
    /// read first tries a one-sided fetch of the primary's slot table —
    /// the primary's CPU never runs — falling back to the RPC path on
    /// any miss or transport refusal.
    pub fn get(&mut self, ctx: &Ctx, key: &[u8]) -> Result<(u64, Option<Vec<u8>>), SvcError> {
        check_len(key, MAX_KEY)?;
        let shard = self.shard_of(key);
        if self.cluster.config().read_through {
            if let Some(hit) = self.try_read_through(ctx, shard, key) {
                return Ok(hit);
            }
        }
        let outs = self.call(ctx, shard, "get", &[Val::Bytes(key.to_vec())])?;
        let (seq, found) = (as_u32(&outs[0]) as u64, as_bool(&outs[1]));
        let val = match outs.into_iter().nth(2) {
            Some(Val::Bytes(b)) if found => Some(b),
            _ => found.then(Vec::new),
        };
        Ok((seq, val))
    }

    /// Delete `key`, leaving a sequenced tombstone.
    pub fn del(&mut self, ctx: &Ctx, key: &[u8]) -> Result<Applied, SvcError> {
        check_len(key, MAX_KEY)?;
        let shard = self.shard_of(key);
        let args = [Val::Bytes(key.to_vec())];
        self.call(ctx, shard, "del", &args).map(applied)
    }

    /// Apply a pre-built mutation (the load engine's path).
    pub fn apply(&mut self, ctx: &Ctx, op: &Op) -> Result<Applied, SvcError> {
        match op {
            Op::Put { key, val } => self.put(ctx, key, val),
            Op::Del { key } => self.del(ctx, key),
        }
    }

    /// Sleep the jittered exponential backoff for a finished attempt
    /// (0-based), clamped so the sleep never overshoots the deadline
    /// by more than one step.
    fn backoff(&mut self, ctx: &Ctx, attempt: u32) {
        let exp = RETRY_BASE.as_ps().saturating_mul(1u64 << attempt.min(20));
        let capped = exp.min(RETRY_CAP.as_ps());
        // Deterministic jitter in [0.75, 1.25): 768..1281 / 1024.
        let scale = 768 + self.rng.next_below(513);
        ctx.advance(SimDur::from_ps(capped / 1024 * scale));
    }

    /// The shard's binding in `cache` for `epoch`. When there is none,
    /// or the cached one was made under another epoch, that one is
    /// dropped and `bind` makes a fresh one — the client's one re-bind
    /// site.
    fn bound<T, E>(
        &mut self,
        cache: fn(&mut SvcClient) -> &mut Cache<T>,
        shard: usize,
        epoch: u32,
        bind: impl FnOnce(&mut SvcClient) -> Result<T, E>,
    ) -> Result<&mut T, E> {
        if cache(self)[shard].as_ref().is_none_or(|(e, _)| *e != epoch) {
            cache(self)[shard] = None;
            let fresh = bind(self)?;
            cache(self)[shard] = Some((epoch, fresh));
        }
        Ok(&mut cache(self)[shard].as_mut().expect("bound above").1)
    }

    /// Bind a fresh endpoint (abandoned bindings are never reused) to
    /// `service`, within [`BIND_TIMEOUT`] and the request's `deadline`.
    fn bind(
        &mut self,
        ctx: &Ctx,
        service: &str,
        deadline: SimTime,
    ) -> Result<SrpcClient, SrpcError> {
        let name = format!("svc-cli-n{}-{}-{}", self.node, self.tag, self.endpoints);
        self.endpoints += 1;
        let vmmc = self.cluster.system().endpoint(self.node, name);
        let (directory, iface) = (self.cluster.directory(), self.cluster.iface());
        let deadline = deadline.min(ctx.now() + BIND_TIMEOUT);
        SrpcClient::bind_deadline(vmmc, ctx, directory, service, iface, deadline)
    }

    /// One routed call under the deadline budget: bounded waits,
    /// re-bind on epoch change, jittered retries, and (for reads)
    /// hedging to the backup replica.
    fn call(
        &mut self,
        ctx: &Ctx,
        shard: usize,
        proc_name: &str,
        args: &[Val],
    ) -> Result<Vec<Val>, SvcError> {
        let deadline = ctx.now() + OP_BUDGET;
        let cfg = self.cluster.config();
        // A hedging-enabled read gives the primary only `hedge_after`
        // before trying the replica.
        let hedgeable = cfg.hedge_reads && proc_name == "get";
        let wait = if hedgeable {
            cfg.hedge_after
        } else {
            OP_TIMEOUT
        };
        for attempt in 0..MAX_ATTEMPTS {
            if ctx.now() >= deadline {
                return Err(SvcError::DeadlineExceeded {
                    shard,
                    attempts: attempt,
                });
            }
            let epoch = self.cluster.route(shard).epoch;
            let service = SvcCluster::service(shard, epoch);
            let bind = |c: &mut SvcClient| c.bind(ctx, &service, deadline);
            let replied = match self.bound(|c| &mut c.conns, shard, epoch, bind) {
                Ok(rpc) => rpc.call_deadline(ctx, proc_name, args, deadline.min(ctx.now() + wait)),
                Err(e) => {
                    retryable(e)?;
                    self.backoff(ctx, attempt);
                    continue;
                }
            };
            let e = match replied {
                Ok(outs) => return Ok(outs),
                Err(e) => retryable(e)?,
            };
            // Timed-out bindings are poisoned; drop, back off past a
            // watchdog poll, and re-route.
            self.conns[shard] = None;
            if hedgeable && e.is_timeout() {
                if let Some(outs) = self.try_hedge(ctx, shard, args, deadline) {
                    return Ok(outs);
                }
            }
            self.backoff(ctx, attempt);
        }
        Err(SvcError::Exhausted {
            shard,
            attempts: MAX_ATTEMPTS,
        })
    }

    /// One hedged read against the backup replica's read-only service.
    /// Best-effort: any failure just falls back to the primary retry
    /// loop.
    fn try_hedge(
        &mut self,
        ctx: &Ctx,
        shard: usize,
        args: &[Val],
        deadline: SimTime,
    ) -> Option<Vec<Val>> {
        let route = self.cluster.route(shard);
        route.backup?;
        if ctx.now() >= deadline {
            return None;
        }
        self.stats.hedges += 1;
        let service = SvcCluster::hedge_service(shard, route.epoch);
        let bind = |c: &mut SvcClient| c.bind(ctx, &service, deadline);
        let rpc = self
            .bound(|c| &mut c.hedge_conns, shard, route.epoch, bind)
            .ok()?;
        match rpc.call_deadline(ctx, "get", args, deadline.min(ctx.now() + OP_TIMEOUT)) {
            Ok(outs) => {
                self.stats.hedge_wins += 1;
                Some(outs)
            }
            Err(_) => {
                self.hedge_conns[shard] = None;
                None
            }
        }
    }

    /// One zero-copy read attempt: fetch the key's slot from the
    /// primary's exported table and answer iff the slot publishes this
    /// key under the current routing epoch. `None` means "use the RPC
    /// path" — an empty or colliding slot, a deposed epoch, a table
    /// not yet exported, or a transport refusal.
    fn try_read_through(
        &mut self,
        ctx: &Ctx,
        shard: usize,
        key: &[u8],
    ) -> Option<(u64, Option<Vec<u8>>)> {
        let epoch = self.cluster.route(shard).epoch;
        let import = |c: &mut SvcClient| {
            // The generation's exporter may not have published yet —
            // plain miss, the RPC path is always available.
            let (node, name) = c.cluster.rt_pub(shard, epoch).ok_or(())?;
            let (vmmc, _) = c.rt.get_or_insert_with(|| {
                let ep = format!("svc-rt-n{}-{}", c.node, c.tag);
                let vmmc = c.cluster.system().endpoint(c.node, ep);
                let dst = vmmc.proc_().alloc(SLOT_BYTES, CacheMode::WriteBack);
                (vmmc, dst)
            });
            let imported = vmmc.import(ctx, NodeId(node), name);
            imported.map_err(|_| c.stats.fetch_errors += 1)
        };
        let region = self
            .bound(|c| &mut c.rt_conns, shard, epoch, import)
            .ok()?
            .clone();
        let (vmmc, dst) = self.rt.as_ref()?;
        let off = slot_of(key) * SLOT_BYTES;
        let Ok(()) = vmmc.fetch(ctx, *dst, &region, off, SLOT_BYTES) else {
            // NAK, daemon outage, or a stale import (the exporting
            // daemon died): drop the binding and use the RPC path,
            // whose retry loop owns recovery.
            self.stats.fetch_errors += 1;
            self.rt_conns[shard] = None;
            return None;
        };
        let raw = vmmc.proc_().peek(*dst, SLOT_BYTES).expect("dst is mapped");
        let hit = slot::decode(&raw, epoch, key);
        match hit {
            Some(_) => self.stats.fetch_hits += 1,
            None => self.stats.fetch_misses += 1,
        }
        hit
    }
}

fn check_len(bytes: &[u8], limit: usize) -> Result<(), SvcError> {
    if bytes.len() > limit {
        return Err(SvcError::TooLarge {
            len: bytes.len(),
            limit,
        });
    }
    Ok(())
}
