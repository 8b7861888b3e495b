//! The client library: consistent-hash routing, per-shard persistent
//! bindings, and deadline-budgeted retries.
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

use std::sync::Arc;

use shrimp_sim::{Ctx, Fnv1a, SimDur, SimTime, SplitMix64};
use shrimp_srpc::{SrpcClient, SrpcError, Val};

use crate::cluster::SvcCluster;
use crate::store::{Applied, Op, MAX_KEY, MAX_VAL};
use crate::SvcError;

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

/// Client-side resilience counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Always zero: the client no longer hedges reads to the backup.
    /// Kept only because `benchmark/src/svc.rs` reads it into the
    /// `svc.hedges` metric; it goes when that metric does.
    pub hedges: u64,
    /// Always zero: the client no longer reads by one-sided fetch.
    /// Kept only because `benchmark/src/probes.rs` reads it into the
    /// `svc.readthrough_hit_share` metric; it goes when that metric
    /// does.
    pub fetch_hits: u64,
}

/// A KV client bound to one node. Not `Send`-shared: each client
/// process owns its own.
pub struct SvcClient {
    cluster: Arc<SvcCluster>,
    node: usize,
    tag: String,
    /// Per shard, the RPC binding to its primary and the routing epoch
    /// it was made under.
    conns: Vec<Option<(u32, SrpcClient)>>,
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
            rng: SplitMix64::new(Fnv1a::default().bytes(tag.as_bytes()).finish() ^ node as u64),
            tag,
            conns: (0..shards).map(|_| None).collect(),
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
    pub fn get(&mut self, ctx: &Ctx, key: &[u8]) -> Result<(u64, Option<Vec<u8>>), SvcError> {
        check_len(key, MAX_KEY)?;
        let shard = self.shard_of(key);
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

    /// The shard's binding for `epoch` — the client's one re-bind site.
    /// When there is none, or the cached one was made under another
    /// epoch, that one is dropped and a fresh endpoint (abandoned
    /// bindings are never reused) binds to the epoch's service, within
    /// [`BIND_TIMEOUT`] and the request's `deadline`.
    fn bound(
        &mut self,
        ctx: &Ctx,
        shard: usize,
        epoch: u32,
        deadline: SimTime,
    ) -> Result<&mut SrpcClient, SrpcError> {
        if self.conns[shard].as_ref().is_none_or(|(e, _)| *e != epoch) {
            self.conns[shard] = None;
            let name = format!("svc-cli-n{}-{}-{}", self.node, self.tag, self.endpoints);
            self.endpoints += 1;
            let vmmc = self.cluster.system().endpoint(self.node, name);
            let (directory, iface) = (self.cluster.directory(), self.cluster.iface());
            let service = SvcCluster::service(shard, epoch);
            let deadline = deadline.min(ctx.now() + BIND_TIMEOUT);
            let fresh = SrpcClient::bind_deadline(vmmc, ctx, directory, &service, iface, deadline)?;
            self.conns[shard] = Some((epoch, fresh));
        }
        Ok(&mut self.conns[shard].as_mut().expect("bound above").1)
    }

    /// One routed call under the deadline budget: bounded waits,
    /// re-bind on epoch change, and jittered retries.
    fn call(
        &mut self,
        ctx: &Ctx,
        shard: usize,
        proc_name: &str,
        args: &[Val],
    ) -> Result<Vec<Val>, SvcError> {
        let deadline = ctx.now() + OP_BUDGET;
        for attempt in 0..MAX_ATTEMPTS {
            if ctx.now() >= deadline {
                return Err(SvcError::DeadlineExceeded {
                    shard,
                    attempts: attempt,
                });
            }
            let epoch = self.cluster.route(shard).epoch;
            let replied = match self.bound(ctx, shard, epoch, deadline) {
                Ok(rpc) => {
                    rpc.call_deadline(ctx, proc_name, args, deadline.min(ctx.now() + OP_TIMEOUT))
                }
                Err(e) => {
                    retryable(e)?;
                    self.backoff(ctx, attempt);
                    continue;
                }
            };
            match replied {
                Ok(outs) => return Ok(outs),
                Err(e) => retryable(e)?,
            };
            // Timed-out bindings are poisoned; drop, back off past a
            // watchdog poll, and re-route.
            self.conns[shard] = None;
            self.backoff(ctx, attempt);
        }
        Err(SvcError::Exhausted {
            shard,
            attempts: MAX_ATTEMPTS,
        })
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
