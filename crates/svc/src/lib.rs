//! `shrimp-svc`: a sharded, primary–backup replicated key-value
//! serving subsystem built directly on VMMC, plus a deterministic
//! open-loop load engine for driving it.
//!
//! The paper's argument is that VMMC's user-level buffer management
//! and separated data/control transfer let *real services* run at
//! near-hardware speed. This crate is that service-scale workload for
//! the reproduction:
//!
//! * **Sharding** — every node hosts one shard primary; a consistent-
//!   hash ring ([`ShardRing`]) routes keys to shards, so adding
//!   shards moves only a proportional slice of the keyspace.
//! * **Fast path** — `get`/`put`/`delete` run over the SHRIMP RPC
//!   persistent channel geometry (`shrimp-srpc`): one bidirectional
//!   automatic-update binding per client↔shard pair, established
//!   once, with no per-request rendezvous.
//! * **Replication** — each primary chains its mutations to the next
//!   node's backup replica through a dedicated VMMC deposit channel
//!   with flag-after-data commit; a write is acknowledged to the
//!   client only after the backup's ack word comes back, so an acked
//!   write survives the primary's death.
//! * **Failover** — the existing `FaultPlan` daemon-crash machinery
//!   doubles as shard-server death: a cluster watchdog notices the
//!   downed daemon, promotes the backup under a bumped epoch, and
//!   clients re-route on their bounded-wait timeouts
//!   ([`VmmcError::Timeout`] /
//!   [`DaemonUnavailable`](shrimp_core::VmmcError::DaemonUnavailable)
//!   surfaced through [`SvcError`]).
//! * **Load engine** — [`load`] generates open-loop Poisson or
//!   fixed-rate arrivals in virtual time with Zipfian key popularity
//!   and a read/write mix, feeds per-request latencies into the
//!   shared [`shrimp_obs::Log2Hist`], and sheds arrivals past a
//!   bounded queue so overload degrades gracefully.
//!
//! Everything runs inside the deterministic simulation kernel: the
//! same seeds and fault plans replay bit-identically, which is what
//! makes the `svcbench` latency/failover numbers committable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod client;
pub mod cluster;
pub mod load;
mod machine;
mod server;
pub mod store;
mod wire;

pub use client::SvcClient;
pub use cluster::{ClusterEvent, SvcCluster, SvcConfig, WATCH_INTERVAL};
pub use load::{spawn_engine, LoadPlan, LoadStats};
pub use store::{Applied, Op, ShardStore, MAX_KEY, MAX_VAL};

use shrimp_core::VmmcError;
use shrimp_sim::Fnv1a;
use shrimp_srpc::SrpcError;

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SvcError {
    /// The RPC fast path failed; wraps the transport error, including
    /// [`VmmcError::Timeout`] (bounded wait expired — the peer is slow
    /// or dead) and [`VmmcError::DaemonUnavailable`] (the target
    /// node's daemon is down).
    Rpc(SrpcError),
    /// A key exceeded [`MAX_KEY`] or a value exceeded [`MAX_VAL`].
    TooLarge {
        /// Offending length.
        len: usize,
        /// The limit it exceeded.
        limit: usize,
    },
    /// Every retry was exhausted without reaching the shard — the
    /// route never recovered within the client's attempt budget.
    Exhausted {
        /// Shard the operation was routed to.
        shard: usize,
        /// Attempts spent.
        attempts: u32,
    },
    /// The per-request deadline budget expired before any attempt
    /// succeeded. Distinct from [`SvcError::Exhausted`]: the caller
    /// ran out of *time*, not attempts, so a fresh request (with a
    /// fresh budget) may well succeed once the route recovers.
    DeadlineExceeded {
        /// Shard the operation was routed to.
        shard: usize,
        /// Attempts spent before the budget ran dry.
        attempts: u32,
    },
}

/// Retry classification for a failed operation — whether issuing the
/// same request again (with a fresh deadline budget) can succeed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryClass {
    /// Transient: a timeout, daemon outage, route churn, or budget
    /// expiry. The cluster may heal; retrying is sound.
    Transient,
    /// Terminal: the request itself is invalid (oversized payload,
    /// protocol violation). Retrying the identical request fails
    /// identically.
    Terminal,
}

impl std::fmt::Display for SvcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvcError::Rpc(e) => write!(f, "rpc: {e}"),
            SvcError::TooLarge { len, limit } => {
                write!(f, "payload of {len} bytes exceeds limit {limit}")
            }
            SvcError::Exhausted { shard, attempts } => {
                write!(f, "shard {shard} unreachable after {attempts} attempts")
            }
            SvcError::DeadlineExceeded { shard, attempts } => {
                write!(
                    f,
                    "deadline budget expired after {attempts} attempts on shard {shard}"
                )
            }
        }
    }
}

impl std::error::Error for SvcError {}

impl From<SrpcError> for SvcError {
    fn from(e: SrpcError) -> Self {
        SvcError::Rpc(e)
    }
}

impl From<VmmcError> for SvcError {
    fn from(e: VmmcError) -> Self {
        SvcError::Rpc(SrpcError::Vmmc(e))
    }
}

impl SvcError {
    /// True when the failure is transient and a retry against a
    /// (possibly re-routed) shard can succeed: timeouts and daemon
    /// outages.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SvcError::Rpc(SrpcError::Vmmc(
                VmmcError::Timeout { .. } | VmmcError::DaemonUnavailable { .. }
            ))
        )
    }

    /// Classify the failure for a caller deciding whether to reissue
    /// the request. Exhausted attempts and expired deadlines are
    /// [`RetryClass::Transient`] — the cluster heals over virtual
    /// time — as are timeouts and daemon outages. Only failures that
    /// indict the request itself are [`RetryClass::Terminal`].
    pub fn class(&self) -> RetryClass {
        match self {
            SvcError::Exhausted { .. } | SvcError::DeadlineExceeded { .. } => RetryClass::Transient,
            SvcError::TooLarge { .. } => RetryClass::Terminal,
            SvcError::Rpc(_) if self.is_retryable() => RetryClass::Transient,
            SvcError::Rpc(_) => RetryClass::Terminal,
        }
    }
}

/// Virtual points per shard on the consistent-hash ring — enough that
/// keyspace slices stay within a few percent of uniform.
const VNODES: usize = 64;

/// A consistent-hash ring mapping keys onto shards: each shard owns
/// `VNODES` pseudo-random points on the `u64` circle and a key
/// belongs to the first point clockwise of its hash. Built once per
/// cluster; lookups are a binary search.
#[derive(Debug, Clone)]
pub struct ShardRing {
    points: Vec<(u64, u32)>,
    shards: usize,
}

impl ShardRing {
    /// Build the ring for `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> ShardRing {
        assert!(shards > 0, "a cluster needs at least one shard");
        let mut points = Vec::with_capacity(shards * VNODES);
        for s in 0..shards {
            for v in 0..VNODES {
                let mut tag = [0u8; 16];
                tag[..8].copy_from_slice(&(s as u64).to_le_bytes());
                tag[8..].copy_from_slice(&(v as u64).to_le_bytes());
                points.push((Fnv1a::default().bytes(&tag).finish(), s as u32));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        ShardRing { points, shards }
    }

    /// Number of shards the ring routes to.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        let h = Fnv1a::default().bytes(key).finish();
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, s) = self.points[i % self.points.len()];
        s as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routes_deterministically_and_spreads() {
        let ring = ShardRing::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4096 {
            let key = format!("key-{i:06}");
            let s = ring.shard_of(key.as_bytes());
            assert_eq!(s, ring.shard_of(key.as_bytes()));
            counts[s] += 1;
        }
        for &c in &counts {
            assert!(c > 4096 / 16, "a shard owns too little: {counts:?}");
        }
    }

    #[test]
    fn ring_growth_moves_only_a_slice() {
        let a = ShardRing::new(4);
        let b = ShardRing::new(5);
        let moved = (0..4096)
            .filter(|i| {
                let key = format!("key-{i:06}");
                a.shard_of(key.as_bytes()) != b.shard_of(key.as_bytes())
            })
            .count();
        // Consistent hashing moves ~1/5 of keys; plain modulo would
        // move ~4/5. Allow a generous band.
        assert!(
            moved < 4096 / 2,
            "adding a shard moved {moved}/4096 keys — not consistent"
        );
    }
}
