//! The deterministic open-loop load engine.
//!
//! Open-loop means arrivals are generated by a schedule, not by
//! request completions: when the service saturates, the backlog grows
//! and latency climbs — the knee the `svcbench` curve exists to show.
//! Each engine pre-generates its whole arrival schedule from a
//! [`SplitMix64`] stream (Poisson or fixed-rate gaps, Zipfian key
//! popularity, a read/write mix), so the same seed replays the same
//! virtual-time trace bit-identically.
//!
//! Two processes per engine:
//!
//! * the **generator** walks the schedule in virtual time and enqueues
//!   each request through *tiered* admission control: scans are shed
//!   once the backlog reaches half of
//!   [`queue_limit`](LoadPlan::queue_limit), writes at three quarters,
//!   and reads only at the full limit — so overload degrades by
//!   priority (the expensive, optional work goes first) into bounded
//!   queues and explicit per-class shed counts, not unbounded memory
//!   and collapse;
//! * the **worker** owns one [`SvcClient`] and drains the queue,
//!   recording per-request latency (completion minus *arrival*, so
//!   queueing delay counts) into a [`Log2Hist`] and per-shard outage
//!   windows for failover-gap measurement.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_obs::{Layer, Log2Hist, MsgId, SpanRec};
use shrimp_sim::{SimChannel, SimDur, SimTime, SplitMix64};

use crate::client::SvcClient;
use crate::cluster::SvcCluster;
use crate::store::Op;

/// A generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read a key.
    Get {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Mutate a key.
    Write {
        /// The mutation.
        op: Op,
    },
    /// Read a run of consecutive keys — the expensive, lowest-priority
    /// class, shed first under overload.
    Scan {
        /// First key of the run.
        key: Vec<u8>,
        /// Keys in the run (each is one `get` on the wire).
        len: u32,
    },
}

impl Request {
    /// The key the request targets (a scan's first key).
    pub fn key(&self) -> &[u8] {
        match self {
            Request::Get { key } | Request::Scan { key, .. } => key,
            Request::Write { op } => op.key(),
        }
    }

    /// The backlog depth at which admission control sheds this
    /// request: scans go first, then writes, and reads ride to the
    /// full limit.
    fn shed_limit(&self, queue_limit: usize) -> usize {
        match self {
            Request::Scan { .. } => (queue_limit / 2).max(1),
            Request::Write { .. } => (queue_limit * 3 / 4).max(1),
            Request::Get { .. } => queue_limit,
        }
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time.
    pub at: SimTime,
    /// The request.
    pub req: Request,
}

/// An open-loop load description for one engine.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Seed for the engine's schedule stream (mixed with the engine
    /// index, so engines draw independent streams).
    pub seed: u64,
    /// Requests per engine.
    pub requests: u64,
    /// Offered rate per engine, operations per second of virtual time.
    pub rate_ops_per_s: f64,
    /// Poisson inter-arrival gaps when true, fixed-rate when false.
    pub poisson: bool,
    /// Keyspace size (keys are shared across engines).
    pub keys: u64,
    /// Zipf exponent for key popularity; `0.0` is uniform.
    pub zipf_s: f64,
    /// Fraction of requests that are writes (`put`/`del`).
    pub write_fraction: f64,
    /// Of the writes, the fraction that are deletes.
    pub del_fraction: f64,
    /// Fraction of requests that are scans (drawn from the non-write
    /// remainder). `0.0` draws nothing from the RNG stream, so legacy
    /// schedules replay bit-identically.
    pub scan_fraction: f64,
    /// Keys per scan.
    pub scan_len: u32,
    /// Value payload length for puts.
    pub val_len: usize,
    /// Admission control: arrivals finding this many requests already
    /// queued are shed.
    pub queue_limit: usize,
    /// Virtual-time offset of the first arrival (lets bindings and
    /// replication channels establish first).
    pub start: SimDur,
}

impl LoadPlan {
    /// A reasonable default mix: Poisson arrivals, Zipf(0.99) over 512
    /// keys, 30% writes (a tenth of them deletes), 16-byte values.
    pub fn new(seed: u64, requests: u64, rate_ops_per_s: f64) -> LoadPlan {
        LoadPlan {
            seed,
            requests,
            rate_ops_per_s,
            poisson: true,
            keys: 512,
            zipf_s: 0.99,
            write_fraction: 0.3,
            del_fraction: 0.1,
            scan_fraction: 0.0,
            scan_len: 8,
            val_len: 16,
            queue_limit: 64,
            start: SimDur::from_us(200.0),
        }
    }

    /// Pre-generate the engine's full arrival schedule.
    pub fn schedule(&self, engine: u64) -> Vec<Arrival> {
        assert!(self.rate_ops_per_s > 0.0, "rate must be positive");
        assert!(self.keys > 0, "keyspace must be non-empty");
        let mut rng =
            SplitMix64::new(self.seed ^ engine.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5bd1_e995);
        let cdf = zipf_cdf(self.keys, self.zipf_s);
        let mean_gap_ps = 1e12 / self.rate_ops_per_s;
        let mut at_ps = self.start.as_ps() as f64;
        let mut out = Vec::with_capacity(self.requests as usize);
        for _ in 0..self.requests {
            let gap = if self.poisson {
                let u = unit(&mut rng);
                -(1.0 - u).ln() * mean_gap_ps
            } else {
                mean_gap_ps
            };
            at_ps += gap;
            let key_idx = sample_cdf(&cdf, unit(&mut rng));
            let key = format!("k{key_idx:08}").into_bytes();
            let req = if unit(&mut rng) < self.write_fraction {
                if unit(&mut rng) < self.del_fraction {
                    Request::Write {
                        op: Op::Del { key },
                    }
                } else {
                    let mut val = vec![0u8; self.val_len];
                    rng.fill_bytes(&mut val);
                    Request::Write {
                        op: Op::Put { key, val },
                    }
                }
            } else if self.scan_fraction > 0.0 && unit(&mut rng) < self.scan_fraction {
                // The short-circuit keeps the RNG stream untouched at
                // `scan_fraction == 0.0`, so legacy schedules replay
                // bit-identically.
                Request::Scan {
                    key,
                    len: self.scan_len.max(1),
                }
            } else {
                Request::Get { key }
            };
            out.push(Arrival {
                at: SimTime::ZERO + SimDur::from_ps(at_ps as u64),
                req,
            });
        }
        out
    }
}

fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Cumulative Zipf(s) weights over `n` ranks, normalized to 1.0.
fn zipf_cdf(n: u64, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n as usize);
    let mut acc = 0.0;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for w in &mut cdf {
        *w /= total;
    }
    cdf
}

fn sample_cdf(cdf: &[f64], u: f64) -> u64 {
    cdf.partition_point(|&c| c < u) as u64 % cdf.len() as u64
}

/// Recover the key index from a generated `k{idx:08}` key so a scan
/// can walk the consecutive run (0 for foreign key shapes).
fn scan_index(key: &[u8]) -> u64 {
    std::str::from_utf8(key)
        .ok()
        .and_then(|s| s.strip_prefix('k'))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// One shard's unavailability window as a client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Affected shard.
    pub shard: usize,
    /// First failed request's completion (time the client first knew).
    pub from: SimTime,
    /// First subsequent success against the shard.
    pub until: SimTime,
}

impl Outage {
    /// The client-observed gap.
    pub fn gap(&self) -> SimDur {
        self.until.since(self.from)
    }
}

/// What one engine measured.
#[derive(Debug, Clone, Default)]
pub struct LoadStats {
    /// Requests handed to the worker.
    pub issued: u64,
    /// Requests shed by admission control (all classes).
    pub shed: u64,
    /// Scans shed (the backlog reached half the limit).
    pub shed_scans: u64,
    /// Writes shed (the backlog reached three quarters of the limit).
    pub shed_writes: u64,
    /// Reads shed (the backlog reached the full limit).
    pub shed_reads: u64,
    /// Successful requests.
    pub ok: u64,
    /// Failed requests (timeouts that exhausted their retries, etc.).
    pub errors: u64,
    /// Successful reads.
    pub reads: u64,
    /// Successful writes.
    pub writes: u64,
    /// Successful scans.
    pub scans: u64,
    /// Per-request latency, arrival to completion, picoseconds.
    pub latency: Log2Hist,
    /// Completion time of the last request.
    pub done_at: SimTime,
    /// Closed per-shard unavailability windows.
    pub outages: Vec<Outage>,
    /// Acknowledged writes as `(shard, acked seq, op)` — only filled
    /// when the engine runs with `track_acks` (the zero-lost-acks
    /// verification input).
    pub acked: Vec<(usize, u64, Op)>,
}

impl LoadStats {
    /// Fold another engine's stats into this one.
    pub fn merge(&mut self, other: &LoadStats) {
        self.issued += other.issued;
        self.shed += other.shed;
        self.shed_scans += other.shed_scans;
        self.shed_writes += other.shed_writes;
        self.shed_reads += other.shed_reads;
        self.ok += other.ok;
        self.errors += other.errors;
        self.reads += other.reads;
        self.writes += other.writes;
        self.scans += other.scans;
        self.latency.merge(&other.latency);
        self.done_at = self.done_at.max(other.done_at);
        self.outages.extend(other.outages.iter().copied());
        self.acked.extend(other.acked.iter().cloned());
    }
}

/// Spawn one engine (generator + worker) on `node`. The returned slot
/// is filled with the engine's [`LoadStats`] when its worker finishes;
/// the worker counts as one registered client for cluster shutdown.
pub fn spawn_engine(
    cluster: &Arc<SvcCluster>,
    node: usize,
    engine: u64,
    plan: &LoadPlan,
    track_acks: bool,
) -> Arc<Mutex<Option<LoadStats>>> {
    cluster.register_clients(1);
    let out = Arc::new(Mutex::new(None));
    let queue: SimChannel<Option<Arrival>> = SimChannel::new();
    let schedule = plan.schedule(engine);
    let queue_limit = plan.queue_limit;
    let keyspace = plan.keys;
    // Shed counts per class: `[scans, writes, reads]`.
    let shed_count = Arc::new(Mutex::new([0u64; 3]));

    // Generator: walk the schedule in virtual time, shedding arrivals
    // past their class's admission limit (scans first, then writes,
    // then reads).
    {
        let h = cluster.system().sim().clone();
        let queue = queue.clone();
        let shed_count = Arc::clone(&shed_count);
        h.spawn(format!("svc-gen-{engine}"), move |ctx| {
            for arrival in schedule {
                if arrival.at > ctx.now() {
                    ctx.advance(arrival.at.since(ctx.now()));
                }
                if queue.len() >= arrival.req.shed_limit(queue_limit) {
                    let mut sheds = shed_count.lock();
                    match &arrival.req {
                        Request::Scan { .. } => sheds[0] += 1,
                        Request::Write { .. } => sheds[1] += 1,
                        Request::Get { .. } => sheds[2] += 1,
                    }
                    continue;
                }
                queue.send(&ctx.handle(), Some(arrival));
            }
            queue.send(&ctx.handle(), None);
        });
    }

    // Worker: drain the queue through one persistent client.
    {
        let h = cluster.system().sim().clone();
        let cluster = Arc::clone(cluster);
        let out = Arc::clone(&out);
        h.spawn(format!("svc-wrk-{engine}"), move |ctx| {
            let obs = cluster.system().obs();
            let mut cli = SvcClient::new(&cluster, node, format!("eng{engine}"));
            // Warm-up: establish every shard binding before the first
            // scheduled arrival, so measured latencies reflect the
            // persistent-channel fast path rather than cold-start
            // binding queues. Probe keys walk a deterministic sequence
            // until the consistent-hash ring has covered every shard.
            let mut warmed = vec![false; cluster.config().shards];
            let mut probe = 0u64;
            while warmed.iter().any(|w| !w) && probe < 10_000 {
                let key = format!("warm{probe:08}").into_bytes();
                probe += 1;
                let shard = cli.shard_of(&key);
                if !warmed[shard] {
                    let _ = cli.get(ctx, &key);
                    warmed[shard] = true;
                }
            }
            let mut stats = LoadStats::default();
            let mut down_since: Vec<Option<SimTime>> = vec![None; cluster.config().shards];
            while let Some(arrival) = queue.recv(ctx) {
                stats.issued += 1;
                let shard = cli.shard_of(arrival.req.key());
                let (result, name, bytes, class) = match &arrival.req {
                    Request::Get { key } => (cli.get(ctx, key).map(|_| None), "svc.get", 0, 0u8),
                    Request::Write { op } => {
                        let bytes = match op {
                            Op::Put { val, .. } => val.len(),
                            Op::Del { .. } => 0,
                        };
                        (
                            cli.apply(ctx, op).map(|a| Some((a.seq, op.clone()))),
                            "svc.put",
                            bytes,
                            1u8,
                        )
                    }
                    Request::Scan { key, len } => {
                        let mut r = Ok(None);
                        let mut bytes = 0usize;
                        let first = scan_index(key);
                        for i in 0..*len as u64 {
                            let k = format!("k{:08}", (first + i) % keyspace.max(1)).into_bytes();
                            match cli.get(ctx, &k) {
                                Ok((_, v)) => bytes += v.map_or(0, |v| v.len()),
                                Err(e) => {
                                    r = Err(e);
                                    break;
                                }
                            }
                        }
                        (r, "svc.scan", bytes, 2u8)
                    }
                };
                let end = ctx.now();
                match result {
                    Ok(ack) => {
                        stats.ok += 1;
                        match class {
                            1 => stats.writes += 1,
                            2 => stats.scans += 1,
                            _ => stats.reads += 1,
                        }
                        stats.latency.record_dur(end.since(arrival.at));
                        stats.done_at = stats.done_at.max(end);
                        if let Some(since) = down_since[shard].take() {
                            stats.outages.push(Outage {
                                shard,
                                from: since,
                                until: end,
                            });
                        }
                        if track_acks {
                            if let Some((seq, op)) = ack {
                                stats.acked.push((shard, seq, op));
                            }
                        }
                        if let Some(rec) = &obs {
                            rec.push(SpanRec {
                                msg: MsgId::NONE,
                                node,
                                layer: Layer::Service,
                                name,
                                start: arrival.at,
                                end,
                                bytes,
                            });
                        }
                    }
                    Err(_) => {
                        stats.errors += 1;
                        down_since[shard].get_or_insert(end);
                    }
                }
            }
            let [s_scans, s_writes, s_reads] = *shed_count.lock();
            stats.shed_scans = s_scans;
            stats.shed_writes = s_writes;
            stats.shed_reads = s_reads;
            stats.shed = s_scans + s_writes + s_reads;
            *out.lock() = Some(stats);
            cluster.client_done();
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_monotone() {
        let plan = LoadPlan::new(42, 200, 50_000.0);
        let a = plan.schedule(3);
        let b = plan.schedule(3);
        assert_eq!(a, b, "same seed and engine must replay identically");
        let c = plan.schedule(4);
        assert_ne!(a, c, "different engines draw different streams");
        assert!(a.windows(2).all(|w| w[1].at >= w[0].at));
        assert!(a[0].at >= SimTime::ZERO + plan.start);
    }

    #[test]
    fn zipf_skews_and_uniform_spreads() {
        let skewed = LoadPlan {
            zipf_s: 1.2,
            ..LoadPlan::new(7, 2000, 100_000.0)
        };
        let popular = skewed
            .schedule(0)
            .iter()
            .filter(|a| a.req.key() == b"k00000000")
            .count();
        assert!(
            popular > 100,
            "Zipf head key should dominate, saw {popular}/2000"
        );
        let uniform = LoadPlan {
            zipf_s: 0.0,
            keys: 8,
            ..LoadPlan::new(7, 2000, 100_000.0)
        };
        let head = uniform
            .schedule(0)
            .iter()
            .filter(|a| a.req.key() == b"k00000000")
            .count();
        assert!(
            head < 600,
            "uniform head key should not dominate, saw {head}/2000"
        );
    }

    #[test]
    fn fixed_rate_gaps_are_exact() {
        let plan = LoadPlan {
            poisson: false,
            ..LoadPlan::new(1, 10, 1_000_000.0)
        };
        let s = plan.schedule(0);
        let gap = s[1].at.since(s[0].at);
        assert_eq!(gap, s[9].at.since(s[8].at));
    }
}
