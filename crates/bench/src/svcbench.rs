//! The KV serving benchmark: throughput vs. offered load, tail
//! latency, and failover measurement for `shrimp-svc`.
//!
//! Two experiments, both entirely in virtual time and therefore
//! bit-identically reproducible:
//!
//! * **Curve** — an open-loop sweep: for each offered rate a fresh
//!   mesh is built, one load engine per node drives Poisson arrivals
//!   with Zipfian keys through the sharded replicated cluster, and the
//!   merged per-request latency histogram yields p50/p95/p99/p999 plus
//!   achieved throughput. Past saturation the bounded engine queues
//!   shed arrivals and tail latency climbs — the knee the curve
//!   exists to show.
//! * **Failover** — the same load with a scripted
//!   [`FaultKind::DaemonCrash`] killing a shard primary mid-run. The
//!   harness verifies *zero lost acknowledged writes* against the
//!   authoritative post-run stores and reports the client-observed
//!   failover gap and the promotion log.
//!
//! Digests over every virtual quantity gate `BENCH_svc.json` in CI
//! (`svcbench --check`): an engine or service change that shifts any
//! latency bucket, shed count, or promotion instant fails the check.

use std::sync::Arc;

use shrimp_core::SystemConfig;
use shrimp_mesh::{Mesh2D, TopologyRef};
use shrimp_sim::{FaultKind, FaultPlan, SimDur, SimTime};
use shrimp_svc::{spawn_engine, LoadPlan, LoadStats, Op, ShardRing, SvcCluster, SvcConfig};

use crate::chaos::one_fault;
use crate::harness::{field, Args, Cell, Experiment, Fnv1a, Json, Obj, Outcome, Row};
use crate::report::us;

/// Schedule seed of every run.
const SEED: u64 = 42;

/// Failover cell: node whose daemon the plan kills.
const CRASH_NODE: usize = 1;

/// Sweep shape: fabric, engines (one per node), and the offered rates.
#[derive(Debug, Clone)]
struct SweepConfig {
    /// Fabric the cluster is built over (must be in-order; the engines
    /// and shard servers are enumerated from its node list).
    pub topology: TopologyRef,
    /// Requests per engine per curve point.
    pub requests: u64,
    /// Per-engine offered rates (ops per virtual second), one curve
    /// point each.
    pub rates: Vec<f64>,
    /// First-arrival offset — long enough for every engine's shard
    /// bindings to warm up first.
    pub warmup: SimDur,
    /// Failover cell: per-engine offered rate.
    pub failover_rate: f64,
    /// Failover cell: requests per engine (sets the run span).
    pub failover_requests: u64,
    /// Failover cell: crash instant.
    pub crash_at: SimDur,
    /// Failover cell: daemon downtime.
    pub downtime: SimDur,
}

impl SweepConfig {
    /// The committed configuration: a 4×4 mesh (16 shard servers, 16
    /// engines) swept from far under to far past saturation.
    fn paper_4x4() -> SweepConfig {
        SweepConfig {
            topology: Arc::new(Mesh2D::new(4, 4)),
            requests: 256,
            rates: vec![2_000.0, 8_000.0, 32_000.0, 128_000.0, 512_000.0],
            // Warm-up on 4×4 finishes at ~16.3 ms virtual (16 serial
            // ~1 ms binder exchanges per engine); arrivals must start
            // after it or the backlog drain pollutes every percentile.
            warmup: SimDur::from_us(20_000.0),
            // Below the ~145 kops saturation knee so the baseline run
            // carries no queueing tail and the failover gap isolates
            // the crash stall.
            failover_rate: 4_000.0,
            failover_requests: 256,
            crash_at: SimDur::from_us(26_000.0),
            downtime: SimDur::from_us(6_000.0),
        }
    }

    /// A small CI-sized variant on the 2×2 prototype.
    #[cfg(test)]
    fn smoke() -> SweepConfig {
        SweepConfig {
            topology: Arc::new(Mesh2D::new(2, 2)),
            requests: 96,
            rates: vec![4_000.0, 256_000.0],
            // 2×2 warm-up completes at ~4.1 ms virtual.
            warmup: SimDur::from_us(6_000.0),
            failover_rate: 16_000.0,
            failover_requests: 128,
            crash_at: SimDur::from_us(9_000.0),
            downtime: SimDur::from_us(3_000.0),
        }
    }

    fn engines(&self) -> usize {
        self.topology.len()
    }
}

/// A fabric's `WxH` report label (linear fallback for fabrics without a
/// grid layout).
pub(crate) fn mesh_label(topology: &TopologyRef) -> String {
    let (width, height) = topology.grid_dims().unwrap_or((topology.len(), 1));
    format!("{width}x{height}")
}

/// One measured point of the throughput-vs-offered-load curve. Every
/// field derives from virtual time, so the whole struct is
/// replay-stable.
#[derive(Debug, Clone)]
struct CurvePoint {
    /// Offered rate per engine (ops/s of virtual time).
    rate_per_engine: f64,
    /// Aggregate offered load (all engines), kops/s.
    offered_kops: f64,
    /// Virtual span from first possible arrival to last completion,
    /// picoseconds.
    span_ps: u64,
    /// What the engines measured, merged.
    stats: LoadStats,
    /// Each shard's share of the offered requests, read off the
    /// schedules and the cluster's ring rather than measured (so not
    /// in the row or its digests).
    offered_share: Vec<f64>,
}

impl CurvePoint {
    /// Achieved throughput over the span, kops/s.
    fn achieved_kops(&self) -> f64 {
        self.stats.ok as f64 / (self.span_ps as f64 / 1e12) / 1e3
    }

    /// The row in digest order. Its text line is written out in
    /// [`render_curve`]: the committed table puts `achieved` before
    /// `issued`, the committed JSON after `errors`.
    fn row(&self) -> Row {
        use Cell::{Count, Digest, Ps, Real};
        let (s, latency) = (&self.stats, &self.stats.latency);
        let shown = |name, cell| field(name, cell).shown_only();
        Row(vec![
            field("rate_per_engine", Real(self.rate_per_engine, 0)),
            shown("offered_kops", Real(self.offered_kops, 1)),
            field("issued", Count(s.issued)),
            field("shed", Count(s.shed)),
            field("ok", Count(s.ok)),
            field("errors", Count(s.errors)),
            field("span_ps", Count(self.span_ps)).digest_only(),
            shown("achieved_kops", Real(self.achieved_kops(), 1)),
            shown("p50_us", Ps(latency.percentile(0.50))),
            shown("p95_us", Ps(latency.percentile(0.95))),
            shown("p99_us", Ps(latency.percentile(0.99))),
            shown("p999_us", Ps(latency.percentile(0.999))),
            shown("mean_us", Ps(latency.mean())),
            field("hist_digest", Digest(latency.digest())),
        ])
    }
}

/// The failover cell's measured outcome.
#[derive(Debug, Clone)]
struct FailoverOutcome {
    /// Completed requests.
    pub ok: u64,
    /// Failed requests (expected: the crashed shard's outage window).
    pub errors: u64,
    /// Acknowledged writes the engines logged.
    pub acked_writes: u64,
    /// Acked writes missing from the authoritative stores — the
    /// harness asserts this is zero.
    pub lost_acks: u64,
    /// Promotions the watchdog performed.
    pub promotions: usize,
    /// Deterministic promotion log.
    pub promotion_log: String,
    /// Closed client-observed outage windows (error → next success on
    /// the same shard). Zero when the client retry budget rides the
    /// whole failover out without surfacing an error.
    pub outages: usize,
    /// Longest request stall in the fault-free baseline at the same
    /// load, picoseconds.
    pub baseline_max_ps: u64,
    /// Longest request stall in the faulted run, picoseconds — the
    /// request that spanned the outage.
    pub max_ps: u64,
    /// The measured failover gap: the worst client-observed stall in
    /// excess of the fault-free baseline, picoseconds.
    pub gap_ps: u64,
    /// Post-run cluster state fingerprint.
    pub state_digest: u64,
    /// Latency histogram digest.
    pub hist_digest: u64,
}

impl FailoverOutcome {
    /// The cell's JSON object. [`failover_digest`] keeps its own feed:
    /// the committed digest takes `baseline_max` before `max`, and
    /// `hist_digest`, which the committed JSON leaves out.
    fn row(&self, cfg: &SweepConfig) -> Row {
        use Cell::{Count, Digest, Ps, Real, Text};
        Row(vec![
            field("crash_node", Count(CRASH_NODE as u64)),
            field("crash_at_us", Real(us(cfg.crash_at.as_ps()), 0)),
            field("downtime_us", Real(us(cfg.downtime.as_ps()), 0)),
            field("ok", Count(self.ok)),
            field("errors", Count(self.errors)),
            field("acked_writes", Count(self.acked_writes)),
            field("lost_acks", Count(self.lost_acks)),
            field("promotions", Count(self.promotions as u64)),
            field("outages", Count(self.outages as u64)),
            field("max_stall_us", Ps(self.max_ps)),
            field("baseline_max_us", Ps(self.baseline_max_ps)),
            field("gap_us", Ps(self.gap_ps)),
            field("promotion_log", Text(one_line(&self.promotion_log))),
            field("state_digest", Digest(self.state_digest)),
        ])
    }
}

/// Build a cluster over `topology` (its service configuration adjusted
/// by `tune`), spawn `engines` load engines spread evenly over the
/// fabric's enumerated node list, run to quiescence, and return the
/// merged stats plus the cluster for post-run checks.
pub(crate) fn drive(
    topology: &TopologyRef,
    engines: usize,
    tune: impl FnOnce(&mut SvcConfig),
    plan: &LoadPlan,
    faults: &FaultPlan,
    track_acks: bool,
) -> (LoadStats, Arc<SvcCluster>) {
    let config = SystemConfig::with_topology(Arc::clone(topology));
    let exp = Experiment::new(config, Some(faults));
    let system = &exp.system;
    let nodes = system.len();
    let mut scfg = SvcConfig::chained(nodes);
    // One client binding per engine, plus slack for re-binds abandoned
    // mid-establishment across epoch bumps (each promotion and
    // migration forces every engine to re-bind).
    scfg.conns_per_shard = nodes + 4;
    tune(&mut scfg);
    let cluster = SvcCluster::spawn(system, scfg);
    let all: Vec<usize> = system.topology().nodes().map(|n| n.0).collect();
    let step = (all.len() / engines.max(1)).max(1);
    let engine = |e| {
        let home = all[(e * step) % all.len()];
        spawn_engine(&cluster, home, e as u64, plan, track_acks)
    };
    let slots: Vec<_> = (0..engines).map(engine).collect();
    exp.run("svc cell");
    let mut merged = LoadStats::default();
    for slot in &slots {
        let stats = slot.lock();
        merged.merge(stats.as_ref().expect("engine must finish"));
    }
    (merged, cluster)
}

/// The zero-lost-acks audit: how many acknowledged mutations are *not*
/// still reflected in the authoritative store at >= their acked
/// sequence (retries may have re-applied one under a later sequence).
pub(crate) fn lost_acks(stats: &LoadStats, cluster: &SvcCluster) -> u64 {
    let held = |(shard, seq, op): &(usize, u64, Op)| {
        let store = cluster.authoritative_store(*shard);
        let guard = store.lock();
        let (eseq, val) = guard.get(op.key());
        eseq >= *seq
            && (eseq > *seq
                || match op {
                    Op::Put { val: v, .. } => val == Some(v.as_slice()),
                    Op::Del { .. } => val.is_none(),
                })
    };
    stats.acked.iter().filter(|ack| !held(ack)).count() as u64
}

/// Run one curve point at `rate` ops/s per engine.
fn run_point(cfg: &SweepConfig, rate: f64) -> CurvePoint {
    let mut plan = LoadPlan::new(SEED, cfg.requests, rate);
    plan.start = cfg.warmup;
    let start_ps = plan.start.as_ps();
    let (stats, cluster) = drive(
        &cfg.topology,
        cfg.engines(),
        |_| {},
        &plan,
        &FaultPlan::empty(),
        false,
    );
    assert_eq!(stats.errors, 0, "fault-free sweep must not error");
    let offered_share = offered_share(&plan, cfg.engines(), cluster.ring());
    let span_ps = stats
        .done_at
        .since(SimTime::ZERO)
        .as_ps()
        .saturating_sub(start_ps)
        .max(1);
    CurvePoint {
        rate_per_engine: rate,
        offered_kops: rate * cfg.engines() as f64 / 1e3,
        span_ps,
        stats,
        offered_share,
    }
}

/// Each shard's share of the requests `engines` engines running `plan`
/// offer, routed by `ring`: a skewed key stream or a lopsided ring
/// shows here before any latency does.
fn offered_share(plan: &LoadPlan, engines: usize, ring: &ShardRing) -> Vec<f64> {
    let mut counts = vec![0u64; ring.shards()];
    for engine in 0..engines as u64 {
        for arrival in plan.schedule(engine) {
            counts[ring.shard_of(arrival.req.key())] += 1;
        }
    }
    let total = counts.iter().sum::<u64>().max(1) as f64;
    counts.iter().map(|&c| c as f64 / total).collect()
}

/// Run the failover cell: the sweep's load with a scripted daemon
/// crash killing `CRASH_NODE` mid-run, against a fault-free baseline
/// of the same load for the gap measurement.
///
/// # Panics
///
/// Panics when no promotion happened, when the faulted run shows no
/// client-observed stall beyond the baseline, or when any acknowledged
/// write is missing from the authoritative stores (the zero-lost-acks
/// contract).
fn run_failover(cfg: &SweepConfig) -> FailoverOutcome {
    let mut plan = LoadPlan::new(SEED, cfg.failover_requests, cfg.failover_rate);
    plan.start = cfg.warmup;
    let (baseline, _) = drive(
        &cfg.topology,
        cfg.engines(),
        |_| {},
        &plan,
        &FaultPlan::empty(),
        false,
    );
    assert_eq!(baseline.errors, 0, "fault-free baseline must not error");
    let faults = one_fault(
        cfg.crash_at,
        FaultKind::DaemonCrash {
            node: CRASH_NODE,
            downtime: cfg.downtime,
        },
    );
    let (stats, cluster) = drive(&cfg.topology, cfg.engines(), |_| {}, &plan, &faults, true);

    let promotion_log: String = (cluster.event_log().lines())
        .filter(|l| l.starts_with("promote "))
        .map(|l| format!("{l}\n"))
        .collect();
    let promotions = promotion_log.lines().count();
    assert!(
        promotions > 0,
        "killing a primary's node must promote at least one shard"
    );
    let lost = lost_acks(&stats, &cluster);
    assert_eq!(lost, 0, "acknowledged writes were lost across failover");
    // The measured failover gap: the retry layer usually rides the
    // promotion out without surfacing an error, so the client-visible
    // cost shows up as the worst request stall in excess of the
    // fault-free baseline (the request that spanned the outage ate the
    // crash detection, the promotion, and the re-bind).
    let baseline_max_ps = baseline.latency.max();
    let max_ps = stats.latency.max();
    let gap_ps = max_ps.saturating_sub(baseline_max_ps);
    assert!(
        gap_ps > 0,
        "the crash must cost some client a visible stall \
         (faulted max {max_ps} ps vs baseline {baseline_max_ps} ps)"
    );
    FailoverOutcome {
        ok: stats.ok,
        errors: stats.errors,
        acked_writes: stats.acked.len() as u64,
        lost_acks: lost,
        promotions,
        promotion_log,
        outages: stats.outages.len(),
        baseline_max_ps,
        max_ps,
        gap_ps,
        state_digest: cluster.state_digest(),
        hist_digest: stats.latency.digest(),
    }
}

/// The full run: every curve point plus the failover cell.
fn run_sweep(cfg: &SweepConfig) -> (Vec<CurvePoint>, FailoverOutcome) {
    let curve: Vec<CurvePoint> = cfg.rates.iter().map(|&r| run_point(cfg, r)).collect();
    let failover = run_failover(cfg);
    (curve, failover)
}

/// Replay-stable digest over the curve's virtual quantities.
fn curve_digest(curve: &[CurvePoint]) -> u64 {
    let mut h = Fnv1a::default();
    curve.iter().for_each(|p| p.row().feed(&mut h));
    h.finish()
}

/// Replay-stable digest over the failover cell.
fn failover_digest(f: &FailoverOutcome) -> u64 {
    let mut h = Fnv1a::default();
    for v in [
        f.ok,
        f.errors,
        f.acked_writes,
        f.lost_acks,
        f.promotions as u64,
        f.outages as u64,
        f.baseline_max_ps,
        f.max_ps,
        f.gap_ps,
        f.state_digest,
        f.hist_digest,
    ] {
        h.u64(v);
    }
    h.bytes(f.promotion_log.as_bytes()).finish()
}

/// Render the committed `results/svc_curve.txt` (byte-identical across
/// replays).
fn render_curve(cfg: &SweepConfig, curve: &[CurvePoint], failover: &FailoverOutcome) -> String {
    let mut out = format!(
        "svc serving curve mesh={} engines={} requests/engine={} seed={}\n\
         {:>12} {:>10} {:>8} {:>6} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
        mesh_label(&cfg.topology),
        cfg.engines(),
        cfg.requests,
        SEED,
        "offered_kops",
        "achieved",
        "issued",
        "shed",
        "p50_us",
        "p95_us",
        "p99_us",
        "p999_us",
        "mean_us",
    );
    for p in curve {
        let at = |q| us(p.stats.latency.percentile(q));
        out.push_str(&format!(
            "{:>12.1} {:>10.1} {:>8} {:>6} {:>10.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}\n",
            p.offered_kops,
            p.achieved_kops(),
            p.stats.issued,
            p.stats.shed,
            at(0.50),
            at(0.95),
            at(0.99),
            at(0.999),
            us(p.stats.latency.mean()),
        ));
    }
    // Only the gaps scale with the rate, so every point offers its
    // shards the same key stream.
    if let Some(p) = curve.first() {
        let shares = p.offered_share.iter().enumerate();
        let shares: Vec<_> = shares
            .map(|(s, f)| format!("{s}:{:.1}", f * 100.0))
            .collect();
        out.push_str(&format!("offered share % by shard: {}\n", shares.join(" ")));
    }
    out.push_str(&format!(
        "failover crash_node={} at_us={:.0} downtime_us={:.0}: ok={} errors={} \
         acked_writes={} lost_acks={} promotions={} max_stall_us={:.2} \
         baseline_max_us={:.2} gap_us={:.2}\n",
        CRASH_NODE,
        us(cfg.crash_at.as_ps()),
        us(cfg.downtime.as_ps()),
        failover.ok,
        failover.errors,
        failover.acked_writes,
        failover.lost_acks,
        failover.promotions,
        us(failover.max_ps),
        us(failover.baseline_max_ps),
        us(failover.gap_ps),
    ));
    out.extend(failover.promotion_log.lines().map(|l| format!("  {l}\n")));
    out
}

/// Render the committed `BENCH_svc.json`.
fn render_json(cfg: &SweepConfig, curve: &[CurvePoint], failover: &FailoverOutcome) -> String {
    let mut json = Json::new(&[
        "Throughput-vs-offered-load and failover measurement for the",
        "shrimp-svc sharded replicated KV service, generated by",
        "`cargo run --release -p shrimp-bench -- svcbench`. All",
        "quantities are virtual-time and deterministic: regenerating on",
        "any host must reproduce this file byte-identically. CI's",
        "svc-smoke job re-runs the sweep and compares the digests.",
    ]);
    let config = Obj::new()
        .str("mesh", &mesh_label(&cfg.topology))
        .raw("engines", cfg.engines())
        .raw("requests_per_engine", cfg.requests)
        .raw("seed", SEED);
    json.put("config", config);
    json.rows("curve", curve.iter().map(|p| p.row().json()));
    json.put("failover", failover.row(cfg).json());
    json.hex("curve_digest", curve_digest(curve));
    json.hex("failover_digest", failover_digest(failover));
    json.finish()
}

/// A multi-line event log as one JSON-string-safe line.
pub(crate) fn one_line(log: &str) -> String {
    log.trim_end().replace('\n', "; ")
}

/// The serving benchmark as a `bench` workload: the committed 4×4
/// sweep, gated on `curve_digest` and `failover_digest`.
pub(crate) fn run(_: &Args) -> Outcome {
    let cfg = SweepConfig::paper_4x4();
    let (curve, failover) = run_sweep(&cfg);
    Outcome {
        text: render_curve(&cfg, &curve, &failover),
        json: Some(render_json(&cfg, &curve, &failover)),
        digests: vec![
            ("curve_digest", curve_digest(&curve)),
            ("failover_digest", failover_digest(&failover)),
        ],
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_curve_saturates_and_replays() {
        let cfg = SweepConfig::smoke();
        let under = run_point(&cfg, cfg.rates[0]);
        let over = run_point(&cfg, *cfg.rates.last().unwrap());
        assert_eq!(under.stats.shed, 0, "under offered load nothing is shed");
        assert!(
            over.stats.shed > 0,
            "past saturation admission control must shed ({} issued)",
            over.stats.issued
        );
        assert!(
            over.stats.latency.percentile(0.99) > under.stats.latency.percentile(0.99),
            "tail latency must climb past the knee"
        );
        assert!(
            over.achieved_kops() < over.offered_kops / 2.0,
            "achieved throughput must fall well short of offered past saturation"
        );
        let replay = run_point(&cfg, cfg.rates[0]);
        assert_eq!(under.stats.latency.digest(), replay.stats.latency.digest());
        assert_eq!(curve_digest(&[under]), curve_digest(&[replay]));
    }

    #[test]
    fn smoke_failover_loses_nothing() {
        let cfg = SweepConfig::smoke();
        let f = run_failover(&cfg);
        assert_eq!(f.lost_acks, 0);
        assert!(f.promotions >= 1);
        assert!(f.gap_ps > 0);
        assert!(f.promotion_log.contains("promote shard="));
    }
}
