//! The chaos-soaked SLO soak harness for `shrimp-svc`.
//!
//! Where `svcbench` measures the healthy serving curve and a single
//! failover, the soak composes the open-loop load engine with the
//! *full* self-healing surface at once:
//!
//! * a **brownout** dilating every mesh link mid-run,
//! * a **DMA stall** pinning one primary's incoming ring (exercises
//!   hedged reads against the still-healthy backup replica and tiered
//!   admission shedding as the stalled shard's backlog builds),
//! * a **primary crash** (exercises promotion and the watchdog's
//!   automatic re-replication of the promoted shard),
//! * scripted **live migrations** injected as [`FaultKind::Directive`]
//!   events (exercises the planned snapshot → drain → epoch-bump
//!   handoff while the shard is under load).
//!
//! A fault-free baseline of the same load runs first so the soak can
//! state its service-level objective in relative terms, and the soaked
//! run is asserted against absolute bounds: **zero lost acknowledged
//! writes**, p999 latency under the configured SLO, and a bounded shed
//! fraction. Everything is virtual-time and deterministic — the
//! committed `BENCH_svcsoak.json` digest is a bit-for-bit replay gate
//! (`svcsoak --check`), and the obs recorder rides along so the
//! service-layer span count is part of the fingerprint.

use std::sync::Arc;

use shrimp_mesh::{Mesh2D, TopologyRef};
use shrimp_obs::{Layer, Recorder};
use shrimp_sim::{FaultKind, FaultPlan, SimDur};
use shrimp_svc::{ClusterEvent, LoadPlan, LoadStats, SvcCluster, SvcConfig};

use crate::chaos::fault_at;
use crate::harness::{field, Args, Cell, Fnv1a, Json, Obj, Outcome, Row};
use crate::report::us;
use crate::svcbench::{self, lost_acks, mesh_label, one_line};

/// Schedule seed.
const SEED: u64 = 7;

/// How long a read waits on the primary before hedging to the backup
/// replica (the soak hedges more aggressively than the service default
/// so the brownout exercises the path).
const HEDGE_AFTER: SimDur = SimDur::from_ps(100_000_000); // 100 us

/// Brownout latency dilation factor.
const BROWNOUT_FACTOR: f64 = 4.0;

/// Node whose incoming DMA the plan stalls (a shard primary whose
/// backup stays healthy — the hedged-read scenario).
const STALL_NODE: usize = 0;

/// Node whose daemon the plan crashes (a shard primary).
const CRASH_NODE: usize = 1;

/// SLO: soaked `shed / (issued + shed)` must stay under this.
const MAX_SHED_FRACTION: f64 = 0.20;

/// Soak shape: mesh, engines, load mix, the fault matrix, and the SLO
/// the soaked run must hold.
#[derive(Debug, Clone)]
struct SoakConfig {
    /// Fabric the cluster is built over (must be in-order; engines are
    /// spread over its enumerated node list).
    pub topology: TopologyRef,
    /// Number of load engines (spread across the nodes).
    pub engines: usize,
    /// Requests per engine.
    pub requests: u64,
    /// Offered rate per engine (ops per virtual second).
    pub rate: f64,
    /// First-arrival offset (bindings and replication warm up first).
    pub warmup: SimDur,
    /// Fraction of requests that are multi-key scans.
    pub scan_fraction: f64,
    /// Keys per scan.
    pub scan_len: u32,
    /// Admission-control queue limit (the tiers shed scans at half of
    /// this, writes at three quarters, reads at the full limit).
    pub queue_limit: usize,
    /// Brownout start.
    pub brownout_at: SimDur,
    /// Brownout duration.
    pub brownout_dur: SimDur,
    /// Stall start.
    pub stall_at: SimDur,
    /// Stall duration.
    pub stall_dur: SimDur,
    /// Crash instant.
    pub crash_at: SimDur,
    /// Daemon downtime.
    pub downtime: SimDur,
    /// Scripted live migrations: `(at, shard, destination node)`.
    pub migrations: Vec<(SimDur, usize, usize)>,
    /// SLO: the soaked run's p999 arrival-to-completion latency must
    /// stay under this.
    pub slo_p999: SimDur,
}

impl SoakConfig {
    /// The committed configuration: a 4×4 mesh under a brownout, a
    /// primary crash, and two live migrations.
    fn paper_4x4() -> SoakConfig {
        SoakConfig {
            topology: Arc::new(Mesh2D::new(4, 4)),
            engines: 16,
            requests: 224,
            rate: 4_000.0,
            // 4×4 warm-up (16 serial binder exchanges per engine)
            // finishes at ~16.3 ms virtual.
            warmup: SimDur::from_us(20_000.0),
            scan_fraction: 0.08,
            scan_len: 6,
            queue_limit: 10,
            brownout_at: SimDur::from_us(24_000.0),
            brownout_dur: SimDur::from_us(5_000.0),
            stall_at: SimDur::from_us(25_000.0),
            stall_dur: SimDur::from_us(3_000.0),
            crash_at: SimDur::from_us(32_000.0),
            downtime: SimDur::from_us(6_000.0),
            migrations: vec![
                (SimDur::from_us(29_000.0), 0, 2),
                (SimDur::from_us(42_000.0), 5, 9),
            ],
            slo_p999: SimDur::from_us(10_000.0),
        }
    }

    /// A small CI-sized variant on the 2×2 prototype: two engines, one
    /// migration, the same brownout + crash composition.
    fn smoke() -> SoakConfig {
        SoakConfig {
            topology: Arc::new(Mesh2D::new(2, 2)),
            engines: 2,
            requests: 160,
            rate: 12_000.0,
            // 2×2 warm-up completes at ~4.1 ms virtual.
            warmup: SimDur::from_us(6_000.0),
            scan_fraction: 0.10,
            scan_len: 4,
            queue_limit: 16,
            brownout_at: SimDur::from_us(7_500.0),
            brownout_dur: SimDur::from_us(2_000.0),
            stall_at: SimDur::from_us(8_000.0),
            stall_dur: SimDur::from_us(1_200.0),
            crash_at: SimDur::from_us(12_000.0),
            downtime: SimDur::from_us(2_500.0),
            migrations: vec![(SimDur::from_us(9_700.0), 0, 2)],
            slo_p999: SimDur::from_us(9_000.0),
        }
    }

    /// The soaked run's scripted fault plan ([`FaultPlan::scripted`]
    /// sorts it by time).
    fn fault_plan(&self) -> FaultPlan {
        let mut events = vec![
            fault_at(
                self.brownout_at,
                FaultKind::Brownout {
                    factor: BROWNOUT_FACTOR,
                    dur: self.brownout_dur,
                },
            ),
            fault_at(
                self.stall_at,
                FaultKind::DmaStall {
                    node: STALL_NODE,
                    dur: self.stall_dur,
                },
            ),
            fault_at(
                self.crash_at,
                FaultKind::DaemonCrash {
                    node: CRASH_NODE,
                    downtime: self.downtime,
                },
            ),
        ];
        for &(at, shard, to) in &self.migrations {
            events.push(fault_at(
                at,
                FaultKind::Directive {
                    op: "migrate",
                    a: shard as u64,
                    b: to as u64,
                },
            ));
        }
        FaultPlan::scripted(events)
    }
}

/// One run (baseline or soaked): what the engines measured, merged,
/// and the service-layer obs spans the run recorded. All virtual, so
/// replay-stable.
#[derive(Debug, Clone)]
struct SoakRun {
    stats: LoadStats,
    service_spans: u64,
}

impl SoakRun {
    /// `shed / (issued + shed)`.
    fn shed_fraction(&self) -> f64 {
        let offered = self.stats.issued + self.stats.shed;
        if offered == 0 {
            0.0
        } else {
            self.stats.shed as f64 / offered as f64
        }
    }

    /// The 99.9th percentile latency the SLO bounds, picoseconds.
    fn p999_ps(&self) -> u64 {
        self.stats.latency.percentile(0.999)
    }

    /// The row: every field in digest order.
    fn row(&self) -> Row {
        use Cell::{Count, Digest, Ps};
        let (s, latency) = (&self.stats, &self.stats.latency);
        Row(vec![
            field("issued", Count(s.issued)).col("issued", 8),
            field("shed", Count(s.shed)).col("shed", 6),
            field("shed_scans", Count(s.shed_scans)),
            field("shed_writes", Count(s.shed_writes)),
            field("shed_reads", Count(s.shed_reads)),
            field("ok", Count(s.ok)).col("ok", 6),
            field("errors", Count(s.errors)).col("errors", 6),
            field("hedges", Count(s.hedges)).col("hedges", 8),
            field("hedge_wins", Count(s.hedge_wins)).col("wins", 8),
            field("p50_us", Ps(latency.percentile(0.50))).col("p50_us", 8),
            field("p99_us", Ps(latency.percentile(0.99))).col("p99_us", 9),
            field("p999_us", Ps(self.p999_ps())).col("p999_us", 9),
            field("max_us", Ps(latency.max())).col("max_us", 9),
            field("hist_digest", Digest(latency.digest())),
            field("service_spans", Count(self.service_spans)),
        ])
    }
}

/// The soak's full outcome: both runs plus the self-healing audit.
#[derive(Debug, Clone)]
struct SoakOutcome {
    /// The fault-free run of the same load.
    pub baseline: SoakRun,
    /// The run under the fault matrix.
    pub soaked: SoakRun,
    /// Acknowledged writes the engines logged during the soaked run.
    pub acked_writes: u64,
    /// Acked writes missing from the authoritative stores — asserted
    /// zero.
    pub lost_acks: u64,
    /// Promotions the watchdog performed.
    pub promotions: u64,
    /// Completed live migrations.
    pub migrated: u64,
    /// Re-replications (a promoted or migrated shard regaining its
    /// backup).
    pub rearmed: u64,
    /// Deterministic cluster event log of the soaked run.
    pub event_log: String,
    /// Post-soak cluster state fingerprint.
    pub state_digest: u64,
}

/// Replay-stable digest over the whole soak (both runs, the healing
/// audit, and the event log).
fn soak_digest(o: &SoakOutcome) -> u64 {
    let mut h = Fnv1a::default();
    o.baseline.row().feed(&mut h);
    o.soaked.row().feed(&mut h);
    for v in [
        o.acked_writes,
        o.lost_acks,
        o.promotions,
        o.migrated,
        o.rearmed,
        o.state_digest,
    ] {
        h.u64(v);
    }
    h.bytes(o.event_log.as_bytes()).finish()
}

/// [`svcbench::drive`] with the soak's service configuration (hedged
/// reads on, at the soak's trigger) under an obs recorder, which counts
/// the run's service-layer spans.
fn drive(
    cfg: &SoakConfig,
    plan: &LoadPlan,
    faults: &FaultPlan,
    track_acks: bool,
) -> (SoakRun, Arc<SvcCluster>) {
    let rec = Recorder::new();
    let _guard = rec.install();
    let tune = |scfg: &mut SvcConfig| {
        scfg.hedge_reads = true;
        scfg.hedge_after = HEDGE_AFTER;
    };
    let (stats, cluster) =
        svcbench::drive(&cfg.topology, cfg.engines, tune, plan, faults, track_acks);
    let spans = rec.spans();
    let service_spans = spans.iter().filter(|s| s.layer == Layer::Service).count() as u64;
    let run = SoakRun {
        stats,
        service_spans,
    };
    (run, cluster)
}

fn load_plan(cfg: &SoakConfig) -> LoadPlan {
    let mut plan = LoadPlan::new(SEED, cfg.requests, cfg.rate);
    plan.start = cfg.warmup;
    plan.scan_fraction = cfg.scan_fraction;
    plan.scan_len = cfg.scan_len;
    plan.queue_limit = cfg.queue_limit;
    plan
}

/// Run the soak: fault-free baseline, then the soaked run under the
/// composed fault matrix, then the self-healing audit.
///
/// # Panics
///
/// Panics when any acknowledged write is missing from the
/// authoritative stores, when the event log lacks the promote /
/// migrate / rearm traversal the plan scripts, when the soaked p999
/// exceeds `cfg.slo_p999`, or when the shed fraction exceeds
/// `MAX_SHED_FRACTION`.
fn run_soak(cfg: &SoakConfig) -> SoakOutcome {
    let plan = load_plan(cfg);
    let (baseline, _) = drive(cfg, &plan, &FaultPlan::empty(), false);
    assert_eq!(
        baseline.stats.errors, 0,
        "fault-free soak baseline must not error"
    );

    let (soaked, cluster) = drive(cfg, &plan, &cfg.fault_plan(), true);

    // Zero lost acknowledged writes across the brownout, the crash
    // promotion, the re-replications, and every live migration.
    let lost = lost_acks(&soaked.stats, &cluster);
    assert_eq!(lost, 0, "acknowledged writes were lost during the soak");

    let events = cluster.events();
    let count = |f: fn(&ClusterEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    let promotions = count(|e| matches!(e, ClusterEvent::Promoted { .. }));
    let migrated = count(|e| matches!(e, ClusterEvent::Migrated { .. }));
    let rearmed = count(|e| matches!(e, ClusterEvent::Rearmed { .. }));
    assert!(
        promotions >= 1,
        "crashing a primary's node must promote at least one shard"
    );
    assert_eq!(
        migrated,
        cfg.migrations.len() as u64,
        "every scripted migration must complete"
    );
    assert!(
        rearmed >= promotions + migrated,
        "every promoted and migrated shard must regain a backup \
         (rearmed={rearmed} promotions={promotions} migrated={migrated})"
    );

    let outcome = SoakOutcome {
        acked_writes: soaked.stats.acked.len() as u64,
        baseline,
        soaked,
        lost_acks: lost,
        promotions,
        migrated,
        rearmed,
        event_log: cluster.event_log(),
        state_digest: cluster.state_digest(),
    };

    // The soak must actually exercise the resilience surface it
    // audits: the stalled primary has to push some read past the
    // hedge trigger and some backlog past the shedding tiers.
    assert!(
        outcome.soaked.stats.hedges >= 1,
        "the stalled primary must drive at least one hedged read"
    );
    assert!(
        outcome.soaked.stats.shed >= 1,
        "the stalled primary must drive tiered admission shedding"
    );
    // The SLO: tail latency bounded even under the composed fault
    // matrix, and tiered admission control sheds at a bounded rate.
    assert!(
        outcome.soaked.p999_ps() <= cfg.slo_p999.as_ps(),
        "soaked p999 {} ps over the {} ps SLO",
        outcome.soaked.p999_ps(),
        cfg.slo_p999.as_ps()
    );
    assert!(
        outcome.soaked.shed_fraction() <= MAX_SHED_FRACTION,
        "soaked shed fraction {:.4} over the {:.4} bound",
        outcome.soaked.shed_fraction(),
        MAX_SHED_FRACTION
    );
    outcome
}

/// Render the committed `results/svc_soak.txt` (byte-identical across
/// replays).
fn render_report(cfg: &SoakConfig, o: &SoakOutcome) -> String {
    let mut out = format!(
        "svc chaos soak mesh={} engines={} requests/engine={} rate/engine={:.0} seed={}\n\
         faults: brownout x{:.1} at_us={:.0} dur_us={:.0}; dma-stall node={} at_us={:.0} \
         dur_us={:.0}; crash node={} at_us={:.0} downtime_us={:.0}; migrations={}\n",
        mesh_label(&cfg.topology),
        cfg.engines,
        cfg.requests,
        cfg.rate,
        SEED,
        BROWNOUT_FACTOR,
        us(cfg.brownout_at.as_ps()),
        us(cfg.brownout_dur.as_ps()),
        STALL_NODE,
        us(cfg.stall_at.as_ps()),
        us(cfg.stall_dur.as_ps()),
        CRASH_NODE,
        us(cfg.crash_at.as_ps()),
        us(cfg.downtime.as_ps()),
        cfg.migrations
            .iter()
            .map(|(at, s, to)| format!("shard{}->node{}@{:.0}us", s, to, us(at.as_ps())))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push_str(&format!(
        "{:>10} {}",
        "run",
        o.baseline.row().table_line(true)
    ));
    for (name, run) in [("baseline", &o.baseline), ("soaked", &o.soaked)] {
        out.push_str(&format!("{name:>10} {}", run.row().table_line(false)));
    }
    out.push_str(&format!(
        "shed tiers (soaked): scans={} writes={} reads={} fraction={:.4} (bound {:.4})\n",
        o.soaked.stats.shed_scans,
        o.soaked.stats.shed_writes,
        o.soaked.stats.shed_reads,
        o.soaked.shed_fraction(),
        MAX_SHED_FRACTION,
    ));
    out.push_str(&format!(
        "slo: p999 {:.2} us <= {:.2} us; acked_writes={} lost_acks={} promotions={} \
         migrated={} rearmed={} service_spans={}\n",
        us(o.soaked.p999_ps()),
        us(cfg.slo_p999.as_ps()),
        o.acked_writes,
        o.lost_acks,
        o.promotions,
        o.migrated,
        o.rearmed,
        o.soaked.service_spans,
    ));
    for line in o.event_log.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Render the committed `BENCH_svcsoak.json` from the full soak's
/// outcome plus the smoke configuration's digest (CI's soak job runs
/// the cheap smoke soak and gates on `smoke_digest`; regenerating the
/// file requires both runs).
fn render_json(cfg: &SoakConfig, o: &SoakOutcome, smoke_digest: u64) -> String {
    let mut json = Json::new(&[
        "Chaos-soaked SLO soak for the shrimp-svc self-healing serving",
        "stack (brownout + primary crash + live migrations under load),",
        "generated by `cargo run --release -p shrimp-bench -- svcsoak`.",
        "All quantities are virtual-time and deterministic: regenerating",
        "on any host must reproduce this file byte-identically. CI's",
        "svc-soak job re-runs the smoke soak and gates on smoke_digest;",
        "the default (4x4) run gates on soak_digest.",
    ]);
    let config = Obj::new()
        .str("mesh", &mesh_label(&cfg.topology))
        .raw("engines", cfg.engines)
        .raw("requests_per_engine", cfg.requests)
        .num("rate_per_engine", cfg.rate, 0)
        .raw("seed", SEED)
        .num("slo_p999_us", us(cfg.slo_p999.as_ps()), 0)
        .num("max_shed_fraction", MAX_SHED_FRACTION, 2)
        .raw("migrations", cfg.migrations.len());
    json.put("config", config);
    json.put("baseline", o.baseline.row().json());
    json.put("soaked", o.soaked.row().json());
    let healing = Obj::new()
        .raw("acked_writes", o.acked_writes)
        .raw("lost_acks", o.lost_acks)
        .raw("promotions", o.promotions)
        .raw("migrated", o.migrated)
        .raw("rearmed", o.rearmed)
        .str("event_log", &one_line(&o.event_log))
        .hex("state_digest", o.state_digest);
    json.put("healing", healing);
    json.hex("smoke_digest", smoke_digest);
    json.hex("soak_digest", soak_digest(o));
    json.finish()
}

/// The soak as a `bench` workload. The SLO and zero-lost-acks
/// assertions fire inside the run itself. The full 4×4 soak also runs
/// the smoke soak (its digest is part of `BENCH_svcsoak.json`) and
/// gates on `smoke_digest` and `soak_digest`; `--smoke` runs only the
/// small 2×2 configuration and gates on `smoke_digest`.
pub fn run(args: &Args) -> Outcome {
    let smoke_cfg = SoakConfig::smoke();
    let smoke = run_soak(&smoke_cfg);
    let mut out = Outcome {
        digests: vec![("smoke_digest", soak_digest(&smoke))],
        ..Outcome::default()
    };
    if args.has("--smoke") {
        out.text = render_report(&smoke_cfg, &smoke);
    } else {
        let cfg = SoakConfig::paper_4x4();
        let outcome = run_soak(&cfg);
        out.text = render_report(&cfg, &outcome);
        out.json = Some(render_json(&cfg, &outcome, soak_digest(&smoke)));
        out.digests.push(("soak_digest", soak_digest(&outcome)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_holds_slo_and_replays_bit_identically() {
        let cfg = SoakConfig::smoke();
        let a = run_soak(&cfg);
        assert_eq!(a.lost_acks, 0);
        assert!(a.promotions >= 1);
        assert_eq!(a.migrated, cfg.migrations.len() as u64);
        assert!(a.event_log.contains("migrate shard="));
        assert!(a.event_log.contains("promote shard="));
        assert!(a.event_log.contains("rearm shard="));
        assert!(a.soaked.service_spans > 0, "obs must capture service spans");
        // The soak exists to exercise degradation: the fault matrix
        // must actually cost the tail something relative to baseline.
        assert!(a.soaked.stats.latency.max() > a.baseline.stats.latency.max());
        let b = run_soak(&cfg);
        assert_eq!(soak_digest(&a), soak_digest(&b), "soak must replay");
    }
}
