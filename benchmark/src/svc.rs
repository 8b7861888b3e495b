//! `svc_4x4`: the sharded, replicated KV service under an open loop.
//!
//! A 4×4 mesh hosts 16 shard primaries with chained replication. Each
//! node also hosts one benchmark-owned engine: a generator process that
//! walks a seeded Poisson schedule in virtual time and a worker process
//! that drains a bounded queue through `SvcClient::{get, put}`. One
//! cluster serves the whole ladder of offered rates, each step drained
//! before the next begins. Latency runs from the instant a request was
//! *due*, so queueing behind a slow request counts.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_mesh::Mesh2D;
use shrimp_sim::metrics::MetricsSnapshot;
use shrimp_sim::{Kernel, MetricsRegistry, SimChannel, SimDur, SimTime};
use shrimp_svc::{SvcClient, SvcCluster, SvcConfig};

use crate::rep::{Phase, RepOut, TrafficCounts, VirtSummary};
use crate::stats::{
    highest_supported_percentile, percentile_sorted, poisson_schedule, zipf_cdf, Arrival, Rng,
};

/// Arrivals that find this many requests queued are shed.
pub const QUEUE_LIMIT: usize = 64;
/// Keys in the keyspace.
pub const KEYS: usize = 512;
/// Zipf exponent of key popularity.
pub const ZIPF_S: f64 = 0.99;
/// Share of requests that are puts.
pub const PUT_SHARE: f64 = 0.30;
/// Value bytes per put.
pub const VAL_LEN: usize = 16;
/// The latency limit a step must meet at p99 to count towards
/// `virt_slo_kops`, virtual microseconds.
pub const SLO_P99_US: f64 = 1_000.0;

/// One ladder step.
#[derive(Debug)]
pub struct Step {
    /// Offered load over all engines, thousand requests per virtual second.
    pub offered_kops: f64,
    /// True for the one step meant to exceed capacity: shedding there
    /// is the service working as designed, not a failure.
    pub overload: bool,
    /// Virtual time the step's first arrival is measured from.
    pub start: SimTime,
    /// Virtual time by which the step must have drained (the next
    /// step's start, or the end of the run).
    pub end: SimTime,
    /// `schedule[engine]`: that engine's arrivals, `due_ps` relative to
    /// `start`.
    pub schedule: Vec<Vec<Arrival>>,
}

/// The workload's inputs.
#[derive(Debug)]
pub struct SvcPlan {
    /// Mesh width and height.
    pub dims: (usize, usize),
    /// The ladder, in order.
    pub steps: Vec<Step>,
    /// Index of the fixed mid-rate step that supplies the latency
    /// percentiles.
    pub mid: usize,
}

/// `(offered kops, requests per engine, overload?)` of the frozen
/// ladder.
pub type StepSpec = (f64, usize, bool);

impl SvcPlan {
    /// Draw the plan. `warmup` is when the first step starts: late
    /// enough for every worker to have bound every shard. Each step is
    /// followed by `drain` of silence (`overload_drain` after the
    /// overload step) before the next.
    pub fn draw(
        seed: u64,
        dims: (usize, usize),
        ladder: &[StepSpec],
        mid: usize,
        warmup: SimDur,
        drain: SimDur,
        overload_drain: SimDur,
    ) -> SvcPlan {
        let engines = dims.0 * dims.1;
        let cdf = zipf_cdf(KEYS, ZIPF_S);
        let mut start = SimTime::ZERO + warmup;
        let steps = ladder
            .iter()
            .enumerate()
            .map(|(si, &(offered_kops, requests, overload))| {
                let rate = offered_kops * 1e3 / engines as f64;
                let schedule: Vec<Vec<Arrival>> = (0..engines)
                    .map(|e| {
                        let mut rng = Rng::new(seed, 1_000 + (si * engines + e) as u64);
                        poisson_schedule(&mut rng, requests, rate, &cdf, PUT_SHARE, VAL_LEN)
                    })
                    .collect();
                let last_due = schedule
                    .iter()
                    .map(|s| s.last().map_or(0, |a| a.due_ps))
                    .max()
                    .unwrap_or(0);
                let end = start
                    + SimDur::from_ps(last_due)
                    + if overload { overload_drain } else { drain };
                let step = Step {
                    offered_kops,
                    overload,
                    start,
                    end,
                    schedule,
                };
                start = end;
                step
            })
            .collect();
        SvcPlan { dims, steps, mid }
    }
}

fn key_bytes(rank: u32) -> Vec<u8> {
    format!("k{rank:08}").into_bytes()
}

/// One completed (or failed) request as the worker saw it.
#[derive(Clone, Debug)]
struct Done {
    step: usize,
    put: bool,
    /// Completion minus due time.
    lat_ps: u64,
    done_at: SimTime,
    /// Key and value bytes the request carried out and back.
    bytes: u64,
    ok: bool,
}

#[derive(Default)]
struct EngineOut {
    done: Vec<Done>,
    /// `shed[step]`.
    shed: Vec<u64>,
    /// Worst `now - due` the generator saw when it woke for an arrival.
    gen_late_max_ps: u64,
    /// Requests still queued or in flight when a step's drain time ended.
    undrained: Vec<u64>,
    /// Acked puts as `(shard, seq, key rank, value)`.
    acked: Vec<(usize, u64, u32, Vec<u8>)>,
    /// When the worker had bound every shard.
    warmed_at: Option<SimTime>,
    hedges: u64,
    errors: Vec<String>,
}

/// Run one rep: one cluster, the whole ladder.
pub fn run_rep(plan: &Arc<SvcPlan>) -> RepOut {
    let rep_start = Instant::now();
    let reg = MetricsRegistry::new();
    let guard = reg.install();
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(
        &kernel,
        SystemConfig::with_topology(Arc::new(Mesh2D::new(plan.dims.0, plan.dims.1))),
    );
    drop(guard);
    let nodes = system.len();
    let mut cfg = SvcConfig::chained(nodes);
    // One binding per engine per shard, plus slack.
    cfg.conns_per_shard = nodes + 4;
    let cluster = SvcCluster::spawn(&system, cfg);
    cluster.register_clients(nodes);
    let outs: Vec<Arc<Mutex<EngineOut>>> = (0..nodes)
        .map(|_| {
            Arc::new(Mutex::new(EngineOut {
                shed: vec![0; plan.steps.len()],
                undrained: vec![0; plan.steps.len()],
                ..EngineOut::default()
            }))
        })
        .collect();

    for (engine, out) in outs.iter().enumerate() {
        // `(step, index in the step's schedule)`, or `None` at the end.
        let queue: SimChannel<Option<(usize, usize)>> = SimChannel::new();
        // Requests handed to the worker and not yet completed.
        let in_flight = Arc::new(Mutex::new(0u64));
        {
            let (plan, out, queue, in_flight) = (
                Arc::clone(plan),
                Arc::clone(out),
                queue.clone(),
                Arc::clone(&in_flight),
            );
            kernel.spawn(format!("bench-gen-{engine}"), move |ctx| {
                for (si, step) in plan.steps.iter().enumerate() {
                    for (ai, arrival) in step.schedule[engine].iter().enumerate() {
                        let due = step.start + SimDur::from_ps(arrival.due_ps);
                        if due > ctx.now() {
                            ctx.advance(due.since(ctx.now()));
                        }
                        let late = ctx.now().since(due).as_ps();
                        let mut o = out.lock().expect("engine out");
                        o.gen_late_max_ps = o.gen_late_max_ps.max(late);
                        if queue.len() >= QUEUE_LIMIT {
                            o.shed[si] += 1;
                            continue;
                        }
                        drop(o);
                        *in_flight.lock().expect("in flight") += 1;
                        queue.send(&ctx.handle(), Some((si, ai)));
                    }
                    if step.end > ctx.now() {
                        ctx.advance(step.end.since(ctx.now()));
                    }
                    out.lock().expect("engine out").undrained[si] =
                        *in_flight.lock().expect("in flight");
                }
                queue.send(&ctx.handle(), None);
            });
        }
        {
            let (plan, out, cluster) = (Arc::clone(plan), Arc::clone(out), Arc::clone(&cluster));
            kernel.spawn(format!("bench-wrk-{engine}"), move |ctx| {
                let mut cli = SvcClient::new(&cluster, engine, format!("bench{engine}"));
                let note = |what: String| {
                    let mut o = out.lock().expect("engine out");
                    o.errors.push(format!("engine {engine} {what}"));
                };
                // Bind every shard before the first arrival, so the
                // ladder measures the persistent-channel path.
                let shards = cluster.config().shards;
                let mut warmed = vec![false; shards];
                let mut probe = 0u32;
                while warmed.iter().any(|w| !w) && probe < 100_000 {
                    let key = format!("warm{probe:08}").into_bytes();
                    probe += 1;
                    let shard = cli.shard_of(&key);
                    if !warmed[shard] {
                        if let Err(e) = cli.get(ctx, &key) {
                            note(format!("warm-up: {e}"));
                        }
                        warmed[shard] = true;
                    }
                }
                out.lock().expect("engine out").warmed_at = Some(ctx.now());
                let mut last_acked: Option<(u32, u64, Vec<u8>)> = None;
                while let Some((si, ai)) = queue.recv(ctx) {
                    let step = &plan.steps[si];
                    let arrival = &step.schedule[engine][ai];
                    let due = step.start + SimDur::from_ps(arrival.due_ps);
                    let key = key_bytes(arrival.key);
                    // `Some(payload bytes)` on success.
                    let moved = match &arrival.put {
                        Some(val) => match cli.put(ctx, &key, val) {
                            Ok(applied) => {
                                let shard = cli.shard_of(&key);
                                out.lock().expect("engine out").acked.push((
                                    shard,
                                    applied.seq,
                                    arrival.key,
                                    val.clone(),
                                ));
                                last_acked = Some((arrival.key, applied.seq, val.clone()));
                                Some(key.len() + val.len())
                            }
                            Err(e) => {
                                note(format!("put: {e}"));
                                None
                            }
                        },
                        None => match cli.get(ctx, &key) {
                            Ok((_, val)) => Some(key.len() + val.map_or(0, |v| v.len())),
                            Err(e) => {
                                note(format!("get: {e}"));
                                None
                            }
                        },
                    };
                    let now = ctx.now();
                    out.lock().expect("engine out").done.push(Done {
                        step: si,
                        put: arrival.put.is_some(),
                        lat_ps: now.since(due).as_ps(),
                        done_at: now,
                        bytes: moved.unwrap_or(0) as u64,
                        ok: moved.is_some(),
                    });
                    *in_flight.lock().expect("in flight") -= 1;
                }
                // Read your own last acked write.
                if let Some((rank, seq, val)) = last_acked {
                    match cli.get(ctx, &key_bytes(rank)) {
                        Ok((got_seq, got)) => {
                            let held = got_seq > seq
                                || (got_seq == seq && got.as_deref() == Some(&val[..]));
                            if !held {
                                note(format!("read back seq {got_seq} for its write {seq}"));
                            }
                        }
                        Err(e) => note(format!("read-back: {e}")),
                    }
                }
                out.lock().expect("engine out").hedges = cli.stats().hedges;
                cluster.client_done();
            });
        }
    }

    // The main thread steps the kernel from one step boundary to the
    // next, which splits host time by step without a clock read inside
    // the simulation.
    let mut out = RepOut {
        host_t0: Some(rep_start),
        ..RepOut::default()
    };
    let mut host: Vec<(Instant, f64, MetricsSnapshot)> = Vec::new();
    let run_to = |t: Option<SimTime>, out: &mut RepOut| {
        let (h0, s0) = (Instant::now(), reg.snapshot());
        let r = match t {
            Some(t) => kernel.run_until(t),
            None => kernel.run_until_quiescent(),
        };
        if let Err(e) = r {
            out.fail(format!("simulation: {e}"));
        }
        (h0, h0.elapsed().as_secs_f64(), reg.snapshot().delta(&s0))
    };
    run_to(Some(plan.steps[0].start), &mut out);
    let setup_end = Instant::now();
    for step in &plan.steps {
        host.push(run_to(Some(step.end), &mut out));
    }
    // Read-backs and shutdown.
    run_to(None, &mut out);

    let engines: Vec<EngineOut> = outs
        .iter()
        .map(|o| std::mem::take(&mut *o.lock().expect("engine out")))
        .collect();
    let first_start = plan.steps[0].start;
    let mut late = 0u64;
    let mut hedges = 0u64;
    for (e, eng) in engines.iter().enumerate() {
        late = late.max(eng.gen_late_max_ps);
        hedges += eng.hedges;
        match eng.warmed_at {
            Some(t) if t <= first_start => {}
            other => out.fail(format!(
                "engine {e} finished binding at {other:?}, after the first step began"
            )),
        }
        for err in &eng.errors {
            out.fail(err.clone());
        }
    }
    if late > 0 {
        out.fail(format!("generator ran {late} ps late"));
    }

    let mut shed_overload = 0u64;
    let mut offered_overload = 0u64;
    for (si, step) in plan.steps.iter().enumerate() {
        let offered: u64 = step.schedule.iter().map(|s| s.len() as u64).sum();
        let shed: u64 = engines.iter().map(|e| e.shed[si]).sum();
        let undrained: u64 = engines.iter().map(|e| e.undrained[si]).sum();
        out.attempted += offered;
        if step.overload {
            shed_overload += shed;
            offered_overload += offered;
        } else {
            out.failed += shed;
            if undrained > 0 {
                out.fail(format!(
                    "step {} left {undrained} requests undrained",
                    si + 1
                ));
            }
        }
        let done = || {
            engines
                .iter()
                .flat_map(|e| &e.done)
                .filter(move |d| d.step == si)
        };
        let last_done = done().map(|d| d.done_at).max().unwrap_or(step.start);
        let ok = done().filter(|d| d.ok).count() as u64;
        // Throughput is the sum of the engines' own rates, each over
        // that engine's span from the step's start to its last
        // completion: one late engine then costs its own share, not the
        // whole step's.
        let (mut ops_per_s, mut bytes_per_s) = (0.0f64, 0.0f64);
        for eng in &engines {
            let mine = || eng.done.iter().filter(|d| d.step == si && d.ok);
            if let Some(end) = mine().map(|d| d.done_at).max() {
                let span_s = end.since(step.start).as_ps() as f64 / 1e12;
                ops_per_s += mine().count() as f64 / span_s;
                bytes_per_s += mine().map(|d| d.bytes).sum::<u64>() as f64 / span_s;
            }
        }
        let (host_t0, host_s, sim) = host[si];
        for (kind, put) in [("get", false), ("put", true)] {
            out.phases.push(Phase {
                name: format!("step{}:{kind}", si + 1),
                lat_ps: done()
                    .filter(|d| d.ok && d.put == put)
                    .map(|d| d.lat_ps)
                    .collect(),
                bytes: done()
                    .filter(|d| d.ok && d.put == put)
                    .map(|d| d.bytes)
                    .sum(),
                span_ps: last_done.since(step.start).as_ps(),
                // Host time and counters belong to the step as a whole;
                // they are booked on its `get` phase.
                host_s: if put { 0.0 } else { host_s },
                host_t0: (!put).then_some(host_t0),
                sim: if put { MetricsSnapshot::default() } else { sim },
            });
        }
        out.counts
            .insert(step_key(si, "ops_per_s"), ops_per_s as u64);
        out.counts
            .insert(step_key(si, "bytes_per_s"), bytes_per_s as u64);
        out.counts.insert(step_key(si, "ok"), ok);
        out.counts.insert(step_key(si, "shed"), shed);
        out.counts.insert(step_key(si, "undrained"), undrained);
    }
    out.counts.insert("gen_late_max_ps".into(), late);
    out.counts.insert("hedges".into(), hedges);
    out.counts.insert("shed_overload".into(), shed_overload);
    out.counts
        .insert("offered_overload".into(), offered_overload);

    // Zero lost acked writes: every acked put is still held, at its
    // sequence or a later one, by the primary's store and the backup's.
    let mut lost = 0u64;
    for eng in &engines {
        for (shard, seq, rank, val) in &eng.acked {
            let key = key_bytes(*rank);
            let held = |eseq: u64, got: Option<&[u8]>| {
                eseq > *seq || (eseq == *seq && got == Some(&val[..]))
            };
            let primary = cluster.authoritative_store(*shard);
            let (eseq, got) = {
                let g = primary.lock();
                let (s, v) = g.get(&key);
                (s, v.map(<[u8]>::to_vec))
            };
            if !held(eseq, got.as_deref()) {
                lost += 1;
            }
            if let Some(backup) = cluster.backup_store(*shard) {
                let g = backup.lock();
                let (s, v) = g.get(&key);
                if !held(s, v) {
                    lost += 1;
                }
            }
        }
    }
    out.counts.insert("lost_acked_writes".into(), lost);
    if lost > 0 {
        out.fail(format!("{lost} acked writes missing from a store"));
    }
    if !system.violations().is_empty() {
        out.fail("protection violations".into());
    }

    out.setup_virt_ps = engines
        .iter()
        .filter_map(|e| e.warmed_at)
        .max()
        .map_or(0, |t| t.since(SimTime::ZERO).as_ps());
    out.traffic = TrafficCounts::of(&system);
    out.setup_s = setup_end.duration_since(rep_start).as_secs_f64();
    let t = Instant::now();
    drop(cluster);
    drop(system);
    drop(kernel);
    out.teardown_s = t.elapsed().as_secs_f64();
    out.sim = reg.snapshot();
    out.wall_s = rep_start.elapsed().as_secs_f64();
    out
}

fn step_key(si: usize, what: &str) -> String {
    format!("s{}_{what}", si + 1)
}

/// One step's results.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Completed requests per virtual millisecond, summed over the
    /// engines' own rates.
    pub achieved_kops: f64,
    /// Key and value MB moved per virtual second, summed likewise.
    pub goodput_mbs: f64,
    /// Latency of gets and puts together at `tail_p`, virtual microseconds.
    pub tail_us: f64,
    /// The highest percentile the step's sample supports, at most p99.
    pub tail_p: f64,
    /// Requests shed.
    pub shed: u64,
    /// True when the step met the latency limit with nothing shed,
    /// nothing failed and nothing left queued.
    pub meets_slo: bool,
}

fn tail_of(lat_ps: &[u64]) -> (f64, f64) {
    let mut all = lat_ps.to_vec();
    all.sort_unstable();
    let p = highest_supported_percentile(all.len())
        .unwrap_or(0.90)
        .min(0.99);
    (p, percentile_sorted(&all, p) as f64 / 1e6)
}

/// Per-step results of a rep.
pub fn step_results(plan: &SvcPlan, rep: &RepOut) -> Vec<StepResult> {
    (0..plan.steps.len())
        .map(|si| {
            let get = rep.phase(&format!("step{}:get", si + 1));
            let put = rep.phase(&format!("step{}:put", si + 1));
            let all: Vec<u64> = get.lat_ps.iter().chain(&put.lat_ps).copied().collect();
            let (tail_p, tail_us) = tail_of(&all);
            let count = |what| rep.counts[&step_key(si, what)];
            let offered: usize = plan.steps[si].schedule.iter().map(Vec::len).sum();
            StepResult {
                achieved_kops: count("ops_per_s") as f64 / 1e3,
                goodput_mbs: count("bytes_per_s") as f64 / 1e6,
                tail_us,
                tail_p,
                shed: count("shed"),
                meets_slo: count("shed") == 0
                    && count("undrained") == 0
                    && all.len() == offered
                    && tail_us <= SLO_P99_US,
            }
        })
        .collect()
}

/// The workload's virtual results.
pub fn summarize(plan: &SvcPlan, rep: &RepOut) -> VirtSummary {
    let steps = step_results(plan, rep);
    let mid_get = rep.phase(&format!("step{}:get", plan.mid + 1));
    let mid_put = rep.phase(&format!("step{}:put", plan.mid + 1));
    let (get_p, get_tail) = tail_of(&mid_get.lat_ps);
    let (put_p, put_tail) = tail_of(&mid_put.lat_ps);
    let slo = plan
        .steps
        .iter()
        .zip(&steps)
        .filter(|(s, r)| !s.overload && r.meets_slo)
        .map(|(_, r)| r.achieved_kops)
        .fold(0.0, f64::max);
    let over = plan
        .steps
        .iter()
        .position(|s| s.overload)
        .expect("the ladder has an overload step");
    let mut detail = vec![
        ("virt_get_mean_us".to_string(), mid_get.mean_us()),
        ("virt_get_p50_us".to_string(), mid_get.percentile_us(0.50)),
        (format!("virt_get_p{}_us", pct_label(get_p)), get_tail),
        ("virt_put_p50_us".to_string(), mid_put.percentile_us(0.50)),
        (format!("virt_put_p{}_us", pct_label(put_p)), put_tail),
        (
            format!("virt_all_p{}_us", pct_label(steps[plan.mid].tail_p)),
            steps[plan.mid].tail_us,
        ),
        ("virt_slo_kops".to_string(), slo),
        ("virt_sat_kops".to_string(), steps[over].achieved_kops),
        ("mid_gets".to_string(), mid_get.ops() as f64),
        ("mid_puts".to_string(), mid_put.ops() as f64),
    ];
    for (si, (step, r)) in plan.steps.iter().zip(&steps).enumerate() {
        let n = si + 1;
        detail.push((format!("offered_kops_s{n}"), step.offered_kops));
        detail.push((format!("achieved_kops_s{n}"), r.achieved_kops));
        detail.push((format!("tail_p{}_us_s{n}", pct_label(r.tail_p)), r.tail_us));
        detail.push((format!("shed_s{n}"), r.shed as f64));
    }
    VirtSummary {
        // The mean, not the median: at this load half the gets take
        // exactly the unloaded remote-get time, so the median reads the
        // same on every seed and says nothing about the rest.
        lat_us: mid_get.mean_us(),
        // Gets and puts together: twice the sample of either, so a
        // steadier tail.
        slow_us: steps[plan.mid].tail_us,
        mbs: steps[over].goodput_mbs,
        kops: steps[over].achieved_kops,
        detail,
    }
}

fn pct_label(p: f64) -> String {
    format!("{}", (p * 1e4).round() / 100.0).replace('.', "_")
}
