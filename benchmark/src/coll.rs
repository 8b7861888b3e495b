//! `coll_8x8`: bulk-synchronous collectives, one rank per node of an
//! 8×8 mesh, through `CollWorld`/`CollComm` with the software engine.
//!
//! Every round, each rank first computes for a seeded few hundred
//! nanoseconds (ranks never arrive in lockstep on a real machine), then
//! enters the collective. Allreduce inputs are integer-valued `f64`s
//! from the seed, so the sum is exact in any combining order and every
//! rank checks it against a sequential reference.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use shrimp_coll::{CollConfig, CollWorld, ReduceOp};
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_mesh::Mesh2D;
use shrimp_node::CacheMode;
use shrimp_sim::metrics::MetricsSnapshot;
use shrimp_sim::{Kernel, MetricsRegistry, RetryPolicy, SimDur};

use crate::rep::{Phase, RepOut, TrafficCounts, VirtSummary};
use crate::stats::{geomean, Rng};

/// Upper bound of the seeded per-rank compute time before a round.
const MAX_SKEW_PS: u64 = 2_000_000;

/// One phase: a barrier or an allreduce size class, repeated.
#[derive(Debug)]
pub struct CollPhase {
    /// `barrier`, `allreduce:64`, `allreduce:1k`, `allreduce:8k`.
    pub name: &'static str,
    /// `f64` lanes per round; empty lanes (`0`) mean a barrier.
    pub lanes: Vec<usize>,
    /// Leading rounds that are not measured.
    pub warmup: usize,
    /// `skew[round][rank]`: picoseconds of compute before the round.
    pub skew: Vec<Vec<u64>>,
    /// `inputs[round][rank]`: the rank's operand.
    pub inputs: Vec<Vec<Vec<f64>>>,
    /// `expect[round]`: the sequential reference sum.
    pub expect: Vec<Vec<f64>>,
}

/// The workload's inputs.
#[derive(Debug)]
pub struct CollPlan {
    /// Mesh width and height.
    pub dims: (usize, usize),
    /// Phases in execution order.
    pub phases: Vec<CollPhase>,
}

impl CollPlan {
    /// Draw the plan: one warm-up barrier and `barriers` measured ones,
    /// then `rounds` allreduce rounds at each of 64 B, 1 KiB and 8 KiB.
    /// The sizes are exact: the pipeline chunk is 2 KiB, so a size drawn
    /// around 8 KiB would straddle a chunk boundary and the seed would
    /// pick between two different algorithms' worth of steps. The seed
    /// sets the operands and the ranks' compute skew.
    pub fn draw(seed: u64, dims: (usize, usize), barriers: usize, rounds: usize) -> CollPlan {
        let ranks = dims.0 * dims.1;
        let mut rng = Rng::new(seed, 20);
        let mut phase = |name: &'static str, bytes: usize, warmup: usize, n: usize| {
            let lanes = bytes / 8;
            let mut out = CollPhase {
                name,
                lanes: Vec::new(),
                warmup,
                skew: Vec::new(),
                inputs: Vec::new(),
                expect: Vec::new(),
            };
            for _ in 0..warmup + n {
                out.lanes.push(lanes);
                out.skew
                    .push((0..ranks).map(|_| rng.below(MAX_SKEW_PS)).collect());
                let inputs: Vec<Vec<f64>> = (0..ranks)
                    .map(|_| {
                        (0..lanes)
                            .map(|_| rng.below(2001) as f64 - 1000.0)
                            .collect()
                    })
                    .collect();
                let mut expect = vec![0.0; lanes];
                for operand in &inputs {
                    for (e, v) in expect.iter_mut().zip(operand) {
                        *e += v;
                    }
                }
                out.inputs.push(inputs);
                out.expect.push(expect);
            }
            out
        };
        let phases = vec![
            phase("barrier", 0, 1, barriers),
            phase("allreduce:64", 64, 0, rounds),
            phase("allreduce:1k", 1024, 0, rounds),
            phase("allreduce:8k", 8192, 0, rounds),
        ];
        CollPlan { dims, phases }
    }
}

fn f64_bytes(vals: &[f64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[derive(Default)]
struct Shared {
    /// Per phase, per round: when the last rank left the collective.
    finish: Vec<Vec<u64>>,
    /// Per phase, per round: when rank 0 began the round.
    start: Vec<Vec<u64>>,
    /// Per phase: rank 0's host and engine-counter readings.
    host: Vec<(Instant, f64, MetricsSnapshot)>,
    setup_virt_ps: u64,
    failed: Vec<String>,
}

/// Run one rep.
pub fn run_rep(plan: &Arc<CollPlan>) -> RepOut {
    let rep_start = Instant::now();
    let reg = MetricsRegistry::new();
    let guard = reg.install();
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(
        &kernel,
        SystemConfig::with_topology(Arc::new(Mesh2D::new(plan.dims.0, plan.dims.1))),
    );
    drop(guard);
    let ranks = system.len();
    let nodes: Vec<usize> = system.topology().nodes().map(|n| n.0).collect();
    let world = CollWorld::new(Arc::clone(&system), CollConfig::default(), nodes);
    let shared = Arc::new(Mutex::new(Shared {
        finish: plan.phases.iter().map(|p| vec![0; p.lanes.len()]).collect(),
        start: plan.phases.iter().map(|p| vec![0; p.lanes.len()]).collect(),
        ..Shared::default()
    }));

    for rank in 0..ranks {
        let (plan, world, shared, reg) = (
            Arc::clone(plan),
            Arc::clone(&world),
            Arc::clone(&shared),
            reg.clone(),
        );
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let v0 = ctx.now();
            let fail = |what: String| {
                let mut s = shared.lock().expect("shared");
                s.failed.push(format!("rank {rank} {what}"));
            };
            let mut comm = match world.try_join(ctx, rank, RetryPolicy::bootstrap(), None) {
                Ok(c) => c,
                Err(e) => return fail(format!("join: {e:?}")),
            };
            let p = comm.vmmc().proc_().clone();
            let max_lanes = plan
                .phases
                .iter()
                .flat_map(|ph| ph.lanes.iter().copied())
                .max()
                .unwrap_or(1)
                .max(1);
            let buf = p.alloc(max_lanes * 8, CacheMode::WriteBack);
            // Everyone is joined once this returns.
            if let Err(e) = comm.barrier(ctx) {
                return fail(format!("first barrier: {e:?}"));
            }
            if rank == 0 {
                shared.lock().expect("shared").setup_virt_ps = ctx.now().since(v0).as_ps();
            }
            for (pi, phase) in plan.phases.iter().enumerate() {
                let mut clocks = (Instant::now(), reg.snapshot());
                for (round, &lanes) in phase.lanes.iter().enumerate() {
                    if rank == 0 && round == phase.warmup {
                        clocks = (Instant::now(), reg.snapshot());
                    }
                    if rank == 0 {
                        shared.lock().expect("shared").start[pi][round] = ctx.now().as_ps();
                    }
                    ctx.advance(SimDur::from_ps(phase.skew[round][rank]));
                    let result = if lanes == 0 {
                        comm.barrier(ctx)
                    } else {
                        p.poke(buf, &f64_bytes(&phase.inputs[round][rank]))
                            .expect("operand buffer is mapped");
                        comm.allreduce(ctx, buf, lanes, ReduceOp::SumF64)
                    };
                    let mut s = shared.lock().expect("shared");
                    if let Err(e) = result {
                        s.failed
                            .push(format!("rank {rank} {} round {round}: {e:?}", phase.name));
                        return;
                    }
                    let f = &mut s.finish[pi][round];
                    *f = (*f).max(ctx.now().as_ps());
                    if lanes > 0 {
                        let got = p.peek(buf, lanes * 8).expect("operand buffer is mapped");
                        if got != f64_bytes(&phase.expect[round]) {
                            s.failed.push(format!(
                                "rank {rank} {} round {round}: sum differs from the reference",
                                phase.name
                            ));
                        }
                    }
                }
                // Rank 0 leaves the phase's last collective no earlier
                // than the ranks it waited for, so its clock closes the
                // phase; the next phase's first round is a warm-up.
                if rank == 0 {
                    let host = clocks.0.elapsed().as_secs_f64();
                    let sim = reg.snapshot().delta(&clocks.1);
                    shared
                        .lock()
                        .expect("shared")
                        .host
                        .push((clocks.0, host, sim));
                }
            }
        });
    }

    let mut out = RepOut {
        host_t0: Some(rep_start),
        ..RepOut::default()
    };
    if let Err(e) = kernel.run_until_quiescent() {
        out.fail(format!("simulation: {e}"));
    }
    let s = std::mem::take(&mut *shared.lock().expect("shared"));
    for (pi, phase) in plan.phases.iter().enumerate() {
        let rounds = phase.lanes.len();
        out.attempted += rounds as u64;
        let measured = phase.warmup..rounds;
        let lat_ps: Vec<u64> = measured
            .clone()
            .map(|r| s.finish[pi][r].saturating_sub(s.start[pi][r]))
            .collect();
        let (host_t0, host_s, sim) = match s.host.get(pi) {
            Some(&(t0, host_s, sim)) => (Some(t0), host_s, sim),
            None => (None, 0.0, MetricsSnapshot::default()),
        };
        out.phases.push(Phase {
            name: phase.name.into(),
            bytes: measured
                .clone()
                .map(|r| (phase.lanes[r] * 8 * ranks) as u64)
                .sum(),
            // From rank 0 entering the first measured round to the last
            // rank leaving the last one.
            span_ps: s.finish[pi][rounds - 1].saturating_sub(s.start[pi][phase.warmup]),
            lat_ps,
            host_s,
            host_t0,
            sim,
        });
    }
    for f in s.failed {
        out.fail(f);
    }
    if !system.violations().is_empty() {
        out.fail("protection violations".into());
    }
    out.setup_virt_ps = s.setup_virt_ps;
    out.traffic = TrafficCounts::of(&system);
    let measured_s = out.measured_s();
    let t = Instant::now();
    drop(world);
    drop(system);
    drop(kernel);
    out.teardown_s = t.elapsed().as_secs_f64();
    out.sim = reg.snapshot();
    out.wall_s = rep_start.elapsed().as_secs_f64();
    out.setup_s = out.wall_s - measured_s - out.teardown_s;
    out
}

/// The workload's virtual results.
pub fn summarize(rep: &RepOut) -> VirtSummary {
    let barrier = rep.phase("barrier").mean_us();
    let sizes = ["allreduce:64", "allreduce:1k", "allreduce:8k"];
    let allreduce: Vec<f64> = sizes.iter().map(|n| rep.phase(n).mean_us()).collect();
    let ops: u64 = rep.ops();
    let span_ps: u64 = rep.phases.iter().map(|p| p.span_ps).sum();
    let mut detail = vec![
        ("virt_barrier_us".to_string(), barrier),
        ("virt_allreduce_us".to_string(), geomean(&allreduce)),
    ];
    for (n, us) in sizes.iter().zip(&allreduce) {
        detail.push((format!("{n}_us"), *us));
    }
    VirtSummary {
        lat_us: barrier,
        slow_us: geomean(&allreduce),
        // Aggregate rate at the largest size: every rank's operand
        // over the time of one allreduce.
        mbs: rep.phase("allreduce:8k").mbs(),
        kops: ops as f64 / (span_ps as f64 / 1e9),
        detail,
    }
}
