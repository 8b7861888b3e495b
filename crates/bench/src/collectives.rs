//! Collective-communication scaling study, built directly on the
//! `shrimp-coll` communicator (no NX layer in between): barrier
//! latency and allreduce latency/bandwidth at 2x2, 4x4, and 8x8
//! meshes, plus the three-way allreduce algorithm-crossover sweep (ring
//! / recursive doubling / halving-doubling at 8, 12, 16 and 64 ranks)
//! that calibrates the size selector
//! ([`shrimp_coll::RD_CUTOFF_BYTES`]) and checks its picks.
//!
//! Every number derives from virtual time, so the rendered report is
//! byte-identical across reruns with the same seed. Each sweep also
//! verifies the reduced values against a host-side reference, so the
//! bench doubles as an end-to-end correctness check at 64 ranks —
//! a scale the test suite's proptest cases do not reach.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_coll::{AllreduceAlg, CollConfig, CollWorld, ReduceOp};
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_mesh::{Mesh2D, TopologyRef};
use shrimp_node::CacheMode;
use shrimp_sim::{Ctx, Kernel, SplitMix64};

use crate::harness::{Args, Outcome};

/// One measured allreduce point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Payload size in bytes (8-byte lanes).
    pub bytes: usize,
    /// Time per allreduce in microseconds (slowest rank, averaged over
    /// rounds).
    pub us_per_op: f64,
    /// Aggregate delivered rate across all ranks, `n * bytes / time`,
    /// in MB/s.
    pub aggregate_mbs: f64,
    /// The software algorithm at this size: the one forced, else the
    /// size selector's pick (which a hardware-offloaded round bypasses).
    pub alg: AllreduceAlg,
}

/// The skeleton every collective measurement shares: build a system
/// over `topo`, make one `world` over its nodes (one rank per fabric
/// node, in enumeration order), run `body` as one process per rank to
/// quiescence, and check that no protection violation occurred.
/// Returns the rank count.
pub(crate) fn run_ranks<W: Send + Sync + 'static>(
    topo: TopologyRef,
    world: impl FnOnce(Arc<ShrimpSystem>, Vec<usize>) -> Arc<W>,
    what: &str,
    body: impl Fn(&Ctx, &Arc<W>, usize) + Send + Sync + 'static,
) -> usize {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_topology(topo));
    let nodes: Vec<usize> = system.topology().nodes().map(|n| n.0).collect();
    let n = nodes.len();
    let world = world(Arc::clone(&system), nodes);
    let body = Arc::new(body);
    for rank in 0..n {
        let (world, body) = (Arc::clone(&world), Arc::clone(&body));
        kernel.spawn(format!("rank{rank}"), move |ctx| body(ctx, &world, rank));
    }
    if let Err(e) = kernel.run_until_quiescent() {
        panic!("{what} failed: {e:?}");
    }
    assert!(system.violations().is_empty());
    n
}

/// One warm-up `op`, then `rounds` timed ones: microseconds per round.
pub(crate) fn timed_rounds(ctx: &Ctx, rounds: u32, mut op: impl FnMut()) -> f64 {
    op();
    let t0 = ctx.now();
    for _ in 0..rounds {
        op();
    }
    (ctx.now() - t0).as_us() / rounds as f64
}

/// Deterministic small-integer lanes (exact under `SumI64` regardless
/// of combining order).
fn input_lanes(seed: u64, rank: usize, count: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ (rank as u64).wrapping_mul(0x9E37_79B9));
    let mut out = Vec::with_capacity(count * 8);
    for _ in 0..count {
        let v = (rng.next_u64() % 201) as i64 - 100;
        out.extend(v.to_le_bytes());
    }
    out
}

fn expected_sum(n: usize, seed: u64, count: usize) -> Vec<u8> {
    let mut acc = input_lanes(seed, 0, count);
    for r in 1..n {
        ReduceOp::SumI64.fold(&mut acc, &input_lanes(seed, r, count));
    }
    acc
}

/// Barrier latency averaged over `rounds`, in microseconds, through
/// the collective layer directly.
pub fn barrier_latency(width: usize, height: usize, rounds: u32) -> f64 {
    let mesh = Arc::new(Mesh2D::new(width, height));
    barrier_latency_with(mesh, CollConfig::default(), rounds)
}

/// [`barrier_latency`] over an arbitrary in-order fabric, with an
/// explicit engine choice (e.g. `CollImpl::Hardware` offload).
pub fn barrier_latency_with(topo: TopologyRef, config: CollConfig, rounds: u32) -> f64 {
    let out: Arc<Mutex<f64>> = Arc::default();
    let slot = Arc::clone(&out);
    let world = |system, nodes| CollWorld::new(system, config, nodes);
    run_ranks(topo, world, "barrier bench", move |ctx, world, rank| {
        let mut comm = world.join(ctx, rank);
        let us = timed_rounds(ctx, rounds, || comm.barrier(ctx).unwrap());
        if rank == 0 {
            *slot.lock() = us;
        }
    });
    let v = *out.lock();
    v
}

/// Sweep allreduce over `sizes` on one `width x height` mesh with one
/// algorithm (`None` = let the size selector choose per size). Each
/// size runs `rounds` timed operations; every rank checks the final
/// result against a host-side reference.
pub fn allreduce_sweep(
    width: usize,
    height: usize,
    sizes: &[usize],
    alg: Option<AllreduceAlg>,
    rounds: u32,
    seed: u64,
) -> Vec<SweepPoint> {
    allreduce_sweep_with(
        Arc::new(Mesh2D::new(width, height)),
        CollConfig::default(),
        sizes,
        alg,
        rounds,
        seed,
    )
}

/// [`allreduce_sweep`] over an arbitrary in-order fabric with an
/// explicit engine choice. With `CollImpl::Hardware` and `alg = None`
/// the rounds offload to the in-network combining stage.
pub fn allreduce_sweep_with(
    topo: TopologyRef,
    config: CollConfig,
    sizes: &[usize],
    alg: Option<AllreduceAlg>,
    rounds: u32,
    seed: u64,
) -> Vec<SweepPoint> {
    // Per size, from rank 0 as it starts: the instant and the algorithm.
    let starts = Arc::new(Mutex::new(vec![
        (0u64, AllreduceAlg::RingRsAg);
        sizes.len()
    ]));
    let finishes: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(vec![0; sizes.len()]));
    let world = |system, nodes| CollWorld::new(system, config, nodes);
    let n = {
        let (starts, finishes) = (Arc::clone(&starts), Arc::clone(&finishes));
        let sizes = sizes.to_vec();
        run_ranks(topo, world, "allreduce sweep", move |ctx, world, rank| {
            let mut comm = world.join(ctx, rank);
            let p = comm.vmmc().proc_().clone();
            let maxb = sizes.iter().copied().max().unwrap_or(8).max(8);
            let buf = p.alloc(maxb, CacheMode::WriteBack);
            for (i, &bytes) in sizes.iter().enumerate() {
                let count = bytes / 8;
                let input = input_lanes(seed, rank, count);
                comm.barrier(ctx).unwrap();
                if rank == 0 {
                    let alg = alg.unwrap_or_else(|| comm.select_allreduce(count));
                    starts.lock()[i] = (ctx.now().as_ps(), alg);
                }
                for _ in 0..rounds {
                    // The result overwrites the operand; refill so every
                    // round reduces the same inputs. Host-side fill costs
                    // no virtual time.
                    p.poke(buf, &input).unwrap();
                    match alg {
                        Some(a) => comm
                            .allreduce_with(ctx, buf, count, ReduceOp::SumI64, a)
                            .unwrap(),
                        None => comm.allreduce(ctx, buf, count, ReduceOp::SumI64).unwrap(),
                    }
                }
                let f = ctx.now().as_ps();
                {
                    let mut fin = finishes.lock();
                    fin[i] = fin[i].max(f);
                }
                let got = p.peek(buf, bytes).unwrap();
                assert_eq!(
                    got,
                    expected_sum(comm.len(), seed, count),
                    "rank {rank}: allreduce result mismatch at {bytes} bytes"
                );
                comm.barrier(ctx).unwrap();
            }
        })
    };
    let starts = starts.lock();
    let finishes = finishes.lock();
    sizes
        .iter()
        .enumerate()
        .map(|(i, &bytes)| {
            let (start, alg) = starts[i];
            let us = (finishes[i] - start) as f64 / 1e6 / rounds as f64;
            SweepPoint {
                bytes,
                us_per_op: us,
                aggregate_mbs: (n * bytes) as f64 / us,
                alg,
            }
        })
        .collect()
}

/// The meshes the study covers: the 4-node prototype, the 16-node
/// machine of paper §8, and one step beyond.
pub fn meshes(smoke: bool) -> Vec<(usize, usize)> {
    if smoke {
        vec![(2, 2), (4, 4)]
    } else {
        vec![(2, 2), (4, 4), (8, 8)]
    }
}

/// Payload sizes for the per-mesh scaling series.
pub fn scaling_sizes(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![64, 1024, 8192]
    } else {
        vec![64, 1024, 8192, 65536]
    }
}

/// Payload sizes for the algorithm-crossover sweeps.
pub fn crossover_sizes(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![64, 1024, 16384]
    } else {
        vec![64, 256, 1024, 4096, 16384, 65536]
    }
}

/// Meshes for the algorithm-crossover sweeps: the 16-node machine and a
/// 12-rank communicator (not a power of two, so the doubling algorithms
/// fold four ranks in and out and the ring still has a range to win);
/// the full run adds 8 and 64 ranks.
pub fn crossover_meshes(smoke: bool) -> Vec<(usize, usize)> {
    if smoke {
        vec![(4, 4), (4, 3)]
    } else {
        vec![(4, 4), (4, 2), (4, 3), (8, 8)]
    }
}

/// The software allreduce algorithms in report-column order, with their
/// report names.
pub const ALGS: [(AllreduceAlg, &str); 3] = [
    (AllreduceAlg::RingRsAg, "ring-rs-ag"),
    (AllreduceAlg::RecursiveDoubling, "recursive-doubling"),
    (AllreduceAlg::HalvingDoubling, "halving-doubling"),
];

fn alg_name(alg: AllreduceAlg) -> &'static str {
    ALGS.iter().find(|(a, _)| *a == alg).expect("listed").1
}

/// One size of a crossover sweep: every algorithm forced in turn, beside
/// what the size selector picked and measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossoverRow {
    /// Payload size in bytes.
    pub bytes: usize,
    /// Microseconds per allreduce under each of [`ALGS`], in its order.
    pub us: [f64; 3],
    /// The selector's pick at this size.
    pub pick: AllreduceAlg,
    /// Microseconds per allreduce through the selector.
    pub selected_us: f64,
}

impl CrossoverRow {
    /// Column of the fastest forced algorithm (the earlier on a tie).
    fn best(&self) -> usize {
        (0..3)
            .min_by(|&a, &b| self.us[a].total_cmp(&self.us[b]))
            .expect("three columns")
    }

    /// The fastest forced algorithm.
    pub fn winner(&self) -> AllreduceAlg {
        ALGS[self.best()].0
    }

    /// How far the selector's run trails the fastest forced algorithm,
    /// in percent (negative when it is ahead: the selector's sweep
    /// enters each size from a slightly different rank skew).
    pub fn gap_pct(&self) -> f64 {
        (self.selected_us / self.us[self.best()] - 1.0) * 100.0
    }
}

/// Sweep all three algorithms and the selector over `sizes` on one
/// mesh.
pub fn crossover(width: usize, height: usize, sizes: &[usize], seed: u64) -> Vec<CrossoverRow> {
    let sweep = |alg| allreduce_sweep(width, height, sizes, alg, SWEEP_ROUNDS, seed);
    let forced = ALGS.map(|(alg, _)| sweep(Some(alg)));
    let selected = sweep(None);
    (0..sizes.len())
        .map(|i| CrossoverRow {
            bytes: sizes[i],
            us: forced.each_ref().map(|f| f[i].us_per_op),
            pick: selected[i].alg,
            selected_us: selected[i].us_per_op,
        })
        .collect()
}

const BARRIER_ROUNDS: u32 = 4;
const SWEEP_ROUNDS: u32 = 2;

/// Run the full study and render the deterministic report: barrier
/// latency per mesh, a ring allreduce series per mesh, and per
/// crossover mesh the ring / recursive-doubling / halving-doubling
/// times at each size with the winner, the selector's pick and its gap
/// to the winner.
pub fn render_report(seed: u64, smoke: bool) -> String {
    let mut out = format!("collectives report seed={seed}\n");
    for (w, h) in meshes(smoke) {
        let us = barrier_latency(w, h, BARRIER_ROUNDS);
        out.push_str(&format!(
            "barrier mesh={w}x{h} ranks={} us={us:.2}\n",
            w * h
        ));
    }
    let sizes = scaling_sizes(smoke);
    for (w, h) in meshes(smoke) {
        out.push_str(&format!("series allreduce mesh={w}x{h} alg=ring-rs-ag\n"));
        let pts = allreduce_sweep(
            w,
            h,
            &sizes,
            Some(AllreduceAlg::RingRsAg),
            SWEEP_ROUNDS,
            seed,
        );
        for p in pts {
            out.push_str(&format!(
                "point mesh={w}x{h} alg=ring-rs-ag bytes={} us={:.2} agg_mbs={:.2}\n",
                p.bytes, p.us_per_op, p.aggregate_mbs
            ));
        }
    }
    let cs = crossover_sizes(smoke);
    for (w, h) in crossover_meshes(smoke) {
        out.push_str(&format!("series crossover mesh={w}x{h}\n"));
        let rows = crossover(w, h, &cs, seed);
        for r in &rows {
            out.push_str(&format!(
                "point mesh={w}x{h} bytes={} ring_us={:.2} rd_us={:.2} hd_us={:.2} winner={} \
                 pick={} selected_us={:.2} gap_pct={:.2}\n",
                r.bytes,
                r.us[0],
                r.us[1],
                r.us[2],
                alg_name(r.winner()),
                alg_name(r.pick),
                r.selected_us,
                // Rounded here so a hair ahead prints 0.00, not -0.00.
                (r.gap_pct() * 100.0).round() / 100.0 + 0.0
            ));
        }
        let rd_through = rows
            .iter()
            .take_while(|r| r.winner() == AllreduceAlg::RecursiveDoubling)
            .last()
            .map_or(0, |r| r.bytes);
        let worst = rows.iter().map(CrossoverRow::gap_pct).fold(0.0, f64::max);
        out.push_str(&format!(
            "crossover mesh={w}x{h} rd_wins_through_bytes={rd_through} \
             selector_cutoff_bytes={} max_gap_pct={worst:.2}\n",
            shrimp_coll::RD_CUTOFF_BYTES
        ));
    }
    out
}

/// The scaling study as a `bench` workload. `--smoke` drops the 8x8
/// and 4x2 meshes and trims the sweeps (CI). The report derives entirely from
/// virtual time, so it is rendered twice and must replay byte for byte.
pub fn run(args: &Args) -> Outcome {
    let (seed, smoke) = (args.int("--seed", 42), args.has("--smoke"));
    let mut report = render_report(seed, smoke);
    let replayed = render_report(seed, smoke);
    assert_eq!(report, replayed, "same-seed replay must be bit-identical");
    report += &format!("replay check passed: report is bit-identical for seed {seed}\n");
    Outcome::text(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_grows_logarithmically_4_to_16() {
        let b4 = barrier_latency(2, 2, 4);
        let b16 = barrier_latency(4, 4, 4);
        let ratio = b16 / b4;
        assert!(
            (1.3..3.2).contains(&ratio),
            "barrier 4n {b4:.1} us -> 16n {b16:.1} us (x{ratio:.2})"
        );
    }

    #[test]
    fn ring_allreduce_aggregate_bandwidth_scales_4_to_16() {
        let sizes = [32768usize];
        let p4 = allreduce_sweep(2, 2, &sizes, Some(AllreduceAlg::RingRsAg), 2, 7);
        let p16 = allreduce_sweep(4, 4, &sizes, Some(AllreduceAlg::RingRsAg), 2, 7);
        assert!(
            p16[0].aggregate_mbs > 2.0 * p4[0].aggregate_mbs,
            "ring allreduce aggregate bandwidth should scale: 4n {:.0} MB/s vs 16n {:.0} MB/s",
            p4[0].aggregate_mbs,
            p16[0].aggregate_mbs
        );
    }

    /// The selector's run is within 2 % of the best forced algorithm at
    /// every swept size, and the winners change with size the way the
    /// cutoff says: recursive doubling through [`RD_CUTOFF_BYTES`],
    /// never above it.
    #[test]
    fn selector_pick_is_within_2_pct_of_the_best_algorithm() {
        for (w, h) in [(4, 2), (4, 4)] {
            for r in crossover(w, h, &crossover_sizes(false), 7) {
                assert!(
                    r.gap_pct() <= 2.0,
                    "{w}x{h} {} B: picked {:?} at {:.1} us, {:.2} % behind {:?} ({:?})",
                    r.bytes,
                    r.pick,
                    r.selected_us,
                    r.gap_pct(),
                    r.winner(),
                    r.us
                );
                assert_eq!(
                    r.winner() == AllreduceAlg::RecursiveDoubling,
                    r.bytes <= shrimp_coll::RD_CUTOFF_BYTES,
                    "{w}x{h} {} B: winner {:?}",
                    r.bytes,
                    r.winner()
                );
            }
        }
    }

    #[test]
    fn smoke_report_is_bit_identical_for_same_seed() {
        let a = render_report(5, true);
        let b = render_report(5, true);
        assert_eq!(a, b, "same seed must render bit-identically");
        assert!(a.contains("series allreduce mesh=4x4 alg=ring-rs-ag"));
        assert!(a.contains("series crossover mesh=4x4"));
        for (_, name) in ALGS {
            assert!(
                a.contains(&format!("winner={name}")),
                "no row won by {name}"
            );
        }
    }
}
