//! Collective-communication scaling study, built directly on the
//! `shrimp-coll` communicator (no NX layer in between): barrier
//! latency and allreduce latency/bandwidth at 2x2, 4x4, and 8x8
//! meshes, plus the three-way allreduce algorithm-crossover sweep (ring
//! / recursive doubling / halving-doubling at 8, 12, 16 and 64 ranks)
//! that calibrates the size selector
//! ([`shrimp_coll::rd_cutoff_bytes`]) and checks its picks, and the same
//! for allgather (gather+bcast / ring at 8, 16 and 64 ranks).
//!
//! Every number derives from virtual time, so the rendered report is
//! byte-identical across reruns with the same seed. Each sweep also
//! verifies the reduced values against a host-side reference, so the
//! bench doubles as an end-to-end correctness check at 64 ranks —
//! a scale the test suite's proptest cases do not reach.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_coll::{AllgatherAlg, AllreduceAlg, CollComm, CollConfig, CollWorld, ReduceOp};
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_mesh::{Mesh2D, TopologyRef};
use shrimp_node::{CacheMode, VAddr};
use shrimp_sim::{Ctx, SimDur, SplitMix64, WaitQueue};

use crate::harness::{time_rounds, Args, Experiment, Outcome, Slot};

/// One measured allreduce point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SweepPoint {
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

/// Every collective measurement: a system over `topo`, one `world` over
/// its nodes (one rank per fabric node, in enumeration order), `body`
/// as one process per rank. Returns where each rank left what it
/// returned, in rank order.
pub(crate) fn on_ranks<W: Send + Sync + 'static, T: Send + 'static>(
    topo: TopologyRef,
    world: impl FnOnce(Arc<ShrimpSystem>, Vec<usize>) -> Arc<W>,
    what: &str,
    body: impl Fn(&Ctx, &Arc<W>, usize) -> T + Send + Sync + 'static,
) -> Vec<Slot<T>> {
    let exp = Experiment::new(SystemConfig::with_topology(topo), None);
    let nodes: Vec<usize> = exp.system.topology().nodes().map(|n| n.0).collect();
    let n = nodes.len();
    let world = world(Arc::clone(&exp.system), nodes);
    let body = Arc::new(body);
    let spawn = |rank| {
        let (world, body) = (Arc::clone(&world), Arc::clone(&body));
        exp.spawn(format!("rank{rank}"), move |ctx| body(ctx, &world, rank))
    };
    let ranks: Vec<_> = (0..n).map(spawn).collect();
    exp.run(what);
    ranks
}

/// A starting line outside the simulated machine. Ranks leave a software
/// barrier microseconds apart, in a pattern that depends on what ran
/// before it, so a sweep timed from there measures its own history.
/// Timed from here, every sweep enters a size in the same state.
#[derive(Default)]
struct StartLine {
    arrived: Mutex<usize>,
    waiting: WaitQueue,
}

impl StartLine {
    /// How long the machine is left alone once the last rank is in: many
    /// times the flight of the barrier's final acks.
    const SETTLE_PS: u64 = 100_000_000;

    /// Hold `rank` until all `ranks` are here and the machine has
    /// settled; it then leaves `rank` picoseconds after rank 0, so two
    /// ranks that want one link at the same instant get it in rank order
    /// and not in the order they happened to arrive.
    fn wait(&self, ctx: &Ctx, rank: usize, ranks: usize) {
        let mut arrived = self.arrived.lock();
        *arrived += 1;
        if *arrived < ranks {
            drop(arrived);
            self.waiting.wait(ctx);
        } else {
            *arrived = 0;
            drop(arrived);
            self.waiting.notify_all(&ctx.handle());
        }
        ctx.advance(SimDur::from_ps(Self::SETTLE_PS + rank as u64));
    }
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
pub(crate) fn barrier_latency(width: usize, height: usize, rounds: u32) -> f64 {
    let mesh = Arc::new(Mesh2D::new(width, height));
    barrier_latency_with(mesh, CollConfig::default(), rounds)
}

/// [`barrier_latency`] over an arbitrary in-order fabric, with an
/// explicit engine choice (e.g. `CollImpl::Hardware` offload).
pub(crate) fn barrier_latency_with(topo: TopologyRef, config: CollConfig, rounds: u32) -> f64 {
    let world = |system, nodes| CollWorld::new(system, config, nodes);
    let rank = move |ctx: &Ctx, world: &Arc<CollWorld>, rank| {
        let mut comm = world.join(ctx, rank);
        time_rounds(ctx, 1, rounds, |_| comm.barrier(ctx).unwrap()) / rounds as f64
    };
    on_ranks(topo, world, "barrier bench", rank)[0].take()
}

/// Sweep allreduce over `sizes` on one `width x height` mesh with one
/// algorithm (`None` = let the size selector choose per size). Each
/// size runs `rounds` timed operations; every rank checks the final
/// result against a host-side reference.
pub(crate) fn allreduce_sweep(
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
pub(crate) fn allreduce_sweep_with(
    topo: TopologyRef,
    config: CollConfig,
    sizes: &[usize],
    alg: Option<AllreduceAlg>,
    rounds: u32,
    seed: u64,
) -> Vec<SweepPoint> {
    let (n, timed) = sweep(topo, config, ALLREDUCE, sizes, alg, rounds, seed);
    sizes
        .iter()
        .zip(timed)
        .map(|(&bytes, (us, alg))| SweepPoint {
            bytes,
            us_per_op: us,
            aggregate_mbs: (n * bytes) as f64 / us,
            alg,
        })
        .collect()
}

/// One collective as [`sweep`] drives it; `A` names its algorithms.
#[derive(Clone, Copy)]
struct Swept<A> {
    what: &'static str,
    /// The size selector's algorithm for `bytes`.
    select: fn(&CollComm, usize) -> A,
    /// What `rank` of `n` holds in its `bytes`-long buffer before each
    /// call, from `seed`.
    operand: fn(u64, usize, usize, usize) -> Vec<u8>,
    /// The call over `bytes` at `buf`: forced to an algorithm, else
    /// through the selector.
    call: fn(&mut CollComm, &Ctx, VAddr, usize, Option<A>),
    /// What every one of `n` ranks must hold afterwards, from `seed`.
    expected: fn(u64, usize, usize) -> Vec<u8>,
}

const ALLREDUCE: Swept<AllreduceAlg> = Swept {
    what: "allreduce",
    select: |comm, bytes| comm.select_allreduce(bytes / 8),
    operand: |seed, rank, _, bytes| input_lanes(seed, rank, bytes / 8),
    call: |comm, ctx, buf, bytes, alg| {
        let (count, op) = (bytes / 8, ReduceOp::SumI64);
        match alg {
            Some(a) => comm.allreduce_with(ctx, buf, count, op, a).unwrap(),
            None => comm.allreduce(ctx, buf, count, op).unwrap(),
        }
    },
    expected: |seed, n, bytes| expected_sum(n, seed, bytes / 8),
};

const ALLGATHER: Swept<AllgatherAlg> = Swept {
    what: "allgather",
    select: CollComm::select_allgather,
    // A rank brings its own block of the vector and zeroes elsewhere.
    operand: |seed, rank, n, bytes| {
        let (off, len) = shrimp_coll::block_range(rank, n, bytes);
        let mut own = vec![0; bytes];
        own[off..off + len].copy_from_slice(&gathered(seed, bytes)[off..off + len]);
        own
    },
    call: |comm, ctx, buf, bytes, alg| match alg {
        Some(a) => comm.allgather_with(ctx, buf, bytes, a).unwrap(),
        None => comm.allgather(ctx, buf, bytes).unwrap(),
    },
    expected: |seed, _, bytes| gathered(seed, bytes),
};

/// The vector an allgather assembles.
fn gathered(seed: u64, bytes: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..bytes).map(|_| rng.next_u64() as u8).collect()
}

/// Time `swept` at each of `sizes` on one communicator over `topo`:
/// `rounds` calls per size from the [`StartLine`], timed from rank 0's
/// start to the slowest rank's finish, with every rank's final buffer
/// checked against the host-side reference. Returns the rank count and,
/// per size, microseconds per call and the algorithm (`alg`, else the
/// selector's pick).
fn sweep<A: Copy + Send + Sync + 'static>(
    topo: TopologyRef,
    config: CollConfig,
    swept: Swept<A>,
    sizes: &[usize],
    alg: Option<A>,
    rounds: u32,
    seed: u64,
) -> (usize, Vec<(f64, A)>) {
    let line = Arc::new(StartLine::default());
    let world = |system, nodes| CollWorld::new(system, config, nodes);
    let sizes = sizes.to_vec();
    let n_sizes = sizes.len();
    // Per rank and size: the instant it started, the algorithm, the
    // instant it finished.
    let ranks: Vec<Vec<_>> = on_ranks(topo, world, swept.what, move |ctx, world, rank| {
        let mut comm = world.join(ctx, rank);
        let n = comm.len();
        let p = comm.vmmc().proc_().clone();
        let maxb = sizes.iter().copied().max().unwrap_or(8).max(8);
        let buf = p.alloc(maxb, CacheMode::WriteBack);
        let mut timed = Vec::with_capacity(sizes.len());
        for &bytes in &sizes {
            let input = (swept.operand)(seed, rank, n, bytes);
            comm.barrier(ctx).unwrap();
            line.wait(ctx, rank, n);
            let picked = alg.unwrap_or_else(|| (swept.select)(&comm, bytes));
            let start = ctx.now().as_ps();
            for _ in 0..rounds {
                // The result overwrites the operand; refill so every
                // round starts from the same inputs. Host-side fill
                // costs no virtual time.
                p.poke(buf, &input).unwrap();
                (swept.call)(&mut comm, ctx, buf, bytes, alg);
            }
            timed.push((start, picked, ctx.now().as_ps()));
            assert_eq!(
                p.peek(buf, bytes).unwrap(),
                (swept.expected)(seed, n, bytes),
                "rank {rank}: {} result mismatch at {bytes} bytes",
                swept.what
            );
            comm.barrier(ctx).unwrap();
        }
        timed
    })
    .iter()
    .map(Slot::take)
    .collect();
    // Timed from rank 0's start to the slowest rank's finish.
    let timed = (0..n_sizes).map(|i| {
        let (start, alg, _) = ranks[0][i];
        let finish = ranks.iter().map(|r| r[i].2).max().expect("a rank");
        ((finish - start) as f64 / 1e6 / rounds as f64, alg)
    });
    (ranks.len(), timed.collect())
}

/// What the study sweeps: one row for the full run, one for `--smoke`.
struct Shape {
    /// Barrier and ring-allreduce meshes: the 4-node prototype, the
    /// 16-node machine of paper §8, and one step beyond.
    meshes: &'static [(usize, usize)],
    /// Payload sizes for the per-mesh scaling series.
    scaling_sizes: &'static [usize],
    /// Payload sizes for the algorithm-crossover sweeps: the full run
    /// brackets each selector cutoff (recursive doubling's 93–151 B,
    /// the 12-rank ring's 384 B) with a measured point on either side.
    crossover_sizes: &'static [usize],
    /// Meshes for the algorithm-crossover sweeps: the 16-node machine
    /// and a 12-rank communicator (not a power of two, so the doubling
    /// algorithms fold four ranks in and out and the ring still has a
    /// range to win); the full run adds 8 and 64 ranks.
    crossover_meshes: &'static [(usize, usize)],
    /// Total sizes for the allgather crossover sweeps: a measured point
    /// on either side of the selector's cutoff at 8, 16 and 64 ranks
    /// (45, 117 and 549 B).
    allgather_sizes: &'static [usize],
    /// Meshes for the allgather crossover sweeps; the full run adds 64
    /// ranks.
    allgather_meshes: &'static [(usize, usize)],
}

const FULL: Shape = Shape {
    meshes: &[(2, 2), (4, 4), (8, 8)],
    scaling_sizes: &[64, 1024, 8192, 65536],
    crossover_sizes: &[64, 128, 256, 384, 512, 1024, 4096, 16384, 65536],
    crossover_meshes: &[(4, 4), (4, 2), (4, 3), (8, 8)],
    allgather_sizes: &[32, 64, 128, 256, 512, 1024],
    allgather_meshes: &[(4, 2), (4, 4), (8, 8)],
};

const SMOKE: Shape = Shape {
    meshes: &[(2, 2), (4, 4)],
    scaling_sizes: &[64, 1024, 8192],
    crossover_sizes: &[64, 256, 1024, 16384],
    crossover_meshes: &[(4, 4), (4, 3)],
    allgather_sizes: FULL.allgather_sizes,
    allgather_meshes: &[(4, 2), (4, 4)],
};

/// One collective's crossover sweep as the report renders it.
struct Crossover<A: 'static, const K: usize> {
    /// The report's series name.
    series: &'static str,
    /// The name of a row's size field.
    size: &'static str,
    /// The algorithms in column order, each with its report name and
    /// column.
    algs: [(A, &'static str, &'static str); K],
    swept: Swept<A>,
    /// The fields a mesh's summary line adds for its rank count.
    summary: fn(&[CrossoverRow<A, K>], usize) -> String,
}

/// The three software allreduce algorithms. The summary gives the
/// largest size recursive doubling wins through, beside the cutoff the
/// selector uses.
const ALLREDUCE_CROSSOVER: Crossover<AllreduceAlg, 3> = Crossover {
    series: "crossover",
    size: "bytes",
    algs: [
        (AllreduceAlg::RingRsAg, "ring-rs-ag", "ring_us"),
        (
            AllreduceAlg::RecursiveDoubling,
            "recursive-doubling",
            "rd_us",
        ),
        (AllreduceAlg::HalvingDoubling, "halving-doubling", "hd_us"),
    ],
    swept: ALLREDUCE,
    summary: |rows, ranks| {
        let rd_through = rows
            .iter()
            .take_while(|r| r.winner == AllreduceAlg::RecursiveDoubling)
            .last()
            .map_or(0, |r| r.bytes);
        format!(
            " rd_wins_through_bytes={rd_through} selector_cutoff_bytes={}",
            shrimp_coll::rd_cutoff_bytes(ranks)
        )
    },
};

/// The two allgather algorithms, over total sizes.
const ALLGATHER_CROSSOVER: Crossover<AllgatherAlg, 2> = Crossover {
    series: "allgather-crossover",
    size: "total_bytes",
    algs: [
        (AllgatherAlg::GatherBcast, "gather-bcast", "gather_bcast_us"),
        (AllgatherAlg::Ring, "ring", "ring_us"),
    ],
    swept: ALLGATHER,
    summary: |_, _| String::new(),
};

/// One size of a crossover sweep over a collective's `K` algorithms
/// (`A` names them): every algorithm forced in turn, beside what the
/// size selector picked and measured.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CrossoverRow<A, const K: usize> {
    /// Payload size in bytes.
    pub bytes: usize,
    /// Microseconds per call under each algorithm, in column order.
    pub us: [f64; K],
    /// The fastest forced algorithm (the earlier column on a tie).
    pub winner: A,
    /// The selector's pick at this size.
    pub pick: A,
    /// Microseconds per call through the selector.
    pub selected_us: f64,
}

impl<A, const K: usize> CrossoverRow<A, K> {
    /// How far the selector's run trails the fastest forced algorithm,
    /// in percent (negative when it is ahead: a size's time still moves,
    /// by under a percent, with what the communicator ran before it).
    fn gap_pct(&self) -> f64 {
        let best = self.us.iter().copied().fold(f64::INFINITY, f64::min);
        (self.selected_us / best - 1.0) * 100.0
    }

    /// [`gap_pct`](Self::gap_pct) to the report's two decimals, a hair
    /// ahead as 0.00 and not -0.00.
    fn gap_pct_rounded(&self) -> f64 {
        (self.gap_pct() * 100.0).round() / 100.0 + 0.0
    }
}

impl<A: Copy + PartialEq + Send + Sync + 'static, const K: usize> Crossover<A, K> {
    fn name(&self, alg: A) -> &'static str {
        self.algs.iter().find(|a| a.0 == alg).expect("listed").1
    }

    /// Sweep every algorithm forced, then the selector, over `sizes` on
    /// one mesh: one row per size.
    fn rows(
        &self,
        width: usize,
        height: usize,
        sizes: &[usize],
        seed: u64,
    ) -> Vec<CrossoverRow<A, K>> {
        let run = |alg| {
            let mesh = Arc::new(Mesh2D::new(width, height));
            let config = CollConfig::default();
            sweep(mesh, config, self.swept, sizes, alg, SWEEP_ROUNDS, seed).1
        };
        let forced = self.algs.map(|(alg, ..)| run(Some(alg)));
        let selected = run(None);
        (0..sizes.len())
            .map(|i| {
                let us = forced.each_ref().map(|f| f[i].0);
                let best = (0..K)
                    .min_by(|&a, &b| us[a].total_cmp(&us[b]))
                    .expect("a column");
                CrossoverRow {
                    bytes: sizes[i],
                    us,
                    winner: self.algs[best].0,
                    pick: selected[i].1,
                    selected_us: selected[i].0,
                }
            })
            .collect()
    }

    /// One mesh's section of the report: a point per size, then the
    /// summary with the selector's worst gap.
    fn render(&self, width: usize, height: usize, sizes: &[usize], seed: u64) -> String {
        let (series, mesh) = (self.series, format!("{width}x{height}"));
        let mut out = format!("series {series} mesh={mesh}\n");
        let rows = self.rows(width, height, sizes, seed);
        for r in &rows {
            out.push_str(&format!("point mesh={mesh} {}={}", self.size, r.bytes));
            for ((.., column), us) in self.algs.iter().zip(r.us) {
                out.push_str(&format!(" {column}={us:.2}"));
            }
            out.push_str(&format!(
                " winner={} pick={} selected_us={:.2} gap_pct={:.2}\n",
                self.name(r.winner),
                self.name(r.pick),
                r.selected_us,
                r.gap_pct_rounded()
            ));
        }
        let worst = rows.iter().map(CrossoverRow::gap_pct).fold(0.0, f64::max);
        out.push_str(&format!(
            "{series} mesh={mesh}{} max_gap_pct={worst:.2}\n",
            (self.summary)(&rows, width * height)
        ));
        out
    }
}

const BARRIER_ROUNDS: u32 = 4;
const SWEEP_ROUNDS: u32 = 2;

/// Run the full study and render the deterministic report: barrier
/// latency per mesh, a ring allreduce series per mesh, per crossover
/// mesh the ring / recursive-doubling / halving-doubling times at each
/// size with the winner, the selector's pick and its gap to the winner,
/// and the same for allgather's gather+bcast and ring.
fn render_report(seed: u64, smoke: bool) -> String {
    let shape = if smoke { &SMOKE } else { &FULL };
    let mut out = format!("collectives report seed={seed}\n");
    for &(w, h) in shape.meshes {
        let us = barrier_latency(w, h, BARRIER_ROUNDS);
        out.push_str(&format!(
            "barrier mesh={w}x{h} ranks={} us={us:.2}\n",
            w * h
        ));
    }
    for &(w, h) in shape.meshes {
        out.push_str(&format!("series allreduce mesh={w}x{h} alg=ring-rs-ag\n"));
        let pts = allreduce_sweep(
            w,
            h,
            shape.scaling_sizes,
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
    for &(w, h) in shape.crossover_meshes {
        out += &ALLREDUCE_CROSSOVER.render(w, h, shape.crossover_sizes, seed);
    }
    for &(w, h) in shape.allgather_meshes {
        out += &ALLGATHER_CROSSOVER.render(w, h, shape.allgather_sizes, seed);
    }
    out
}

/// The scaling study as a `bench` workload. `--smoke` drops the 8x8
/// and 4x2 meshes and trims the sweeps (CI). The report derives entirely from
/// virtual time, so it is rendered twice and must replay byte for byte.
pub(crate) fn run(args: &Args) -> Outcome {
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
    /// cutoff says: recursive doubling through
    /// [`shrimp_coll::rd_cutoff_bytes`], never above it.
    #[test]
    fn selector_pick_is_within_2_pct_of_the_best_algorithm() {
        for (w, h) in [(4, 2), (4, 4), (4, 3)] {
            for r in ALLREDUCE_CROSSOVER.rows(w, h, FULL.crossover_sizes, 7) {
                assert!(
                    r.gap_pct() <= 2.0,
                    "{w}x{h} {} B: picked {:?} at {:.1} us, {:.2} % behind {:?} ({:?})",
                    r.bytes,
                    r.pick,
                    r.selected_us,
                    r.gap_pct(),
                    r.winner,
                    r.us
                );
                assert_eq!(
                    r.winner == AllreduceAlg::RecursiveDoubling,
                    r.bytes <= shrimp_coll::rd_cutoff_bytes(w * h),
                    "{w}x{h} {} B: winner {:?}",
                    r.bytes,
                    r.winner
                );
            }
        }
    }

    /// Allgather likewise, on either side of its cutoff: the selector
    /// picks the algorithm that wins and its run is within 2 % of it.
    #[test]
    fn allgather_pick_is_within_2_pct_of_the_best_algorithm() {
        for (w, h) in [(4, 2), (4, 4)] {
            for r in ALLGATHER_CROSSOVER.rows(w, h, FULL.allgather_sizes, 7) {
                assert_eq!(r.pick, r.winner, "{w}x{h} {} B: {:?}", r.bytes, r.us);
                assert!(
                    r.gap_pct() <= 2.0,
                    "{w}x{h} {} B: picked {:?} at {:.1} us, {:.2} % behind ({:?})",
                    r.bytes,
                    r.pick,
                    r.selected_us,
                    r.gap_pct(),
                    r.us
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
        assert!(a.contains("series allgather-crossover mesh=4x4"));
        for (_, name, _) in ALLREDUCE_CROSSOVER.algs {
            assert!(
                a.contains(&format!("winner={name}")),
                "no row won by {name}"
            );
        }
    }
}
