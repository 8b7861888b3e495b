//! End-to-end tests for the collective subsystem: every operation and
//! algorithm compared against a sequential host-side reference, over
//! rank counts 2–16 (power-of-two and not), mesh shapes and payload
//! sizes up to several chunks — plus determinism and misuse checks.
//! (Slot sizes off the page grid are `shrimp_core`'s channel tests.)

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use shrimp_coll::{
    block_range, AllgatherAlg, AllreduceAlg, BcastAlg, CollComm, CollConfig, CollError, CollWorld,
    ReduceAlg, ReduceOp, CHUNK_BYTES, EAGER_BYTES,
};
use shrimp_core::{ShrimpSystem, SystemConfig, VmmcError};
use shrimp_node::{CacheMode, VAddr};
use shrimp_obs::{Layer, MsgId, Recorder};
use shrimp_sim::{
    Ctx, FaultEvent, FaultKind, FaultPlan, Kernel, RetryPolicy, SimDur, SimTime, SplitMix64,
};

/// Per-rank outcome of one full workload pass.
#[derive(Debug, Clone, PartialEq)]
struct RankOut {
    bcast: Vec<u8>,
    allgather: Vec<u8>,
    reduce: Vec<u8>,
    allreduce: Vec<u8>,
    scatter_block: Vec<u8>,
    finish_ps: u64,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    w: usize,
    h: usize,
    seed: u64,
    /// Payload bytes for broadcast / allgather.
    bytes: usize,
    /// 8-byte elements for the reductions.
    count: usize,
    /// The second algorithm of allgather, and of broadcast and reduce
    /// where every pair of ranks has a channel.
    alt: bool,
    /// The allreduce has three algorithms, so it is picked on its own.
    ar: AllreduceAlg,
    op: ReduceOp,
}

const ALLREDUCE_ALGS: [AllreduceAlg; 3] = [
    AllreduceAlg::RingRsAg,
    AllreduceAlg::RecursiveDoubling,
    AllreduceAlg::HalvingDoubling,
];

fn input_bytes(seed: u64, rank: usize, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ (rank as u64).wrapping_mul(0x9E37_79B9));
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Reduction inputs use small integer-valued lanes so every supported
/// op is exact and order-independent — algorithms may combine in any
/// association.
fn input_elems(seed: u64, rank: usize, count: usize, op: ReduceOp) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ (rank as u64).wrapping_mul(0xDEAD_BEEF));
    let mut out = Vec::with_capacity(count * 8);
    for _ in 0..count {
        let v = (rng.next_u64() % 201) as i64 - 100;
        match op {
            ReduceOp::SumF64 | ReduceOp::MaxF64 => out.extend((v as f64).to_le_bytes()),
            ReduceOp::SumI64 => out.extend(v.to_le_bytes()),
        }
    }
    out
}

fn fold_all(n: usize, seed: u64, count: usize, op: ReduceOp) -> Vec<u8> {
    let mut acc = input_elems(seed, 0, count, op);
    for r in 1..n {
        op.fold(&mut acc, &input_elems(seed, r, count, op));
    }
    acc
}

fn run_case(case: Case) -> Vec<RankOut> {
    let n = case.w * case.h;
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(case.w, case.h));
    let world = CollWorld::new(Arc::clone(&system), CollConfig::default(), (0..n).collect());
    let outs: Arc<Mutex<Vec<(usize, RankOut)>>> = Arc::new(Mutex::new(Vec::new()));
    let root = (case.seed % n as u64) as usize;
    for rank in 0..n {
        let world = Arc::clone(&world);
        let outs = Arc::clone(&outs);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut comm = world.join(ctx, rank);
            let p = comm.vmmc().proc_().clone();
            // The flat variants only where every pair has a channel.
            let flat = case.alt && comm.has_flat_channels();
            let (bc_alg, rd_alg) = if flat {
                (BcastAlg::Flat, ReduceAlg::Flat)
            } else {
                (BcastAlg::Binomial, ReduceAlg::Binomial)
            };
            let ag_alg = if case.alt {
                AllgatherAlg::GatherBcast
            } else {
                AllgatherAlg::Ring
            };

            comm.barrier(ctx).unwrap();

            // Broadcast.
            let bbuf = p.alloc(case.bytes.max(4), CacheMode::WriteBack);
            if rank == root {
                p.poke(bbuf, &input_bytes(case.seed, root, case.bytes))
                    .unwrap();
            }
            comm.broadcast_with(ctx, root, bbuf, case.bytes, bc_alg)
                .unwrap();
            let bcast = p.peek(bbuf, case.bytes).unwrap();

            // Allgather (in place over the block partition).
            let gbuf = p.alloc(case.bytes.max(4), CacheMode::WriteBack);
            p.poke(gbuf, &input_bytes(case.seed, rank, case.bytes))
                .unwrap();
            comm.allgather_with(ctx, gbuf, case.bytes, ag_alg).unwrap();
            let allgather = p.peek(gbuf, case.bytes).unwrap();

            // Reduce to root.
            let rbuf = p.alloc((case.count * 8).max(4), CacheMode::WriteBack);
            p.poke(rbuf, &input_elems(case.seed, rank, case.count, case.op))
                .unwrap();
            comm.reduce_with(ctx, root, rbuf, case.count, case.op, rd_alg)
                .unwrap();
            let reduce = p.peek(rbuf, case.count * 8).unwrap();

            comm.barrier(ctx).unwrap();

            // Allreduce.
            p.poke(rbuf, &input_elems(case.seed, rank, case.count, case.op))
                .unwrap();
            comm.allreduce_with(ctx, rbuf, case.count, case.op, case.ar)
                .unwrap();
            let allreduce = p.peek(rbuf, case.count * 8).unwrap();

            // Reduce-scatter.
            p.poke(rbuf, &input_elems(case.seed, rank, case.count, case.op))
                .unwrap();
            let (bs, bl) = comm.reduce_scatter(ctx, rbuf, case.count, case.op).unwrap();
            let scatter_block = p.peek(rbuf.add(bs * 8), bl * 8).unwrap();

            comm.barrier(ctx).unwrap();
            outs.lock().push((
                rank,
                RankOut {
                    bcast,
                    allgather,
                    reduce,
                    allreduce,
                    scatter_block,
                    finish_ps: ctx.now().as_ps(),
                },
            ));
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
    let mut outs = Arc::try_unwrap(outs).unwrap().into_inner();
    outs.sort_by_key(|(r, _)| *r);
    assert_eq!(outs.len(), n);
    outs.into_iter().map(|(_, o)| o).collect()
}

fn check_case(case: Case) {
    let n = case.w * case.h;
    let outs = run_case(case);
    let root = (case.seed % n as u64) as usize;
    let expect_bcast = input_bytes(case.seed, root, case.bytes);
    let expect_gather: Vec<u8> = (0..n)
        .flat_map(|r| {
            let (s, l) = block_range(r, n, case.bytes);
            input_bytes(case.seed, r, case.bytes)[s..s + l].to_vec()
        })
        .collect();
    let expect_red = fold_all(n, case.seed, case.count, case.op);
    for (r, o) in outs.iter().enumerate() {
        assert_eq!(o.bcast, expect_bcast, "bcast rank {r} case {case:?}");
        assert_eq!(
            o.allgather, expect_gather,
            "allgather rank {r} case {case:?}"
        );
        assert_eq!(o.allreduce, expect_red, "allreduce rank {r} case {case:?}");
        if r == root {
            assert_eq!(o.reduce, expect_red, "reduce root case {case:?}");
        }
        let (s, l) = block_range(r, n, case.count);
        assert_eq!(
            o.scatter_block,
            expect_red[s * 8..(s + l) * 8].to_vec(),
            "reduce_scatter rank {r} case {case:?}"
        );
    }
}

#[test]
fn both_algorithm_families_on_the_prototype() {
    for (alt, ar) in [false, true, false].into_iter().zip(ALLREDUCE_ALGS) {
        check_case(Case {
            w: 2,
            h: 2,
            seed: 11,
            bytes: 777,
            count: 65,
            alt,
            ar,
            op: ReduceOp::SumF64,
        });
    }
}

#[test]
fn sixteen_ranks_ring_family() {
    check_case(Case {
        w: 4,
        h: 4,
        seed: 5,
        bytes: 4096,
        count: 300,
        alt: false,
        ar: AllreduceAlg::RingRsAg,
        op: ReduceOp::SumI64,
    });
}

#[test]
fn non_power_of_two_ranks_both_families() {
    for (w, h, alt) in [(3, 2, false), (3, 2, true), (3, 3, false), (3, 3, true)] {
        check_case(Case {
            w,
            h,
            seed: 23,
            bytes: 500,
            count: 37,
            alt,
            ar: ALLREDUCE_ALGS[usize::from(alt)],
            op: ReduceOp::MaxF64,
        });
    }
}

/// Halving-doubling where its splits are awkward: communicators that
/// fold extra ranks in and out (3x2, 3x3, 5x2) beside powers of two, an
/// odd count (unequal give/keep lengths every round), fewer elements
/// than ranks (empty halves still exchange their flag chunk), and a
/// vector of four chunks (a half spans two) — under all three operators.
#[test]
fn halving_doubling_folds_odd_counts_and_empty_halves() {
    let ops = [ReduceOp::SumF64, ReduceOp::SumI64, ReduceOp::MaxF64];
    let shapes = [(4, 2), (4, 4), (3, 2), (3, 3), (5, 2)];
    for (i, (w, h)) in shapes.into_iter().enumerate() {
        for count in [37, 3, 1, 801] {
            check_case(Case {
                w,
                h,
                seed: 31 + i as u64,
                bytes: 100,
                count,
                alt: false,
                ar: AllreduceAlg::HalvingDoubling,
                op: ops[(i + count) % 3],
            });
        }
    }
}

/// Operands no `f64` represents exactly (`k * 0.1`), so every
/// association of the sum rounds differently: whatever an algorithm
/// returns, it must return the same bytes on every rank. Algorithms may
/// disagree with each other in the last bits.
#[test]
fn inexact_sums_are_byte_identical_across_ranks() {
    const COUNT: usize = 50;
    for (w, h) in [(4, 2), (4, 3)] {
        let n = w * h;
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(w, h));
        let world = CollWorld::new(Arc::clone(&system), CollConfig::default(), (0..n).collect());
        let outs: Arc<Mutex<Vec<Vec<Vec<u8>>>>> = Arc::new(Mutex::new(vec![Vec::new(); 3]));
        for rank in 0..n {
            let world = Arc::clone(&world);
            let outs = Arc::clone(&outs);
            kernel.spawn(format!("rank{rank}"), move |ctx| {
                let mut comm = world.join(ctx, rank);
                let p = comm.vmmc().proc_().clone();
                let buf = p.alloc(COUNT * 8, CacheMode::WriteBack);
                let input: Vec<u8> = (0..COUNT)
                    .flat_map(|j| ((rank * COUNT + j + 1) as f64 * 0.1).to_le_bytes())
                    .collect();
                for (a, alg) in ALLREDUCE_ALGS.into_iter().enumerate() {
                    p.poke(buf, &input).unwrap();
                    comm.allreduce_with(ctx, buf, COUNT, ReduceOp::SumF64, alg)
                        .unwrap();
                    outs.lock()[a].push(p.peek(buf, COUNT * 8).unwrap());
                }
            });
        }
        kernel.run_until_quiescent().unwrap();
        for (alg, per_rank) in ALLREDUCE_ALGS.iter().zip(outs.lock().iter()) {
            assert_eq!(per_rank.len(), n);
            assert!(
                per_rank.iter().all(|r| r == &per_rank[0]),
                "{alg:?} at {n} ranks: ranks disagree on an inexact sum"
            );
            // And it is the sum, to rounding.
            let lane0 = f64::from_le_bytes(per_rank[0][..8].try_into().unwrap());
            let want: f64 = (0..n).map(|r| (r * COUNT + 1) as f64 * 0.1).sum();
            assert!((lane0 - want).abs() < 1e-9, "{alg:?}: {lane0} vs {want}");
        }
    }
}

/// The selector's outcomes, by communicator shape. Allreduce: four
/// ranks never leave recursive doubling; a power of two goes from
/// recursive doubling to halving-doubling at `rd_cutoff_bytes(n)` —
/// earlier the more rounds there are — and stays there; five and six
/// ranks go from recursive doubling straight to the ring and twelve by
/// way of halving-doubling, each at a block of `n + 20` bytes.
/// Allgather: gather+bcast through 9 bytes of total per rank beyond the
/// third, the ring above, and the ring alone through five ranks.
#[test]
fn selector_outcomes_by_size_and_shape() {
    use AllreduceAlg::{HalvingDoubling as Hd, RecursiveDoubling as Rd, RingRsAg as Rg};
    let cutoffs = [4, 6, 8, 12, 16, 32, 64].map(shrimp_coll::rd_cutoff_bytes);
    assert_eq!(cutoffs, [usize::MAX, usize::MAX, 110, 117, 99, 88, 77]);
    let bytes = [64, 88, 96, 112, 120, 128, 152, 160, 376, 384, 4096, 1 << 18];
    let totals = [8, 27, 28, 45, 46, 81, 82, 117, 118, 549, 550, 4096];
    for (w, h, want, gather_bcast_through) in [
        (2, 2, [Rd, Rd, Rd, Rd, Rd, Rd, Rd, Rd, Rd, Rd, Rd, Rd], 0),
        (5, 1, [Rd, Rd, Rd, Rd, Rd, Rg, Rg, Rg, Rg, Rg, Rg, Rg], 0),
        (3, 2, [Rd, Rd, Rd, Rd, Rd, Rd, Rd, Rg, Rg, Rg, Rg, Rg], 27),
        (4, 2, [Rd, Rd, Rd, Hd, Hd, Hd, Hd, Hd, Hd, Hd, Hd, Hd], 45),
        (4, 3, [Rd, Rd, Rd, Rd, Hd, Hd, Hd, Hd, Hd, Rg, Rg, Rg], 81),
        (4, 4, [Rd, Rd, Rd, Hd, Hd, Hd, Hd, Hd, Hd, Hd, Hd, Hd], 117),
        (8, 8, [Rd, Hd, Hd, Hd, Hd, Hd, Hd, Hd, Hd, Hd, Hd, Hd], 549),
    ] {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(w, h));
        let world = CollWorld::new(system, CollConfig::default(), (0..w * h).collect());
        for rank in 0..w * h {
            let world = Arc::clone(&world);
            kernel.spawn(format!("rank{rank}"), move |ctx| {
                let comm = world.join(ctx, rank);
                let got = bytes.map(|b| comm.select_allreduce(b / 8));
                assert_eq!(got, want, "{w}x{h} at {bytes:?} bytes");
                for total in totals {
                    assert_eq!(
                        comm.select_allgather(total) == AllgatherAlg::GatherBcast,
                        total <= gather_bcast_through,
                        "{w}x{h} allgather of {total} bytes"
                    );
                }
            });
        }
        kernel.run_until_quiescent().unwrap();
    }
}

/// Run `body` as one process per rank of a `w x h` mesh, under `plan`,
/// and return the system for the caller's post-mortem.
fn run_ranks(
    (w, h): (usize, usize),
    config: CollConfig,
    plan: &FaultPlan,
    body: impl Fn(&Ctx, &mut CollComm) + Send + Sync + 'static,
) -> Arc<ShrimpSystem> {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(w, h));
    system.apply_faults(plan);
    let world = CollWorld::new(Arc::clone(&system), config, (0..w * h).collect());
    let body = Arc::new(body);
    for rank in 0..w * h {
        let (world, body) = (Arc::clone(&world), Arc::clone(&body));
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            body(ctx, &mut world.join(ctx, rank))
        });
    }
    kernel.run_until_quiescent().unwrap();
    system
}

/// The chunk engine's two paths meet at `EAGER_BYTES`: payloads just
/// below, at and just above it, a few odd bytes, and a vector of several
/// chunks, all from buffers that start 1 and 3 bytes into a page — so the
/// eager copy takes an unaligned source as it is and the deliberate
/// update goes through the staging bounce. Broadcast takes any byte
/// count; the reductions take the nearest lane multiples, under all
/// three allreduce algorithms, on a power of two and on a communicator
/// that folds.
#[test]
fn eager_boundary_payloads_from_unaligned_sources() {
    const BCAST: [usize; 12] = [
        1,
        2,
        3,
        4,
        5,
        6,
        7,
        EAGER_BYTES - 4,
        EAGER_BYTES,
        EAGER_BYTES + 4,
        2 * EAGER_BYTES + 3,
        5000,
    ];
    const REDUCE: [usize; 5] = [8, EAGER_BYTES - 8, EAGER_BYTES, EAGER_BYTES + 8, 4096 + 8];
    for shape in [(4, 2), (3, 2)] {
        let n = shape.0 * shape.1;
        let system = run_ranks(
            shape,
            CollConfig::default(),
            &FaultPlan::empty(),
            move |ctx, comm| {
                let p = comm.vmmc().proc_().clone();
                for off in [1, 3] {
                    let buf = p.alloc_at_offset(5008, off, CacheMode::WriteBack);
                    for (i, len) in BCAST.into_iter().enumerate() {
                        let (root, seed) = (i % n, (off * 100 + i) as u64);
                        if comm.rank() == root {
                            p.poke(buf, &input_bytes(seed, root, len)).unwrap();
                        }
                        comm.broadcast(ctx, root, buf, len).unwrap();
                        let got = p.peek(buf, len).unwrap();
                        assert_eq!(got, input_bytes(seed, root, len), "bcast {len} B +{off}");
                    }
                    for (bytes, alg) in REDUCE
                        .into_iter()
                        .flat_map(|b| ALLREDUCE_ALGS.map(|a| (b, a)))
                    {
                        let (count, seed, op) = (bytes / 8, (off + bytes) as u64, ReduceOp::SumI64);
                        p.poke(buf, &input_elems(seed, comm.rank(), count, op))
                            .unwrap();
                        comm.allreduce_with(ctx, buf, count, op, alg).unwrap();
                        let got = p.peek(buf, bytes).unwrap();
                        assert_eq!(
                            got,
                            fold_all(n, seed, count, op),
                            "{alg:?} {bytes} B +{off}"
                        );
                    }
                }
            },
        );
        assert!(system.violations().is_empty());
    }
}

/// A payload's credit outlives the empty chunks behind it. Rank 0
/// broadcasts a payload `A`, then five empty chunks — never acked, and
/// lapping both slots twice — then a payload `B` into `A`'s
/// slot, while rank 1 enters two virtual seconds late. `B` must wait
/// for `A` to be consumed; rank 1 reads `B` in place of `A` if the
/// payload wait is dropped or if an empty chunk clears its slot's
/// credit.
#[test]
fn a_payload_waits_for_its_slots_credit_across_empty_chunks() {
    let empties = 5;
    let mut chunks = vec![vec![0xAA; 64]];
    chunks.extend(std::iter::repeat_n(Vec::new(), empties));
    chunks.push(vec![0xBB; 64]);
    let system = run_ranks(
        (2, 1),
        CollConfig::default(),
        &FaultPlan::empty(),
        move |ctx, comm| {
            let p = comm.vmmc().proc_().clone();
            let buf = p.alloc(64, CacheMode::WriteBack);
            if comm.rank() == 1 {
                ctx.advance(SimDur::from_us(2e6));
            }
            for (i, chunk) in chunks.iter().enumerate() {
                if comm.rank() == 0 {
                    p.poke(buf, chunk).unwrap();
                }
                comm.broadcast(ctx, 0, buf, chunk.len()).unwrap();
                let got = p.peek(buf, chunk.len()).unwrap();
                assert_eq!(&got, chunk, "chunk {i} on rank {}", comm.rank());
            }
        },
    );
    assert!(system.violations().is_empty());
}

/// An incoming-page-table violation in the middle of an allreduce: the
/// OS fault hook disables rank 1's first exported page — the data slots
/// of its channel from rank 0 — 20 µs into the second of three 8 KiB
/// rounds, so the next bulk chunk freezes rank 1's receive datapath and
/// interrupts; that chunk's flag word and every other peer's flags, acks
/// and payloads queue behind the freeze until the handler repairs the
/// page and unfreezes. Automatic-update stores return no error, so a
/// control word lost in that queue would show as a hang or a wrong sum:
/// every rank must still hold the reference.
///
/// The freeze need not cost the finish (the pipelined chunk engine hides
/// it inside rank 1's own in-flight deliberate update), so the queue is
/// observed directly: node 1's NIC starts a packet's deposit (its
/// `ipt_check` span) when the packet reaches it, or at the repair for
/// one held behind the freeze. The packet that froze the datapath and at
/// least one queued behind it start at the repair instant, and each of
/// those messages reached node 1 earlier in the clear run.
#[test]
fn ipt_violation_mid_allreduce_is_repaired_with_control_words_queued() {
    const COUNT: usize = 1024;
    /// The system, when the last rank entered round 2, and when each
    /// message's first packet reached node 1's deposit path.
    fn run(plan: &FaultPlan) -> (Arc<ShrimpSystem>, SimTime, HashMap<MsgId, SimTime>) {
        let entered = Arc::new(Mutex::new(SimTime::ZERO));
        let e = Arc::clone(&entered);
        let rec = Recorder::new();
        let system = {
            let _observed = rec.install();
            run_ranks((2, 2), CollConfig::default(), plan, move |ctx, comm| {
                let p = comm.vmmc().proc_().clone();
                let buf = p.alloc(COUNT * 8, CacheMode::WriteBack);
                let op = ReduceOp::SumI64;
                for round in 0..3u64 {
                    p.poke(buf, &input_elems(round, comm.rank(), COUNT, op))
                        .unwrap();
                    if round == 1 {
                        let mut e = e.lock();
                        *e = (*e).max(ctx.now());
                    }
                    comm.allreduce(ctx, buf, COUNT, op).unwrap();
                    let got = p.peek(buf, COUNT * 8).unwrap();
                    assert_eq!(got, fold_all(4, round, COUNT, op), "round {round}");
                }
            })
        };
        let mut reached = HashMap::new();
        for s in rec.spans() {
            if s.node == 1 && s.layer == Layer::NicIn && s.name == "ipt_check" {
                reached.entry(s.msg).or_insert(s.start);
            }
        }
        let entered = *entered.lock();
        (system, entered, reached)
    }

    let (system, entered, clear) = run(&FaultPlan::empty());
    assert!(system.violations().is_empty());
    let plan = FaultPlan::scripted(vec![FaultEvent {
        at: entered + SimDur::from_us(20.0),
        kind: FaultKind::IptViolation { node: 1 },
    }]);
    let (system, _, faulted) = run(&plan);
    assert_eq!(system.violations().len(), 1, "one freeze");
    let log = system.fault_log().unwrap().snapshot();
    let at = |what: &str| {
        log.iter()
            .position(|(_, line)| line.starts_with(what))
            .unwrap_or_else(|| panic!("no {what:?} in {log:?}"))
    };
    let (inject, freeze, repair) = (
        at("ipt-disabled node=1"),
        at("freeze node=1"),
        at("repair node=1"),
    );
    assert!(inject < freeze && freeze < repair);
    let repaired = log[repair].0;
    let held: Vec<MsgId> = faulted
        .iter()
        .filter(|&(_, &t)| t == repaired)
        .map(|(&m, _)| m)
        .collect();
    assert!(
        held.len() >= 2,
        "the freezing packet and at least one queued behind it: {held:?}"
    );
    for m in held {
        assert!(
            clear.get(&m).is_some_and(|&t| t < repaired),
            "{m:?} reached node 1 at {:?} in the clear, the repair was at {repaired}",
            clear.get(&m)
        );
    }
}

#[test]
fn single_rank_collectives_are_noops() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let world = CollWorld::new(Arc::clone(&system), CollConfig::default(), vec![2]);
    kernel.spawn("solo", move |ctx| {
        let mut comm = world.join(ctx, 0);
        let p = comm.vmmc().proc_().clone();
        let buf = p.alloc(64, CacheMode::WriteBack);
        p.poke(buf, &[7u8; 64]).unwrap();
        let op = ReduceOp::SumI64;
        comm.barrier(ctx).unwrap();
        comm.broadcast(ctx, 0, buf, 64).unwrap();
        comm.reduce(ctx, 0, buf, 8, op).unwrap();
        comm.allgather(ctx, buf, 64).unwrap();
        assert_eq!(comm.reduce_scatter(ctx, buf, 8, op).unwrap(), (0, 8));
        comm.allreduce(ctx, buf, 8, op).unwrap();
        assert_eq!(p.peek(buf, 64).unwrap(), vec![7u8; 64]);
    });
    kernel.run_until_quiescent().unwrap();
}

/// Sixteen and twenty ranks keep channels only to their ring and
/// `±2^k` partners: the flat variants are typed errors, and the sparse
/// geometry still serves the tree and ring family.
#[test]
fn flat_variants_rejected_without_all_pairs_channels() {
    for (w, h) in [(5, 4), (4, 4)] {
        let n = w * h;
        run_ranks_to_completion((w, h), move |ctx, comm| {
            assert!(!comm.has_flat_channels());
            let p = comm.vmmc().proc_().clone();
            let buf = p.alloc(64, CacheMode::WriteBack);
            let err = comm
                .broadcast_with(ctx, 0, buf, 64, BcastAlg::Flat)
                .unwrap_err();
            assert_eq!(err, CollError::Unsupported("flat broadcast"));
            let err = comm
                .reduce_with(ctx, 0, buf, 8, ReduceOp::SumI64, ReduceAlg::Flat)
                .unwrap_err();
            assert_eq!(err, CollError::Unsupported("flat reduce"));
            comm.broadcast_with(ctx, 0, buf, 64, BcastAlg::Binomial)
                .unwrap();
            // The selector falls back to the tree on its own.
            let op = ReduceOp::SumI64;
            p.poke(buf, &input_elems(3, comm.rank(), 8, op)).unwrap();
            comm.reduce(ctx, n - 1, buf, 8, op).unwrap();
            if comm.rank() == n - 1 {
                assert_eq!(p.peek(buf, 64).unwrap(), fold_all(n, 3, 8, op));
            }
            comm.barrier(ctx).unwrap();
        });
    }
}

/// A root that is not a rank is a caller bug, named before any chunk
/// moves.
#[test]
#[should_panic(expected = "root 7 out of range")]
fn a_root_past_the_last_rank_panics_by_name() {
    run_ranks(
        (3, 2),
        CollConfig::default(),
        &FaultPlan::empty(),
        |ctx, comm| {
            let buf = comm.vmmc().proc_().alloc(64, CacheMode::WriteBack);
            comm.broadcast(ctx, 7, buf, 64).unwrap();
        },
    );
}

/// `try_join` hands its set-up failures back so a caller can back off
/// and rejoin (the chaos workloads do): rank 1's daemon is down for its
/// first attempt, and its second joins the same world.
#[test]
fn a_failed_join_can_be_retried() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    system.apply_faults(&FaultPlan::scripted(vec![FaultEvent {
        at: SimTime::ZERO,
        kind: FaultKind::DaemonCrash {
            node: 1,
            downtime: SimDur::from_us(1_000.0),
        },
    }]));
    let world = CollWorld::new(system, CollConfig::default(), vec![0, 1]);
    for rank in 0..2 {
        let world = Arc::clone(&world);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            ctx.advance(SimDur::from_us(10.0));
            if rank == 1 {
                let short = RetryPolicy::no_retry(SimDur::from_us(100.0));
                let err = world.try_join(ctx, rank, short, None).err();
                assert!(
                    matches!(err, Some(CollError::Vmmc(VmmcError::Timeout { .. }))),
                    "the export met the outage: {err:?}"
                );
                ctx.advance(SimDur::from_us(2_000.0));
            }
            let mut comm = world.join(ctx, rank);
            let sums = comm.allreduce_f64(ctx, &[rank as f64 + 1.0]).unwrap();
            assert_eq!(sums, [3.0]);
        });
    }
    kernel.run_until_quiescent().unwrap();
}

/// A rank is counted once at the rendezvous however often it retries,
/// and a rank whose wait ran out leaves it: rank 1 arrives only after
/// rank 0's short budget has expired, and rank 0 retries before rank 1
/// arrives or after. Counted twice, rank 0's retry alone would open the
/// gate and look up a region rank 1 never exported; left counted, rank
/// 1 would import the region of rank 0's abandoned first try.
#[test]
fn a_retried_join_is_counted_once() {
    for retry_us in [200.0, 2_000.0] {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let world = CollWorld::new(system, CollConfig::default(), vec![0, 1]);
        let sums = Arc::new(Mutex::new(Vec::new()));
        for rank in 0..2 {
            let (world, sums) = (Arc::clone(&world), Arc::clone(&sums));
            kernel.spawn(format!("rank{rank}"), move |ctx| {
                if rank == 0 {
                    let short = RetryPolicy::no_retry(SimDur::from_us(100.0));
                    let err = world.try_join(ctx, 0, short, None).err();
                    assert!(matches!(err, Some(CollError::Timeout { .. })), "{err:?}");
                    ctx.sleep_until(SimTime::ZERO + SimDur::from_us(retry_us));
                } else {
                    ctx.advance(SimDur::from_us(1_000.0));
                }
                let mut comm = world.join(ctx, rank);
                let sum = comm.allreduce_f64(ctx, &[rank as f64 + 1.0]).unwrap();
                sums.lock().push(sum);
            });
        }
        kernel.run_until_quiescent().unwrap();
        assert_eq!(*sums.lock(), [[3.0], [3.0]], "retried at {retry_us} us");
    }
}

/// A chunk is acked only once it is consumed: rank 1 receives a
/// broadcast into an address it never mapped, so the copy out of the
/// slot faults — and its NIC sends no ack for the payload it never took.
#[test]
fn a_chunk_that_faults_on_consume_is_never_acked() {
    let acks = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&acks);
    run_ranks(
        (2, 1),
        CollConfig::default(),
        &FaultPlan::empty(),
        move |ctx, comm| {
            let vmmc = comm.vmmc();
            let nic = Arc::clone(vmmc.system().nic(vmmc.node_index()));
            if comm.rank() == 0 {
                let buf = vmmc.proc_().alloc(64, CacheMode::WriteBack);
                comm.broadcast(ctx, 0, buf, 64).unwrap();
                return;
            }
            let before = nic.stats().au_packets_out;
            let err = comm.broadcast(ctx, 0, VAddr(1 << 40), 64).unwrap_err();
            assert!(matches!(err, CollError::Vmmc(_)), "{err:?}");
            ctx.advance(SimDur::from_us(1_000.0));
            *seen.lock() = Some(nic.stats().au_packets_out - before);
        },
    );
    assert_eq!(*acks.lock(), Some(0), "AU packets rank 1 sent");
}

/// Every rank of `run_ranks` that runs `body` to its end, counted: a
/// rank parked forever leaves quiescence as quietly as one that
/// returned.
fn run_ranks_to_completion(
    wh: (usize, usize),
    body: impl Fn(&Ctx, &mut CollComm) + Send + Sync + 'static,
) {
    let done = Arc::new(Mutex::new(0));
    let finished = Arc::clone(&done);
    run_ranks(
        wh,
        CollConfig::default(),
        &FaultPlan::empty(),
        move |ctx, comm| {
            body(ctx, comm);
            *finished.lock() += 1;
        },
    );
    assert_eq!(*done.lock(), wh.0 * wh.1, "a rank never finished");
}

/// The ack of a call's last consume is owed only until the call
/// returns, forced algorithms included: a four-rank 64 B recursive
/// doubling is two rounds of payload, flag and ack out of every NIC by
/// the time the machine is idle again — five if the last ack waited for
/// the next call. A ring allreduce follows, its blocks two and three
/// chunks long.
#[test]
fn an_owed_ack_never_outlives_its_call() {
    const RING_COUNT: usize = 4 * 512 + 2;
    let at = |us: f64| SimTime::ZERO + SimDur::from_us(us);
    run_ranks_to_completion((2, 2), move |ctx, comm| {
        let (rank, op) = (comm.rank(), ReduceOp::SumI64);
        let vmmc = comm.vmmc();
        let nic = Arc::clone(vmmc.system().nic(vmmc.node_index()));
        let p = vmmc.proc_().clone();
        let buf = p.alloc(RING_COUNT * 8, CacheMode::WriteBack);
        assert!(
            ctx.now() < at(900_000.0),
            "set-up ran past the quiet instant"
        );
        ctx.sleep_until(at(900_000.0));
        let before = nic.stats().au_packets_out;
        p.poke(buf, &input_elems(1, rank, 8, op)).unwrap();
        comm.allreduce_with(ctx, buf, 8, op, AllreduceAlg::RecursiveDoubling)
            .unwrap();
        assert_eq!(p.peek(buf, 64).unwrap(), fold_all(4, 1, 8, op));
        ctx.sleep_until(at(901_000.0));
        let sent = nic.stats().au_packets_out - before;
        assert_eq!(sent, 6, "rank {rank}: AU packets of two rounds");

        p.poke(buf, &input_elems(2, rank, RING_COUNT, op)).unwrap();
        comm.allreduce_with(ctx, buf, RING_COUNT, op, AllreduceAlg::RingRsAg)
            .unwrap();
        let got = p.peek(buf, RING_COUNT * 8).unwrap();
        assert_eq!(got, fold_all(4, 2, RING_COUNT, op), "rank {rank}");
    });
}

/// A post past a transfer's first chunk waits on the credit of the
/// peer's previous final consume — the ack a rank owes — so a ring pass
/// whose blocks are several chunks long stores what it owes before
/// posting. Each of three ranks sends its successor three-chunk blocks
/// in every step, right after an eager call; if the second chunk's post
/// waited on the ack its successor owes, every rank would wait in that
/// post and none would reach the consume that stores it.
#[test]
fn a_multi_chunk_post_never_waits_on_an_owed_ack() {
    const TOTAL: usize = 3 * (2 * CHUNK_BYTES + 100);
    run_ranks_to_completion((3, 1), |ctx, comm| {
        let rank = comm.rank();
        let sums = comm.allreduce_i64(ctx, &[rank as i64 + 1]).unwrap();
        assert_eq!(sums, [6]);
        let p = comm.vmmc().proc_().clone();
        let buf = p.alloc(TOTAL, CacheMode::WriteBack);
        p.poke(buf, &input_bytes(3, rank, TOTAL)).unwrap();
        comm.allgather_with(ctx, buf, TOTAL, AllgatherAlg::Ring)
            .unwrap();
        let expect: Vec<u8> = (0..3)
            .flat_map(|r| {
                let (s, l) = block_range(r, 3, TOTAL);
                input_bytes(3, r, TOTAL)[s..s + l].to_vec()
            })
            .collect();
        assert_eq!(p.peek(buf, TOTAL).unwrap(), expect, "rank {rank}");
    });
}

/// Where a round's ack goes on the wire: in a four-rank 64 B recursive
/// doubling, each rank's NIC sends round 0's payload and flag, round
/// 1's payload and flag, and only then round 0's ack — stored as the
/// rank starts waiting for round 1's flag — and round 1's ack last,
/// before the call returns. (Acked at once, round 0's ack would leave
/// between the two rounds.)
#[test]
fn a_rounds_ack_leaves_after_the_next_rounds_flag() {
    let quiet = SimTime::ZERO + SimDur::from_us(900_000.0);
    let rec = Recorder::new();
    {
        let _observed = rec.install();
        run_ranks_to_completion((2, 2), move |ctx, comm| {
            let p = comm.vmmc().proc_().clone();
            let buf = p.alloc(64, CacheMode::WriteBack);
            p.poke(buf, &input_elems(4, comm.rank(), 8, ReduceOp::SumI64))
                .unwrap();
            assert!(ctx.now() < quiet, "set-up ran past the quiet instant");
            ctx.sleep_until(quiet);
            comm.allreduce_with(
                ctx,
                buf,
                8,
                ReduceOp::SumI64,
                AllreduceAlg::RecursiveDoubling,
            )
            .unwrap();
        });
    }
    let spans = rec.spans();
    for node in 0..4 {
        // Each packet of the call, in the order the NIC injected them.
        let mut out: Vec<_> = spans
            .iter()
            .filter(|s| s.node == node && s.layer == Layer::NicOut && s.start >= quiet)
            .collect();
        out.sort_by_key(|s| s.end);
        let sizes: Vec<usize> = out.iter().map(|s| s.bytes).collect();
        assert_eq!(sizes, [64, 4, 64, 4, 4, 4], "node {node}");
    }
}

/// Same seed, same bytes, same finish instants — vectors of three whole
/// chunks and an eager tail, under all three allreduces.
#[test]
fn same_seed_is_bit_identical_including_finish_times() {
    for ar in ALLREDUCE_ALGS {
        let case = Case {
            w: 4,
            h: 4,
            seed: 99,
            bytes: 3 * CHUNK_BYTES + 5,
            count: 3 * CHUNK_BYTES / 8 + 1,
            alt: false,
            ar,
            op: ReduceOp::SumF64,
        };
        let a = run_case(case);
        let b = run_case(case);
        assert_eq!(a, b, "same seed must give identical results and timing");
    }
}

fn mesh_shapes() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((1, 2)),
        Just((1, 3)),
        Just((2, 2)),
        Just((1, 5)),
        Just((2, 3)),
        Just((2, 4)),
        Just((3, 3)),
        Just((2, 5)),
        Just((3, 4)),
        Just((1, 13)),
        Just((2, 7)),
        Just((3, 5)),
        Just((4, 4)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(15))]

    #[test]
    fn collectives_match_sequential_reference(
        wh in mesh_shapes(),
        seed in 0u64..1 << 48,
        frac in 0usize..101,
        alt in any::<bool>(),
        arsel in 0usize..3,
        opsel in 0u8..3,
    ) {
        let (w, h) = wh;
        // Every full-vector transfer is three or four chunks.
        let bytes = 2 * CHUNK_BYTES + 1 + CHUNK_BYTES * frac / 100;
        let count = (2 * CHUNK_BYTES + 8 + CHUNK_BYTES * frac / 100) / 8;
        let op = match opsel {
            0 => ReduceOp::SumF64,
            1 => ReduceOp::SumI64,
            _ => ReduceOp::MaxF64,
        };
        let ar = ALLREDUCE_ALGS[arsel];
        check_case(Case { w, h, seed, bytes, count, alt, ar, op });
    }
}
