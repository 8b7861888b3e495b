//! The allreduce size selector, end to end: every other collective test
//! forces an algorithm with `allreduce_with`, and the golden trace runs
//! four ranks, where `n <= 4` always picks recursive doubling. Here 16
//! ranks call `comm.allreduce` at one size per selector outcome on a
//! power of two — 64 B (recursive doubling), 2 KiB and 32 KiB
//! (halving-doubling, within a chunk and across sixteen) — every rank
//! must hold the host-side reference sum, and the instant the last rank
//! leaves each size is pinned: a changed cutoff, algorithm, chunk
//! schedule or channel protocol moves one of them. (Re-pinned in PR 18,
//! when flags, acks and small payloads became automatic-update stores:
//! the instants are absolute, so they carry the communicator's setup,
//! which now binds one control page per channel — 8.10 → 8.70 ms — and
//! the collectives after it are shorter. Re-pinned in PR 25, when empty
//! chunks stopped being acked: the barrier before each size is 3.8 to
//! 3.9 µs shorter, so the instants are 3.8 / 7.7 / 11.6 µs earlier.
//! Re-pinned when a bulk chunk's deliberate update began to overlap the
//! combine of the chunk before it: only the 32 KiB allreduce has rounds
//! of more than one chunk, and it ends 1 529.8 µs earlier. Re-pinned
//! when a bulk chunk began to leave as an automatic-update head beside
//! a deliberate-update tail: the 2 KiB allreduce ends 63.3 µs earlier
//! and the 32 KiB one 856.3 µs earlier; 64 B is eager and does not
//! move. Re-pinned when the ack of a transfer's last consume began to
//! wait for the rank's next flag wait instead of following the combine:
//! the three sizes end 2.25, 9.56 and 21.25 µs earlier. Re-pinned when
//! a communicator stopped building all-pairs channels up to 16 ranks
//! and kept only its ring and `±2^k` partners: each rank exports and
//! imports 7 channels, not 15, so set-up, and every instant, is exactly
//! 4 640 µs earlier; the gaps between the instants do not move.)

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp::coll::{AllreduceAlg, CollConfig, CollWorld, ReduceOp};
use shrimp::prelude::*;

const RANKS: usize = 16;
/// `(bytes, the selector's pick, when the last rank had its result)`.
const CASES: [(usize, AllreduceAlg, u64); 3] = [
    (64, AllreduceAlg::RecursiveDoubling, 4_120_340_480),
    (2048, AllreduceAlg::HalvingDoubling, 4_521_478_256),
    (32768, AllreduceAlg::HalvingDoubling, 8_614_995_383),
];

fn lane(rank: usize, i: usize) -> i64 {
    (rank * 31 + i * 7) as i64 % 201 - 100
}

fn le_bytes(lanes: impl Iterator<Item = i64>) -> Vec<u8> {
    lanes.flat_map(i64::to_le_bytes).collect()
}

#[test]
fn sixteen_ranks_through_the_selector_match_the_reference_at_pinned_instants() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(4, 4));
    let world = CollWorld::new(
        Arc::clone(&system),
        CollConfig::default(),
        (0..RANKS).collect(),
    );
    let finish = Arc::new(Mutex::new([0u64; CASES.len()]));

    for rank in 0..RANKS {
        let world = Arc::clone(&world);
        let finish = Arc::clone(&finish);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut comm = world.join(ctx, rank);
            let p = comm.vmmc().proc_().clone();
            let buf = p.alloc(32768, CacheMode::WriteBack);
            for (i, &(bytes, pick, _)) in CASES.iter().enumerate() {
                let count = bytes / 8;
                assert_eq!(comm.select_allreduce(count), pick, "{bytes} B");
                p.poke(buf, &le_bytes((0..count).map(|j| lane(rank, j))))
                    .unwrap();
                comm.barrier(ctx).unwrap();
                comm.allreduce(ctx, buf, count, ReduceOp::SumI64).unwrap();
                {
                    let mut f = finish.lock();
                    f[i] = f[i].max(ctx.now().as_ps());
                }
                let want = le_bytes((0..count).map(|j| (0..RANKS).map(|r| lane(r, j)).sum()));
                assert_eq!(p.peek(buf, bytes).unwrap(), want, "rank {rank}, {bytes} B");
            }
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());

    assert_eq!(*finish.lock(), CASES.map(|(_, _, at)| at));
}
