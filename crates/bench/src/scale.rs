//! Scaling studies on the planned 16-node machine (paper §8): how the
//! collectives and the mesh behave beyond the 4-node prototype.

use std::sync::Arc;

use shrimp_core::ShrimpSystem;
use shrimp_mesh::Mesh2D;
use shrimp_node::{CacheMode, VAddr};
use shrimp_nx::{NxConfig, NxProc, NxWorld};
use shrimp_sim::Ctx;

use crate::collectives::on_ranks;
use crate::harness::{time_rounds, Args, Outcome, Slot};

fn nx_world(system: Arc<ShrimpSystem>, nodes: Vec<usize>) -> Arc<NxWorld> {
    NxWorld::new(system, NxConfig::paper_default(), nodes)
}

/// Barrier (`gsync`) latency averaged over `rounds`, in microseconds.
fn barrier_latency(width: usize, height: usize, rounds: u32) -> f64 {
    let mesh = Arc::new(Mesh2D::new(width, height));
    let rank = move |ctx: &Ctx, world: &Arc<NxWorld>, rank| {
        let mut nx = world.join(ctx, rank);
        let us = time_rounds(ctx, 1, rounds, |_| nx.gsync(ctx).unwrap()) / rounds as f64;
        nx.flush(ctx).unwrap();
        us
    };
    on_ranks(mesh, nx_world, "barrier bench", rank)[0].take()
}

/// Every rank joins, allocates `alloc` bytes and synchronizes; then
/// `op` runs on all of them at once. Returns the rank count and the
/// microseconds from rank 0's start to the last rank's finish.
fn timed_phase(
    width: usize,
    height: usize,
    alloc: usize,
    what: &str,
    op: impl Fn(&Ctx, &mut NxProc, VAddr) + Send + Sync + 'static,
) -> (usize, f64) {
    let mesh = Arc::new(Mesh2D::new(width, height));
    let ranks = on_ranks(mesh, nx_world, what, move |ctx, world, rank| {
        let mut nx = world.join(ctx, rank);
        let buf = nx.vmmc().proc_().alloc(alloc, CacheMode::WriteBack);
        nx.gsync(ctx).unwrap();
        let start = ctx.now();
        op(ctx, &mut nx, buf);
        let finish = ctx.now();
        // Flush before the barrier: an optimistic large send completes
        // only from a later call, and a receiver still in its `crecv`
        // never reaches `gsync` until it does.
        nx.flush(ctx).unwrap();
        nx.gsync(ctx).unwrap();
        (start, finish)
    });
    let spans: Vec<_> = ranks.iter().map(Slot::take).collect();
    let last = spans.iter().map(|&(_, finish)| finish).max().unwrap();
    (spans.len(), (last - spans[0].0).as_us())
}

/// Broadcast completion time (root's send start to the last rank's
/// arrival) for `bytes`, tree vs naive, in microseconds.
fn bcast_completion(width: usize, height: usize, bytes: usize, tree: bool) -> f64 {
    let bcast = move |ctx: &Ctx, nx: &mut NxProc, buf| {
        if tree {
            nx.gbcast(ctx, 0, buf, bytes).unwrap();
        } else {
            nx.gbcast_naive(ctx, 0, buf, bytes).unwrap();
        }
    };
    timed_phase(width, height, bytes.max(4), "bcast bench", bcast).1
}

/// Aggregate delivered bandwidth (MB/s) of a simultaneous ring shift —
/// every rank streams `bytes` to its +1 neighbor — stressing mesh links
/// under load.
fn ring_aggregate_bandwidth(width: usize, height: usize, bytes: usize) -> f64 {
    let shift = move |ctx: &Ctx, nx: &mut NxProc, buf| {
        let (rank, n) = (nx.mynode(), nx.numnodes());
        let to = (rank + 1) % n;
        // Even ranks send first; odd receive first.
        if rank % 2 == 0 {
            nx.csend(ctx, 1, buf, bytes, to).unwrap();
            nx.crecv(ctx, 1, buf, bytes.max(8)).unwrap();
        } else {
            nx.crecv(ctx, 1, buf, bytes.max(8)).unwrap();
            nx.csend(ctx, 1, buf, bytes, to).unwrap();
        }
    };
    let (n, dt_us) = timed_phase(width, height, bytes.max(8), "ring bench", shift);
    (n * bytes) as f64 / dt_us
}

/// The scaling study on the planned 16-node expansion (paper §8).
pub fn run(_: &Args) -> Outcome {
    let mut out = String::from("== scaling: 4-node prototype vs planned 16-node machine ==\n\n");
    out += &format!("{:<26}{:>12}{:>12}\n", "metric", "2x2 (4n)", "4x4 (16n)");
    let mut row = |metric: &str, decimals: usize, cell: &dyn Fn(usize) -> f64| {
        out += &format!(
            "{metric:<26}{:>12.decimals$}{:>12.decimals$}\n",
            cell(2),
            cell(4)
        );
    };
    row("gsync barrier (us)", 1, &|side| {
        barrier_latency(side, side, 4)
    });
    row("tree bcast 2KB (us)", 1, &|side| {
        bcast_completion(side, side, 2048, true)
    });
    row("naive bcast 2KB (us)", 1, &|side| {
        bcast_completion(side, side, 2048, false)
    });
    row("ring aggregate (MB/s)", 0, &|side| {
        ring_aggregate_bandwidth(side, side, 10240)
    });
    Outcome::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_grows_logarithmically_not_linearly() {
        let b4 = barrier_latency(2, 2, 4);
        let b16 = barrier_latency(4, 4, 4);
        // 4 -> 16 ranks: dissemination rounds go 2 -> 4; the cost should
        // roughly double, nowhere near the 4x of a linear barrier.
        let ratio = b16 / b4;
        assert!(
            (1.3..3.2).contains(&ratio),
            "barrier 4n {b4:.1} us -> 16n {b16:.1} us (x{ratio:.2})"
        );
    }

    #[test]
    fn aggregate_ring_bandwidth_scales_with_node_count() {
        let bw4 = ring_aggregate_bandwidth(2, 2, 10240);
        let bw16 = ring_aggregate_bandwidth(4, 4, 10240);
        assert!(
            bw16 > 2.5 * bw4,
            "aggregate bandwidth should scale: 4n {bw4:.0} MB/s vs 16n {bw16:.0} MB/s"
        );
    }

    #[test]
    fn tree_bcast_completes_faster_than_naive_at_16() {
        let tree = bcast_completion(4, 4, 2048, true);
        let naive = bcast_completion(4, 4, 2048, false);
        assert!(tree < naive, "tree {tree:.0} us vs naive {naive:.0} us");
    }
}
