//! In-network collective offload (`CollImpl::Hardware`) vs the software
//! algorithms: identical results, graceful fallback, and the latency win
//! that justifies putting a combining stage in the routers.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_coll::{CollConfig, CollImpl, CollWorld, ReduceOp};
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_mesh::{Mesh2D, TopologyRef, Torus2D};
use shrimp_node::CacheMode;
use shrimp_sim::Kernel;

/// Per-rank result of the mixed workload: allreduce output, broadcast
/// output, and the virtual time spent in the timed section.
#[derive(Debug, Clone, PartialEq)]
struct Out {
    allreduce: Vec<i64>,
    bcast: Vec<u8>,
    elapsed_ps: u64,
}

/// Run `rounds` of barrier + allreduce + broadcast on every rank and
/// collect outputs plus the timed-section length.
fn run(topo: TopologyRef, impl_: CollImpl, rounds: usize) -> Vec<Out> {
    let n = topo.len();
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_topology(topo));
    let config = CollConfig { impl_ };
    let world = CollWorld::new(Arc::clone(&system), config, (0..n).collect());
    let outs: Arc<Mutex<Vec<(usize, Out)>>> = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..n {
        let world = Arc::clone(&world);
        let outs = Arc::clone(&outs);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut comm = world.join(ctx, rank);
            let p = comm.vmmc().proc_().clone();
            // Settle setup skew before timing.
            comm.barrier(ctx).unwrap();
            let t0 = ctx.now();
            let mut allreduce = Vec::new();
            let mut bcast = Vec::new();
            for round in 0..rounds {
                comm.barrier(ctx).unwrap();
                let vals: Vec<i64> = (0..4).map(|i| (rank * 10 + i + round) as i64).collect();
                allreduce = comm.allreduce_i64(ctx, &vals).unwrap();
                let buf = p.alloc(64, CacheMode::WriteBack);
                let root = round % n;
                if rank == root {
                    let payload: Vec<u8> = (0..64).map(|i| (round * 31 + i) as u8).collect();
                    p.write(ctx, buf, &payload).unwrap();
                }
                comm.broadcast(ctx, root, buf, 64).unwrap();
                // Broadcast roots complete at local injection; resync so
                // every rank reads the landed payload.
                comm.barrier(ctx).unwrap();
                bcast = p.read(ctx, buf, 64).unwrap();
            }
            let elapsed_ps = (ctx.now() - t0).as_ps();
            outs.lock().push((
                rank,
                Out {
                    allreduce,
                    bcast,
                    elapsed_ps,
                },
            ));
        });
    }
    kernel.run_until_quiescent().unwrap();
    let mut v = outs.lock().clone();
    assert_eq!(v.len(), n);
    v.sort_by_key(|(r, _)| *r);
    v.into_iter().map(|(_, o)| o).collect()
}

#[test]
fn hardware_matches_software_results() {
    for topo in [
        Arc::new(Mesh2D::new(4, 4)) as TopologyRef,
        Arc::new(Torus2D::new(4, 4)) as TopologyRef,
    ] {
        let name = topo.name();
        let sw = run(Arc::clone(&topo), CollImpl::Software, 3);
        let hw = run(topo, CollImpl::Hardware, 3);
        for (rank, (s, h)) in sw.iter().zip(&hw).enumerate() {
            assert_eq!(s.allreduce, h.allreduce, "{name} rank {rank} allreduce");
            assert_eq!(s.bcast, h.bcast, "{name} rank {rank} bcast");
        }
    }
}

#[test]
fn hardware_offload_engages_one_rank_per_node() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(2, 2));
    let config = CollConfig {
        impl_: CollImpl::Hardware,
    };
    let world = CollWorld::new(Arc::clone(&system), config, vec![0, 1, 2, 3]);
    let engaged = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..4 {
        let world = Arc::clone(&world);
        let engaged = Arc::clone(&engaged);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let comm = world.join(ctx, rank);
            engaged.lock().push(comm.uses_hardware());
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert_eq!(*engaged.lock(), vec![true; 4]);
}

#[test]
fn hardware_falls_back_when_ranks_share_a_node() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(2, 2));
    let config = CollConfig {
        impl_: CollImpl::Hardware,
    };
    // Ranks 0 and 1 share node 0: the combining stage cannot tell them
    // apart by router, so the communicator must run software paths —
    // and still produce correct sums.
    let world = CollWorld::new(Arc::clone(&system), config, vec![0, 0, 1]);
    let outs = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..3 {
        let world = Arc::clone(&world);
        let outs = Arc::clone(&outs);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut comm = world.join(ctx, rank);
            assert!(!comm.uses_hardware());
            let sum = comm.allreduce_i64(ctx, &[rank as i64 + 1]).unwrap();
            outs.lock().push(sum[0]);
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert_eq!(*outs.lock(), vec![6, 6, 6]);
}

#[test]
fn hardware_beats_software_barrier_allreduce_at_8x8() {
    let sw = run(
        Arc::new(Mesh2D::new(8, 8)) as TopologyRef,
        CollImpl::Software,
        2,
    );
    let hw = run(
        Arc::new(Mesh2D::new(8, 8)) as TopologyRef,
        CollImpl::Hardware,
        2,
    );
    let sw_max = sw.iter().map(|o| o.elapsed_ps).max().unwrap();
    let hw_max = hw.iter().map(|o| o.elapsed_ps).max().unwrap();
    assert!(
        hw_max < sw_max,
        "in-network offload should beat software at 8x8: hw {hw_max} ps vs sw {sw_max} ps"
    );
}

#[test]
fn reduce_op_lanes_round_trip_through_hardware() {
    // MaxF64 through the combining stage, exact by construction.
    let topo: TopologyRef = Arc::new(Mesh2D::new(2, 2));
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_topology(topo));
    let config = CollConfig {
        impl_: CollImpl::Hardware,
    };
    let world = CollWorld::new(Arc::clone(&system), config, vec![0, 1, 2, 3]);
    let outs = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..4 {
        let world = Arc::clone(&world);
        let outs = Arc::clone(&outs);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut comm = world.join(ctx, rank);
            let p = comm.vmmc().proc_().clone();
            let vals = [rank as f64 * 1.5 - 2.0, 100.0 - rank as f64];
            let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let buf = p.alloc(16, CacheMode::WriteBack);
            p.write(ctx, buf, &raw).unwrap();
            comm.allreduce(ctx, buf, 2, ReduceOp::MaxF64).unwrap();
            let got = p.read(ctx, buf, 16).unwrap();
            let out: Vec<f64> = got
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            outs.lock().push(out);
        });
    }
    kernel.run_until_quiescent().unwrap();
    for out in outs.lock().iter() {
        assert_eq!(out, &vec![2.5, 100.0]);
    }
}
