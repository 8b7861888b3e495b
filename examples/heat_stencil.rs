//! A real multicomputer workload on the NX library: one-dimensional heat
//! diffusion (Jacobi iteration) across all four prototype nodes, with
//! halo exchange over `csend`/`crecv` and convergence testing with the
//! `gdsum` global reduction — the kind of program the paper's NX users
//! ran on the Intel machines.
//!
//! Run with: `cargo run --example heat_stencil`

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp::nx::{NxConfig, NxWorld};
use shrimp::prelude::*;

const POINTS_PER_RANK: usize = 48;
const MAX_ITERS: u32 = 400;
const TOLERANCE: f64 = 1e-3;
/// Left boundary held at 100 degrees, right at 0.
const HOT: f64 = 100.0;

/// When the run ends, in virtual picoseconds.
const FINISH_PS: u64 = 156_980_000_000;

pub(crate) fn main() {
    let kernel = Kernel::new();
    let system = shrimp::vmmc::ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let nranks = system.len();
    let world = NxWorld::new(
        Arc::clone(&system),
        NxConfig::paper_default(),
        (0..nranks).collect(),
    );
    let result: Arc<Mutex<Vec<(u32, f64, f64)>>> = Arc::new(Mutex::new(Vec::new()));

    for rank in 0..nranks {
        let world = Arc::clone(&world);
        let result = Arc::clone(&result);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut nx = world.join(ctx, rank);
            let n = nx.numnodes();
            let me = nx.mynode();
            let p = nx.vmmc().proc_().clone();

            // Local strip plus two halo cells; f64 grid kept in Rust,
            // halo values exchanged through simulated memory.
            let mut grid = vec![0.0f64; POINTS_PER_RANK + 2];
            if me == 0 {
                grid[0] = HOT;
            }
            let send_buf = p.alloc(16, CacheMode::WriteBack);
            let recv_buf = p.alloc(16, CacheMode::WriteBack);

            let mut iters = 0;
            let mut residual = f64::INFINITY;
            while iters < MAX_ITERS && residual > TOLERANCE {
                // Halo exchange: even ranks send right first, odd ranks
                // receive first (deadlock-free pairing).
                let tag = iters as i32;
                let phases: [bool; 2] = [me % 2 == 0, me % 2 == 1];
                for &sending in &phases {
                    if sending {
                        if me + 1 < n {
                            p.poke(send_buf, &grid[POINTS_PER_RANK].to_le_bytes())
                                .unwrap();
                            nx.csend(ctx, tag, send_buf, 8, me + 1).unwrap();
                        }
                        if me > 0 {
                            p.poke(send_buf.add(8), &grid[1].to_le_bytes()).unwrap();
                            nx.csend(ctx, tag + 1_000_000, send_buf.add(8), 8, me - 1)
                                .unwrap();
                        }
                    } else {
                        if me > 0 {
                            nx.crecv(ctx, tag, recv_buf, 8).unwrap();
                            let b = p.peek(recv_buf, 8).unwrap();
                            grid[0] = f64::from_le_bytes(b.try_into().unwrap());
                        }
                        if me + 1 < n {
                            nx.crecv(ctx, tag + 1_000_000, recv_buf.add(8), 8).unwrap();
                            let b = p.peek(recv_buf.add(8), 8).unwrap();
                            grid[POINTS_PER_RANK + 1] = f64::from_le_bytes(b.try_into().unwrap());
                        }
                    }
                }
                // Fixed boundary conditions at the global edges.
                if me == 0 {
                    grid[0] = HOT;
                }
                if me == n - 1 {
                    grid[POINTS_PER_RANK + 1] = 0.0;
                }

                // Jacobi sweep.
                let mut local_sq = 0.0f64;
                let old = grid.clone();
                for i in 1..=POINTS_PER_RANK {
                    grid[i] = 0.5 * (old[i - 1] + old[i + 1]);
                    let d = grid[i] - old[i];
                    local_sq += d * d;
                }
                // Global convergence test.
                residual = nx.gdsum(ctx, local_sq).unwrap().sqrt();
                iters += 1;
            }
            nx.gsync(ctx).unwrap();
            nx.flush(ctx).unwrap();
            if me == 0 {
                result
                    .lock()
                    .push((iters, residual, grid[POINTS_PER_RANK / 2]));
            }
        });
    }

    kernel
        .run_until_quiescent()
        .expect("stencil simulation failed");
    assert!(system.violations().is_empty());
    let r = result.lock();
    let (iters, residual, midpoint) = r[0];
    println!(
        "converged={} iterations={iters} residual={residual:.3e}",
        residual <= TOLERANCE
    );
    println!("temperature at rank-0 midpoint: {midpoint:.2}");
    println!("simulated wall time: {}", kernel.now());
    // Virtual time and the arithmetic are exact: tests/examples.rs runs
    // this `main`.
    assert_eq!(iters, MAX_ITERS, "the strip is still cooling at the cap");
    assert!((residual - 0.4201).abs() < 5e-5, "{residual}");
    assert!((midpoint - 23.07).abs() < 5e-3, "{midpoint}");
    assert_eq!(kernel.now().as_ps(), FINISH_PS);
}
