//! Property: the fault engine is replay-deterministic. For any seed,
//! generating a plan twice yields identical schedules, and driving the
//! same workload under the same plan twice yields an identical fault
//! log (the event trace), identical final memory, and an identical
//! finishing time — the foundation of the chaos harness's
//! bit-identical-report guarantee.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use shrimp_core::{BufferName, ExportOpts, ShrimpSystem, SystemConfig};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, PAGE_SIZE};
use shrimp_sim::{FaultPlan, FaultSpec, Kernel, RetryPolicy, SimChannel, SimDur};

const BUF: usize = 2 * PAGE_SIZE;
const CHUNKS: u32 = 4;

/// One full run under `plan`: a chunked transfer with a completion
/// counter, surviving outages via the retry policies. Returns the
/// receiver's final memory, the rendered fault log, and the quiescence
/// time in picoseconds.
fn run_once(plan: &FaultPlan) -> (Vec<u8>, String, u64) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let log = system.apply_faults(plan);
    let names: SimChannel<BufferName> = SimChannel::new();
    let final_mem: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

    {
        let rx = system.endpoint(1, "rx");
        let names = names.clone();
        let final_mem = Arc::clone(&final_mem);
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(BUF, CacheMode::WriteBack);
            let name = rx
                .export_retry(
                    ctx,
                    buf,
                    BUF,
                    ExportOpts::default(),
                    RetryPolicy::bootstrap(),
                )
                .unwrap();
            names.send(&ctx.handle(), name);
            rx.wait_u32(ctx, buf.add(BUF - 4), 100_000, |v| v == CHUNKS)
                .unwrap();
            *final_mem.lock() = rx.proc_().peek(buf, BUF).unwrap();
        });
    }
    {
        let tx = system.endpoint(0, "tx");
        kernel.spawn("tx", move |ctx| {
            let name = names.recv(ctx);
            let dst = tx
                .import_retry(ctx, NodeId(1), name, RetryPolicy::bootstrap())
                .unwrap();
            let src = tx.proc_().alloc(BUF, CacheMode::WriteBack);
            let counter = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let chunk = (BUF - PAGE_SIZE) / CHUNKS as usize;
            for i in 0..CHUNKS {
                tx.proc_().poke(src, &vec![i as u8 + 1; chunk]).unwrap();
                tx.send(ctx, src, &dst, i as usize * chunk, chunk).unwrap();
                tx.proc_().write_u32(ctx, counter, i + 1).unwrap();
                tx.send(ctx, counter, &dst, BUF - 4, 4).unwrap();
            }
        });
    }
    let end = kernel.run_until_quiescent().unwrap();
    let mem = final_mem.lock().clone();
    (mem, log.render(), (end - shrimp_sim::SimTime::ZERO).as_ps())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn identical_seed_and_plan_replay_identically(seed in any::<u64>(), heavy in any::<bool>()) {
        let horizon = SimDur::from_us(2_000.0);
        let spec = if heavy { FaultSpec::heavy(2, horizon) } else { FaultSpec::light(2, horizon) };

        // Generation is a pure function of (seed, spec).
        let a = FaultPlan::generate(seed, &spec);
        let b = FaultPlan::generate(seed, &spec);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.describe(), b.describe());

        // And the simulation is a pure function of the plan: identical
        // event trace, final memory, and finishing time.
        let (mem_a, trace_a, end_a) = run_once(&a);
        let (mem_b, trace_b, end_b) = run_once(&b);
        prop_assert_eq!(&mem_a, &mem_b, "final memory must replay identically");
        prop_assert_eq!(&trace_a, &trace_b, "event trace must replay identically");
        prop_assert_eq!(end_a, end_b, "quiescence time must replay identically");

        // The transfer itself survived the faults uncorrupted.
        let chunk = (BUF - PAGE_SIZE) / CHUNKS as usize;
        for i in 0..CHUNKS as usize {
            prop_assert!(
                mem_a[i * chunk..(i + 1) * chunk].iter().all(|&v| v == i as u8 + 1),
                "chunk {} corrupted under faults", i
            );
        }
    }
}
