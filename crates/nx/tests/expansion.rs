//! The 16-node expansion (paper §8 future work), software multicast
//! (paper §6 co-design), and handler receives.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::CacheMode;
use shrimp_nx::{NxConfig, NxWorld};
use shrimp_sim::Kernel;

fn build_16() -> (Kernel, Arc<ShrimpSystem>, Arc<NxWorld>) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::expanded_16());
    let world = NxWorld::new(
        Arc::clone(&system),
        NxConfig::paper_default(),
        (0..16).collect(),
    );
    (kernel, system, world)
}

#[test]
fn sixteen_node_all_to_all_and_reduction() {
    let (kernel, system, world) = build_16();
    let sums: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..16 {
        let world = Arc::clone(&world);
        let sums = Arc::clone(&sums);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut nx = world.join(ctx, rank);
            let n = nx.numnodes();
            let buf = nx.vmmc().proc_().alloc(2048, CacheMode::WriteBack);
            // Ring shift: everyone sends to the next rank, receives from
            // the previous, three rounds.
            for round in 0..3i32 {
                nx.vmmc().proc_().poke(buf, &[rank as u8; 777]).unwrap();
                nx.csend(ctx, round, buf, 777, (rank + 1) % n).unwrap();
                nx.crecv(ctx, round, buf, 2048).unwrap();
                assert_eq!(nx.infonode(), (rank + n - 1) % n);
                let got = nx.vmmc().proc_().peek(buf, 777).unwrap();
                assert_eq!(got, vec![((rank + n - 1) % n) as u8; 777]);
            }
            let s = nx.gisum(ctx, rank as i64).unwrap();
            nx.gsync(ctx).unwrap();
            nx.flush(ctx).unwrap();
            sums.lock().push(s);
        });
    }
    common::run_to_completion(&kernel, &system);
    let sums = sums.lock();
    assert_eq!(sums.len(), 16);
    assert!(sums.iter().all(|&s| s == 120)); // 0 + 1 + ... + 15
}

#[test]
fn software_multicast_reaches_every_rank() {
    let (kernel, system, world) = build_16();
    let times: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..16 {
        let world = Arc::clone(&world);
        let times = Arc::clone(&times);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut nx = world.join(ctx, rank);
            let buf = nx.vmmc().proc_().alloc(2048, CacheMode::WriteBack);
            if rank == 5 {
                nx.vmmc().proc_().poke(buf, &[0xB5; 1500]).unwrap();
            }
            nx.gbcast(ctx, 5, buf, 1500).unwrap();
            assert_eq!(nx.vmmc().proc_().peek(buf, 1500).unwrap(), vec![0xB5; 1500]);
            times.lock().push((rank, ctx.now().as_ps()));
            nx.gsync(ctx).unwrap();
            nx.flush(ctx).unwrap();
        });
    }
    common::run_to_completion(&kernel, &system);
    assert_eq!(times.lock().len(), 16);
}

#[test]
fn tree_multicast_beats_naive_at_the_root() {
    // The co-design argument of §6: the root's cost in a spanning tree
    // is O(log n) sends, not O(n).
    fn run(tree: bool) -> f64 {
        let (kernel, system, world) = build_16();
        let root_time: Arc<Mutex<f64>> = Arc::new(Mutex::new(0.0));
        for rank in 0..16 {
            let world = Arc::clone(&world);
            let root_time = Arc::clone(&root_time);
            kernel.spawn(format!("rank{rank}"), move |ctx| {
                let mut nx = world.join(ctx, rank);
                let buf = nx.vmmc().proc_().alloc(2048, CacheMode::WriteBack);
                let t0 = ctx.now();
                if tree {
                    nx.gbcast(ctx, 0, buf, 1024).unwrap();
                } else {
                    nx.gbcast_naive(ctx, 0, buf, 1024).unwrap();
                }
                if rank == 0 {
                    *root_time.lock() = (ctx.now() - t0).as_us();
                }
                nx.gsync(ctx).unwrap();
                nx.flush(ctx).unwrap();
            });
        }
        common::run_to_completion(&kernel, &system);
        let v = *root_time.lock();
        v
    }
    let tree = run(true);
    let naive = run(false);
    assert!(
        tree < naive * 0.55,
        "tree root busy {tree:.1} us should be well under naive {naive:.1} us"
    );
}

#[test]
fn hrecv_handler_runs_on_arrival() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let world = NxWorld::new(Arc::clone(&system), NxConfig::paper_default(), vec![0, 1]);
    let fired = Arc::new(AtomicUsize::new(0));
    {
        let world = Arc::clone(&world);
        let fired = Arc::clone(&fired);
        kernel.spawn("rx", move |ctx| {
            let mut nx = world.join(ctx, 1);
            let buf = nx.vmmc().proc_().alloc(1024, CacheMode::WriteBack);
            let f = Arc::clone(&fired);
            let h = nx.hrecv(
                ctx,
                42,
                buf,
                1024,
                Box::new(move |_ctx, info| {
                    assert_eq!(info.mtype, 42);
                    assert_eq!(info.count, 256);
                    f.fetch_add(1, Ordering::SeqCst);
                }),
            );
            // The handler fires from an unrelated library call once the
            // message has arrived (signal-like semantics).
            let scratch = nx.vmmc().proc_().alloc(64, CacheMode::WriteBack);
            nx.crecv(ctx, 7, scratch, 64).unwrap();
            assert_eq!(fired.load(Ordering::SeqCst), 1);
            // msgwait on the handle is still valid and immediate.
            assert_eq!(nx.msgwait(ctx, h).unwrap(), 256);
            assert_eq!(nx.vmmc().proc_().peek(buf, 256).unwrap(), vec![9u8; 256]);
        });
    }
    {
        let world = Arc::clone(&world);
        kernel.spawn("tx", move |ctx| {
            let mut nx = world.join(ctx, 0);
            let buf = nx.vmmc().proc_().alloc(1024, CacheMode::WriteBack);
            nx.vmmc().proc_().poke(buf, &[9u8; 256]).unwrap();
            nx.csend(ctx, 42, buf, 256, 1).unwrap();
            // A second message of a different type unblocks the
            // receiver's crecv and gives the handler its chance to run.
            ctx.advance(shrimp_sim::SimDur::from_us(200.0));
            nx.csend(ctx, 7, buf, 16, 1).unwrap();
            nx.flush(ctx).unwrap();
        });
    }
    common::run_to_completion(&kernel, &system);
}

#[test]
fn sixteen_node_all_to_all_personalized_exchange() {
    // Every rank sends a distinct message to every other rank, all
    // concurrently — the heaviest pattern the mesh model faces here.
    let (kernel, system, world) = build_16();
    for rank in 0..16 {
        let world = Arc::clone(&world);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut nx = world.join(ctx, rank);
            let n = nx.numnodes();
            let sbuf = nx.vmmc().proc_().alloc(1024, CacheMode::WriteBack);
            let rbuf = nx.vmmc().proc_().alloc(1024, CacheMode::WriteBack);
            // Send to every peer: tag encodes the sender so receives can
            // validate contents.
            for step in 1..n {
                let dst = (rank + step) % n;
                nx.vmmc()
                    .proc_()
                    .poke(sbuf, &[(rank * 16 + dst) as u8; 640])
                    .unwrap();
                nx.csend(ctx, rank as i32, sbuf, 640, dst).unwrap();
            }
            let mut seen = [false; 16];
            for _ in 1..n {
                let got = nx.crecv(ctx, -1, rbuf, 1024).unwrap();
                assert_eq!(got, 640);
                let src = nx.infotype() as usize;
                assert!(!seen[src], "duplicate message from {src}");
                seen[src] = true;
                let expect = vec![(src * 16 + rank) as u8; 640];
                assert_eq!(nx.vmmc().proc_().peek(rbuf, 640).unwrap(), expect);
            }
            nx.gsync(ctx).unwrap();
            nx.flush(ctx).unwrap();
        });
    }
    common::run_to_completion(&kernel, &system);
    // Observability: the mesh saw all 16 * 15 messages plus barrier
    // traffic, and no NIC ever froze.
    assert!(system.net().stats().delivered >= 240);
    assert!(system.violations().is_empty());
    assert!((0..16).all(|i| system.nic(i).stats().freezes == 0));
}

#[test]
fn msgdone_polls_completion_without_blocking() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let world = NxWorld::new(Arc::clone(&system), NxConfig::paper_default(), vec![0, 1]);
    {
        let world = Arc::clone(&world);
        kernel.spawn("rx", move |ctx| {
            let mut nx = world.join(ctx, 1);
            let buf = nx.vmmc().proc_().alloc(256, CacheMode::WriteBack);
            let h = nx.irecv(ctx, 5, buf, 256);
            // Nothing sent yet: not done.
            assert!(!nx.msgdone(ctx, h).unwrap());
            // Poll until it completes.
            let mut polls = 0;
            while !nx.msgdone(ctx, h).unwrap() {
                ctx.advance(shrimp_sim::SimDur::from_us(50.0));
                polls += 1;
                assert!(polls < 10_000, "never completed");
            }
            assert_eq!(nx.vmmc().proc_().peek(buf, 16).unwrap(), vec![0xAD; 16]);
        });
    }
    {
        let world = Arc::clone(&world);
        kernel.spawn("tx", move |ctx| {
            let mut nx = world.join(ctx, 0);
            let buf = nx.vmmc().proc_().alloc(256, CacheMode::WriteBack);
            nx.vmmc().proc_().poke(buf, &[0xAD; 16]).unwrap();
            ctx.advance(shrimp_sim::SimDur::from_us(500.0));
            nx.csend(ctx, 5, buf, 16, 1).unwrap();
            nx.flush(ctx).unwrap();
        });
    }
    common::run_to_completion(&kernel, &system);
}

#[test]
fn gcol_gathers_in_rank_order_everywhere() {
    let (kernel, system, world) = build_16();
    let results: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..16 {
        let world = Arc::clone(&world);
        let results = Arc::clone(&results);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut nx = world.join(ctx, rank);
            let buf = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
            nx.vmmc().proc_().poke(buf, &[rank as u8; 12]).unwrap();
            let all = nx.gcol(ctx, buf, 12).unwrap();
            results.lock().push(all);
            nx.gsync(ctx).unwrap();
            nx.flush(ctx).unwrap();
        });
    }
    common::run_to_completion(&kernel, &system);
    let expect: Vec<u8> = (0..16u8).flat_map(|r| std::iter::repeat_n(r, 12)).collect();
    let results = results.lock();
    assert_eq!(results.len(), 16);
    for r in results.iter() {
        assert_eq!(r, &expect);
    }
}
