//! The non-blocking deliberate-update send and the OS freeze-recovery
//! path.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts, ShrimpSystem, SystemConfig};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, PAGE_SIZE};
use shrimp_sim::{Kernel, SimChannel, SimDur};

#[test]
fn nonblocking_send_overlaps_computation() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let names: SimChannel<BufferName> = SimChannel::new();
    let timings: Arc<Mutex<(f64, f64)>> = Arc::new(Mutex::new((0.0, 0.0)));
    const LEN: usize = 16 * 1024;

    {
        let rx = system.endpoint(1, "rx");
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(LEN, CacheMode::WriteBack);
            let name = rx.export(ctx, buf, LEN, ExportOpts::default()).unwrap();
            names.send(&ctx.handle(), name);
            rx.wait_u32(ctx, buf.add(LEN - 4), 100_000, |v| v == 0xD0E)
                .unwrap();
            assert_eq!(rx.proc_().peek(buf, 64).unwrap(), vec![0x42; 64]);
        });
    }
    {
        let tx = system.endpoint(0, "tx");
        let timings = Arc::clone(&timings);
        kernel.spawn("tx", move |ctx| {
            let name = names.recv(ctx);
            let dst = tx.import(ctx, NodeId(1), name).unwrap();
            let src = tx.proc_().alloc(LEN, CacheMode::WriteBack);
            tx.proc_().poke(src, &vec![0x42; LEN - 4]).unwrap();
            tx.proc_()
                .poke(src.add(LEN - 4), &0xD0Eu32.to_le_bytes())
                .unwrap();

            // Blocking send: the application waits out the whole DMA.
            let t0 = ctx.now();
            tx.send(ctx, src, &dst, 0, LEN).unwrap();
            let blocking = (ctx.now() - t0).as_us();

            // Non-blocking: initiate, compute for a while, then wait.
            let t0 = ctx.now();
            let h = tx.send_nonblocking(ctx, src, &dst, 0, LEN).unwrap();
            let initiated = (ctx.now() - t0).as_us();
            ctx.advance(SimDur::from_us(1_000.0)); // overlapped compute
            tx.send_wait(ctx, &h);
            assert!(h.is_complete());
            let total = (ctx.now() - t0).as_us();

            *timings.lock() = (blocking, initiated);
            // With 1 ms of overlapped compute, the wait is nearly free.
            assert!(total < blocking + 1_000.0 + 50.0);
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
    let (blocking, initiated) = *timings.lock();
    assert!(
        initiated < blocking / 3.0,
        "initiation {initiated:.0} us should be far below the blocking send {blocking:.0} us"
    );
}

#[test]
fn os_repairs_frozen_receive_path() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let names: SimChannel<BufferName> = SimChannel::new();
    let sys2 = Arc::clone(&system);
    {
        let rx = system.endpoint(1, "rx");
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let name = rx
                .export(ctx, buf, PAGE_SIZE, ExportOpts::default())
                .unwrap();
            names.send(&ctx.handle(), name);
            ctx.advance(SimDur::from_us(60_000.0));
        });
    }
    {
        let tx = system.endpoint(0, "tx");
        let sys = Arc::clone(&system);
        kernel.spawn("tx", move |ctx| {
            let name = names.recv(ctx);
            let dst = tx.import(ctx, NodeId(1), name).unwrap();
            let src = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            tx.proc_().write_u32(ctx, src, 77).unwrap();
            tx.send(ctx, src, &dst, 0, 4).unwrap();
            // Simulate a raced unexport: the page gets disabled while a
            // second message is on the wire.
            sys.daemon(1).unregister_export(name).unwrap();
            tx.send(ctx, src, &dst, 0, 4).unwrap();
            ctx.advance(SimDur::from_us(3_000.0));
            // The receive path froze and the violation was recorded.
            assert!(sys.nic(1).is_frozen());
            assert_eq!(sys.violations().len(), 1);
            let (_, ppage) = sys.violations()[0];
            // OS decision: re-enable the page and resume.
            assert!(sys.repair_and_unfreeze(1, ppage));
            ctx.advance(SimDur::from_us(3_000.0));
            assert!(!sys.nic(1).is_frozen());
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert_eq!(sys2.nic(1).stats().packets_in, 2);
}
