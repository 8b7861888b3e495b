//! Quickstart: build the four-node SHRIMP prototype and move bytes with
//! both VMMC transfer strategies.
//!
//! Run with: `cargo run --example quickstart`

use shrimp::prelude::*;
use shrimp::vmmc::BufferName;

/// When the run ends, in virtual picoseconds.
const FINISH_PS: u64 = 806_178_334;

pub(crate) fn main() {
    // The simulation kernel and the whole machine: four Pentium PCs on a
    // 2x2 Paragon-style mesh, with the calibrated 1996 cost model.
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());

    // A rendezvous channel for exchanging exported-buffer names (the
    // role the job loader / daemons play at startup).
    let names: SimChannel<BufferName> = SimChannel::new();

    // --- Receiver: node 1 -------------------------------------------
    let rx = system.endpoint(1, "receiver");
    {
        let names = names.clone();
        kernel.spawn("receiver", move |ctx| {
            // Export a 4 KB receive buffer. There is no receive call in
            // VMMC: the receiver just watches its own memory.
            let buf = rx.proc_().alloc(4096, CacheMode::WriteBack);
            let name = rx.export(ctx, buf, 4096, ExportOpts::default()).unwrap();
            names.send(&ctx.handle(), name);

            // Wait for the deliberate-update message (flag in the last
            // word), polling first and blocking if it takes long.
            rx.wait_u32(ctx, buf.add(4092), 64, |v| v == 1).unwrap();
            let msg = rx.proc_().peek(buf, 13).unwrap();
            assert_eq!(msg, b"hello, SHRIMP");
            println!(
                "[{}] receiver: deliberate update delivered {:?}",
                ctx.now(),
                String::from_utf8_lossy(&msg)
            );

            // Wait for the automatic-update message.
            rx.wait_u32(ctx, buf.add(4092), 64, |v| v == 2).unwrap();
            let msg = rx.proc_().peek(buf.add(64), 16).unwrap();
            assert_eq!(msg, b"just plain state");
            println!(
                "[{}] receiver: automatic update delivered {:?}",
                ctx.now(),
                String::from_utf8_lossy(&msg)
            );
        });
    }

    // --- Sender: node 0 ----------------------------------------------
    let tx = system.endpoint(0, "sender");
    kernel.spawn("sender", move |ctx| {
        let name = names.recv(ctx);
        let dst = tx.import(ctx, NodeId(1), name).unwrap();

        // 1) Deliberate update: an explicit send from any local memory.
        let src = tx.proc_().alloc(4096, CacheMode::WriteBack);
        tx.proc_().write(ctx, src, b"hello, SHRIMP").unwrap();
        tx.proc_().write_u32(ctx, src.add(4092), 1).unwrap();
        let t0 = ctx.now();
        tx.send(ctx, src, &dst, 0, 4096).unwrap();
        println!(
            "[{}] sender: deliberate update issued (blocking send took {})",
            ctx.now(),
            ctx.now() - t0
        );

        // 2) Automatic update: bind a local page to the remote buffer;
        //    ordinary stores are the communication.
        let au = tx.proc_().alloc(4096, CacheMode::WriteBack);
        let binding = tx.bind_au(ctx, au, &dst, 0, 1, true, false).unwrap();
        tx.proc_()
            .write(ctx, au.add(64), b"just plain state")
            .unwrap();
        tx.proc_().write_u32(ctx, au.add(4092), 2).unwrap();
        println!(
            "[{}] sender: automatic update written (no send call at all)",
            ctx.now()
        );
        tx.unbind_au(ctx, binding);
    });

    kernel.run_until_quiescent().expect("simulation failed");
    assert!(system.violations().is_empty());
    println!("done at simulated time {}", kernel.now());
    // Virtual time is exact: tests/examples.rs runs this `main`.
    assert_eq!(kernel.now().as_ps(), FINISH_PS);
}
