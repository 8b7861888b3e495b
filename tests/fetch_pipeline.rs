//! A one-sided read runs at the bandwidth of a deposit. On the 2×2
//! prototype node 0 fetches 64 KiB from node 1's read-enabled export:
//! every page chunk's descriptor is presented before the call waits and
//! the responder's deliberate-update engine streams the replies, so the
//! source DMA of one packet overlaps the wire time and deposit of the
//! one before — the same two-bus pipeline a deliberate update fills,
//! measured here beside it.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp::prelude::*;
use shrimp::vmmc::BufferName;

const LEN: usize = 64 * 1024;
const FLAG: u32 = 0x4645_5443;

/// Virtual duration of the 64 KiB `Vmmc::fetch` call (28.3 MB/s),
/// recorded from the pipelined engine; stop-and-wait took 4 636 569 568.
const FETCH_PS: u64 = 2_314_031_441;

fn pattern() -> Vec<u8> {
    (0..LEN).map(|i| (i % 241) as u8).collect()
}

#[test]
fn a_64k_fetch_streams_at_deposit_bandwidth() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let names: SimChannel<(BufferName, BufferName)> = SimChannel::new();
    let landed: SimChannel<SimTime> = SimChannel::new();
    let times = Arc::new(Mutex::new(None));

    {
        let owner = system.endpoint(1, "owner");
        let (names, landed) = (names.clone(), landed.clone());
        kernel.spawn("owner", move |ctx| {
            let pool = owner.proc_().alloc(LEN, CacheMode::WriteBack);
            owner.proc_().poke(pool, &pattern()).unwrap();
            let read = ExportOpts {
                read: true,
                ..Default::default()
            };
            let pool = owner.export(ctx, pool, LEN, read).unwrap();
            let inbox = owner.proc_().alloc(LEN, CacheMode::WriteBack);
            let inbox_name = owner
                .export(ctx, inbox, LEN, ExportOpts::default())
                .unwrap();
            names.send(&ctx.handle(), (pool, inbox_name));
            // Receive the deposit the paper's way, then go idle for good:
            // the fetch that follows is served by this node's NIC alone.
            let last = inbox.add(LEN - 4);
            owner
                .proc_()
                .poll_u32(ctx, last, 1_000_000, |v| v == FLAG)
                .unwrap()
                .expect("the deposit lands within the poll budget");
            landed.send(&ctx.handle(), ctx.now());
        });
    }
    {
        let reader = system.endpoint(0, "reader");
        let times = Arc::clone(&times);
        kernel.spawn("reader", move |ctx| {
            let (pool, inbox) = names.recv(ctx);
            let pool = reader.import(ctx, NodeId(1), pool).unwrap();
            let inbox = reader.import(ctx, NodeId(1), inbox).unwrap();
            let buf = reader.proc_().alloc(LEN, CacheMode::WriteBack);

            // DU-0copy, one way: send call to last word visible.
            reader.proc_().poke(buf, &vec![0x11; LEN - 4]).unwrap();
            let flag_at = buf.add(LEN - 4);
            reader.proc_().poke(flag_at, &FLAG.to_le_bytes()).unwrap();
            let sent = ctx.now();
            reader.send(ctx, buf, &inbox, 0, LEN).unwrap();
            let du = landed.recv(ctx).since(sent);

            let issued = ctx.now();
            reader.fetch(ctx, buf, &pool, 0, LEN).unwrap();
            let fetch = ctx.now().since(issued);
            assert_eq!(reader.proc_().peek(buf, LEN).unwrap(), pattern());
            *times.lock() = Some((du, fetch));
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());

    let (du, fetch) = times.lock().expect("reader finished");
    assert_eq!(fetch, SimDur(FETCH_PS));
    assert!(
        fetch <= du,
        "64 KiB fetch took {fetch}, the deposit of as many bytes {du}"
    );
    // All sixteen page requests were queued at the responder at once.
    assert!(system.nic(1).stats().fetch_queue_peak >= 2);
}
