//! A one-sided read runs at the bandwidth of a deposit. On the 2×2
//! prototype node 0 fetches 64 KiB from node 1's read-enabled export:
//! every page chunk's descriptor is presented before the call waits and
//! the responder's deliberate-update engine streams the replies, so the
//! source DMA of one packet overlaps the wire time and deposit of the
//! one before — the same two-bus pipeline a deliberate update fills,
//! measured here beside it. Beside that protected read, the unhappy
//! paths: a read the export never granted, and the three retrying calls
//! across daemon outages.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp::prelude::*;
use shrimp::sim::{FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use shrimp::vmmc::{BufferName, VmmcError};

const LEN: usize = 64 * 1024;
const FLAG: u32 = 0x4645_5443;

/// Virtual duration of the 64 KiB `Vmmc::fetch` call (28.5 MB/s),
/// recorded from the pipelined engine with reply pieces cut by the
/// cost model's pipeline optimum (2 KiB while most of the read is
/// queued, shrinking over the last page); quarter-page pieces took
/// 2 317 246 711, 2 KiB pieces 2 314 031 441 and stop-and-wait
/// 4 636 569 568.
const FETCH_PS: u64 = 2_301_460_044;

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

/// A fetch from an export made without `ExportOpts::read` is refused
/// with a typed error, leaves the completion count where it was and does
/// not freeze the responder (no repair would grant the read). And
/// `export_retry`, `import_retry` and `fetch_retry` each ride out a
/// scripted outage of node 1's daemon: the call starts while the daemon
/// is down and returns, successful, after the restart.
#[test]
fn a_denied_read_is_typed_and_the_retrying_calls_ride_out_daemon_outages() {
    const N: usize = 4096;
    let ms = |t: f64| SimDur::from_us(t * 1_000.0);
    let at = move |t: f64| SimTime::ZERO + ms(t);
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    // Node 1's daemon is down for 12 ms from 1, 41 and 81 ms.
    let crash = |t| FaultEvent {
        at: at(t),
        kind: FaultKind::DaemonCrash {
            node: 1,
            downtime: ms(12.0),
        },
    };
    system.apply_faults(&FaultPlan::scripted(vec![
        crash(1.0),
        crash(41.0),
        crash(81.0),
    ]));
    let policy = RetryPolicy::bootstrap();
    let names: SimChannel<(BufferName, BufferName)> = SimChannel::new();

    {
        let owner = system.endpoint(1, "owner");
        let names = names.clone();
        kernel.spawn("owner", move |ctx| {
            let pool = owner.proc_().alloc(N, CacheMode::WriteBack);
            owner.proc_().poke(pool, &pattern()[..N]).unwrap();
            let private = owner.proc_().alloc(N, CacheMode::WriteBack);
            ctx.advance(ms(2.0));
            let read = ExportOpts {
                read: true,
                ..Default::default()
            };
            let pool = owner.export_retry(ctx, pool, N, read, policy).unwrap();
            assert!(ctx.now() >= at(13.0), "exported at {}", ctx.now());
            let private = owner
                .export(ctx, private, N, ExportOpts::default())
                .unwrap();
            names.send(&ctx.handle(), (pool, private));
        });
    }
    {
        let reader = system.endpoint(0, "reader");
        let sys = Arc::clone(&system);
        kernel.spawn("reader", move |ctx| {
            let (pool, private) = names.recv(ctx);
            ctx.advance(at(42.0).since(ctx.now()));
            let pool = reader.import_retry(ctx, NodeId(1), pool, policy).unwrap();
            assert!(ctx.now() >= at(53.0), "imported at {}", ctx.now());
            let private = reader.import(ctx, NodeId(1), private).unwrap();
            let buf = reader.proc_().alloc(N, CacheMode::WriteBack);

            let err = reader.fetch(ctx, buf, &private, 0, 64).unwrap_err();
            let node = NodeId(1);
            assert!(matches!(err, VmmcError::FetchDenied { node: n, .. } if n == node));
            assert_eq!(reader.fetch_completions(), 0);
            assert!(!sys.nic(1).is_frozen());

            ctx.advance(at(82.0).since(ctx.now()));
            reader.fetch_retry(ctx, buf, &pool, 0, N, policy).unwrap();
            assert!(ctx.now() >= at(93.0), "fetched at {}", ctx.now());
            assert_eq!(reader.proc_().peek(buf, N).unwrap(), pattern()[..N]);
            assert_eq!(reader.fetch_completions(), 1);
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert_eq!(system.daemon(1).restarts(), 3);
    assert!(system.violations().is_empty());
}
