//! Integration tests of one-sided remote fetch on the fully-wired
//! prototype: data correctness across pages, the read-permission
//! protection model, the monotone completion flag word, the typed
//! deny/unmapped/daemon-down errors, and the drain-before-return rule
//! of a pipelined multi-page fetch. (Argument errors: the front-door
//! table in `vmmc.rs`.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shrimp_core::{BufferName, ExportOpts, ShrimpSystem, SystemConfig, VmmcError};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, PAGE_SIZE};
use shrimp_sim::{FaultPlan, Kernel, RetryPolicy, SimChannel, SimDur};

fn prototype() -> (Kernel, Arc<ShrimpSystem>) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    (kernel, system)
}

#[test]
fn fetch_reads_remote_memory_across_pages() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let owner = system.endpoint(1, "owner");
    let reader = system.endpoint(0, "reader");
    let n = 2 * PAGE_SIZE + 512;

    {
        let names = names.clone();
        kernel.spawn("owner", move |ctx| {
            let buf = owner.proc_().alloc(n, CacheMode::WriteBack);
            let data: Vec<u8> = (0..n).map(|i| (i % 239) as u8).collect();
            owner.proc_().write(ctx, buf, &data).unwrap();
            let name = owner
                .export(
                    ctx,
                    buf,
                    n,
                    ExportOpts {
                        read: true,
                        ..Default::default()
                    },
                )
                .unwrap();
            names.send(&ctx.handle(), name);
            // The owner never runs again — the read is one-sided.
            ctx.advance(SimDur::from_us(50_000.0));
        });
    }
    kernel.spawn("reader", move |ctx| {
        let name = names.recv(ctx);
        let src = reader.import(ctx, NodeId(1), name).unwrap();
        let dst = reader.proc_().alloc(n, CacheMode::WriteBack);
        assert_eq!(reader.fetch_completions(), 0);
        reader.fetch(ctx, dst, &src, 0, n).unwrap();
        let got = reader.proc_().peek(dst, n).unwrap();
        let want: Vec<u8> = (0..n).map(|i| (i % 239) as u8).collect();
        assert_eq!(got, want);
        // Three pages touched => at least three chunks completed, and
        // the flag word is monotone.
        let c1 = reader.fetch_completions();
        assert!(c1 >= 3, "completions {c1}");
        // A second, smaller fetch advances the flag word.
        reader.fetch(ctx, dst, &src, PAGE_SIZE, 64).unwrap();
        assert!(reader.fetch_completions() > c1);
        let got = reader.proc_().peek(dst, 64).unwrap();
        assert_eq!(got, want[PAGE_SIZE..PAGE_SIZE + 64]);
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
}

#[test]
fn fetch_without_read_permission_is_denied_without_freezing() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let owner = system.endpoint(1, "owner");
    let reader = system.endpoint(0, "reader");

    {
        let names = names.clone();
        kernel.spawn("owner", move |ctx| {
            let buf = owner.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            // A plain export: writable by importers, but not readable.
            let name = owner
                .export(ctx, buf, PAGE_SIZE, ExportOpts::default())
                .unwrap();
            names.send(&ctx.handle(), name);
            ctx.advance(SimDur::from_us(50_000.0));
        });
    }
    let sys = Arc::clone(&system);
    kernel.spawn("reader", move |ctx| {
        let name = names.recv(ctx);
        let src = reader.import(ctx, NodeId(1), name).unwrap();
        let dst = reader.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        let err = reader.fetch(ctx, dst, &src, 0, 64).unwrap_err();
        assert!(matches!(
            err,
            VmmcError::FetchDenied {
                node: NodeId(1),
                ..
            }
        ));
        // A read-never-granted page is refused, not frozen: the deny is
        // not a repairable protection fault.
        assert!(!sys.nic(1).is_frozen());
        // Deliberate update through the same mapping still works.
        reader.proc_().write(ctx, dst, b"still writable").unwrap();
        reader.send(ctx, dst, &src, 0, 16).unwrap();
    });
    kernel.run_until_quiescent().unwrap();
    let stats = system.report();
    assert!(stats.nics[1].fetch_denials >= 1);
}

#[test]
fn fetch_while_the_daemon_is_down_is_a_typed_error() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let owner = system.endpoint(1, "owner");
    let reader = system.endpoint(0, "reader");

    {
        let names = names.clone();
        kernel.spawn("owner", move |ctx| {
            let buf = owner.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let name = owner
                .export(
                    ctx,
                    buf,
                    PAGE_SIZE,
                    ExportOpts {
                        read: true,
                        ..Default::default()
                    },
                )
                .unwrap();
            names.send(&ctx.handle(), name);
            ctx.advance(SimDur::from_us(50_000.0));
        });
    }
    let sys = Arc::clone(&system);
    kernel.spawn("reader", move |ctx| {
        let name = names.recv(ctx);
        let src = reader.import(ctx, NodeId(1), name).unwrap();
        let dst = reader.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);

        // While the remote daemon is down, the responding NIC refuses
        // with a typed NAK that surfaces as DaemonUnavailable.
        sys.daemon(1).crash();
        assert!(matches!(
            reader.fetch(ctx, dst, &src, 0, 64),
            Err(VmmcError::DaemonUnavailable { node: NodeId(1) })
        ));
        sys.daemon(1).restart();
        reader.fetch(ctx, dst, &src, 0, 64).unwrap();
    });
    kernel.run_until_quiescent().unwrap();
}

/// Every chunk of a multi-page fetch is in flight at once, so a refusal
/// of the middle page arrives while the pages around it are still
/// streaming. The call must wait all of them out: it reports the refused
/// page, and from the instant it returns nothing more lands in `dst`.
#[test]
fn refused_middle_page_drains_every_chunk_before_returning() {
    let (kernel, system) = prototype();
    // No scripted faults; arming the plan turns on the OS freeze repair.
    system.apply_faults(&FaultPlan::empty());
    let names: SimChannel<(BufferName, u64)> = SimChannel::new();
    let owner = system.endpoint(1, "owner");
    let reader = Arc::new(system.endpoint(0, "reader"));
    let n = 5 * PAGE_SIZE;
    let want: Vec<u8> = (0..n).map(|i| (i % 233) as u8 + 1).collect();

    {
        let (names, want) = (names.clone(), want.clone());
        kernel.spawn("owner", move |ctx| {
            let buf = owner.proc_().alloc(n, CacheMode::WriteBack);
            owner.proc_().write(ctx, buf, &want).unwrap();
            let opts = ExportOpts {
                read: true,
                ..Default::default()
            };
            let name = owner.export(ctx, buf, n, opts).unwrap();
            let mid = buf.add(2 * PAGE_SIZE);
            let (mid_pa, _) = owner.proc_().aspace().translate(mid, false).unwrap();
            names.send(&ctx.handle(), (name, mid_pa.page()));
            ctx.advance(SimDur::from_us(50_000.0));
        });
    }
    let finished = Arc::new(AtomicBool::new(false));
    {
        // A second process watches the completion flag word throughout.
        let (reader, finished) = (Arc::clone(&reader), Arc::clone(&finished));
        kernel.spawn("sampler", move |ctx| {
            let mut last = 0;
            while !finished.load(Ordering::SeqCst) {
                let now = reader.fetch_completions();
                assert!(now >= last, "flag word went back: {last} -> {now}");
                last = now;
                ctx.advance(SimDur::from_us(3.0));
            }
            // Four pages of the refused fetch, five of the retry.
            assert_eq!(reader.fetch_completions(), 9);
        });
    }
    let sys = Arc::clone(&system);
    kernel.spawn("reader", move |ctx| {
        let (name, mid) = names.recv(ctx);
        let src = reader.import(ctx, NodeId(1), name).unwrap();
        let dst = reader.proc_().alloc(n, CacheMode::WriteBack);
        sys.nic(1).ipt().disable(mid);

        let err = reader.fetch(ctx, dst, &src, 0, n).unwrap_err();
        let node = NodeId(1);
        assert_eq!(err, VmmcError::FetchDenied { node, ppage: mid });
        assert_eq!(sys.nic(0).in_flight(), 0, "a chunk outlived the call");
        let at_return = reader.proc_().peek(dst, n).unwrap();
        let (lo, hi) = (2 * PAGE_SIZE, 3 * PAGE_SIZE);
        assert_eq!(at_return[..lo], want[..lo]);
        assert_eq!(at_return[lo..hi], vec![0u8; PAGE_SIZE]);
        assert_eq!(at_return[hi..], want[hi..]);
        ctx.advance(SimDur::from_us(1_000.0));
        assert_eq!(reader.proc_().peek(dst, n).unwrap(), at_return);

        // The OS has repaired the page by now; the retry reads it all.
        let policy = RetryPolicy::new(3, SimDur::from_us(500.0), SimDur::from_us(2_000.0));
        reader.fetch_retry(ctx, dst, &src, 0, n, policy).unwrap();
        assert_eq!(reader.proc_().peek(dst, n).unwrap(), want);
        finished.store(true, Ordering::SeqCst);
    });
    kernel.run_until_quiescent().unwrap();
    assert_eq!(system.violations().len(), 1, "one freeze, repaired once");
}
