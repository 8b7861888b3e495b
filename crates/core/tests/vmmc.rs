//! Integration tests of the VMMC layer on the fully-wired prototype:
//! import-export protection, deliberate and automatic update, ordering,
//! notifications, and mapping teardown.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{
    BufferName, ExportOpts, ExportPerms, ImportHandle, ShrimpSystem, SystemConfig, Vmmc, VmmcError,
};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, MemFault, Pte, VAddr, PAGE_SIZE};
use shrimp_obs::Recorder;
use shrimp_sim::{Ctx, FaultEvent, FaultKind, FaultPlan, Kernel, SimChannel, SimDur, SimTime};

fn prototype() -> (Kernel, Arc<ShrimpSystem>) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    (kernel, system)
}

/// Receiver exports one buffer and publishes its name; sender imports.
fn export_one(rx: &Vmmc, ctx: &Ctx, bytes: usize, names: &SimChannel<BufferName>) -> VAddr {
    let buf = rx.proc_().alloc(bytes, CacheMode::WriteBack);
    let name = rx.export(ctx, buf, bytes, ExportOpts::default()).unwrap();
    names.send(&ctx.handle(), name);
    buf
}

#[test]
fn deliberate_update_transfers_across_pages() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    let n = 3 * PAGE_SIZE + 512;

    {
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = export_one(&rx, ctx, n, &names);
            rx.wait_u32(ctx, buf.add(n - 4), 64, |v| v == 0xFEED)
                .unwrap();
            let got = rx.proc_().peek(buf, n - 4).unwrap();
            let want: Vec<u8> = (0..n - 4).map(|i| (i % 241) as u8).collect();
            assert_eq!(got, want);
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        let dst = tx.import(ctx, NodeId(1), name).unwrap();
        let src = tx.proc_().alloc(n, CacheMode::WriteBack);
        let mut data: Vec<u8> = (0..n - 4).map(|i| (i % 241) as u8).collect();
        data.extend_from_slice(&0xFEEDu32.to_le_bytes());
        tx.proc_().write(ctx, src, &data).unwrap();
        tx.send(ctx, src, &dst, 0, n).unwrap();
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
}

/// The one front door. `send`, `send_notify`, `send_nonblocking` and
/// `fetch` check their arguments in one place, so a bad call gets the
/// same typed error from all four, after the same CPU charge — the
/// library call, plus the descriptor issue for a fetch: 300 000 and
/// 600 000 ps, recorded on the commit before the four were folded — and
/// injects nothing into the network.
#[test]
fn front_door_rejects_bad_arguments_identically() {
    type Op = fn(&Vmmc, &Ctx, VAddr, &ImportHandle, usize, usize) -> Result<(), VmmcError>;
    let ops: [(&str, Op, u64); 4] = [
        ("send", |v, c, l, r, o, n| v.send(c, l, r, o, n), 300_000),
        (
            "send_notify",
            |v, c, l, r, o, n| v.send_notify(c, l, r, o, n),
            300_000,
        ),
        (
            "send_nonblocking",
            |v, c, l, r, o, n| {
                // What gets through the door here is zero-length: it is
                // complete on return and its wait does not block.
                let h = v.send_nonblocking(c, l, r, o, n)?;
                assert!(h.is_complete());
                v.send_wait(c, &h);
                Ok(())
            },
            300_000,
        ),
        ("fetch", |v, c, l, r, o, n| v.fetch(c, l, r, o, n), 600_000),
    ];

    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let owner = system.endpoint(1, "owner");
    let user = system.endpoint(0, "user");
    {
        let names = names.clone();
        kernel.spawn("owner", move |ctx| {
            let buf = owner.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let opts = ExportOpts {
                read: true,
                ..Default::default()
            };
            let name = owner.export(ctx, buf, PAGE_SIZE, opts).unwrap();
            names.send(&ctx.handle(), name);
        });
    }
    let sys = Arc::clone(&system);
    kernel.spawn("user", move |ctx| {
        let name = names.recv(ctx);
        let remote = user.import(ctx, NodeId(1), name).unwrap();
        // Two local pages: the second is unmapped again, and the first
        // turns read-only for the row that needs it.
        let local = user.proc_().alloc(2 * PAGE_SIZE, CacheMode::WriteBack);
        let aspace = user.proc_().aspace();
        aspace.unmap(local.page() + 1).unwrap();

        let check = |label: &str, ops: &[(&str, Op, u64)], l, off, len, want: Result<(), _>| {
            for &(name, op, charge_ps) in ops {
                let (t0, injected) = (ctx.now(), sys.net().stats().injected);
                let got = op(&user, ctx, l, &remote, off, len);
                assert_eq!(got, want, "{name}: {label}");
                assert_eq!((ctx.now() - t0).as_ps(), charge_ps, "{name}: {label}");
                assert_eq!(sys.net().stats().injected, injected, "{name}: {label}");
            }
        };
        let out_of_range = |offset, len| {
            Err(VmmcError::OutOfRange {
                offset,
                len,
                buffer_len: PAGE_SIZE,
            })
        };
        let (end, wrap) = (PAGE_SIZE - 4, usize::MAX - 3);
        check("out of range", &ops, local, end, 8, out_of_range(end, 8));
        // `wrap + 8` is 4 in wrapping arithmetic: inside the buffer.
        check(
            "offset + len wraps",
            &ops,
            local,
            wrap,
            8,
            out_of_range(wrap, 8),
        );
        check(
            "out of range before misaligned",
            &ops,
            local.add(2),
            PAGE_SIZE - 2,
            6,
            out_of_range(PAGE_SIZE - 2, 6),
        );
        check("zero length", &ops, local, 0, 0, Ok(()));
        check(
            "zero length before misaligned",
            &ops,
            local.add(2),
            2,
            0,
            Ok(()),
        );
        let misaligned = Err(VmmcError::Misaligned);
        check(
            "misaligned local address",
            &ops,
            local.add(2),
            0,
            8,
            misaligned.clone(),
        );
        check(
            "misaligned remote offset",
            &ops,
            local,
            2,
            8,
            misaligned.clone(),
        );
        check("misaligned length", &ops, local, 0, 6, misaligned.clone());
        let vpage = local.page() + 1;
        check(
            "misaligned before the MMU",
            &ops,
            local.add(PAGE_SIZE + 2),
            0,
            8,
            misaligned,
        );
        check(
            "unmapped local range",
            &ops,
            local.add(PAGE_SIZE - 8),
            0,
            16,
            Err(MemFault::NotMapped { vpage }.into()),
        );
        // A fetch writes its local range; the sends only read theirs.
        let vpage = local.page();
        let pte = aspace.pte(vpage).unwrap();
        aspace.map(
            vpage,
            Pte {
                writable: false,
                ..pte
            },
        );
        check(
            "read-only local range",
            &ops[3..],
            local,
            0,
            8,
            Err(MemFault::ReadOnly { vpage }.into()),
        );

        user.unimport(ctx, &remote);
        check(
            "stale import",
            &ops,
            local,
            0,
            8,
            Err(VmmcError::StaleImport),
        );
        check(
            "stale before everything else",
            &ops,
            local.add(2),
            wrap,
            6,
            Err(VmmcError::StaleImport),
        );
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
}

#[test]
fn import_permission_denied_for_excluded_node() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    {
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let name = rx
                .export(
                    ctx,
                    buf,
                    PAGE_SIZE,
                    ExportOpts {
                        perms: ExportPerms::Nodes(vec![NodeId(2)]),
                        handler: None,
                        ..Default::default()
                    },
                )
                .unwrap();
            names.send(&ctx.handle(), name);
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        let err = tx.import(ctx, NodeId(1), name).unwrap_err();
        assert!(matches!(err, VmmcError::PermissionDenied { .. }));
        let err = tx.import(ctx, NodeId(1), BufferName(999)).unwrap_err();
        assert!(matches!(err, VmmcError::UnknownBuffer { .. }));
    });
    kernel.run_until_quiescent().unwrap();
}

#[test]
fn automatic_update_binding_propagates_stores() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    {
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = export_one(&rx, ctx, 2 * PAGE_SIZE, &names);
            rx.wait_u32(ctx, buf.add(128 + 60), 64, |v| v == 77)
                .unwrap();
            assert_eq!(rx.proc_().peek(buf.add(128), 60).unwrap(), vec![9u8; 60]);
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        let dst = tx.import(ctx, NodeId(1), name).unwrap();
        let send_buf = tx.proc_().alloc(2 * PAGE_SIZE, CacheMode::WriteBack);
        let binding = tx.bind_au(ctx, send_buf, &dst, 0, 2, true, false).unwrap();
        // Ordinary stores now propagate: no explicit send operation.
        tx.proc_()
            .write(ctx, send_buf.add(128), &[9u8; 60])
            .unwrap();
        tx.proc_()
            .write_u32(ctx, send_buf.add(128 + 60), 77)
            .unwrap();
        tx.unbind_au(ctx, binding);
        // After unbind, stores stay local.
        tx.proc_().write_u32(ctx, send_buf, 0xDEAD).unwrap();
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
}

#[test]
fn au_then_du_control_after_data_ordering() {
    // The pattern every library relies on: transfer data, then control
    // information; in-order delivery means the flag's arrival implies the
    // data's.
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    {
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = export_one(&rx, ctx, PAGE_SIZE, &names);
            for round in 1..=20u32 {
                rx.wait_u32(ctx, buf.add(PAGE_SIZE - 4), 64, |v| v == round)
                    .unwrap();
                // Flag arrived: the 256 bytes of data must be complete.
                let got = rx.proc_().peek(buf, 256).unwrap();
                assert_eq!(got, vec![round as u8; 256], "round {round}");
            }
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        let dst = tx.import(ctx, NodeId(1), name).unwrap();
        let src = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        let flag_src = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        for round in 1..=20u32 {
            tx.proc_().write(ctx, src, &vec![round as u8; 256]).unwrap();
            tx.send(ctx, src, &dst, 0, 256).unwrap();
            tx.proc_().write_u32(ctx, flag_src, round).unwrap();
            tx.send(ctx, flag_src, &dst, PAGE_SIZE - 4, 4).unwrap();
        }
    });
    kernel.run_until_quiescent().unwrap();
}

/// The converse of `au_then_du_control_after_data_ordering`, and the
/// invariant every control-page protocol rests on (`shrimp-coll`'s
/// flag-after-bulk-payload, the NX and socket headers): an
/// automatic-update store issued once a send has completed — a
/// *blocking* send has returned, or a non-blocking one's `send_wait` has
/// — lands after every piece of that send. DESIGN.md §5 limits the
/// guarantee to exactly this case, because a completed send has its last
/// piece already sequenced in the outgoing FIFO and the store's packet
/// queues behind it. The 2 KiB source straddles a page, so the send is
/// two chunks, deposited 81 and 118 µs after the call; the deposits are
/// watched at the receiving NIC, in the clear and with the receive DMA
/// or the receiver's links stalled from 60 µs, which holds the second
/// piece and the word behind it — for both kinds of send.
#[test]
fn au_store_after_a_completed_send_lands_after_its_data() {
    const SEND_AT: SimTime = SimTime(1_000_000_000);
    let after = |us: f64, kind: FaultKind| FaultEvent {
        at: SEND_AT + SimDur::from_us(us),
        kind,
    };
    let dur = SimDur::from_us(150.0);
    for nonblocking in [false, true] {
        let clear = du_then_au_deposits(Vec::new(), nonblocking);
        let stalled = [
            du_then_au_deposits(
                vec![after(60.0, FaultKind::DmaStall { node: 1, dur })],
                nonblocking,
            ),
            du_then_au_deposits(
                vec![after(60.0, FaultKind::LinkStall { node: 1, dur })],
                nonblocking,
            ),
        ];
        for run in stalled {
            assert_eq!(run[0], clear[0], "the first piece was past the stall");
            assert!(run[1].1 > clear[1].1, "the stall held the second piece");
        }
    }

    /// One run: `(landed in the control page, when)` per deposit.
    /// The send is `send_nonblocking` + `send_wait` when `nonblocking`.
    fn du_then_au_deposits(faults: Vec<FaultEvent>, nonblocking: bool) -> Vec<(bool, SimTime)> {
        // Node 1's deposits are its `dma_write` spans, each ending at
        // the instant its delivery hook runs.
        let rec = Recorder::new();
        let (kernel, system) = {
            let _observed = rec.install();
            prototype()
        };
        system.apply_faults(&FaultPlan::scripted(faults));
        let names: SimChannel<BufferName> = SimChannel::new();
        let rx = system.endpoint(1, "rx");
        let tx = system.endpoint(0, "tx");
        {
            let names = names.clone();
            kernel.spawn("rx", move |ctx| {
                let buf = export_one(&rx, ctx, 2 * PAGE_SIZE, &names);
                let ctl = buf.add(PAGE_SIZE);
                rx.wait_u32(ctx, ctl, 1 << 20, |v| v == 0xF1A6).unwrap();
                // Flag seen: both chunks of the payload are complete.
                assert_eq!(rx.proc_().peek(buf, 2048).unwrap(), vec![0xD7; 2048]);
            });
        }
        kernel.spawn("tx", move |ctx| {
            let name = names.recv(ctx);
            let dst = tx.import(ctx, NodeId(1), name).unwrap();
            let src = tx
                .proc_()
                .alloc_at_offset(2048, PAGE_SIZE - 1024, CacheMode::WriteBack);
            tx.proc_().poke(src, &[0xD7; 2048]).unwrap();
            let mirror = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            tx.bind_au(ctx, mirror, &dst, PAGE_SIZE, 1, false, false)
                .unwrap();
            ctx.sleep_until(SEND_AT);
            if nonblocking {
                let handle = tx.send_nonblocking(ctx, src, &dst, 0, 2048).unwrap();
                tx.send_wait(ctx, &handle);
            } else {
                tx.send(ctx, src, &dst, 0, 2048).unwrap();
            }
            tx.proc_().write_u32(ctx, mirror, 0xF1A6).unwrap();
        });
        kernel.run_until_quiescent().unwrap();
        assert!(system.violations().is_empty());
        // The control page takes one word; the data pieces fill the
        // first page.
        let seen: Vec<(bool, SimTime)> = rec
            .spans()
            .iter()
            .filter(|s| s.node == 1 && s.name == "dma_write")
            .map(|s| (s.bytes == 4, s.end))
            .collect();
        let order: Vec<bool> = seen.iter().map(|d| d.0).collect();
        assert_eq!(
            order,
            [false, false, true],
            "two data pieces, then the word"
        );
        assert!(seen.windows(2).all(|w| w[0].1 <= w[1].1));
        seen
    }
}

#[test]
fn notification_handler_runs_with_signal_semantics() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    let handled = Arc::new(Mutex::new(Vec::new()));
    {
        let names = names.clone();
        let handled = Arc::clone(&handled);
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let h2 = Arc::clone(&handled);
            let name = rx
                .export(
                    ctx,
                    buf,
                    PAGE_SIZE,
                    ExportOpts {
                        perms: ExportPerms::Any,
                        handler: Some(Box::new(move |_ctx, ev| h2.lock().push(ev.buffer))),
                        ..Default::default()
                    },
                )
                .unwrap();
            names.send(&ctx.handle(), name);
            // Block while the first message arrives: it must queue.
            rx.set_notifications_blocked(ctx, true);
            ctx.advance(SimDur::from_us(3_000.0));
            assert!(handled.lock().is_empty(), "notification ran while blocked");
            rx.set_notifications_blocked(ctx, false);
            let ev = rx.wait_notification(ctx);
            assert_eq!(ev.buffer, name);
            assert_eq!(handled.lock().len(), 1);
            // Second notification consumed by polling.
            let ev2 = rx.wait_notification(ctx);
            assert_eq!(ev2.buffer, name);
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        let dst = tx.import(ctx, NodeId(1), name).unwrap();
        let src = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        tx.send_notify(ctx, src, &dst, 0, 64).unwrap();
        ctx.advance(SimDur::from_us(5_000.0));
        tx.send_notify(ctx, src, &dst, 0, 64).unwrap();
    });
    kernel.run_until_quiescent().unwrap();
}

#[test]
fn unexport_disables_pages_and_subsequent_sends_violate() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let done: SimChannel<()> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    {
        let names = names.clone();
        let done = done.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = export_one(&rx, ctx, PAGE_SIZE, &names);
            // Wait for the first message, then tear down.
            rx.wait_u32(ctx, buf, 64, |v| v == 1).unwrap();
            let name_of = {
                // find our export name: it was sent over the channel, so
                // recompute via a second export is unnecessary; instead
                // the sender echoes the name back through `done` timing.
                // Simpler: re-export is avoided; unexport takes the name
                // we still hold.
                buf
            };
            let _ = name_of;
            done.send(&ctx.handle(), ());
        });
    }
    {
        let sys = Arc::clone(&system);
        kernel.spawn("tx", move |ctx| {
            let name = names.recv(ctx);
            let dst = tx.import(ctx, NodeId(1), name).unwrap();
            let src = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            tx.proc_().write_u32(ctx, src, 1).unwrap();
            tx.send(ctx, src, &dst, 0, 4).unwrap();
            done.recv(ctx);
            // The receiver endpoint drops its export when its process
            // ends; emulate the raced late send by disabling via daemon.
            sys.daemon(1).unregister_export(name).unwrap();
            tx.send(ctx, src, &dst, 0, 4).unwrap();
            // Give the violation time to surface.
            ctx.advance(SimDur::from_us(2_000.0));
        });
    }
    kernel.run_until_quiescent().unwrap();
    let v = system.violations();
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].0, NodeId(1));
}

#[test]
fn explicit_unexport_waits_for_pending_traffic() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    {
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let name = rx
                .export(ctx, buf, PAGE_SIZE, ExportOpts::default())
                .unwrap();
            names.send(&ctx.handle(), name);
            rx.wait_u32(ctx, buf, 64, |v| v == 42).unwrap();
            // Unexport drains in-flight traffic before disabling pages.
            rx.unexport(ctx, name).unwrap();
            assert!(rx.unexport(ctx, name).is_err());
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        let dst = tx.import(ctx, NodeId(1), name).unwrap();
        let src = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        tx.proc_().write_u32(ctx, src, 42).unwrap();
        tx.send(ctx, src, &dst, 0, PAGE_SIZE).unwrap();
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
}

#[test]
fn bidirectional_au_ping_pong() {
    // The specialized-RPC pattern: both sides bind AU windows to each
    // other and communicate purely with stores.
    let (kernel, system) = prototype();
    let names_a: SimChannel<BufferName> = SimChannel::new();
    let names_b: SimChannel<BufferName> = SimChannel::new();
    let a = system.endpoint(0, "a");
    let b = system.endpoint(3, "b");
    const ROUNDS: u32 = 10;
    {
        let names_a = names_a.clone();
        let names_b = names_b.clone();
        kernel.spawn("a", move |ctx| {
            let recv = a.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let name = a
                .export(ctx, recv, PAGE_SIZE, ExportOpts::default())
                .unwrap();
            names_a.send(&ctx.handle(), name);
            let peer = names_b.recv(ctx);
            let dst = a.import(ctx, NodeId(3), peer).unwrap();
            let send = a.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
            let _bind = a.bind_au(ctx, send, &dst, 0, 1, true, false).unwrap();
            for i in 1..=ROUNDS {
                a.proc_().write_u32(ctx, send, i).unwrap();
                a.wait_u32(ctx, recv, 64, |v| v == i).unwrap();
            }
        });
    }
    kernel.spawn("b", move |ctx| {
        let recv = b.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        let name = b
            .export(ctx, recv, PAGE_SIZE, ExportOpts::default())
            .unwrap();
        names_b.send(&ctx.handle(), name);
        let peer = names_a.recv(ctx);
        let dst = b.import(ctx, NodeId(0), peer).unwrap();
        let send = b.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        let _bind = b.bind_au(ctx, send, &dst, 0, 1, true, false).unwrap();
        for i in 1..=ROUNDS {
            b.wait_u32(ctx, recv, 64, |v| v == i).unwrap();
            b.proc_().write_u32(ctx, send, i).unwrap();
        }
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
}

#[test]
fn au_binding_rejects_unaligned_windows() {
    let (kernel, system) = prototype();
    let names: SimChannel<BufferName> = SimChannel::new();
    let rx = system.endpoint(1, "rx");
    let tx = system.endpoint(0, "tx");
    {
        let names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let _ = export_one(&rx, ctx, 2 * PAGE_SIZE, &names);
        });
    }
    kernel.spawn("tx", move |ctx| {
        let name = names.recv(ctx);
        let dst = tx.import(ctx, NodeId(1), name).unwrap();
        let send = tx.proc_().alloc(2 * PAGE_SIZE, CacheMode::WriteBack);
        assert!(matches!(
            tx.bind_au(ctx, send.add(16), &dst, 0, 1, true, false),
            Err(VmmcError::UnalignedBinding)
        ));
        assert!(matches!(
            tx.bind_au(ctx, send, &dst, 100, 1, true, false),
            Err(VmmcError::UnalignedBinding)
        ));
        assert!(matches!(
            tx.bind_au(ctx, send, &dst, 0, 5, true, false),
            Err(VmmcError::OutOfRange { .. })
        ));
    });
    kernel.run_until_quiescent().unwrap();
}

/// One 64-byte deliberate update from node 0 to node 1, run to the end.
fn one_send(kernel: &Kernel, system: &Arc<ShrimpSystem>) {
    let names: SimChannel<BufferName> = SimChannel::new();
    let (rx, tx) = (system.endpoint(1, "rx"), system.endpoint(0, "tx"));
    let n = names.clone();
    kernel.spawn("rx", move |ctx| {
        export_one(&rx, ctx, PAGE_SIZE, &n);
    });
    kernel.spawn("tx", move |ctx| {
        let dst = tx.import(ctx, NodeId(1), names.recv(ctx)).unwrap();
        let src = tx.proc_().alloc(64, CacheMode::WriteBack);
        tx.send(ctx, src, &dst, 0, 64).unwrap();
    });
    kernel.run_until_quiescent().unwrap();
}

/// A system records into the recorder installed when it was built, for
/// life, and into no other: one installed later sees nothing.
#[test]
fn a_system_records_into_the_recorder_current_when_it_was_built() {
    let rec = Recorder::new();
    let (kernel, system) = prototype();
    {
        let _observed = rec.install();
        one_send(&kernel, &system);
    }
    assert!(rec.is_empty(), "built before the install: nothing recorded");
    let (kernel, system) = {
        let _observed = rec.install();
        prototype()
    };
    one_send(&kernel, &system);
    let spans: Vec<String> = rec
        .spans()
        .iter()
        .map(|s| format!("{} n{} {}/{} {}B", s.msg, s.node, s.layer, s.name, s.bytes))
        .collect();
    assert_eq!(
        spans,
        [
            "m1 n0 nic-out/du_packetize 64B",
            "m1 n0 endpoint/send 64B",
            "m1 n0 mesh/route 64B",
            "m1 n1 nic-in/ipt_check 64B",
            "m1 n1 deposit/dma_write 64B",
        ],
        "one span per layer, all on the send's message id"
    );
}

/// The panic message of `set`, which must panic.
fn panic_message(set: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(set)).unwrap_err();
    let owned = err.downcast_ref::<String>().cloned();
    owned.unwrap_or_else(|| err.downcast_ref::<&str>().unwrap().to_string())
}

/// Every hook is set once, when the machine is wired; a second
/// `set_*` is a wiring bug and names its hook.
#[test]
fn each_hook_is_set_once() {
    let (kernel, system) = prototype();
    kernel.set_tracer(|_| {});
    for (hook, msg) in [
        (
            "snoop hook",
            panic_message(|| system.node(0).set_snoop_hook(|_| {})),
        ),
        (
            "interrupt hook",
            panic_message(|| system.node(0).set_interrupt_hook(|_| {})),
        ),
        (
            "delivery hook",
            panic_message(|| system.nic(0).set_delivery_hook(|_, _| {})),
        ),
        ("tracer", panic_message(|| kernel.set_tracer(|_| {}))),
    ] {
        assert!(
            msg.contains(&format!("{hook} set twice")),
            "{hook}: {msg:?}"
        );
    }
}
