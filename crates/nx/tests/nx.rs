//! Integration tests of the NX library on the 4-node prototype.

mod common;

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::{CacheMode, VAddr};
use shrimp_nx::{NxConfig, NxError, NxProc, NxWorld, SendVariant, PKT_PAYLOAD};
use shrimp_sim::{Ctx, Kernel, RetryPolicy, SimDur, SimTime};

fn run_world<F>(nranks: usize, config: NxConfig, bodies: F) -> Arc<ShrimpSystem>
where
    F: Fn(usize) -> Box<dyn FnOnce(&Ctx, NxProc) + Send>,
{
    run_world_on(SystemConfig::prototype(), nranks, config, bodies)
}

/// [`run_world`] on a system built from `system`.
fn run_world_on<F>(
    system: SystemConfig,
    nranks: usize,
    config: NxConfig,
    bodies: F,
) -> Arc<ShrimpSystem>
where
    F: Fn(usize) -> Box<dyn FnOnce(&Ctx, NxProc) + Send>,
{
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, system);
    let nodes: Vec<usize> = (0..nranks).map(|r| r % system.len()).collect();
    let world = NxWorld::new(Arc::clone(&system), config, nodes);
    for rank in 0..nranks {
        let world = Arc::clone(&world);
        let body = bodies(rank);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let nx = world.join(ctx, rank);
            body(ctx, nx);
        });
    }
    common::run_to_completion(&kernel, &system);
    system
}

fn alloc_filled(nx: &NxProc, pattern: u8, len: usize) -> VAddr {
    let buf = nx.vmmc().proc_().alloc(len.max(4), CacheMode::WriteBack);
    nx.vmmc().proc_().poke(buf, &vec![pattern; len]).unwrap();
    buf
}

#[test]
fn small_message_round_trip_all_variants() {
    for variant in [
        SendVariant::AutomaticUpdate,
        SendVariant::DuMarshal,
        SendVariant::DuFromUser,
    ] {
        let mut config = NxConfig::paper_default();
        config.send_variant = variant;
        run_world(2, config, |rank| {
            Box::new(move |ctx, mut nx| {
                if rank == 0 {
                    let buf = alloc_filled(&nx, 0xA5, 777);
                    nx.csend(ctx, 17, buf, 777, 1).unwrap();
                } else {
                    let buf = nx.vmmc().proc_().alloc(2048, CacheMode::WriteBack);
                    let n = nx.crecv(ctx, 17, buf, 2048).unwrap();
                    assert_eq!(n, 777);
                    assert_eq!(nx.infocount(), 777);
                    assert_eq!(nx.infotype(), 17);
                    assert_eq!(nx.infonode(), 0);
                    assert_eq!(nx.vmmc().proc_().peek(buf, 777).unwrap(), vec![0xA5; 777]);
                }
            })
        });
    }
}

#[test]
fn large_message_zero_copy_round_trip() {
    let n = 64 * 1024;
    run_world(2, NxConfig::paper_default(), move |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let buf = nx.vmmc().proc_().alloc(n, CacheMode::WriteBack);
                let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                nx.vmmc().proc_().poke(buf, &data).unwrap();
                nx.csend(ctx, 3, buf, n, 1).unwrap();
                // Keep making library calls so a pending transfer
                // completes even if the receiver replied late.
                let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                let _ = nx.crecv(ctx, 4, scratch, 16).unwrap();
            } else {
                let buf = nx.vmmc().proc_().alloc(n, CacheMode::WriteBack);
                let got = nx.crecv(ctx, 3, buf, n).unwrap();
                assert_eq!(got, n);
                let want: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
                assert_eq!(nx.vmmc().proc_().peek(buf, n).unwrap(), want);
                // Ack back to release the sender.
                let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                nx.csend(ctx, 4, scratch, 4, 0).unwrap();
            }
        })
    });
}

#[test]
fn large_message_unaligned_falls_back_to_chunks() {
    let n = 10_000; // not a multiple of 4 is the receiver side; use odd buffer
    run_world(2, NxConfig::paper_default(), move |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let buf = alloc_filled(&nx, 0x3C, n);
                nx.csend(ctx, 9, buf, n, 1).unwrap();
                let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                let _ = nx.crecv(ctx, 10, scratch, 16).unwrap();
            } else {
                // Unaligned user receive buffer: zero-copy is forbidden.
                let buf = nx
                    .vmmc()
                    .proc_()
                    .alloc_at_offset(n + 8, 2, CacheMode::WriteBack);
                let got = nx.crecv(ctx, 9, buf, n + 4).unwrap();
                assert_eq!(got, n);
                assert_eq!(nx.vmmc().proc_().peek(buf, n).unwrap(), vec![0x3C; n]);
                let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                nx.csend(ctx, 10, scratch, 4, 0).unwrap();
            }
        })
    });
}

#[test]
fn typed_receive_consumes_out_of_order() {
    run_world(2, NxConfig::paper_default(), |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let a = alloc_filled(&nx, 1, 64);
                let b = alloc_filled(&nx, 2, 64);
                let c = alloc_filled(&nx, 3, 64);
                nx.csend(ctx, 100, a, 64, 1).unwrap();
                nx.csend(ctx, 200, b, 64, 1).unwrap();
                nx.csend(ctx, 300, c, 64, 1).unwrap();
            } else {
                let buf = nx.vmmc().proc_().alloc(64, CacheMode::WriteBack);
                // Consume in reverse type order.
                nx.crecv(ctx, 300, buf, 64).unwrap();
                assert_eq!(nx.vmmc().proc_().peek(buf, 64).unwrap(), vec![3; 64]);
                nx.crecv(ctx, 200, buf, 64).unwrap();
                assert_eq!(nx.vmmc().proc_().peek(buf, 64).unwrap(), vec![2; 64]);
                nx.crecv(ctx, 100, buf, 64).unwrap();
                assert_eq!(nx.vmmc().proc_().peek(buf, 64).unwrap(), vec![1; 64]);
            }
        })
    });
}

#[test]
fn same_type_messages_arrive_in_order() {
    run_world(2, NxConfig::paper_default(), |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let buf = nx.vmmc().proc_().alloc(8, CacheMode::WriteBack);
                for i in 0..50u32 {
                    nx.vmmc().proc_().poke(buf, &i.to_le_bytes()).unwrap();
                    nx.csend(ctx, 5, buf, 4, 1).unwrap();
                }
            } else {
                let buf = nx.vmmc().proc_().alloc(8, CacheMode::WriteBack);
                for i in 0..50u32 {
                    nx.crecv(ctx, 5, buf, 8).unwrap();
                    let got = nx.vmmc().proc_().peek(buf, 4).unwrap();
                    assert_eq!(u32::from_le_bytes(got.try_into().unwrap()), i);
                }
            }
        })
    });
}

#[test]
fn credit_exhaustion_blocks_then_recovers() {
    // More in-flight messages than packet buffers: the sender must wait
    // for credits (and interrupt the receiver), then complete.
    let mut config = NxConfig::paper_default();
    config.packet_buffers = 4;
    run_world(2, config, |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let buf = alloc_filled(&nx, 7, 128);
                for _ in 0..32 {
                    nx.csend(ctx, 1, buf, 128, 1).unwrap();
                }
                assert!(nx.stats().credit_stalls > 0, "{:?}", nx.stats());
            } else {
                // Delay before receiving so buffers fill up.
                ctx.advance(shrimp_sim::SimDur::from_us(3000.0));
                let buf = nx.vmmc().proc_().alloc(128, CacheMode::WriteBack);
                for _ in 0..32 {
                    let n = nx.crecv(ctx, 1, buf, 128).unwrap();
                    assert_eq!(n, 128);
                    assert_eq!(nx.vmmc().proc_().peek(buf, 128).unwrap(), vec![7; 128]);
                }
            }
        })
    });
}

#[test]
fn a_packet_buffer_is_refilled_only_after_its_copy_out() {
    // One packet buffer, so every message reuses it, and full-payload
    // messages, so each copy-out spans several quanta: a credit
    // returned before the copy-out lets the next message land in the
    // buffer while the last one is still being copied out of it. At
    // the calibrated copy rate the receiver's copy-out outruns the
    // sender's refill, so the race cannot show; the protocol must hold
    // at any timing, and at a seventh of that rate it would lose.
    let mut system = SystemConfig::prototype();
    system.costs.copy_bytes_per_sec_wb /= 7.0;
    let mut config = NxConfig::paper_default();
    config.packet_buffers = 1;
    const MSGS: u8 = 8;
    run_world_on(system, 2, config, |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let bufs: Vec<VAddr> = (1..=MSGS)
                    .map(|i| alloc_filled(&nx, i, PKT_PAYLOAD))
                    .collect();
                for buf in bufs {
                    nx.csend(ctx, 3, buf, PKT_PAYLOAD, 1).unwrap();
                }
            } else {
                let buf = nx.vmmc().proc_().alloc(PKT_PAYLOAD, CacheMode::WriteBack);
                for i in 1..=MSGS {
                    assert_eq!(nx.crecv(ctx, 3, buf, PKT_PAYLOAD).unwrap(), PKT_PAYLOAD);
                    let got = nx.vmmc().proc_().peek(buf, PKT_PAYLOAD).unwrap();
                    let bad = got.iter().position(|&b| b != i);
                    assert_eq!(bad, None, "message {i} differs at byte {bad:?}");
                }
            }
        })
    });
}

#[test]
fn isend_irecv_msgwait() {
    run_world(2, NxConfig::paper_default(), |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let buf = alloc_filled(&nx, 0x44, 256);
                let h = nx.isend(ctx, 8, buf, 256, 1).unwrap();
                nx.msgwait(ctx, h).unwrap();
            } else {
                let buf = nx.vmmc().proc_().alloc(256, CacheMode::WriteBack);
                let h = nx.irecv(ctx, 8, buf, 256);
                let n = nx.msgwait(ctx, h).unwrap();
                assert_eq!(n, 256);
                assert_eq!(nx.vmmc().proc_().peek(buf, 256).unwrap(), vec![0x44; 256]);
            }
        })
    });
}

#[test]
fn probes_report_without_consuming() {
    run_world(2, NxConfig::paper_default(), |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let buf = alloc_filled(&nx, 9, 40);
                nx.csend(ctx, 77, buf, 40, 1).unwrap();
            } else {
                let info = nx.cprobe(ctx, -1).unwrap();
                assert_eq!(info.count, 40);
                assert_eq!(info.mtype, 77);
                assert_eq!(info.src, 0);
                // Probe again: still there.
                assert!(nx.iprobe(ctx, 77).unwrap().is_some());
                assert!(nx.iprobe(ctx, 78).unwrap().is_none());
                let buf = nx.vmmc().proc_().alloc(64, CacheMode::WriteBack);
                assert_eq!(nx.crecv(ctx, -1, buf, 64).unwrap(), 40);
                assert!(nx.iprobe(ctx, -1).unwrap().is_none());
            }
        })
    });
}

#[test]
fn truncated_small_message_is_an_error() {
    run_world(2, NxConfig::paper_default(), |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let buf = alloc_filled(&nx, 1, 512);
                nx.csend(ctx, 2, buf, 512, 1).unwrap();
            } else {
                let buf = nx.vmmc().proc_().alloc(64, CacheMode::WriteBack);
                match nx.crecv(ctx, 2, buf, 64) {
                    Err(NxError::Truncated { len: 512, max: 64 }) => {}
                    other => panic!("expected truncation, got {other:?}"),
                }
            }
        })
    });
}

#[test]
fn self_send_loops_back() {
    run_world(1, NxConfig::paper_default(), |_rank| {
        Box::new(move |ctx, mut nx| {
            let src = alloc_filled(&nx, 0xEE, 100);
            let dst = nx.vmmc().proc_().alloc(100, CacheMode::WriteBack);
            nx.csend(ctx, 1, src, 100, 0).unwrap();
            assert_eq!(nx.crecv(ctx, 1, dst, 100).unwrap(), 100);
            assert_eq!(nx.vmmc().proc_().peek(dst, 100).unwrap(), vec![0xEE; 100]);
            assert!(matches!(
                nx.csend(ctx, 1, src, 4, 9),
                Err(NxError::InvalidRank(9))
            ));
        })
    });
}

#[test]
fn four_rank_ring_exchange() {
    run_world(4, NxConfig::paper_default(), |rank| {
        Box::new(move |ctx, mut nx| {
            let n = nx.numnodes();
            // One region per ordered pair, exported by its receiver: past
            // the collective communicator's channels (one per peer at four
            // ranks), each rank's node holds one NX export per peer.
            assert!(nx.coll().has_flat_channels());
            let vmmc = nx.vmmc();
            let exports = vmmc.system().daemon(vmmc.node_index()).export_count();
            assert_eq!(exports - (n - 1), n - 1, "exports on rank {rank}'s node");
            let buf = alloc_filled(&nx, rank as u8, 1024);
            let recv = nx.vmmc().proc_().alloc(1024, CacheMode::WriteBack);
            let next = (rank + 1) % n;
            let prev = (rank + n - 1) % n;
            for round in 0..3 {
                nx.csend(ctx, round, buf, 1024, next).unwrap();
                nx.crecv(ctx, round, recv, 1024).unwrap();
                assert_eq!(nx.infonode(), prev);
                assert_eq!(
                    nx.vmmc().proc_().peek(recv, 1024).unwrap(),
                    vec![prev as u8; 1024]
                );
            }
        })
    });
}

#[test]
fn barrier_and_reductions() {
    let results: Arc<Mutex<Vec<(f64, i64)>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&results);
    run_world(4, NxConfig::paper_default(), move |rank| {
        let results = Arc::clone(&r2);
        Box::new(move |ctx, mut nx| {
            nx.gsync(ctx).unwrap();
            let s = nx.gdsum(ctx, (rank + 1) as f64).unwrap();
            let i = nx.gisum(ctx, (rank as i64 + 1) * 10).unwrap();
            nx.gsync(ctx).unwrap();
            results.lock().push((s, i));
        })
    });
    let results = results.lock();
    assert_eq!(results.len(), 4);
    for (s, i) in results.iter() {
        assert_eq!(*s, 10.0); // 1+2+3+4
        assert_eq!(*i, 100); // 10+20+30+40
    }
}

#[test]
fn a_large_send_may_cross_a_barrier_before_its_receive() {
    // `gsync` is a pure barrier: a blocking large send returns after its
    // safe copy, so its receiver may post the receive after the barrier,
    // and the sender's closing `flush` completes the transfer.
    let n = 8192;
    run_world(2, NxConfig::paper_default(), move |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let buf = alloc_filled(&nx, 0x5A, n);
                nx.csend(ctx, 1, buf, n, 1).unwrap();
                nx.gsync(ctx).unwrap();
                nx.flush(ctx).unwrap();
            } else {
                let buf = nx.vmmc().proc_().alloc(n, CacheMode::WriteBack);
                nx.gsync(ctx).unwrap();
                assert_eq!(nx.crecv(ctx, 1, buf, n).unwrap(), n);
                assert_eq!(nx.vmmc().proc_().peek(buf, n).unwrap(), vec![0x5A; n]);
            }
        })
    });
}

#[test]
fn chunked_threshold_zero_forces_rendezvous_everywhere() {
    let mut config = NxConfig::paper_default();
    config.large_threshold = 0;
    run_world(2, config, |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let buf = alloc_filled(&nx, 0x11, 4096);
                nx.csend(ctx, 1, buf, 4096, 1).unwrap();
                let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                let _ = nx.crecv(ctx, 2, scratch, 16).unwrap();
            } else {
                let buf = nx.vmmc().proc_().alloc(4096, CacheMode::WriteBack);
                assert_eq!(nx.crecv(ctx, 1, buf, 4096).unwrap(), 4096);
                assert_eq!(nx.vmmc().proc_().peek(buf, 4096).unwrap(), vec![0x11; 4096]);
                let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                nx.csend(ctx, 2, scratch, 4, 0).unwrap();
                // At this threshold the 4-byte reply is a scout too: its
                // data moves only from a later library call.
                nx.flush(ctx).unwrap();
            }
        })
    });
}

#[test]
fn a_ninth_outstanding_blocking_large_send_waits_for_a_reply_slot() {
    // A blocking large send returns once its safe copy is made, so a
    // receiver that starts late lets them pile up past the eight reply
    // slots of a connection. One reused buffer, a fill byte per message:
    // a safe copy overwritten or a reply mismatched shows as a payload.
    let n = 8192;
    run_world(2, NxConfig::paper_default(), move |rank| {
        Box::new(move |ctx, mut nx| {
            let buf = nx.vmmc().proc_().alloc(n, CacheMode::WriteBack);
            if rank == 0 {
                for fill in 1..=12u8 {
                    nx.vmmc().proc_().poke(buf, &vec![fill; n]).unwrap();
                    nx.csend(ctx, 1, buf, n, 1).unwrap();
                    // Eight sends take the eight slots and return at once;
                    // from the ninth on, a send returns only once the late
                    // receiver has taken a message.
                    let at = ctx.now().as_us();
                    assert_eq!(at > 30_000.0, fill > 8, "send {fill} returned at {at} us");
                }
                nx.flush(ctx).unwrap();
            } else {
                ctx.advance(shrimp_sim::SimDur::from_us(30_000.0));
                for fill in 1..=12u8 {
                    assert_eq!(nx.crecv(ctx, 1, buf, n).unwrap(), n);
                    assert_eq!(nx.vmmc().proc_().peek(buf, n).unwrap(), vec![fill; n]);
                }
            }
        })
    });
}

#[test]
fn twelve_large_isends_complete_through_eight_reply_slots() {
    let n = 8192;
    run_world(2, NxConfig::paper_default(), move |rank| {
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let handles: Vec<_> = (1..=12u8)
                    .map(|fill| {
                        let buf = alloc_filled(&nx, fill, n);
                        nx.isend(ctx, 1, buf, n, 1).unwrap()
                    })
                    .collect();
                for h in handles {
                    assert_eq!(nx.msgwait(ctx, h).unwrap(), n);
                }
            } else {
                let buf = nx.vmmc().proc_().alloc(n, CacheMode::WriteBack);
                for fill in 1..=12u8 {
                    assert_eq!(nx.crecv(ctx, 1, buf, n).unwrap(), n);
                    assert_eq!(nx.vmmc().proc_().peek(buf, n).unwrap(), vec![fill; n]);
                }
            }
        })
    });
}

#[test]
fn as_many_packet_buffers_as_credit_slots_is_not_one_too_many() {
    // The receiver returns a whole burst's credits before the sender
    // takes one: 64 fill the credit ring exactly. (With 65, which
    // `NxWorld::new` rejects, credit 64 lands on credit 0's slot and the
    // second burst waits forever for a credit that was overwritten.)
    let mut config = NxConfig::paper_default();
    config.packet_buffers = 64;
    let burst = config.packet_buffers;
    run_world(2, config, move |rank| {
        Box::new(move |ctx, mut nx| {
            let buf = alloc_filled(&nx, 0x5A, 64);
            if rank == 0 {
                for _ in 0..burst {
                    nx.csend(ctx, 1, buf, 64, 1).unwrap();
                }
                ctx.advance(shrimp_sim::SimDur::from_us(60_000.0));
                for _ in 0..burst {
                    nx.csend(ctx, 1, buf, 64, 1).unwrap();
                }
                assert_eq!(nx.stats().credit_stalls, burst as u64);
            } else {
                ctx.advance(shrimp_sim::SimDur::from_us(30_000.0));
                for _ in 0..2 * burst {
                    assert_eq!(nx.crecv(ctx, 1, buf, 64).unwrap(), 64);
                }
            }
        })
    });
}

#[test]
fn boundary_sizes_round_trip() {
    // Exactly at and around the one-copy/zero-copy protocol switch.
    for n in [
        0usize,
        1,
        3,
        4,
        PKT_PAYLOAD - 1,
        PKT_PAYLOAD,
        PKT_PAYLOAD + 1,
        2 * PKT_PAYLOAD,
    ] {
        run_world(2, NxConfig::paper_default(), move |rank| {
            Box::new(move |ctx, mut nx| {
                if rank == 0 {
                    let buf = alloc_filled(&nx, 0x5F, n.max(4));
                    nx.csend(ctx, 1, buf, n, 1).unwrap();
                    let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                    let _ = nx.crecv(ctx, 2, scratch, 16).unwrap();
                } else {
                    let buf = nx
                        .vmmc()
                        .proc_()
                        .alloc((n + 8).max(8), CacheMode::WriteBack);
                    assert_eq!(nx.crecv(ctx, 1, buf, n + 4).unwrap(), n, "size {n}");
                    if n > 0 {
                        assert_eq!(nx.vmmc().proc_().peek(buf, n).unwrap(), vec![0x5F; n]);
                    }
                    let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                    nx.csend(ctx, 2, scratch, 4, 0).unwrap();
                }
            })
        });
    }
}

#[test]
fn stats_classify_protocol_paths() {
    let stats = Arc::new(Mutex::new(None));
    let s2 = Arc::clone(&stats);
    run_world(2, NxConfig::paper_default(), move |rank| {
        let stats = Arc::clone(&s2);
        Box::new(move |ctx, mut nx| {
            if rank == 0 {
                let small = alloc_filled(&nx, 1, 100);
                let large = alloc_filled(&nx, 2, 8192);
                nx.csend(ctx, 1, small, 100, 1).unwrap(); // small path
                nx.csend(ctx, 2, large, 8192, 1).unwrap(); // zero-copy
                                                           // Unalignable length -> chunked fallback.
                nx.csend(ctx, 3, large, 8190, 1).unwrap();
                let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                nx.crecv(ctx, 9, scratch, 16).unwrap();
                nx.flush(ctx).unwrap();
                *stats.lock() = Some(nx.stats());
            } else {
                let buf = nx.vmmc().proc_().alloc(8192, CacheMode::WriteBack);
                for t in [1, 2, 3] {
                    nx.crecv(ctx, t, buf, 8192).unwrap();
                }
                let scratch = nx.vmmc().proc_().alloc(16, CacheMode::WriteBack);
                nx.csend(ctx, 9, scratch, 4, 0).unwrap();
                assert_eq!(nx.stats().received, 3);
            }
        })
    });
    let st = stats.lock().unwrap();
    assert_eq!(st.small_sent, 1); // only the 100 B message takes the small path
    assert_eq!(st.large_sent, 2);
    assert_eq!(st.zero_copy_sent, 1);
    assert_eq!(st.chunked_sent, 1);
    assert_eq!(st.received, 1);
}

/// A rank is counted once at the loader's rendezvous however often it
/// retries, and a rank whose wait ran out leaves it: rank 1 arrives only
/// after rank 0's short budget has expired, and rank 0 retries before
/// rank 1 arrives or after. Counted twice, rank 0's retry alone would
/// open the gate and look up names rank 1 never published; left counted,
/// rank 1 would import the regions of rank 0's abandoned first try.
#[test]
fn a_retried_join_is_counted_once() {
    for retry_us in [200.0, 2_000.0] {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let world = NxWorld::new(Arc::clone(&system), NxConfig::paper_default(), vec![0, 1]);
        let got = Arc::new(Mutex::new(Vec::new()));
        for rank in 0..2 {
            let (world, got) = (Arc::clone(&world), Arc::clone(&got));
            kernel.spawn(format!("rank{rank}"), move |ctx| {
                if rank == 0 {
                    let short = RetryPolicy::no_retry(SimDur::from_us(100.0));
                    let err = world.try_join(ctx, 0, short).err();
                    assert!(matches!(err, Some(NxError::Timeout { .. })), "{err:?}");
                    ctx.sleep_until(SimTime::ZERO + SimDur::from_us(retry_us));
                } else {
                    ctx.advance(SimDur::from_us(1_000.0));
                }
                let mut nx = world.join(ctx, rank);
                let buf = alloc_filled(&nx, rank as u8 + 1, 64);
                nx.csend(ctx, 5, buf, 64, 1 - rank).unwrap();
                let n = nx.crecv(ctx, 5, buf, 64).unwrap();
                let bytes = nx.vmmc().proc_().peek(buf, n).unwrap();
                got.lock().push((rank, bytes));
            });
        }
        common::run_to_completion(&kernel, &system);
        let mut got = std::mem::take(&mut *got.lock());
        got.sort();
        assert_eq!(
            got,
            [(0, vec![2; 64]), (1, vec![1; 64])],
            "retried at {retry_us} us"
        );
    }
}
