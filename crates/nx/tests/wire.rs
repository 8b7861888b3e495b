//! What one NX message puts on the wire, counted at the NICs rather
//! than read off the protocol description: automatic-update and
//! deliberate-update packets and the bytes they carry, out of the
//! sender's node and out of the receiver's, and how long after the
//! `csend` call the `crecv` returns — for one warm message on each path
//! of §4.1. These are the numbers a protocol change moves on purpose
//! and a refactor may not move at all.

mod common;

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::CacheMode;
use shrimp_nx::{NxConfig, NxWorld, SendVariant};
use shrimp_sim::{Kernel, SimDur};

/// One warm message's traffic.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Wire {
    /// `[AU packets, DU packets, bytes]` out of the sender's NIC.
    tx: [u64; 3],
    /// The same out of the receiver's NIC: credits and scout replies.
    rx: [u64; 3],
    /// Picoseconds from the `csend` call to the `crecv` return.
    recv_ps: u64,
}

fn counts(sys: &ShrimpSystem, node: usize) -> [u64; 3] {
    let st = sys.nic(node).stats();
    [st.au_packets_out, st.du_packets_out, st.bytes_out]
}

/// Send `len` bytes from rank 0 (node 0) to rank 1 (node 1) twice, from
/// and into buffers `tx_offset` / `rx_offset` bytes past a page start,
/// and measure the second message: the first has touched every page and
/// left the user-buffer export and import in their caches. The receiver
/// is already waiting when the measured send starts, and both sides
/// have been silent long enough for every earlier packet to have left.
fn one_warm_message(config: NxConfig, len: usize, tx_offset: usize, rx_offset: usize) -> Wire {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let world = NxWorld::new(Arc::clone(&system), config, vec![0, 1]);
    let wire = Arc::new(Mutex::new(Wire::default()));
    // The sender's clock at the measured call, and both NICs' counters.
    let start = Arc::new(Mutex::new((0u64, [[0u64; 3]; 2])));
    let settle = SimDur::from_us(200.0);
    let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    {
        let (world, sys, start, data) = (
            Arc::clone(&world),
            Arc::clone(&system),
            Arc::clone(&start),
            data.clone(),
        );
        kernel.spawn("rank0", move |ctx| {
            let mut nx = world.join(ctx, 0);
            let p = nx.vmmc().proc_().clone();
            let buf = p.alloc_at_offset(len + 8, tx_offset, CacheMode::WriteBack);
            let ack = p.alloc(16, CacheMode::WriteBack);
            p.poke(buf, &data).unwrap();
            for measured in [false, true] {
                if measured {
                    ctx.advance(settle);
                    *start.lock() = (ctx.now().as_ps(), [counts(&sys, 0), counts(&sys, 1)]);
                }
                nx.csend(ctx, 1, buf, len, 1).unwrap();
                nx.flush(ctx).unwrap();
                nx.crecv(ctx, 2, ack, 16).unwrap();
            }
        });
    }
    {
        let (world, sys, wire) = (Arc::clone(&world), Arc::clone(&system), Arc::clone(&wire));
        kernel.spawn("rank1", move |ctx| {
            let mut nx = world.join(ctx, 1);
            let p = nx.vmmc().proc_().clone();
            let buf = p.alloc_at_offset(len + 8, rx_offset, CacheMode::WriteBack);
            let ack = p.alloc(16, CacheMode::WriteBack);
            for measured in [false, true] {
                assert_eq!(nx.crecv(ctx, 1, buf, len + 4).unwrap(), len);
                let returned = ctx.now().as_ps();
                assert_eq!(p.peek(buf, len).unwrap(), data);
                p.poke(buf, &vec![0; len]).unwrap();
                if measured {
                    // Let the last combined store leave the NIC.
                    ctx.advance(settle);
                    let (t0, before) = *start.lock();
                    let sub = |now: [u64; 3], then: [u64; 3]| [0, 1, 2].map(|i| now[i] - then[i]);
                    *wire.lock() = Wire {
                        tx: sub(counts(&sys, 0), before[0]),
                        rx: sub(counts(&sys, 1), before[1]),
                        recv_ps: returned - t0,
                    };
                }
                nx.csend(ctx, 2, ack, 4, 0).unwrap();
            }
        });
    }
    common::run_to_completion(&kernel, &system);
    let w = *wire.lock();
    w
}

/// A 256-byte message through the one-copy path with `variant`.
fn small(variant: SendVariant, tx_offset: usize) -> Wire {
    let mut config = NxConfig::paper_default();
    config.send_variant = variant;
    one_warm_message(config, 256, tx_offset, 0)
}

/// What every receive of one packet buffer sends back: one credit word,
/// alone in its automatic-update packet.
const ONE_CREDIT: [u64; 3] = [1, 0, 4];

#[test]
fn small_by_automatic_update_is_one_run_cut_at_the_combine_limit_then_the_kind_word() {
    // Descriptor body and payload are one ascending 28 + 256 byte run,
    // which the hardware cuts at 256; the 4-byte kind word follows as
    // its own store and commits the message.
    let w = small(SendVariant::AutomaticUpdate, 0);
    assert_eq!(w.tx, [3, 0, 32 + 256], "{w:?}");
    assert_eq!(w.rx, ONE_CREDIT, "{w:?}");
    assert_eq!(w.recv_ps, 38_309_526, "{w:?}");
}

#[test]
fn small_by_marshaled_deliberate_update_is_one_packet() {
    let w = small(SendVariant::DuMarshal, 0);
    assert_eq!(w.tx, [0, 1, 32 + 256], "{w:?}");
    assert_eq!(w.rx, ONE_CREDIT, "{w:?}");
    assert_eq!(w.recv_ps, 46_675_001, "{w:?}");
}

#[test]
fn small_by_deliberate_update_from_user_memory_is_payload_then_descriptor() {
    let w = small(SendVariant::DuFromUser, 0);
    assert_eq!(w.tx, [0, 2, 256 + 32], "{w:?}");
    assert_eq!(w.rx, ONE_CREDIT, "{w:?}");
    assert_eq!(w.recv_ps, 37_626_193, "{w:?}");
}

#[test]
fn an_unaligned_user_buffer_takes_the_marshaled_path() {
    // §4 "Reducing Copying": the deliberate-update engine moves whole
    // words, so a buffer two bytes past a word boundary is copied.
    assert_eq!(
        small(SendVariant::DuFromUser, 2),
        small(SendVariant::DuMarshal, 0)
    );
}

/// What a credit stall costs (paper §6 "Interrupts"): with one packet
/// buffer and a receiver a millisecond behind, the second of two sends
/// finds the buffer full, polls the credit ring, then stores the urgent
/// word through its interrupting binding and waits. The receiver's next
/// library call takes the notification, charging a signal delivery.
#[test]
fn a_credit_stall_interrupts_the_receiver_once() {
    const LEN: usize = 256;
    let mut config = NxConfig::paper_default();
    config.packet_buffers = 1;
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let world = NxWorld::new(Arc::clone(&system), config, vec![0, 1]);
    let (settle, late) = (SimDur::from_us(200.0), SimDur::from_us(1000.0));
    // The sender's NIC counters when its first send starts, its stalls,
    // and the receiver's: both returns, from its first `crecv` call.
    let before = Arc::new(Mutex::new([0u64; 3]));
    let stalls = Arc::new(Mutex::new(0u64));
    let returns = Arc::new(Mutex::new([0u64; 2]));
    {
        let (world, sys, before, stalls) = (
            Arc::clone(&world),
            Arc::clone(&system),
            Arc::clone(&before),
            Arc::clone(&stalls),
        );
        kernel.spawn("rank0", move |ctx| {
            let mut nx = world.join(ctx, 0);
            let buf = nx.vmmc().proc_().alloc(LEN, CacheMode::WriteBack);
            ctx.advance(settle);
            *before.lock() = counts(&sys, 0);
            for _ in 0..2 {
                nx.csend(ctx, 1, buf, LEN, 1).unwrap();
            }
            nx.flush(ctx).unwrap();
            *stalls.lock() = nx.stats().credit_stalls;
        });
    }
    {
        let (world, returns) = (Arc::clone(&world), Arc::clone(&returns));
        kernel.spawn("rank1", move |ctx| {
            let mut nx = world.join(ctx, 1);
            let buf = nx.vmmc().proc_().alloc(LEN, CacheMode::WriteBack);
            ctx.advance(settle + late);
            let t0 = ctx.now().as_ps();
            let mut at = [0u64; 2];
            for slot in &mut at {
                assert_eq!(nx.crecv(ctx, 1, buf, LEN).unwrap(), LEN);
                *slot = ctx.now().as_ps() - t0;
            }
            *returns.lock() = at;
        });
    }
    common::run_to_completion(&kernel, &system);
    let tx = [0, 1, 2].map(|i| counts(&system, 0)[i] - before.lock()[i]);
    let (stalls, returns) = (*stalls.lock(), *returns.lock());
    assert_eq!(stalls, 1);
    // Two messages, three packets each as in the small automatic-update
    // test, and the urgent word alone in one more 4-byte packet.
    assert_eq!(tx, [2 * 3 + 1, 0, 2 * (32 + 256) + 4], "{tx:?}");
    // The first return includes the 25 us signal delivery; the second
    // waits for the stalled send, which leaves once the credit lands.
    assert_eq!(returns, [35_184_286, 76_030_718], "{returns:?}");
}

#[test]
fn large_zero_copy_is_scout_reply_data_and_done_word() {
    let w = one_warm_message(NxConfig::paper_default(), 8192, 0, 0);
    // Out: the scout (a bare descriptor: 28-byte body, then the kind
    // word) by automatic update; the data as four 2 KiB
    // deliberate-update packets; the done flag, today a 4-byte
    // deliberate-update send of its own.
    assert_eq!(w.tx, [2, 4 + 1, 32 + 8192 + 4], "{w:?}");
    // Back: the credit for the scout's buffer and the 16-byte reply.
    assert_eq!(w.rx, [2, 0, 4 + 16], "{w:?}");
    assert_eq!(w.recv_ps, 384_638_812, "{w:?}");
}

#[test]
fn large_into_an_unaligned_receive_buffer_streams_chunks_through_the_packet_buffers() {
    let w = one_warm_message(NxConfig::paper_default(), 8192, 0, 2);
    // Out: the scout, then four full chunks (28 + 2016 bytes: eight
    // combined packets and the kind word) and a 128-byte tail (one and
    // the kind word), all by automatic update.
    assert_eq!(w.tx, [2 + 4 * 9 + 2, 0, 32 + 8192 + 5 * 32], "{w:?}");
    // Back: the reply, and a credit for the scout and for each chunk.
    assert_eq!(w.rx, [1 + 6, 0, 16 + 6 * 4], "{w:?}");
    assert_eq!(w.recv_ps, 501_923_609, "{w:?}");
}
