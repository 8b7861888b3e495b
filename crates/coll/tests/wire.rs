//! What the channel protocol puts on the wire, counted at the NICs and
//! the backplane rather than read off the algorithms: packets and
//! payload bytes for one eager chunk, one bulk chunk (a deliberate-update
//! tail and an automatic-update head) and one empty chunk between two
//! ranks, and packets per 64-rank dissemination barrier.
//! Only a payload is acked: an empty chunk (a barrier edge) is its flag
//! alone.
//!
//! A refactor of `crates/coll` leaves this file passing untouched; a
//! protocol change (ROADMAP item 4) re-pins these numbers on purpose.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_coll::{CollComm, CollConfig, CollWorld, CHUNK_BYTES, EAGER_BYTES};
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::CacheMode;
use shrimp_sim::{Ctx, Kernel, SimDur, SimTime};

/// What one NIC injected: `(AU packets, DU packets, payload bytes)`.
type NicOut = (u64, u64, u64);

/// Traffic of one collective call, every rank idle before and after.
#[derive(Debug, Clone, PartialEq)]
struct Wire {
    /// Per node, what its NIC sent.
    nics: Vec<NicOut>,
    /// Packets the backplane carried.
    packets: u64,
    /// Payload bytes it delivered.
    payload: u64,
}

fn snapshot(system: &ShrimpSystem) -> Wire {
    let net = system.net().stats();
    assert_eq!(net.injected, net.delivered, "a packet is still in flight");
    Wire {
        nics: (0..system.len())
            .map(|i| {
                let s = system.nic(i).stats();
                (s.au_packets_out, s.du_packets_out, s.bytes_out)
            })
            .collect(),
        packets: net.injected,
        payload: net.payload_bytes,
    }
}

/// Join one rank per node of a `w x h` mesh, let set-up traffic drain,
/// run `op` on every rank from a common instant, let that drain too, and
/// return the difference.
fn wire_of(
    (w, h): (usize, usize),
    op: impl Fn(&Ctx, &mut CollComm) + Send + Sync + 'static,
) -> Wire {
    let at = |ms: f64| SimTime::ZERO + SimDur::from_us(ms * 1000.0);
    let (quiet, start, done) = (at(900.0), at(901.0), at(990.0));
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(w, h));
    let world = CollWorld::new(
        Arc::clone(&system),
        CollConfig::default(),
        (0..w * h).collect(),
    );
    let op = Arc::new(op);
    let marks: Arc<Mutex<Vec<Wire>>> = Arc::new(Mutex::new(Vec::new()));
    for rank in 0..w * h {
        let (world, op, marks) = (Arc::clone(&world), Arc::clone(&op), Arc::clone(&marks));
        let system = Arc::clone(&system);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut comm = world.join(ctx, rank);
            // Touch every channel the measured call will use once, so a
            // first-use cost cannot hide in the numbers.
            op(ctx, &mut comm);
            assert!(ctx.now() < quiet, "set-up ran past the quiet instant");
            ctx.sleep_until(quiet);
            if rank == 0 {
                marks.lock().push(snapshot(&system));
            }
            ctx.sleep_until(start);
            op(ctx, &mut comm);
            assert!(ctx.now() < done, "the call ran past the second snapshot");
            ctx.sleep_until(done);
            if rank == 0 {
                marks.lock().push(snapshot(&system));
            }
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
    let marks = marks.lock();
    let (a, b) = (&marks[0], &marks[1]);
    Wire {
        nics: (a.nics.iter().zip(&b.nics))
            .map(|(x, y)| (y.0 - x.0, y.1 - x.1, y.2 - x.2))
            .collect(),
        packets: b.packets - a.packets,
        payload: b.payload - a.payload,
    }
}

/// One chunk of `len` bytes from rank 0 to rank 1 of a two-rank
/// communicator: a broadcast rooted at 0 is exactly that.
fn one_chunk(len: usize) -> Wire {
    assert!(len <= CHUNK_BYTES);
    wire_of((2, 1), move |ctx, comm| {
        let p = comm.vmmc().proc_().clone();
        let buf = p.alloc(len.max(4), CacheMode::WriteBack);
        if comm.rank() == 0 {
            p.poke(buf, &vec![0xA5; len]).unwrap();
        }
        comm.broadcast(ctx, 0, buf, len).unwrap();
        assert_eq!(p.peek(buf, len).unwrap(), vec![0xA5; len]);
    })
}

#[test]
fn an_empty_chunk_is_a_flag_out_and_nothing_back() {
    // No payload to overwrite, so no credit to return.
    let w = one_chunk(0);
    assert_eq!(w.nics, [(1, 0, 4), (0, 0, 0)], "{w:?}");
    assert_eq!((w.packets, w.payload), (1, 4), "{w:?}");
}

#[test]
fn an_eager_chunk_is_payload_then_flag_out_and_an_ack_back() {
    // One word: one payload packet, one flag packet.
    let w = one_chunk(4);
    assert_eq!(w.nics, [(2, 0, 8), (1, 0, 4)], "{w:?}");
    assert_eq!((w.packets, w.payload), (3, 12), "{w:?}");
    // 64 bytes and the largest eager payload: the copy's stores leave as
    // the payload's packets, the flag as one more, nothing by DU.
    let w = one_chunk(64);
    assert_eq!(w.nics, [(2, 0, 68), (1, 0, 4)], "{w:?}");
    assert_eq!((w.packets, w.payload), (3, 72), "{w:?}");
    let w = one_chunk(EAGER_BYTES);
    assert_eq!(w.nics, [(2, 0, 260), (1, 0, 4)], "{w:?}");
    assert_eq!((w.packets, w.payload), (3, 264), "{w:?}");
}

#[test]
fn a_bulk_chunk_is_deliberate_update_pieces_then_flag_and_an_ack_back() {
    // Just past the eager limit: 5/8 of it is short of one eager slot,
    // so no head — one DU packet, word-padded.
    let w = one_chunk(EAGER_BYTES + 1);
    assert_eq!(w.nics, [(1, 1, 264), (1, 0, 4)], "{w:?}");
    assert_eq!((w.packets, w.payload), (3, 268), "{w:?}");
    // A whole default chunk: a 768 B DU tail, then a 1 280 B head as
    // five automatic-update packets of one eager slot each, then the
    // flag.
    let w = one_chunk(2048);
    assert_eq!(w.nics, [(5 + 1, 1, 2052), (1, 0, 4)], "{w:?}");
    assert_eq!((w.packets, w.payload), (8, 2056), "{w:?}");
}

#[test]
fn a_64_rank_barrier_is_six_flags_per_rank() {
    let w = wire_of((8, 8), |ctx, comm| comm.barrier(ctx).unwrap());
    // Dissemination: log2 64 = 6 rounds, each rank one flag out per
    // round, every one its own 4-byte AU packet.
    assert!(w.nics.iter().all(|&n| n == (6, 0, 24)), "{w:?}");
    assert_eq!((w.packets, w.payload), (384, 1536), "{w:?}");
}
