//! End-to-end stream socket tests on the prototype.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_mesh::NodeId;
use shrimp_sim::{Ctx, Kernel, SimDur};
use shrimp_sockets::{connect, listen, ShrimpSocket, SocketError, SocketVariant};

/// Run a connected server / client pair to quiescence; both bodies must
/// return (a side parked forever fails the test).
fn run_pair(
    variant: SocketVariant,
    server_body: impl FnOnce(&Ctx, &mut ShrimpSocket) + Send + 'static,
    client_body: impl FnOnce(&Ctx, &mut ShrimpSocket) + Send + 'static,
) -> Arc<ShrimpSystem> {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let done = Arc::new(AtomicUsize::new(0));
    {
        let vmmc = system.endpoint(1, "server");
        let eth = Arc::clone(system.ethernet());
        let done = Arc::clone(&done);
        kernel.spawn("server", move |ctx| {
            let listener = listen(vmmc, eth, 7000);
            let mut sock = listener.accept(ctx).unwrap();
            server_body(ctx, &mut sock);
            done.fetch_add(1, Ordering::Relaxed);
        });
    }
    {
        let vmmc = system.endpoint(0, "client");
        let eth = Arc::clone(system.ethernet());
        let done = Arc::clone(&done);
        kernel.spawn("client", move |ctx| {
            let mut sock = connect(vmmc, ctx, &eth, NodeId(1), 7000, variant).unwrap();
            client_body(ctx, &mut sock);
            done.fetch_add(1, Ordering::Relaxed);
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
    assert_eq!(done.load(Ordering::Relaxed), 2, "a side never finished");
    system
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 247) as u8).collect()
}

#[test]
fn echo_round_trip_all_variants() {
    for variant in [
        SocketVariant::Au2Copy,
        SocketVariant::Du1Copy,
        SocketVariant::Du2Copy,
    ] {
        run_pair(
            variant,
            |ctx, sock| {
                let msg = sock.recv_exact(ctx, 1000).unwrap();
                sock.send(ctx, &msg).unwrap();
            },
            |ctx, sock| {
                let msg = pattern(1000);
                sock.send(ctx, &msg).unwrap();
                assert_eq!(sock.recv_exact(ctx, 1000).unwrap(), msg);
                sock.close(ctx).unwrap();
            },
        );
    }
}

#[test]
fn byte_stream_has_no_message_boundaries() {
    run_pair(
        SocketVariant::Au2Copy,
        |ctx, sock| {
            // Three small writes arrive as one coalesced stream.
            sock.send(ctx, b"hello ").unwrap();
            sock.send(ctx, b"shrimp ").unwrap();
            sock.send(ctx, b"sockets").unwrap();
            sock.close(ctx).unwrap();
        },
        |ctx, sock| {
            // Give all three writes time to land, then read them in one go.
            ctx.advance(SimDur::from_us(5_000.0));
            let all = sock.recv(ctx, 64).unwrap();
            assert_eq!(all, b"hello shrimp sockets");
            // Next recv: clean EOF.
            assert_eq!(sock.recv(ctx, 64).unwrap(), Vec::<u8>::new());
        },
    );
}

#[test]
fn large_transfer_wraps_ring_many_times() {
    let total = 300_000usize; // ~9 ring wraps
    for variant in [SocketVariant::Du1Copy, SocketVariant::Au2Copy] {
        let received: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&received);
        run_pair(
            variant,
            move |ctx, sock| loop {
                let chunk = sock.recv(ctx, 8192).unwrap();
                if chunk.is_empty() {
                    break;
                }
                r.lock().extend(chunk);
            },
            move |ctx, sock| {
                let data = pattern(total);
                // Odd-sized writes exercise alignment raggedness.
                for chunk in data.chunks(7321) {
                    sock.send(ctx, chunk).unwrap();
                }
                sock.close(ctx).unwrap();
            },
        );
        assert_eq!(*received.lock(), pattern(total), "variant {variant:?}");
    }
}

#[test]
fn flow_control_blocks_fast_sender() {
    // The sender outruns a slow receiver by far more than the ring size;
    // everything must still arrive intact and in order.
    let received: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let r = Arc::clone(&received);
    run_pair(
        SocketVariant::Au2Copy,
        move |ctx, sock| {
            ctx.advance(SimDur::from_us(20_000.0)); // slow start
            loop {
                let chunk = sock.recv(ctx, 2048).unwrap();
                if chunk.is_empty() {
                    break;
                }
                r.lock().extend(chunk);
                ctx.advance(SimDur::from_us(200.0)); // slow consumer
            }
        },
        move |ctx, sock| {
            let data = pattern(150_000);
            sock.send(ctx, &data).unwrap();
            sock.close(ctx).unwrap();
        },
    );
    assert_eq!(*received.lock(), pattern(150_000));
}

#[test]
fn send_after_close_is_an_error() {
    run_pair(
        SocketVariant::Au2Copy,
        |ctx, sock| {
            assert_eq!(sock.recv(ctx, 16).unwrap(), b"x");
            assert!(sock.recv(ctx, 16).unwrap().is_empty());
        },
        |ctx, sock| {
            sock.send(ctx, b"x").unwrap();
            sock.close(ctx).unwrap();
            assert_eq!(sock.send(ctx, b"y").unwrap_err(), SocketError::Closed);
            // Closing again is idempotent.
            sock.close(ctx).unwrap();
        },
    );
}

#[test]
fn recv_exact_reports_truncated_stream() {
    run_pair(
        SocketVariant::Du2Copy,
        |ctx, sock| {
            sock.send(ctx, b"only five").unwrap();
            sock.close(ctx).unwrap();
        },
        |ctx, sock| {
            let err = sock.recv_exact(ctx, 100).unwrap_err();
            assert_eq!(err, SocketError::Closed);
        },
    );
}

#[test]
fn bidirectional_concurrent_traffic() {
    // Full-duplex: both sides stream simultaneously.
    run_pair(
        SocketVariant::Du1Copy,
        |ctx, sock| {
            let data = pattern(50_000);
            sock.send(ctx, &data).unwrap();
            sock.close(ctx).unwrap();
            let mut got = Vec::new();
            loop {
                let c = sock.recv(ctx, 4096).unwrap();
                if c.is_empty() {
                    break;
                }
                got.extend(c);
            }
            assert_eq!(got, pattern(30_000));
        },
        |ctx, sock| {
            let data = pattern(30_000);
            sock.send(ctx, &data).unwrap();
            sock.close(ctx).unwrap();
            let mut got = Vec::new();
            loop {
                let c = sock.recv(ctx, 4096).unwrap();
                if c.is_empty() {
                    break;
                }
                got.extend(c);
            }
            assert_eq!(got, pattern(50_000));
        },
    );
}

#[test]
fn two_connections_on_one_listener() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    {
        let vmmc = system.endpoint(1, "server");
        let eth = Arc::clone(system.ethernet());
        kernel.spawn("server", move |ctx| {
            let listener = listen(vmmc, eth, 9000);
            for _ in 0..2 {
                let mut sock = listener.accept(ctx).unwrap();
                let msg = sock.recv_exact(ctx, 4).unwrap();
                sock.send(ctx, &msg).unwrap();
                sock.close(ctx).unwrap();
            }
        });
    }
    for (i, node) in [(1u8, 0usize), (2u8, 2usize)] {
        let vmmc = system.endpoint(node, format!("client{i}"));
        let eth = Arc::clone(system.ethernet());
        kernel.spawn(format!("client{i}"), move |ctx| {
            ctx.advance(SimDur::from_us(i as f64 * 10_000.0));
            let mut sock =
                connect(vmmc, ctx, &eth, NodeId(1), 9000, SocketVariant::Au2Copy).unwrap();
            sock.send(ctx, &[i; 4]).unwrap();
            assert_eq!(sock.recv_exact(ctx, 4).unwrap(), vec![i; 4]);
            sock.close(ctx).unwrap();
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
}

#[test]
fn edge_sizes_zero_and_full_ring() {
    use shrimp_sockets::RING_BYTES;
    run_pair(
        SocketVariant::Du2Copy,
        |ctx, sock| {
            // Zero-length send is a no-op on the wire.
            assert_eq!(sock.send(ctx, &[]).unwrap(), 0);
            // Exactly one full ring of data in a single send call.
            let data = pattern(RING_BYTES);
            sock.send(ctx, &data).unwrap();
            sock.close(ctx).unwrap();
        },
        |ctx, sock| {
            let got = sock.recv_exact(ctx, RING_BYTES).unwrap();
            assert_eq!(got, pattern(RING_BYTES));
            assert!(sock.recv(ctx, 16).unwrap().is_empty());
        },
    );
}

#[test]
fn recv_caps_at_maxlen_and_preserves_remainder() {
    run_pair(
        SocketVariant::Au2Copy,
        |ctx, sock| {
            sock.send(ctx, &pattern(1000)).unwrap();
            sock.close(ctx).unwrap();
        },
        |ctx, sock| {
            ctx.advance(SimDur::from_us(3_000.0)); // let everything land
            let a = sock.recv(ctx, 100).unwrap();
            assert_eq!(a.len(), 100);
            let b = sock.recv_exact(ctx, 900).unwrap();
            let mut all = a;
            all.extend(b);
            assert_eq!(all, pattern(1000));
        },
    );
}
