//! End-to-end VRPC tests: a real client and server over the simulated
//! prototype.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig, VmmcError};
use shrimp_sim::Kernel;
use shrimp_sunrpc::{
    AcceptStat, RpcDirectory, RpcError, StreamVariant, VrpcClient, VrpcServer, XdrError,
};

const PROG: u32 = 0x2000_0099;
const VERS: u32 = 1;

/// Spawn a server with an `add`, an `echo`, and a `reverse` procedure,
/// serving exactly one connection.
fn spawn_calc_server(
    kernel: &Kernel,
    system: &Arc<ShrimpSystem>,
    dir: &Arc<RpcDirectory>,
    node: usize,
) {
    let vmmc = system.endpoint(node, "calc-server");
    let dir = Arc::clone(dir);
    kernel.spawn("calc-server", move |ctx| {
        let mut server = VrpcServer::new(vmmc, PROG, VERS);
        server.register(
            1, // add(i32, i32) -> i32
            Box::new(|_ctx, args, out| {
                let (Ok(a), Ok(b)) = (args.get_i32(), args.get_i32()) else {
                    return AcceptStat::GarbageArgs;
                };
                out.put_i32(a + b);
                AcceptStat::Success
            }),
        );
        server.register(
            2, // echo(opaque) -> opaque
            Box::new(|_ctx, args, out| {
                let Ok(data) = args.get_opaque() else {
                    return AcceptStat::GarbageArgs;
                };
                out.put_opaque(data);
                AcceptStat::Success
            }),
        );
        server.register(
            3, // reverse(string) -> string
            Box::new(|_ctx, args, out| {
                let Ok(s) = args.get_string() else {
                    return AcceptStat::GarbageArgs;
                };
                let rev: String = s.chars().rev().collect();
                out.put_string(&rev);
                AcceptStat::Success
            }),
        );
        let mut conn = server.accept(ctx, &dir).unwrap();
        server.serve(ctx, &mut conn).unwrap();
    });
}

fn run_client_server(
    variant: StreamVariant,
    body: impl FnOnce(&shrimp_sim::Ctx, &mut VrpcClient) + Send + 'static,
) {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let dir = RpcDirectory::new();
    spawn_calc_server(&kernel, &system, &dir, 1);
    let vmmc = system.endpoint(0, "client");
    let dir2 = Arc::clone(&dir);
    let closed = Arc::new(Mutex::new(false));
    let c = Arc::clone(&closed);
    kernel.spawn("client", move |ctx| {
        let mut client = VrpcClient::bind(vmmc, ctx, &dir2, PROG, VERS, variant).unwrap();
        body(ctx, &mut client);
        client.close(ctx).unwrap();
        *c.lock() = true;
    });
    kernel.run_until_quiescent().unwrap();
    // Quiescence alone passes a client parked forever.
    assert!(*closed.lock(), "the client never got to close");
    assert!(system.violations().is_empty());
}

#[test]
fn add_echo_reverse_over_au() {
    run_client_server(StreamVariant::AutomaticUpdate, |ctx, client| {
        let sum = client
            .call(
                ctx,
                1,
                |e| {
                    e.put_i32(40);
                    e.put_i32(2);
                },
                |d| d.get_i32(),
            )
            .unwrap();
        assert_eq!(sum, 42);

        let payload: Vec<u8> = (0..5000).map(|i| (i % 256) as u8).collect();
        let p2 = payload.clone();
        let echoed = client
            .call(
                ctx,
                2,
                move |e| e.put_opaque(&p2),
                |d| Ok(d.get_opaque()?.to_vec()),
            )
            .unwrap();
        assert_eq!(echoed, payload);

        let rev = client
            .call(
                ctx,
                3,
                |e| e.put_string("shrimp"),
                |d| Ok(d.get_string()?.to_string()),
            )
            .unwrap();
        assert_eq!(rev, "pmirhs");
    });
}

#[test]
fn add_over_du() {
    run_client_server(StreamVariant::DeliberateUpdate, |ctx, client| {
        for i in 0..20 {
            let sum = client
                .call(
                    ctx,
                    1,
                    move |e| {
                        e.put_i32(i);
                        e.put_i32(i * 2);
                    },
                    |d| d.get_i32(),
                )
                .unwrap();
            assert_eq!(sum, i * 3);
        }
    });
}

#[test]
fn null_procedure_and_dispatch_errors() {
    run_client_server(StreamVariant::AutomaticUpdate, |ctx, client| {
        // Null procedure: success, empty results.
        client.call(ctx, 0, |_| {}, |_| Ok(())).unwrap();
        // Unknown procedure.
        let err = client.call(ctx, 99, |_| {}, |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::Rejected(AcceptStat::ProcUnavail));
        // Garbage arguments (add with no args).
        let err = client.call(ctx, 1, |_| {}, |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::Rejected(AcceptStat::GarbageArgs));
        // The connection still works afterwards.
        let sum = client
            .call(
                ctx,
                1,
                |e| {
                    e.put_i32(1);
                    e.put_i32(2);
                },
                |d| d.get_i32(),
            )
            .unwrap();
        assert_eq!(sum, 3);
    });
}

/// A record the ring could never hold is refused before anything is
/// sent, so the binding stays usable.
#[test]
fn an_oversized_record_is_a_typed_error_and_the_binding_survives() {
    run_client_server(StreamVariant::AutomaticUpdate, |ctx, client| {
        let huge = vec![0xA5u8; 70_000];
        let err = client
            .call(ctx, 2, |e| e.put_opaque(&huge), |_| Ok(()))
            .unwrap_err();
        assert!(
            matches!(err, RpcError::Vmmc(VmmcError::OutOfRange { offset: 0, .. })),
            "{err:?}"
        );
        client.call(ctx, 0, |_| {}, |_| Ok(())).unwrap();
    });
}

#[test]
fn wrong_program_and_version_rejected() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let dir = RpcDirectory::new();
    // Server speaks PROG/VERS...
    spawn_calc_server(&kernel, &system, &dir, 1);
    let vmmc = system.endpoint(2, "client");
    let dir2 = Arc::clone(&dir);
    kernel.spawn("client", move |ctx| {
        // ...client binds the same program number but asks for version 9.
        let mut client =
            VrpcClient::bind(vmmc, ctx, &dir2, PROG, 9, StreamVariant::AutomaticUpdate).unwrap();
        let err = client
            .call(
                ctx,
                1,
                |e| {
                    e.put_i32(1);
                    e.put_i32(1);
                },
                |d| d.get_i32(),
            )
            .unwrap_err();
        assert_eq!(err, RpcError::Rejected(AcceptStat::ProgMismatch));
        client.close(ctx).unwrap();
    });
    kernel.run_until_quiescent().unwrap();
}

#[test]
fn result_decode_errors_surface() {
    run_client_server(StreamVariant::AutomaticUpdate, |ctx, client| {
        // add returns one i32; try to decode two.
        let err = client
            .call(
                ctx,
                1,
                |e| {
                    e.put_i32(1);
                    e.put_i32(2);
                },
                |d| {
                    d.get_i32()?;
                    d.get_i32() // not there
                },
            )
            .unwrap_err();
        assert!(matches!(err, RpcError::Xdr(XdrError::Short { .. })));
    });
}

#[test]
fn many_calls_pipeline_through_ring_wrap() {
    // 200 x 2 KB echoes: > 6 ring wraps in each direction.
    run_client_server(StreamVariant::AutomaticUpdate, |ctx, client| {
        let payload = vec![0xABu8; 2048];
        for _ in 0..200 {
            let p2 = payload.clone();
            let echoed = client
                .call(
                    ctx,
                    2,
                    move |e| e.put_opaque(&p2),
                    |d| Ok(d.get_opaque()?.to_vec()),
                )
                .unwrap();
            assert_eq!(echoed.len(), 2048);
        }
    });
}

#[test]
fn two_clients_served_sequentially() {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let dir = RpcDirectory::new();
    {
        let vmmc = system.endpoint(1, "server");
        let dir = Arc::clone(&dir);
        kernel.spawn("server", move |ctx| {
            let mut server = VrpcServer::new(vmmc, PROG, VERS);
            server.register(
                1,
                Box::new(|_ctx, args, out| {
                    let Ok(v) = args.get_i32() else {
                        return AcceptStat::GarbageArgs;
                    };
                    out.put_i32(v * 10);
                    AcceptStat::Success
                }),
            );
            for _ in 0..2 {
                let mut conn = server.accept(ctx, &dir).unwrap();
                server.serve(ctx, &mut conn).unwrap();
            }
        });
    }
    let order = Arc::new(Mutex::new(Vec::new()));
    for (i, node) in [(1u32, 0usize), (2u32, 2usize)] {
        let vmmc = system.endpoint(node, format!("client{i}"));
        let dir = Arc::clone(&dir);
        let order = Arc::clone(&order);
        kernel.spawn(format!("client{i}"), move |ctx| {
            // Stagger so connection order is deterministic.
            ctx.advance(shrimp_sim::SimDur::from_us(i as f64 * 5000.0));
            let mut client =
                VrpcClient::bind(vmmc, ctx, &dir, PROG, VERS, StreamVariant::AutomaticUpdate)
                    .unwrap();
            let v = client
                .call(ctx, 1, move |e| e.put_i32(i as i32), |d| d.get_i32())
                .unwrap();
            assert_eq!(v, i as i32 * 10);
            client.close(ctx).unwrap();
            order.lock().push(i);
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert_eq!(order.lock().len(), 2);
}

#[test]
fn in_place_decode_is_faster_and_correct() {
    // The §4.2 "further optimization": eliminating the receiver-side
    // copy speeds up large-argument calls without changing results.
    fn run(in_place: bool) -> (f64, Vec<u8>) {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        let dir = RpcDirectory::new();
        {
            let vmmc = system.endpoint(1, "server");
            let dir = Arc::clone(&dir);
            kernel.spawn("server", move |ctx| {
                let mut server = VrpcServer::new(vmmc, PROG, VERS);
                server.set_in_place_args(in_place);
                server.register(
                    2,
                    Box::new(|_ctx, args, out| {
                        let Ok(data) = args.get_opaque() else {
                            return AcceptStat::GarbageArgs;
                        };
                        out.put_opaque(data);
                        AcceptStat::Success
                    }),
                );
                let mut conn = server.accept(ctx, &dir).unwrap();
                server.serve(ctx, &mut conn).unwrap();
            });
        }
        let out: Arc<parking_lot::Mutex<(f64, Vec<u8>)>> =
            Arc::new(parking_lot::Mutex::new((0.0, Vec::new())));
        {
            let vmmc = system.endpoint(0, "client");
            let dir = Arc::clone(&dir);
            let out = Arc::clone(&out);
            kernel.spawn("client", move |ctx| {
                let mut client =
                    VrpcClient::bind(vmmc, ctx, &dir, PROG, VERS, StreamVariant::AutomaticUpdate)
                        .unwrap();
                client.set_in_place_results(in_place);
                let payload = vec![0x6Bu8; 8000];
                // Warmup.
                let p2 = payload.clone();
                client
                    .call(
                        ctx,
                        2,
                        move |e| e.put_opaque(&p2),
                        |d| Ok(d.get_opaque()?.to_vec()),
                    )
                    .unwrap();
                let t0 = ctx.now();
                let p2 = payload.clone();
                let echoed = client
                    .call(
                        ctx,
                        2,
                        move |e| e.put_opaque(&p2),
                        |d| Ok(d.get_opaque()?.to_vec()),
                    )
                    .unwrap();
                *out.lock() = ((ctx.now() - t0).as_us(), echoed);
                client.close(ctx).unwrap();
            });
        }
        kernel.run_until_quiescent().unwrap();
        let v = out.lock().clone();
        v
    }
    let (copy_rtt, copy_data) = run(false);
    let (zc_rtt, zc_data) = run(true);
    assert_eq!(copy_data, zc_data);
    assert_eq!(zc_data, vec![0x6Bu8; 8000]);
    assert!(
        zc_rtt < copy_rtt - 100.0,
        "in-place {zc_rtt:.0} us should save the two 8 KB copies of {copy_rtt:.0} us"
    );
}
