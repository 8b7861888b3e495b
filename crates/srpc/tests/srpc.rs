//! End-to-end tests of the specialized SHRIMP RPC on the prototype.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::{Kernel, SimDur};
use shrimp_srpc::{parse_interface, SrpcClient, SrpcDirectory, SrpcError, SrpcServer, Val};

const CALC_IDL: &str = r"
    interface Calc {
        add(in a: i32, in b: i32, out sum: i32);
        scale(in factor: f64, inout v: array<f64, 8>);
        fill(in pattern: u32, out block: opaque[64]);
        ping(inout data: opaque[4]);
        maybe(in n: u32, out v: u32, inout keep: opaque[8]);
    }
";

fn run_pair(
    client_body: impl FnOnce(&shrimp_sim::Ctx, &mut SrpcClient) + Send + 'static,
) -> Arc<ShrimpSystem> {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let dir = SrpcDirectory::new();
    let iface = parse_interface(CALC_IDL).unwrap();

    {
        let vmmc = system.endpoint(1, "srpc-server");
        let dir = Arc::clone(&dir);
        let iface = iface.clone();
        kernel.spawn("srpc-server", move |ctx| {
            let mut server = SrpcServer::new(vmmc, &iface);
            server.register(
                "add",
                Box::new(|ctx, ins, out| {
                    let (Val::I32(a), Val::I32(b)) = (&ins[0], &ins[1]) else {
                        panic!("types")
                    };
                    out.set(ctx, "sum", &Val::I32(a + b)).unwrap();
                }),
            );
            server.register(
                "scale",
                Box::new(|ctx, ins, out| {
                    let (Val::F64(f), Val::F64Array(v)) = (&ins[0], &ins[1]) else {
                        panic!("types")
                    };
                    let scaled: Vec<f64> = v.iter().map(|x| x * f).collect();
                    out.set(ctx, "v", &Val::F64Array(scaled)).unwrap();
                }),
            );
            server.register(
                "fill",
                Box::new(|ctx, ins, out| {
                    let Val::U32(p) = &ins[0] else {
                        panic!("types")
                    };
                    // Model a long-running procedure: the OUT write
                    // propagates while the server keeps computing.
                    out.set(ctx, "block", &Val::Bytes(vec![*p as u8; 64]))
                        .unwrap();
                    ctx.advance(SimDur::from_us(50.0));
                }),
            );
            server.register(
                "ping",
                Box::new(|ctx, ins, out| {
                    out.set(ctx, "data", &ins[0].clone()).unwrap();
                }),
            );
            server.register(
                "maybe",
                Box::new(|ctx, ins, out| {
                    // Sets its OUT on odd calls only, its INOUT never.
                    let Val::U32(n) = &ins[0] else {
                        panic!("types")
                    };
                    if n % 2 == 1 {
                        out.set(ctx, "v", &Val::U32(1000 + n)).unwrap();
                    }
                }),
            );
            let mut conn = server.accept(ctx, &dir, "calc").unwrap();
            server.serve(ctx, &mut conn).unwrap();
        });
    }
    {
        let vmmc = system.endpoint(0, "srpc-client");
        let dir = Arc::clone(&dir);
        kernel.spawn("srpc-client", move |ctx| {
            let mut client = SrpcClient::bind(vmmc, ctx, &dir, "calc", &iface).unwrap();
            client_body(ctx, &mut client);
            client.close(ctx).unwrap();
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
    system
}

#[test]
fn scalar_in_out_call() {
    run_pair(|ctx, client| {
        let outs = client
            .call(ctx, "add", &[Val::I32(40), Val::I32(2)])
            .unwrap();
        assert_eq!(outs, vec![Val::I32(42)]);
    });
}

#[test]
fn inout_array_by_reference() {
    run_pair(|ctx, client| {
        let v: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let outs = client
            .call(ctx, "scale", &[Val::F64(2.5), Val::F64Array(v)])
            .unwrap();
        let Val::F64Array(scaled) = &outs[0] else {
            panic!("type")
        };
        assert_eq!(scaled, &(0..8).map(|i| i as f64 * 2.5).collect::<Vec<_>>());
    });
}

#[test]
fn out_block_and_repeat_calls() {
    run_pair(|ctx, client| {
        for p in [1u32, 2, 3] {
            let outs = client.call(ctx, "fill", &[Val::U32(p)]).unwrap();
            assert_eq!(outs, vec![Val::Bytes(vec![p as u8; 64])]);
        }
        // Mixed procedure sequence on the same binding.
        let outs = client
            .call(ctx, "add", &[Val::I32(-1), Val::I32(1)])
            .unwrap();
        assert_eq!(outs, vec![Val::I32(0)]);
    });
}

#[test]
fn a_skipped_out_reads_zero_and_an_untouched_inout_comes_back_as_sent() {
    run_pair(|ctx, client| {
        for n in 1u32..=6 {
            let keep = Val::Bytes(vec![n as u8; 8]);
            let outs = client
                .call(ctx, "maybe", &[Val::U32(n), keep.clone()])
                .unwrap();
            // The client zero-fills nothing: without the server's
            // return-time defaults the even calls would read the odd
            // call's value, and `keep` whatever the reply area held.
            let v = if n % 2 == 1 { 1000 + n } else { 0 };
            assert_eq!(outs, vec![Val::U32(v), keep], "call {n}");
        }
    });
}

#[test]
fn argument_validation() {
    run_pair(|ctx, client| {
        assert!(matches!(
            client.call(ctx, "nosuch", &[]),
            Err(SrpcError::UnknownProc(_))
        ));
        assert!(matches!(
            client.call(ctx, "add", &[Val::I32(1)]),
            Err(SrpcError::ArgCount {
                expected: 2,
                got: 1
            })
        ));
        assert!(matches!(
            client.call(ctx, "add", &[Val::I32(1), Val::F64(2.0)]),
            Err(SrpcError::TypeMismatch { .. })
        ));
        // The binding still works after rejected calls.
        let outs = client
            .call(ctx, "add", &[Val::I32(2), Val::I32(3)])
            .unwrap();
        assert_eq!(outs, vec![Val::I32(5)]);
    });
}

#[test]
fn null_rpc_round_trip_near_9_5us() {
    // The paper's Figure 8 anchor: 9.5 us round trip for a null call
    // with a small INOUT argument.
    let rtt = Arc::new(Mutex::new(0.0f64));
    let r = Arc::clone(&rtt);
    run_pair(move |ctx, client| {
        // Warm up.
        for _ in 0..2 {
            client
                .call(ctx, "ping", &[Val::Bytes(vec![1, 2, 3, 4])])
                .unwrap();
        }
        let t0 = ctx.now();
        const N: u32 = 8;
        for _ in 0..N {
            client
                .call(ctx, "ping", &[Val::Bytes(vec![1, 2, 3, 4])])
                .unwrap();
        }
        *r.lock() = (ctx.now() - t0).as_us() / N as f64;
    });
    let rtt = *rtt.lock();
    assert!(
        (rtt - 9.5).abs() < 0.5,
        "specialized null RPC round trip {rtt:.2} us vs paper 9.5"
    );
}

#[test]
fn many_sequential_calls_keep_flag_discipline() {
    run_pair(|ctx, client| {
        for i in 0..300i32 {
            let outs = client
                .call(ctx, "add", &[Val::I32(i), Val::I32(i)])
                .unwrap();
            assert_eq!(outs, vec![Val::I32(2 * i)]);
        }
    });
}
