//! The specialized SHRIMP RPC end to end: define a service in the IDL,
//! inspect the generated stub source and marshaling plan, serve it, and
//! compare a null call against the SunRPC-compatible path on the same
//! machine.
//!
//! Run with: `cargo run --example idl_calculator`

use std::sync::Arc;

use shrimp::prelude::*;
use shrimp::srpc::{emit_client_stub, parse_interface, SrpcClient, SrpcDirectory, SrpcServer, Val};
use shrimp::sunrpc::{AcceptStat, RpcDirectory, StreamVariant, VrpcClient, VrpcServer};

const IDL: &str = r"
    // Vector math service for the SHRIMP prototype.
    interface VecMath {
        ping(inout token: u32);
        dot(in a: array<f64, 32>, in b: array<f64, 32>, out result: f64);
        saxpy(in alpha: f64, in x: array<f64, 32>, inout y: array<f64, 32>);
    }
";

/// When the run ends, in virtual picoseconds.
const FINISH_PS: u64 = 6_420_000_000;

pub(crate) fn main() {
    let iface = parse_interface(IDL).expect("IDL parses");
    println!("--- generated client stub (excerpt) ---");
    for line in emit_client_stub(&iface).lines().take(8) {
        println!("{line}");
    }
    println!("---\n");

    let kernel = Kernel::new();
    let system = shrimp::vmmc::ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let sdir = SrpcDirectory::new();
    let rdir = RpcDirectory::new();

    // --- Specialized RPC server on node 2 -----------------------------
    {
        let vmmc = system.endpoint(2, "vecmath");
        let sdir = Arc::clone(&sdir);
        let iface = iface.clone();
        kernel.spawn("vecmath", move |ctx| {
            let mut server = SrpcServer::new(vmmc, &iface);
            server.register(
                "ping",
                Box::new(|ctx, ins, out| {
                    let Val::U32(t) = ins[0] else { panic!("type") };
                    out.set(ctx, "token", &Val::U32(t.wrapping_add(1))).unwrap();
                }),
            );
            server.register(
                "dot",
                Box::new(|ctx, ins, out| {
                    let (Val::F64Array(a), Val::F64Array(b)) = (&ins[0], &ins[1]) else {
                        panic!("type")
                    };
                    let r: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
                    out.set(ctx, "result", &Val::F64(r)).unwrap();
                }),
            );
            server.register(
                "saxpy",
                Box::new(|ctx, ins, out| {
                    let (Val::F64(alpha), Val::F64Array(x), Val::F64Array(y)) =
                        (&ins[0], &ins[1], &ins[2])
                    else {
                        panic!("type")
                    };
                    let new_y: Vec<f64> = x.iter().zip(y).map(|(xi, yi)| alpha * xi + yi).collect();
                    // The INOUT write propagates back by automatic update
                    // while the server finishes up.
                    out.set(ctx, "y", &Val::F64Array(new_y)).unwrap();
                }),
            );
            let mut conn = server.accept(ctx, &sdir, "vecmath").unwrap();
            server.serve(ctx, &mut conn).unwrap();
        });
    }

    // --- A null VRPC server for comparison, node 3 ---------------------
    {
        let vmmc = system.endpoint(3, "null-vrpc");
        let rdir = Arc::clone(&rdir);
        kernel.spawn("null-vrpc", move |ctx| {
            let mut server = VrpcServer::new(vmmc, 0x2000_0001, 1);
            server.register(
                1,
                Box::new(|_ctx, args, out| {
                    let Ok(v) = args.get_u32() else {
                        return AcceptStat::GarbageArgs;
                    };
                    out.put_u32(v.wrapping_add(1));
                    AcceptStat::Success
                }),
            );
            let mut conn = server.accept(ctx, &rdir).unwrap();
            server.serve(ctx, &mut conn).unwrap();
        });
    }

    // --- Client on node 0 ----------------------------------------------
    {
        let vmmc = system.endpoint(0, "client");
        let vmmc2 = system.endpoint(0, "client-vrpc");
        let sdir = Arc::clone(&sdir);
        let rdir = Arc::clone(&rdir);
        kernel.spawn("client", move |ctx| {
            let mut srpc = SrpcClient::bind(vmmc, ctx, &sdir, "vecmath", &iface).unwrap();
            let mut vrpc =
                VrpcClient::bind(vmmc2, ctx, &rdir, 0x2000_0001, 1, StreamVariant::AutomaticUpdate)
                    .unwrap();

            // Real math through the specialized system.
            let a: Vec<f64> = (0..32).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..32).map(|i| (i * 2) as f64).collect();
            let outs = srpc
                .call(ctx, "dot", &[Val::F64Array(a.clone()), Val::F64Array(b.clone())])
                .unwrap();
            let Val::F64(dot) = outs[0] else { panic!("type") };
            println!("dot(a, b) = {dot}");
            assert_eq!(dot, 20832.0);
            let outs = srpc
                .call(ctx, "saxpy", &[Val::F64(0.5), Val::F64Array(a), Val::F64Array(b)])
                .unwrap();
            let Val::F64Array(y) = &outs[0] else { panic!("type") };
            println!("saxpy mid element = {}", y[16]);
            assert_eq!(y[16], 40.0);

            // Timed null calls through both systems (Figure 8's point).
            const N: u32 = 16;
            let t0 = ctx.now();
            for i in 0..N {
                srpc.call(ctx, "ping", &[Val::U32(i)]).unwrap();
            }
            let srpc_rtt = (ctx.now() - t0).as_us() / N as f64;
            let t0 = ctx.now();
            for i in 0..N {
                vrpc.call(ctx, 1, move |e| e.put_u32(i), |d| d.get_u32()).unwrap();
            }
            let vrpc_rtt = (ctx.now() - t0).as_us() / N as f64;
            println!("null call round trip: specialized {srpc_rtt:.1} us vs SunRPC-compatible {vrpc_rtt:.1} us");
            println!("(the paper reports 9.5 us vs 29 us — more than a factor of three)");

            srpc.close(ctx).unwrap();
            vrpc.close(ctx).unwrap();
        });
    }

    kernel.run_until_quiescent().expect("idl example failed");
    assert!(system.violations().is_empty());
    // Virtual time is exact: tests/examples.rs runs this `main`.
    assert_eq!(kernel.now().as_ps(), FINISH_PS);
}
