//! What one SRPC call puts on the wire, counted at the NICs rather than
//! read off the marshaling plan: a call is one ascending store run and
//! so is its reply, and the hardware combines each into one
//! automatic-update packet (⌈run / `au_combine_limit`⌉ when it does not
//! fit), with the flag in the last of them.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::CostModel;
use shrimp_sim::{Kernel, SimDur};
use shrimp_srpc::{parse_interface, SrpcClient, SrpcDirectory, SrpcHandler, SrpcServer, Val};

/// One warmed call's traffic.
#[derive(Debug, Default, Clone, PartialEq)]
struct Wire {
    /// AU packets the client's NIC sent for the call.
    out: u64,
    /// AU packets the server's NIC sent for the reply.
    back: u64,
    /// Packets the server's NIC had deposited when the handler started,
    /// i.e. when the server saw the call flag.
    landed_at_dispatch: u64,
    /// Packets the client's NIC had deposited when `call` returned,
    /// i.e. when the client saw the reply flag.
    landed_at_return: u64,
    /// What the call returned.
    outs: Vec<Val>,
}

impl Wire {
    /// `out` packets out and `back` packets back, and neither side saw
    /// its flag before the whole run had landed: the flag travels in the
    /// last packet.
    fn assert_packets(&self, out: u64, back: u64) {
        assert_eq!((self.out, self.back), (out, back), "{self:?}");
        assert_eq!(
            (self.landed_at_dispatch, self.landed_at_return),
            (out, back),
            "flag ahead of its data: {self:?}"
        );
    }
}

/// Serve `idl`'s one procedure with `handler` on node 1, call it three
/// times from node 0, and count the third call's packets.
fn one_warmed_call(idl: &str, args: Vec<Val>, mut handler: SrpcHandler) -> Wire {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let dir = SrpcDirectory::new();
    let iface = parse_interface(idl).unwrap();
    let proc_name = iface.procs[0].name.clone();
    let wire = Arc::new(Mutex::new(Wire::default()));
    // The server NIC's deposit count before the measured call.
    let server_in_before = Arc::new(Mutex::new(0u64));
    {
        let vmmc = system.endpoint(1, "server");
        let (dir, iface, sys) = (Arc::clone(&dir), iface.clone(), Arc::clone(&system));
        let (wire, before) = (Arc::clone(&wire), Arc::clone(&server_in_before));
        let name = proc_name.clone();
        kernel.spawn("server", move |ctx| {
            let mut server = SrpcServer::new(vmmc, &iface);
            server.register(
                &name,
                Box::new(move |ctx, ins, out| {
                    let landed = sys.nic(1).stats().packets_in;
                    wire.lock().landed_at_dispatch = landed - *before.lock();
                    handler(ctx, ins, out);
                }),
            );
            let mut conn = server.accept(ctx, &dir, "wire").unwrap();
            server.serve(ctx, &mut conn).unwrap();
        });
    }
    {
        let vmmc = system.endpoint(0, "client");
        let sys = Arc::clone(&system);
        let wire = Arc::clone(&wire);
        kernel.spawn("client", move |ctx| {
            let mut client = SrpcClient::bind(vmmc, ctx, &dir, "wire", &iface).unwrap();
            for _ in 0..2 {
                client.call(ctx, &proc_name, &args).unwrap();
            }
            let (c0, s0) = (sys.nic(0).stats(), sys.nic(1).stats());
            *server_in_before.lock() = s0.packets_in;
            let outs = client.call(ctx, &proc_name, &args).unwrap();
            let (c1, s1) = (sys.nic(0).stats(), sys.nic(1).stats());
            {
                let mut w = wire.lock();
                w.out = c1.au_packets_out - c0.au_packets_out;
                w.back = s1.au_packets_out - s0.au_packets_out;
                w.landed_at_return = c1.packets_in - c0.packets_in;
                w.outs = outs;
            }
            // SRPC sends nothing but automatic updates.
            assert_eq!(c1.du_packets_out + s1.du_packets_out, 0);
            client.close(ctx).unwrap();
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
    let w = wire.lock().clone();
    w
}

#[test]
fn the_null_call_is_one_packet_each_way() {
    let arg = Val::Bytes(vec![1, 2, 3, 4]);
    let w = one_warmed_call(
        "interface Null { ping(inout data: opaque[4]); }",
        vec![arg.clone()],
        Box::new(|ctx, ins, out| out.set(ctx, "data", &ins[0]).unwrap()),
    );
    w.assert_packets(1, 1);
    assert_eq!(w.outs, vec![arg]);
}

const MIX_IDL: &str =
    "interface Mix { mix(in a: u32, inout b: array<f64, 4>, out c: opaque[24]); }";

fn mix_args() -> Vec<Val> {
    vec![Val::U32(7), Val::F64Array(vec![1.0, 2.0, 3.0, 4.0])]
}

fn mix_outs() -> Vec<Val> {
    vec![
        Val::F64Array(vec![7.0, 14.0, 21.0, 28.0]),
        Val::Bytes(vec![7; 24]),
    ]
}

#[test]
fn in_inout_out_set_in_declaration_order_is_one_packet_each_way() {
    let w = one_warmed_call(
        MIX_IDL,
        mix_args(),
        Box::new(|ctx, _ins, out| {
            out.set(ctx, "b", &mix_outs()[0]).unwrap();
            out.set(ctx, "c", &mix_outs()[1]).unwrap();
        }),
    );
    w.assert_packets(1, 1);
    assert_eq!(w.outs, mix_outs());
}

#[test]
fn any_other_set_order_returns_the_same_values_in_more_packets() {
    // Descending sets: `b` does not begin where `c` ended, and the flag
    // does not begin where `b` ended — three runs, three packets.
    let descending = one_warmed_call(
        MIX_IDL,
        mix_args(),
        Box::new(|ctx, _ins, out| {
            out.set(ctx, "c", &mix_outs()[1]).unwrap();
            out.set(ctx, "b", &mix_outs()[0]).unwrap();
        }),
    );
    descending.assert_packets(1, 3);
    assert_eq!(descending.outs, mix_outs());
    // Computing between the sets: `b` propagates on its own while the
    // procedure runs on (§5's background propagation), `c` and the flag
    // follow as a second run.
    let overlapped = one_warmed_call(
        MIX_IDL,
        mix_args(),
        Box::new(|ctx, _ins, out| {
            out.set(ctx, "b", &mix_outs()[0]).unwrap();
            ctx.advance(SimDur::from_us(20.0));
            out.set(ctx, "c", &mix_outs()[1]).unwrap();
        }),
    );
    overlapped.assert_packets(1, 2);
    assert_eq!(overlapped.outs, mix_outs());
}

#[test]
fn a_run_longer_than_the_combine_limit_is_cut_at_it() {
    let arg = Val::Bytes((0..1000u32).map(|i| (i % 251) as u8).collect());
    let w = one_warmed_call(
        "interface Big { ping(inout data: opaque[1000]); }",
        vec![arg.clone()],
        Box::new(|ctx, ins, out| out.set(ctx, "data", &ins[0]).unwrap()),
    );
    // Argument and flag are one 1 004-byte run each way.
    let packets = 1004u64.div_ceil(CostModel::shrimp_prototype().au_combine_limit as u64);
    assert_eq!(packets, 4);
    w.assert_packets(packets, packets);
    assert_eq!(w.outs, vec![arg]);
}
