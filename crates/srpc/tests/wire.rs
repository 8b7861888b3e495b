//! What one SRPC call puts on the wire, counted at the NICs rather than
//! read off the marshaling plan: a call is one ascending store run and
//! so is its reply, and the hardware combines each into one
//! automatic-update packet, with the flag in the last of them. A run
//! whose body (its bytes before the flag) reaches the split size,
//! 108 B, leaves as an automatic-update head of 5/8 of it, cut into
//! packets at `au_combine_limit`, one deliberate-update tail, and then
//! the flag in a packet of its own.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_node::CostModel;
use shrimp_sim::{FaultEvent, FaultKind, FaultPlan, Kernel, SimDur, SimTime};
use shrimp_srpc::{parse_interface, SrpcClient, SrpcDirectory, SrpcHandler, SrpcServer, Val};

/// One warmed call's traffic.
#[derive(Debug, Default, Clone, PartialEq)]
struct Wire {
    /// AU packets the client's NIC sent for the call.
    out: u64,
    /// AU packets the server's NIC sent for the reply.
    back: u64,
    /// DU packets the client's NIC sent for the call.
    du_out: u64,
    /// DU packets the server's NIC sent for the reply.
    du_back: u64,
    /// Packets the server's NIC had deposited when the handler started,
    /// i.e. when the server saw the call flag.
    landed_at_dispatch: u64,
    /// Packets the client's NIC had deposited when `call` returned,
    /// i.e. when the client saw the reply flag.
    landed_at_return: u64,
    /// What the call returned.
    outs: Vec<Val>,
    /// When the call was made.
    called_at: SimTime,
    /// When the handler started.
    dispatched_at: SimTime,
    /// When the call returned.
    returned_at: SimTime,
}

impl Wire {
    /// `out` packets out and `back` packets back, nothing but automatic
    /// updates below the split size, and neither side saw its flag
    /// before the whole run had landed: the flag travels in the last
    /// packet.
    fn assert_packets(&self, out: u64, back: u64) {
        self.assert_split(out, back, 0, 0);
    }

    /// `out` and `back` automatic-update packets, `du_out` and
    /// `du_back` deliberate-update ones, and every one of them in
    /// before its side saw the flag.
    fn assert_split(&self, out: u64, back: u64, du_out: u64, du_back: u64) {
        let sent = (self.out, self.back, self.du_out, self.du_back);
        assert_eq!(sent, (out, back, du_out, du_back), "{self:?}");
        assert_eq!(
            (self.landed_at_dispatch, self.landed_at_return),
            (out + du_out, back + du_back),
            "flag ahead of its data: {self:?}"
        );
    }
}

/// Serve `idl`'s one procedure with `handler` on node 1, call it three
/// times from node 0, and count the third call's packets.
fn one_warmed_call(idl: &str, args: Vec<Val>, handler: SrpcHandler) -> Wire {
    warmed_call(idl, args.clone(), args, handler, &FaultPlan::empty())
}

/// [`one_warmed_call`] under `plan`, the two warm-up calls made with
/// `warm` and the third with `args`, so a run read before its last byte
/// landed would be the warm-up's.
fn warmed_call(
    idl: &str,
    warm: Vec<Val>,
    args: Vec<Val>,
    mut handler: SrpcHandler,
    plan: &FaultPlan,
) -> Wire {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    system.apply_faults(plan);
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
                    let mut w = wire.lock();
                    w.landed_at_dispatch = landed - *before.lock();
                    w.dispatched_at = ctx.now();
                    drop(w);
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
                client.call(ctx, &proc_name, &warm).unwrap();
            }
            let (c0, s0) = (sys.nic(0).stats(), sys.nic(1).stats());
            *server_in_before.lock() = s0.packets_in;
            let called_at = ctx.now();
            let outs = client.call(ctx, &proc_name, &args).unwrap();
            let (c1, s1) = (sys.nic(0).stats(), sys.nic(1).stats());
            {
                let mut w = wire.lock();
                w.out = c1.au_packets_out - c0.au_packets_out;
                w.back = s1.au_packets_out - s0.au_packets_out;
                w.du_out = c1.du_packets_out - c0.du_packets_out;
                w.du_back = s1.du_packets_out - s0.du_packets_out;
                w.landed_at_return = c1.packets_in - c0.packets_in;
                w.outs = outs;
                (w.called_at, w.returned_at) = (called_at, ctx.now());
            }
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

/// A `ping` of an `opaque[len]`: the reply echoes the argument.
fn echo(len: usize) -> String {
    format!("interface Echo {{ ping(inout data: opaque[{len}]); }}")
}

/// `len` bytes, distinct for each `seed`.
fn bytes(seed: u8, len: usize) -> Val {
    Val::Bytes((0..len).map(|i| (i as u8).wrapping_mul(7) ^ seed).collect())
}

fn echo_handler() -> SrpcHandler {
    Box::new(|ctx, ins, out| out.set(ctx, "data", &ins[0]).unwrap())
}

/// One `ping` of `len` bytes after two of other bytes, under `plan`.
fn echo_call(len: usize, plan: &FaultPlan) -> (Wire, Val) {
    let arg = bytes(1, len);
    let w = warmed_call(
        &echo(len),
        vec![bytes(2, len)],
        vec![arg.clone()],
        echo_handler(),
        plan,
    );
    (w, arg)
}

#[test]
fn a_bulk_run_is_an_au_head_and_one_du_tail_each_way_then_the_flag() {
    let (w, arg) = echo_call(1000, &FaultPlan::empty());
    // A 1 000-byte body: a 624-byte head (5/8, whole words), cut into
    // packets at the combine limit, a 376-byte tail by deliberate
    // update, and the flag alone, each way.
    let limit = CostModel::shrimp_prototype().au_combine_limit;
    let head = 624usize.div_ceil(limit) as u64;
    assert_eq!(head, 3);
    w.assert_split(head + 1, head + 1, 1, 1);
    assert_eq!(w.outs, vec![arg]);
}

#[test]
fn a_body_below_the_split_size_is_one_run_and_one_at_it_splits() {
    // 104 + 4 bytes, svc's largest call: one packet each way, no
    // deliberate update.
    let (below, arg) = echo_call(104, &FaultPlan::empty());
    below.assert_packets(1, 1);
    assert_eq!(below.outs, vec![arg]);
    // 108: a 64-byte head, a 44-byte tail, and the flag.
    let (at, arg) = echo_call(108, &FaultPlan::empty());
    at.assert_split(2, 2, 1, 1);
    assert_eq!(at.outs, vec![arg]);
}

#[test]
fn two_bulk_outs_each_leave_their_own_tail_before_the_reply_flag() {
    let idl = "interface Two { two(in seed: u32, out a: opaque[400], out b: opaque[400]); }";
    let w = warmed_call(
        idl,
        vec![Val::U32(2)],
        vec![Val::U32(1)],
        Box::new(|ctx, ins, out| {
            let Val::U32(seed) = ins[0] else {
                panic!("u32")
            };
            out.set(ctx, "a", &bytes(seed as u8, 400)).unwrap();
            out.set(ctx, "b", &bytes(!seed as u8, 400)).unwrap();
        }),
        &FaultPlan::empty(),
    );
    // Each 400-byte value is a 248-byte head (one packet) and a
    // 152-byte tail, sent from its own staging range while the next
    // value is stored; the flag waits for both.
    w.assert_split(1, 3, 0, 2);
    assert_eq!(w.outs, vec![bytes(1, 400), bytes(!1, 400)]);
}

/// A stall of `node`'s outgoing DMA engine, from `at`, long enough that
/// a tail sent then is read from memory well after its head's stores.
fn send_dma_stall(node: usize, at: SimTime) -> FaultPlan {
    let dur = SimDur::from_us(200.0);
    let kind = FaultKind::SendDmaStall { node, dur };
    FaultPlan::scripted(vec![FaultEvent { at, kind }])
}

/// A flag waits for its tail: with the sender's DMA engine stalled from
/// the moment a bulk run starts, the call takes the stall longer, every
/// packet is still in before the flag, and the exact bytes come back.
fn assert_the_flag_waits_for_a_stalled_tail(node: usize, at: fn(&Wire) -> SimTime) {
    let (clear, _) = echo_call(1000, &FaultPlan::empty());
    let (w, arg) = echo_call(1000, &send_dma_stall(node, at(&clear)));
    assert!(w.returned_at - w.called_at > clear.returned_at - clear.called_at);
    w.assert_split(4, 4, 1, 1);
    assert_eq!(w.outs, vec![arg]);
}

#[test]
fn a_call_flag_waits_for_its_tail_under_a_client_send_dma_stall() {
    assert_the_flag_waits_for_a_stalled_tail(0, |w| w.called_at);
}

#[test]
fn a_reply_flag_waits_for_its_tail_under_a_server_send_dma_stall() {
    assert_the_flag_waits_for_a_stalled_tail(1, |w| w.dispatched_at);
}
