//! Figure 5: VRPC null-call round-trip latency and bandwidth, with a
//! single opaque argument and a single opaque result of equal size.

use std::sync::Arc;

use shrimp_node::CostModel;
use shrimp_sim::{FaultPlan, SimTime};
use shrimp_sunrpc::{AcceptStat, RpcDirectory, StreamVariant, VrpcClient, VrpcServer};

use crate::harness::{Args, Outcome};
use crate::pingpong::{prototype, timed_us, Window};
use crate::report::{render_figure, sweep, Point, LATENCY_CUTOFF};

const PROG: u32 = 0x2000_0001;
const VERS: u32 = 1;
/// Untimed calls before the measured ones.
pub(crate) const WARMUP: u32 = 2;
/// Measured calls.
pub(crate) const ROUNDS: u32 = 8;

/// Figure 5's two curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VrpcVariant {
    /// Data by deliberate update (one copy: the receive-side XDR decode).
    Du1Copy,
    /// Data by automatic update (one copy likewise; the marshal stores
    /// are the send).
    Au1Copy,
}

impl VrpcVariant {
    /// Paper legend label.
    pub fn label(self) -> &'static str {
        match self {
            VrpcVariant::Du1Copy => "DU-1copy",
            VrpcVariant::Au1Copy => "AU-1copy",
        }
    }

    /// Both, in the paper's legend order.
    pub fn all() -> [VrpcVariant; 2] {
        [VrpcVariant::Du1Copy, VrpcVariant::Au1Copy]
    }

    fn stream(self) -> StreamVariant {
        match self {
            VrpcVariant::Du1Copy => StreamVariant::DeliberateUpdate,
            VrpcVariant::Au1Copy => StreamVariant::AutomaticUpdate,
        }
    }
}

/// The Figure 5 call loop on a fresh prototype, optionally under a
/// fault plan: a server echoing one INOUT opaque
/// argument, a client making `WARMUP + ROUNDS` null calls of `size`
/// bytes over `stream`. Returns the microseconds the `ROUNDS` took and
/// the fault log's entries (empty without a plan).
pub(crate) fn null_calls(
    stream: StreamVariant,
    size: usize,
    faults: Option<&FaultPlan>,
) -> (f64, Vec<(SimTime, String)>) {
    let (kernel, system) = prototype(CostModel::shrimp_prototype());
    let log = faults.map(|plan| system.apply_faults(plan));
    let dir = RpcDirectory::new();
    let result = Window::default();

    {
        let vmmc = system.endpoint(1, "server");
        let dir = Arc::clone(&dir);
        kernel.spawn("server", move |ctx| {
            let mut server = VrpcServer::new(vmmc, PROG, VERS);
            server.register(
                1, // null procedure with one INOUT opaque argument
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
    {
        let vmmc = system.endpoint(0, "client");
        let dir = Arc::clone(&dir);
        let result = Arc::clone(&result);
        kernel.spawn("client", move |ctx| {
            let mut client = VrpcClient::bind(vmmc, ctx, &dir, PROG, VERS, stream).unwrap();
            let arg = vec![0x7Eu8; size];
            let mut t0 = ctx.now();
            for round in 0..WARMUP + ROUNDS {
                if round == WARMUP {
                    t0 = ctx.now();
                }
                let r = client
                    .call(
                        ctx,
                        1,
                        |e| e.put_opaque(&arg),
                        |d| Ok(d.get_opaque()?.to_vec()),
                    )
                    .unwrap();
                assert_eq!(r.len(), size);
            }
            *result.lock() = Some((t0, ctx.now()));
            client.close(ctx).unwrap();
        });
    }
    let us = timed_us(&kernel, &system, &result, log.is_none(), "VRPC bench");
    (us, log.map_or_else(Vec::new, |log| log.snapshot()))
}

/// Run the Figure 5 experiment for one (variant, size) cell. The
/// reported latency is the **round-trip** time (as in the paper's
/// Figure 5); bandwidth counts argument plus result bytes.
pub fn vrpc_roundtrip(variant: VrpcVariant, size: usize) -> Point {
    let rtt_us = null_calls(variant.stream(), size, None).0 / ROUNDS as f64;
    Point {
        size,
        latency_us: rtt_us,
        bandwidth_mbs: (2 * size) as f64 / rtt_us,
    }
}

/// **Figure 5**: VRPC round-trip latency and bandwidth as a function
/// of argument/result size, for DU-1copy and AU-1copy.
pub fn fig5(_: &Args) -> Outcome {
    let all = sweep(VrpcVariant::all(), VrpcVariant::label, vrpc_roundtrip);
    let mut out = String::new();
    let title = "Figure 5: VRPC round-trip latency and bandwidth (single INOUT opaque argument)";
    out += &format!("{}\n", render_figure(title, &all, LATENCY_CUTOFF));
    out += &format!(
        "anchors: null RPC round trip {:.1} us AU / {:.1} us DU (paper: ~29 us)\n",
        all[1].latency_at(4).unwrap(),
        all[0].latency_at(4).unwrap()
    );
    Outcome::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_rpc_round_trip_near_29us() {
        let p = vrpc_roundtrip(VrpcVariant::Au1Copy, 4);
        assert!(
            (p.latency_us - 29.0).abs() < 4.0,
            "null VRPC round trip {:.1} us vs paper ~29",
            p.latency_us
        );
    }

    #[test]
    fn du_and_au_converge_for_large_arguments() {
        let au = vrpc_roundtrip(VrpcVariant::Au1Copy, 10240);
        let du = vrpc_roundtrip(VrpcVariant::Du1Copy, 10240);
        let ratio = au.bandwidth_mbs / du.bandwidth_mbs;
        assert!((0.7..1.4).contains(&ratio), "AU {au:?} vs DU {du:?}");
    }
}
