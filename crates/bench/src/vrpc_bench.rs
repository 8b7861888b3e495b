//! Figure 5: VRPC null-call round-trip latency and bandwidth, with a
//! single opaque argument and a single opaque result of equal size.

use std::sync::Arc;

use shrimp_core::SystemConfig;
use shrimp_sim::{FaultPlan, SimTime};
use shrimp_sunrpc::{AcceptStat, RpcDirectory, StreamVariant, VrpcClient, VrpcServer};

use crate::harness::{time_rounds, Args, Experiment, Outcome};
use crate::report::{render_figure, sweep, Point};

const PROG: u32 = 0x2000_0001;
const VERS: u32 = 1;
/// Untimed calls before the measured ones.
pub(crate) const WARMUP: u32 = 2;
/// Measured calls.
pub(crate) const ROUNDS: u32 = 8;

/// Figure 5's two curves, in the paper's legend order: data by
/// deliberate update (one copy: the receive-side XDR decode), and by
/// automatic update (one copy likewise; the marshal stores are the
/// send).
const VARIANTS: [(StreamVariant, &str); 2] = [
    (StreamVariant::DeliberateUpdate, "DU-1copy"),
    (StreamVariant::AutomaticUpdate, "AU-1copy"),
];

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
    let exp = Experiment::new(SystemConfig::prototype(), faults);
    let dir = RpcDirectory::new();

    let (vmmc, server_dir) = (exp.system.endpoint(1, "server"), Arc::clone(&dir));
    exp.spawn("server", move |ctx| {
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
        let mut conn = server.accept(ctx, &server_dir).unwrap();
        server.serve(ctx, &mut conn).unwrap();
    });
    let vmmc = exp.system.endpoint(0, "client");
    let timed = exp.spawn("client", move |ctx| {
        let mut client = VrpcClient::bind(vmmc, ctx, &dir, PROG, VERS, stream).unwrap();
        let arg = vec![0x7Eu8; size];
        let us = time_rounds(ctx, WARMUP, ROUNDS, |_| {
            let r = client
                .call(
                    ctx,
                    1,
                    |e| e.put_opaque(&arg),
                    |d| Ok(d.get_opaque()?.to_vec()),
                )
                .unwrap();
            assert_eq!(r.len(), size);
        });
        client.close(ctx).unwrap();
        us
    });
    exp.run("VRPC bench");
    (timed.take(), exp.fault_events())
}

/// One VRPC round-trip cell; `latency_us` is the full round-trip time.
pub(crate) fn vrpc_roundtrip(stream: StreamVariant, size: usize) -> Point {
    let rtt_us = null_calls(stream, size, None).0 / ROUNDS as f64;
    Point {
        size,
        latency_us: rtt_us,
        bandwidth_mbs: (2 * size) as f64 / rtt_us,
    }
}

/// **Figure 5**: VRPC round-trip latency and bandwidth as a function
/// of argument/result size, for DU-1copy and AU-1copy.
pub fn fig5(_: &Args) -> Outcome {
    let all = sweep(&VARIANTS, vrpc_roundtrip);
    let mut out = String::new();
    let title = "Figure 5: VRPC round-trip latency and bandwidth (single INOUT opaque argument)";
    out += &format!("{}\n", render_figure(title, &all));
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
        let p = vrpc_roundtrip(StreamVariant::AutomaticUpdate, 4);
        assert!(
            (p.latency_us - 29.0).abs() < 4.0,
            "null VRPC round trip {:.1} us vs paper ~29",
            p.latency_us
        );
    }

    #[test]
    fn du_and_au_converge_for_large_arguments() {
        let au = vrpc_roundtrip(StreamVariant::AutomaticUpdate, 10240);
        let du = vrpc_roundtrip(StreamVariant::DeliberateUpdate, 10240);
        let ratio = au.bandwidth_mbs / du.bandwidth_mbs;
        assert!((0.7..1.4).contains(&ratio), "AU {au:?} vs DU {du:?}");
    }
}
