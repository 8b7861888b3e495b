//! Figure 8: round-trip time for a null RPC with a single INOUT
//! argument of varying size — the SunRPC-compatible VRPC against the
//! non-compatible specialized SHRIMP RPC (fastest variant of each:
//! one-copy automatic update).

use std::sync::Arc;

use shrimp_core::SystemConfig;
use shrimp_node::CostModel;
use shrimp_sim::{FaultPlan, SimTime};
use shrimp_srpc::{parse_interface, SrpcClient, SrpcDirectory, SrpcServer, Val};
use shrimp_sunrpc::StreamVariant;

use crate::harness::{time_rounds, Args, Experiment, Outcome};
use crate::report::Point;
use crate::vrpc_bench::{vrpc_roundtrip, ROUNDS, WARMUP};

/// Round-trip time of the compatible system (VRPC, AU-1copy) for an
/// INOUT argument of `size` bytes.
fn compatible_roundtrip(size: usize) -> Point {
    vrpc_roundtrip(StreamVariant::AutomaticUpdate, size)
}

/// The specialized-RPC call loop on a fresh prototype charging
/// `costs`, optionally under a fault plan: `WARMUP + ROUNDS` null calls
/// with one `size`-byte INOUT argument. Returns the microseconds the
/// `ROUNDS` took and the fault log's entries (empty without a plan).
pub(crate) fn specialized_calls(
    size: usize,
    costs: CostModel,
    faults: Option<&FaultPlan>,
) -> (f64, Vec<(SimTime, String)>) {
    let idl = format!("interface Null {{ ping(inout data: opaque[{size}]); }}");
    let mut config = SystemConfig::prototype();
    config.costs = costs;
    let exp = Experiment::new(config, faults);
    let dir = SrpcDirectory::new();
    let iface = parse_interface(&idl).expect("well-formed idl");

    let vmmc = exp.system.endpoint(1, "server");
    let (server_dir, server_iface) = (Arc::clone(&dir), iface.clone());
    exp.spawn("server", move |ctx| {
        let mut server = SrpcServer::new(vmmc, &server_iface);
        server.register(
            "ping",
            Box::new(|ctx, ins, out| {
                out.set(ctx, "data", &ins[0].clone()).unwrap();
            }),
        );
        let mut conn = server.accept(ctx, &server_dir, "null").unwrap();
        server.serve(ctx, &mut conn).unwrap();
    });
    let vmmc = exp.system.endpoint(0, "client");
    let timed = exp.spawn("client", move |ctx| {
        let mut client = SrpcClient::bind(vmmc, ctx, &dir, "null", &iface).unwrap();
        let arg = Val::Bytes(vec![0x55; size]);
        let us = time_rounds(ctx, WARMUP, ROUNDS, |_| {
            client
                .call(ctx, "ping", std::slice::from_ref(&arg))
                .unwrap();
        });
        client.close(ctx).unwrap();
        us
    });
    exp.run("specialized RPC bench");
    (timed.take(), exp.fault_events())
}

/// Round-trip time of the specialized SHRIMP RPC for an INOUT argument
/// of `size` bytes.
fn specialized_roundtrip(size: usize) -> Point {
    let size = size.max(4);
    let costs = CostModel::shrimp_prototype();
    let rtt_us = specialized_calls(size, costs, None).0 / ROUNDS as f64;
    Point {
        size,
        latency_us: rtt_us,
        bandwidth_mbs: (2 * size) as f64 / rtt_us,
    }
}

/// §5's software-overhead claim: re-run the null call with every
/// hardware and transfer cost zeroed except library software, and report
/// the per-round-trip software time.
pub(crate) fn specialized_software_overhead() -> f64 {
    let mut costs = CostModel::shrimp_prototype();
    // Software-only: library call/bookkeeping costs stay; everything the
    // hardware or memory system does is free.
    costs.store_first_wt = shrimp_sim::SimDur::ZERO;
    costs.store_word_wt = shrimp_sim::SimDur::ZERO;
    costs.store_word_wb = shrimp_sim::SimDur::ZERO;
    costs.store_first_uc = shrimp_sim::SimDur::ZERO;
    costs.store_word_uc = shrimp_sim::SimDur::ZERO;
    costs.load_word = shrimp_sim::SimDur::ZERO;
    costs.poll_gap = shrimp_sim::SimDur::from_ps(1); // keep polls live
    costs.copy_setup = shrimp_sim::SimDur::ZERO;
    costs.nic_snoop = shrimp_sim::SimDur::ZERO;
    costs.nic_packetize = shrimp_sim::SimDur::ZERO;
    costs.au_combine_timeout = shrimp_sim::SimDur::from_ps(1);
    costs.du_engine_setup = shrimp_sim::SimDur::ZERO;
    costs.dma_setup = shrimp_sim::SimDur::ZERO;
    costs.nic_ipt_check = shrimp_sim::SimDur::ZERO;
    costs.eisa_pio_access = shrimp_sim::SimDur::ZERO;
    costs.membus_per_txn = shrimp_sim::SimDur::ZERO;
    costs.eisa_per_txn = shrimp_sim::SimDur::ZERO;
    costs.membus_bytes_per_sec = 1e15;
    costs.eisa_bytes_per_sec = 1e15;
    costs.copy_bytes_per_sec_wb = 1e15;
    costs.copy_bytes_per_sec_wt = 1e15;
    costs.copy_bytes_per_sec_uc = 1e15;
    specialized_calls(4, costs, None).0 / ROUNDS as f64
}

/// **Figure 8**: round-trip time for a null RPC with a single INOUT
/// argument of varying size — compatible (VRPC) vs non-compatible
/// (SHRIMP RPC), fastest (one-copy automatic update) version of each.
/// `--breakdown` adds the specialized system's software-only overhead
/// (paper §5: under 1 µs).
pub fn fig8(args: &Args) -> Outcome {
    let sizes = [
        4usize, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000,
    ];
    let mut out =
        String::from("== Figure 8: null RPC round-trip time, single INOUT argument ==\n\n");
    out += &format!(
        "{:<12}{:>18}{:>18}{:>10}\n",
        "bytes", "compatible us", "non-compatible us", "ratio"
    );
    let mut rows = Vec::new();
    for size in sizes {
        let c = compatible_roundtrip(size).latency_us;
        let s = specialized_roundtrip(size).latency_us;
        out += &format!("{size:<12}{c:>18.2}{s:>18.2}{:>10.2}\n", c / s);
        rows.push((c, s));
    }
    let (c0, s0) = rows[0];
    out += &format!(
        "\nanchors: null call {s0:.1} us non-compatible vs {c0:.1} us compatible \
         (paper: 9.5 vs 29, more than a factor of three)\n"
    );
    let (c, s) = rows[rows.len() - 1];
    out += &format!(
        "         ratio at 1000 B: {:.2} (paper: roughly a factor of two)\n",
        c / s
    );
    if args.has("--breakdown") {
        out += &format!(
            "         specialized software-only round trip: {:.2} us \
             (paper: software overhead under 1 us per call)\n",
            specialized_software_overhead()
        );
    }
    Outcome::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specialized_is_over_three_times_faster_for_null_calls() {
        let c = compatible_roundtrip(4);
        let s = specialized_roundtrip(4);
        let ratio = c.latency_us / s.latency_us;
        assert!(
            ratio >= 3.0 && (s.latency_us - 9.5).abs() < 0.5,
            "compatible {:.1} us vs specialized {:.1} us (paper: 29 vs 9.5, >3x)",
            c.latency_us,
            s.latency_us
        );
    }

    #[test]
    fn gap_narrows_to_about_2x_for_1000_byte_arguments() {
        let c = compatible_roundtrip(1000);
        let s = specialized_roundtrip(1000);
        let ratio = c.latency_us / s.latency_us;
        assert!(
            (1.4..3.0).contains(&ratio),
            "1000 B ratio {ratio:.2} (paper: roughly a factor of two)"
        );
    }

    #[test]
    fn software_overhead_is_small() {
        let us = specialized_software_overhead();
        assert!(
            us < 3.0,
            "software-only round trip {us:.2} us (paper: <1 us per call)"
        );
    }
}
