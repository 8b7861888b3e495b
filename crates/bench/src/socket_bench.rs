//! Figure 7 and the §4.3 ttcp measurements: stream-socket latency,
//! bandwidth, and one-way throughput.

use std::sync::Arc;

use shrimp_core::SystemConfig;
use shrimp_mesh::NodeId;
use shrimp_sim::SimDur;
use shrimp_sockets::{connect, listen, SocketVariant};

use crate::harness::{time_rounds, Args, Experiment, Outcome};
use crate::pingpong::{paper_pingpong, Strategy};
use crate::report::{render_figure, sweep, Point};

const WARMUP: u32 = 2;
const ROUNDS: u32 = 8;

/// The three socket curves of Figure 7 with the paper's legend labels.
pub(crate) const VARIANTS: [(SocketVariant, &str); 3] = [
    (SocketVariant::Au2Copy, "AU-2copy"),
    (SocketVariant::Du1Copy, "DU-1copy"),
    (SocketVariant::Du2Copy, "DU-2copy"),
];

/// Socket ping-pong for one (variant, size) cell.
pub(crate) fn socket_pingpong(variant: SocketVariant, size: usize) -> Point {
    let exp = Experiment::new(SystemConfig::prototype(), None);

    let vmmc = exp.system.endpoint(1, "server");
    let eth = Arc::clone(exp.system.ethernet());
    exp.spawn("server", move |ctx| {
        let listener = listen(vmmc, eth, 7777);
        let mut sock = listener.accept(ctx).unwrap();
        for _ in 0..(WARMUP + ROUNDS) {
            let msg = sock.recv_exact(ctx, size).unwrap();
            sock.send(ctx, &msg).unwrap();
        }
    });
    let vmmc = exp.system.endpoint(0, "client");
    let eth = Arc::clone(exp.system.ethernet());
    let timed = exp.spawn("client", move |ctx| {
        let mut sock = connect(vmmc, ctx, &eth, NodeId(1), 7777, variant).unwrap();
        let msg: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
        let us = time_rounds(ctx, WARMUP, ROUNDS, |_| {
            sock.send(ctx, &msg).unwrap();
            assert_eq!(sock.recv_exact(ctx, size).unwrap(), msg);
        });
        sock.close(ctx).unwrap();
        us
    });
    exp.run("socket ping-pong");
    let one_way_us = timed.take() / (2.0 * ROUNDS as f64);
    Point {
        size,
        latency_us: one_way_us,
        bandwidth_mbs: size as f64 / one_way_us,
    }
}

/// One-way continuous pump, ttcp-style: the sender streams `count`
/// messages of `size` bytes; bandwidth is measured at the receiver.
/// `ttcp_overhead_per_write` models the benchmark program's own
/// per-write work (buffer refill and accounting) — zero for the
/// library's own microbenchmark.
fn one_way_pump(
    variant: SocketVariant,
    size: usize,
    count: usize,
    ttcp_overhead_per_write: SimDur,
) -> f64 {
    let exp = Experiment::new(SystemConfig::prototype(), None);

    let vmmc = exp.system.endpoint(1, "sink");
    let eth = Arc::clone(exp.system.ethernet());
    let bandwidth = exp.spawn("sink", move |ctx| {
        let listener = listen(vmmc, eth, 5001); // ttcp's default port
        let mut sock = listener.accept(ctx).unwrap();
        // Skip the first message (pipeline fill), then time the rest.
        sock.recv_exact(ctx, size).unwrap();
        let t0 = ctx.now();
        let mut got = 0usize;
        loop {
            let chunk = sock.recv(ctx, size).unwrap();
            if chunk.is_empty() {
                break;
            }
            got += chunk.len();
        }
        got as f64 / (ctx.now() - t0).as_us()
    });
    let vmmc = exp.system.endpoint(0, "pump");
    let eth = Arc::clone(exp.system.ethernet());
    exp.spawn("pump", move |ctx| {
        let mut sock = connect(vmmc, ctx, &eth, NodeId(1), 5001, variant).unwrap();
        let msg: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
        for _ in 0..count {
            if !ttcp_overhead_per_write.is_zero() {
                ctx.advance(ttcp_overhead_per_write);
            }
            sock.send(ctx, &msg).unwrap();
        }
        sock.close(ctx).unwrap();
    });
    exp.run("one-way pump");
    bandwidth.take()
}

/// The per-write overhead of the ttcp benchmark program itself (pattern
/// generation into its buffer and loop accounting), calibrated against
/// the paper's 8.6 MB/s vs 9.8 MB/s comparison at 7 KB.
fn ttcp_write_overhead(size: usize) -> SimDur {
    // Dominated by ttcp regenerating its source pattern per write.
    SimDur::from_ns(10.0 * size as f64 + 26_000.0)
}

/// **Figure 7**: stream-socket latency and bandwidth for AU-2copy,
/// DU-1copy, and DU-2copy.
pub fn fig7(_: &Args) -> Outcome {
    let all = sweep(&VARIANTS, socket_pingpong);
    let mut out = String::new();
    let title = "Figure 7: socket latency and bandwidth";
    out += &format!("{}\n", render_figure(title, &all));

    let hw = paper_pingpong(Strategy::Au2Copy, 16);
    out += &format!(
        "anchors: small-message overhead over hardware {:.1} us (paper: ~13, split evenly)\n",
        all[0].latency_at(16).unwrap() - hw.latency_us
    );
    let hw1 = paper_pingpong(Strategy::Du1Copy, 10240);
    out += &format!(
        "         10 KB DU-1copy {:.1} MB/s vs raw one-copy limit {:.1} MB/s\n",
        all[1].bandwidth_at(10240).unwrap(),
        hw1.bandwidth_mbs
    );
    Outcome::text(out)
}

/// The **§4.3 ttcp measurements**: one-way socket throughput, the
/// public-domain ttcp benchmark (with its own per-write overhead)
/// against the library's own microbenchmark.
pub fn ttcp(_: &Args) -> Outcome {
    let mut out = String::from("== ttcp one-way throughput (paper §4.3) ==\n\n");
    out += &format!(
        "{:<14}{:>16}{:>20}\n",
        "msg bytes", "ttcp MB/s", "microbench MB/s"
    );
    for &size in &[70usize, 512, 1024, 4096, 7168, 8192] {
        let count = (200_000 / size).clamp(10, 300);
        let pump = |overhead| one_way_pump(SocketVariant::Du1Copy, size, count, overhead);
        let (ttcp, lib) = (pump(ttcp_write_overhead(size)), pump(SimDur::ZERO));
        out += &format!("{size:<14}{ttcp:>16.2}{lib:>20.2}\n");
    }
    out += "\npaper anchors: ttcp 8.6 MB/s and microbenchmark 9.8 MB/s at 7 KB;\n";
    out += "               ttcp 1.3 MB/s at 70 B (already above Ethernet's peak).\n";
    Outcome::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_message_overhead_near_13us_over_hardware() {
        let hw = paper_pingpong(Strategy::Au2Copy, 16);
        let s = socket_pingpong(SocketVariant::Au2Copy, 16);
        let overhead = s.latency_us - hw.latency_us;
        assert!(
            (8.0..18.0).contains(&overhead),
            "socket small-message overhead {overhead:.1} us over hardware (paper: ~13)"
        );
    }

    #[test]
    fn large_messages_approach_one_copy_limit() {
        let hw = paper_pingpong(Strategy::Du1Copy, 10240);
        let s = socket_pingpong(SocketVariant::Du1Copy, 10240);
        assert!(
            s.bandwidth_mbs > 0.75 * hw.bandwidth_mbs,
            "socket large-message bandwidth {:.1} vs raw one-copy {:.1}",
            s.bandwidth_mbs,
            hw.bandwidth_mbs
        );
    }

    #[test]
    fn one_way_pump_beats_pingpong_bandwidth() {
        let pp = socket_pingpong(SocketVariant::Du1Copy, 7168);
        let ow = one_way_pump(SocketVariant::Du1Copy, 7168, 20, SimDur::ZERO);
        assert!(
            ow > pp.bandwidth_mbs,
            "one-way {ow:.1} vs ping-pong {:.1}",
            pp.bandwidth_mbs
        );
    }

    #[test]
    fn ttcp_is_slower_than_the_library_microbenchmark() {
        let lib = one_way_pump(SocketVariant::Du1Copy, 7168, 20, SimDur::ZERO);
        let ttcp = one_way_pump(SocketVariant::Du1Copy, 7168, 20, ttcp_write_overhead(7168));
        assert!(
            ttcp < lib,
            "ttcp {ttcp:.1} should trail the library's {lib:.1}"
        );
        let ratio = ttcp / lib;
        assert!(
            (0.7..1.0).contains(&ratio),
            "ratio {ratio:.2} (paper: 8.6 vs 9.8 = 0.88)"
        );
    }
}
