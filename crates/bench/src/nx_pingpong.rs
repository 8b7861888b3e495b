//! Figure 4: NX latency and bandwidth.
//!
//! The same ping-pong as Figure 3, but through the NX compatibility
//! library. The five curves map onto library configurations:
//!
//! | curve     | configuration                                            |
//! |-----------|----------------------------------------------------------|
//! | AU-1copy  | automatic-update marshal, message consumed in place      |
//! | AU-2copy  | automatic-update marshal + receiver copy                 |
//! | DU-1copy  | data straight from user memory (two deliberate updates)  |
//! | DU-2copy  | marshal copy + single deliberate update                  |
//! | DU-0copy  | the zero-copy scout protocol forced for every size       |

use std::sync::Arc;

use shrimp_core::SystemConfig;
use shrimp_node::{CacheMode, VAddr};
use shrimp_nx::{NxConfig, NxProc, NxWorld, SendVariant};
use shrimp_sim::Ctx;

use crate::harness::{time_rounds, Args, Experiment, Outcome};
use crate::pingpong::{paper_pingpong, Strategy};
use crate::report::{render_figure, sweep, Point};

/// The five NX protocol variants of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the paper's legend: AU-1copy, DU-0copy, ...
pub(crate) enum NxVariant {
    /// Automatic update, consumed in place (one copy total).
    Au1Copy,
    /// Automatic update plus receiver copy (two copies).
    Au2Copy,
    /// Deliberate update from user memory plus receiver copy (one copy).
    Du1Copy,
    /// Marshal copy plus one deliberate update plus receiver copy (two).
    Du2Copy,
    /// Zero-copy scout protocol for every message.
    Du0Copy,
}

/// All five with the paper's legend labels, in legend order.
const VARIANTS: [(NxVariant, &str); 5] = [
    (NxVariant::Au1Copy, "AU-1copy"),
    (NxVariant::Au2Copy, "AU-2copy"),
    (NxVariant::Du0Copy, "DU-0copy"),
    (NxVariant::Du1Copy, "DU-1copy"),
    (NxVariant::Du2Copy, "DU-2copy"),
];

impl NxVariant {
    /// The library configuration realizing this curve.
    pub(crate) fn config(self) -> NxConfig {
        let mut c = NxConfig::paper_default();
        match self {
            NxVariant::Au1Copy => {
                c.send_variant = SendVariant::AutomaticUpdate;
                c.in_place_receive = true;
            }
            NxVariant::Au2Copy => {
                c.send_variant = SendVariant::AutomaticUpdate;
            }
            NxVariant::Du1Copy => {
                c.send_variant = SendVariant::DuFromUser;
            }
            NxVariant::Du2Copy => {
                c.send_variant = SendVariant::DuMarshal;
            }
            NxVariant::Du0Copy => {
                c.large_threshold = 0;
            }
        }
        c
    }
}

const WARMUP: u32 = 2;
const ROUNDS: u32 = 8;

/// Every two-rank NX experiment: `tx` as rank 0 and `rx` as rank 1 of a
/// world configured by `config`, on a fresh prototype. Returns what each
/// side measured.
pub(crate) fn nx_two_ranks<A: Send + 'static, B: Send + 'static>(
    config: NxConfig,
    tx: impl FnOnce(&Ctx, &mut NxProc) -> A + Send + 'static,
    rx: impl FnOnce(&Ctx, &mut NxProc) -> B + Send + 'static,
) -> (A, B) {
    let exp = Experiment::new(SystemConfig::prototype(), None);
    let world = NxWorld::new(Arc::clone(&exp.system), config, vec![0, 1]);
    let world0 = Arc::clone(&world);
    let a = exp.spawn("rank0", move |ctx| tx(ctx, &mut world0.join(ctx, 0)));
    let b = exp.spawn("rank1", move |ctx| rx(ctx, &mut world.join(ctx, 1)));
    exp.run("NX experiment");
    (a.take(), b.take())
}

/// One rank of a ping-pong: `WARMUP` untimed, then `rounds` timed round
/// trips sending `size` bytes from `sbuf` and receiving up to `cap` into
/// `rbuf`; rank 0 sends first, rank 1 echoes. Returns the one-way
/// microseconds.
pub(crate) fn nx_rally(
    ctx: &Ctx,
    nx: &mut NxProc,
    (sbuf, size): (VAddr, usize),
    (rbuf, cap): (VAddr, usize),
    rounds: u32,
) -> f64 {
    let round = |_| {
        if nx.mynode() == 0 {
            nx.csend(ctx, 1, sbuf, size, 1).unwrap();
            nx.crecv(ctx, 2, rbuf, cap).unwrap();
        } else {
            nx.crecv(ctx, 1, rbuf, cap).unwrap();
            nx.csend(ctx, 2, sbuf, size, 0).unwrap();
        }
    };
    time_rounds(ctx, WARMUP, rounds, round) / (2.0 * rounds as f64)
}

/// Run one NX ping-pong experiment; returns the measured point.
fn nx_pingpong(variant: NxVariant, size: usize) -> Point {
    // Both ranks send from a filled buffer and receive into another.
    let rank = move |ctx: &Ctx, nx: &mut NxProc| {
        let sbuf = nx.vmmc().proc_().alloc(size.max(8), CacheMode::WriteBack);
        let rbuf = nx.vmmc().proc_().alloc(size.max(8), CacheMode::WriteBack);
        let fill: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
        nx.vmmc().proc_().poke(sbuf, &fill).unwrap();
        let one_way_us = nx_rally(ctx, nx, (sbuf, size), (rbuf, size.max(8)), ROUNDS);
        nx.flush(ctx).unwrap();
        one_way_us
    };
    let (one_way_us, _) = nx_two_ranks(variant.config(), rank, rank);
    Point {
        size: size.max(4),
        latency_us: one_way_us,
        bandwidth_mbs: size.max(4) as f64 / one_way_us,
    }
}

/// **Figure 4**: NX latency and bandwidth for the five protocol
/// variants.
pub fn fig4(_: &Args) -> Outcome {
    let all = sweep(&VARIANTS, nx_pingpong);
    let mut out = String::new();
    let title = "Figure 4: NX latency and bandwidth";
    out += &format!("{}\n", render_figure(title, &all));

    let hw = paper_pingpong(Strategy::Au1Copy, 8);
    let nx = all[0].latency_at(8).unwrap();
    out += &format!(
        "anchors: AU small-message overhead over hardware {:.2} us (paper: just over 6)\n",
        nx - hw.latency_us
    );
    let hw_bw = paper_pingpong(Strategy::Du0Copy, 10240);
    out += &format!(
        "         zero-copy 10 KB bandwidth {:.1} MB/s vs raw hardware {:.1} MB/s\n",
        all[2].bandwidth_at(10240).unwrap(),
        hw_bw.bandwidth_mbs
    );
    Outcome::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nx_small_au_overhead_near_6us_over_hardware() {
        let hw = paper_pingpong(Strategy::Au1Copy, 8);
        let nx = nx_pingpong(NxVariant::Au1Copy, 8);
        let overhead = nx.latency_us - hw.latency_us;
        assert!(
            (3.0..9.0).contains(&overhead),
            "NX AU small-message overhead {overhead:.2} us over hardware (paper: just over 6)"
        );
    }

    #[test]
    fn nx_large_bandwidth_approaches_hardware() {
        let hw = paper_pingpong(Strategy::Du0Copy, 10240);
        let nx = nx_pingpong(NxVariant::Du0Copy, 10240);
        assert!(
            nx.bandwidth_mbs > 0.8 * hw.bandwidth_mbs,
            "NX zero-copy bandwidth {:.1} should approach hardware {:.1}",
            nx.bandwidth_mbs,
            hw.bandwidth_mbs
        );
    }

    #[test]
    fn variant_ordering_small_messages() {
        let au1 = nx_pingpong(NxVariant::Au1Copy, 16);
        let au2 = nx_pingpong(NxVariant::Au2Copy, 16);
        let du2 = nx_pingpong(NxVariant::Du2Copy, 16);
        assert!(au1.latency_us < au2.latency_us);
        assert!(au1.latency_us < du2.latency_us);
    }

    #[test]
    fn du_marshal_beats_two_updates_for_tiny_then_loses() {
        // The Figure 4 trade-off: one DU with a marshal copy wins for
        // tiny messages; two DUs win once copying costs more than the
        // extra send.
        let tiny_2copy = nx_pingpong(NxVariant::Du2Copy, 8);
        let tiny_1copy = nx_pingpong(NxVariant::Du1Copy, 8);
        assert!(tiny_2copy.latency_us < tiny_1copy.latency_us);
        let big_2copy = nx_pingpong(NxVariant::Du2Copy, 1536);
        let big_1copy = nx_pingpong(NxVariant::Du1Copy, 1536);
        assert!(big_1copy.latency_us < big_2copy.latency_us);
    }
}
