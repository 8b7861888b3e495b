//! Figure 3: latency and bandwidth delivered by the raw VMMC layer.
//!
//! Two processes on two nodes ping-pong equally-sized messages using the
//! four transfer strategies of paper §3.4:
//!
//! * **AU-1copy** — sender copies user data into an automatic-update
//!   bound region (the copy *is* the send); receiver reads in place.
//! * **AU-2copy** — as above plus a receiver-side copy to user memory.
//! * **DU-0copy** — deliberate update straight from the sender's user
//!   buffer into the receiver's exported user buffer.
//! * **DU-1copy** — deliberate update into an exported staging buffer;
//!   receiver copies to user memory.
//!
//! The message's final word doubles as the arrival flag (per-direction
//! sequence number): in-order delivery guarantees the rest of the
//! message is present once it changes.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts, ImportHandle, ShrimpSystem, SystemConfig, Vmmc};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, CostModel, VAddr};
use shrimp_sim::{Ctx, Kernel, SimChannel, SimTime};

use crate::harness::{Args, Outcome};
use crate::report::{render_figure, sweep, Point, LATENCY_CUTOFF};

/// The four base-layer transfer strategies of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Automatic update, one copy (sender side only).
    Au1Copy,
    /// Automatic update, copies on both sides.
    Au2Copy,
    /// Deliberate update, zero copies.
    Du0Copy,
    /// Deliberate update, one copy (receiver side).
    Du1Copy,
}

impl Strategy {
    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Au1Copy => "AU-1copy",
            Strategy::Au2Copy => "AU-2copy",
            Strategy::Du0Copy => "DU-0copy",
            Strategy::Du1Copy => "DU-1copy",
        }
    }

    /// All four, in the paper's legend order.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::Au1Copy,
            Strategy::Au2Copy,
            Strategy::Du0Copy,
            Strategy::Du1Copy,
        ]
    }
}

/// Number of warm-up and measured round trips. The simulator is
/// deterministic, so a handful of rounds suffices to average out flag
/// polling phase.
const WARMUP: u32 = 2;
const ROUNDS: u32 = 8;
const POLL_BUDGET: usize = 10_000;

struct Side {
    vmmc: Vmmc,
    /// Exported receive buffer (peer writes messages here).
    recv: VAddr,
    /// Local user buffer (payload source / receiver copy target).
    user: VAddr,
    /// AU-bound send region (AU strategies only).
    au_send: Option<VAddr>,
    peer: ImportHandle,
    size: usize,
}

impl Side {
    fn send_message(&self, ctx: &Ctx, seq: u32, strategy: Strategy) {
        let n = self.size;
        let p = self.vmmc.proc_();
        match strategy {
            Strategy::Au1Copy | Strategy::Au2Copy => {
                // Update the flag word in the user buffer, then copy the
                // whole message into the AU region: the copy is the send,
                // and the flag (last word) is stored last.
                p.write_u32(ctx, self.user.add(n - 4), seq).unwrap();
                let au = self.au_send.expect("AU strategy without binding");
                p.copy(ctx, self.user, au, n).unwrap();
            }
            Strategy::Du0Copy | Strategy::Du1Copy => {
                p.write_u32(ctx, self.user.add(n - 4), seq).unwrap();
                self.vmmc.send(ctx, self.user, &self.peer, 0, n).unwrap();
            }
        }
    }

    fn recv_message(&self, ctx: &Ctx, seq: u32, strategy: Strategy) {
        let n = self.size;
        self.vmmc
            .wait_u32(ctx, self.recv.add(n - 4), POLL_BUDGET, |v| v == seq)
            .unwrap();
        match strategy {
            Strategy::Au2Copy | Strategy::Du1Copy => {
                // Consume into user memory.
                self.vmmc
                    .proc_()
                    .copy(ctx, self.recv, self.user, n)
                    .unwrap();
            }
            Strategy::Au1Copy | Strategy::Du0Copy => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn setup_side(
    vmmc: Vmmc,
    ctx: &Ctx,
    size: usize,
    strategy: Strategy,
    uncached: bool,
    my_names: &SimChannel<BufferName>,
    peer_names: &SimChannel<BufferName>,
    peer_node: NodeId,
) -> Side {
    let n = size.max(4);
    let pages = n.div_ceil(shrimp_node::PAGE_SIZE).max(1) * shrimp_node::PAGE_SIZE;
    let recv = vmmc.proc_().alloc(pages, CacheMode::WriteBack);
    let user = vmmc.proc_().alloc(pages, CacheMode::WriteBack);
    let name = vmmc
        .export(ctx, recv, pages, ExportOpts::default())
        .unwrap();
    my_names.send(&ctx.handle(), name);
    let peer_name = peer_names.recv(ctx);
    let peer = vmmc.import(ctx, peer_node, peer_name).unwrap();
    let au_send = match strategy {
        Strategy::Au1Copy | Strategy::Au2Copy => {
            let au = vmmc.proc_().alloc(pages, CacheMode::WriteBack);
            let b = vmmc
                .bind_au(
                    ctx,
                    au,
                    &peer,
                    0,
                    pages / shrimp_node::PAGE_SIZE,
                    true,
                    false,
                )
                .unwrap();
            if uncached {
                // Caching disabled on the AU region (paper's 3.7 us case).
                for i in 0..b.pages() {
                    vmmc.proc_()
                        .aspace()
                        .set_cache_mode(
                            au.add(i * shrimp_node::PAGE_SIZE).page(),
                            CacheMode::Uncached,
                        )
                        .unwrap();
                }
            }
            Some(au)
        }
        _ => None,
    };
    Side {
        vmmc,
        recv,
        user,
        au_send,
        peer,
        size: n,
    }
}

/// A fresh 2×2 prototype system charging `costs`.
pub(crate) fn prototype(costs: CostModel) -> (Kernel, Arc<ShrimpSystem>) {
    let kernel = Kernel::new();
    let mut config = SystemConfig::prototype();
    config.costs = costs;
    let system = ShrimpSystem::build(&kernel, config);
    (kernel, system)
}

/// Where a driving process leaves the `(start, end)` of its timed rounds.
pub(crate) type Window = Arc<Mutex<Option<(SimTime, SimTime)>>>;

/// Run `what` to quiescence and return the microseconds its driving
/// process timed. A run that is `clean` (no fault plan armed) must also
/// end without protection violations.
pub(crate) fn timed_us(
    kernel: &Kernel,
    system: &ShrimpSystem,
    window: &Window,
    clean: bool,
    what: &str,
) -> f64 {
    if let Err(e) = kernel.run_until_quiescent() {
        panic!("{what} failed: {e:?}");
    }
    assert!(
        !clean || system.violations().is_empty(),
        "protection violations during {what}"
    );
    let (t0, t1) = (window.lock()).unwrap_or_else(|| panic!("{what}: driver never finished"));
    (t1 - t0).as_us()
}

/// Run one ping-pong experiment on a fresh prototype system; returns the
/// measured point.
pub fn vmmc_pingpong(strategy: Strategy, size: usize, uncached: bool, costs: CostModel) -> Point {
    let (kernel, system) = prototype(costs);
    let a_names: SimChannel<BufferName> = SimChannel::new();
    let b_names: SimChannel<BufferName> = SimChannel::new();
    let result = Window::default();

    {
        let vmmc = system.endpoint(0, "ping");
        let a_names = a_names.clone();
        let b_names = b_names.clone();
        let result = Arc::clone(&result);
        kernel.spawn("ping", move |ctx| {
            let side = setup_side(
                vmmc,
                ctx,
                size,
                strategy,
                uncached,
                &a_names,
                &b_names,
                NodeId(1),
            );
            // Fill the payload once (applications send live buffers; the
            // per-round flag update is the only refresh, like the
            // original microbenchmark).
            let fill: Vec<u8> = (0..side.size).map(|i| (i % 239) as u8).collect();
            side.vmmc.proc_().poke(side.user, &fill).unwrap();
            for r in 0..WARMUP {
                side.send_message(ctx, r * 2 + 1, strategy);
                side.recv_message(ctx, r * 2 + 2, strategy);
            }
            let t0 = ctx.now();
            for r in 0..ROUNDS {
                let base = (WARMUP + r) * 2;
                side.send_message(ctx, base + 1, strategy);
                side.recv_message(ctx, base + 2, strategy);
            }
            *result.lock() = Some((t0, ctx.now()));
        });
    }
    {
        let vmmc = system.endpoint(1, "pong");
        kernel.spawn("pong", move |ctx| {
            let side = setup_side(
                vmmc,
                ctx,
                size,
                strategy,
                uncached,
                &b_names,
                &a_names,
                NodeId(0),
            );
            let fill: Vec<u8> = (0..side.size).map(|i| (i % 239) as u8).collect();
            side.vmmc.proc_().poke(side.user, &fill).unwrap();
            for r in 0..(WARMUP + ROUNDS) {
                side.recv_message(ctx, r * 2 + 1, strategy);
                side.send_message(ctx, r * 2 + 2, strategy);
            }
        });
    }

    let total_us = timed_us(&kernel, &system, &result, true, "ping-pong");
    let one_way_us = total_us / (2.0 * ROUNDS as f64);
    let n = size.max(4);
    Point {
        size: n,
        latency_us: one_way_us,
        bandwidth_mbs: n as f64 / one_way_us, // bytes/us == MB/s
    }
}

/// [`vmmc_pingpong`] as the paper ran it: caching on, the prototype's
/// costs.
pub fn paper_pingpong(strategy: Strategy, size: usize) -> Point {
    vmmc_pingpong(strategy, size, false, CostModel::shrimp_prototype())
}

/// **Figure 3**: latency and bandwidth delivered by the VMMC layer for
/// AU-1copy / AU-2copy / DU-0copy / DU-1copy. `--uncached` adds the
/// caching-disabled AU case quoted in §3.4 (3.7 µs vs 4.75 µs for one
/// word).
pub fn fig3(args: &Args) -> Outcome {
    let all = sweep(Strategy::all(), Strategy::label, paper_pingpong);
    let mut out = String::new();
    let title = "Figure 3: VMMC base-layer latency and bandwidth";
    out += &format!("{}\n", render_figure(title, &all, LATENCY_CUTOFF));

    let word_au = all[0].latency_at(4).unwrap();
    let word_du = all[2].latency_at(4).unwrap();
    out += &format!(
        "anchors: AU 1-word {word_au:.2} us (paper 4.75), DU 1-word {word_du:.2} us (paper 7.6)\n"
    );
    out += &format!(
        "         DU-0copy peak {:.1} MB/s (paper ~23)\n",
        all[2].peak_bandwidth()
    );
    if args.has("--uncached") {
        let p = vmmc_pingpong(Strategy::Au1Copy, 4, true, CostModel::shrimp_prototype());
        out += &format!(
            "         AU 1-word, caching disabled: {:.2} us (paper 3.7)\n",
            p.latency_us
        );
    }
    Outcome::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn du0_one_word_latency_near_paper_anchor() {
        let p = paper_pingpong(Strategy::Du0Copy, 4);
        assert!(
            (p.latency_us - 7.6).abs() < 1.0,
            "DU one-word latency {} vs paper 7.6 us",
            p.latency_us
        );
    }

    #[test]
    fn au1_one_word_latency_near_paper_anchor() {
        let p = paper_pingpong(Strategy::Au1Copy, 4);
        assert!(
            (p.latency_us - 4.75).abs() < 0.75,
            "AU one-word latency {} vs paper 4.75 us",
            p.latency_us
        );
    }

    #[test]
    fn uncached_au_is_faster_than_writethrough() {
        let wt = paper_pingpong(Strategy::Au1Copy, 4);
        let uc = vmmc_pingpong(Strategy::Au1Copy, 4, true, CostModel::shrimp_prototype());
        assert!(
            uc.latency_us < wt.latency_us,
            "uncached {} !< wt {}",
            uc.latency_us,
            wt.latency_us
        );
    }

    #[test]
    fn du0_peak_bandwidth_near_23mbs() {
        let p = paper_pingpong(Strategy::Du0Copy, 10240);
        assert!(
            (p.bandwidth_mbs - 23.0).abs() < 3.0,
            "DU-0copy bandwidth {} vs paper ~23 MB/s",
            p.bandwidth_mbs
        );
    }

    #[test]
    fn strategy_ordering_matches_paper() {
        // Small messages: AU beats DU (low start-up).
        let au = paper_pingpong(Strategy::Au1Copy, 16);
        let du = paper_pingpong(Strategy::Du0Copy, 16);
        assert!(au.latency_us < du.latency_us);
        // Large messages: DU-0copy delivers the highest bandwidth.
        let au_l = paper_pingpong(Strategy::Au1Copy, 10240);
        let du_l = paper_pingpong(Strategy::Du0Copy, 10240);
        let au2_l = paper_pingpong(Strategy::Au2Copy, 10240);
        let du1_l = paper_pingpong(Strategy::Du1Copy, 10240);
        assert!(du_l.bandwidth_mbs > au_l.bandwidth_mbs);
        assert!(au_l.bandwidth_mbs > au2_l.bandwidth_mbs);
        assert!(du1_l.bandwidth_mbs > au2_l.bandwidth_mbs);
    }
}
