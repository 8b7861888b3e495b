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

use shrimp_core::{BufferName, ExportOpts, ImportHandle, ShrimpSystem, SystemConfig, Vmmc};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, CostModel, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, RetryPolicy, SimChannel};

use crate::harness::{time_rounds, Args, Experiment, Outcome};
use crate::report::{render_figure, sweep, Point};

/// The four base-layer transfer strategies of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the paper's legend: AU-1copy, DU-0copy, ...
pub(crate) enum Strategy {
    /// Automatic update, one copy (sender side only).
    Au1Copy,
    /// Automatic update, copies on both sides.
    Au2Copy,
    /// Deliberate update, zero copies.
    Du0Copy,
    /// Deliberate update, one copy (receiver side).
    Du1Copy,
}

/// All four with the paper's legend labels, in legend order.
pub(crate) const STRATEGIES: [(Strategy, &str); 4] = [
    (Strategy::Au1Copy, "AU-1copy"),
    (Strategy::Au2Copy, "AU-2copy"),
    (Strategy::Du0Copy, "DU-0copy"),
    (Strategy::Du1Copy, "DU-1copy"),
];

/// Number of warm-up and measured round trips. The simulator is
/// deterministic, so a handful of rounds suffices to average out flag
/// polling phase.
pub(crate) const WARMUP: u32 = 2;
pub(crate) const ROUNDS: u32 = 8;
const POLL_BUDGET: usize = 10_000;

/// Export `len` bytes at `buf` under `opts` and publish the buffer name
/// on `names`. Like [`attach`] it rides out a daemon outage, which costs
/// a healthy run nothing.
pub(crate) fn publish(
    vmmc: &Vmmc,
    ctx: &Ctx,
    (buf, len): (VAddr, usize),
    opts: ExportOpts,
    names: &SimChannel<BufferName>,
) {
    let name = vmmc
        .export_retry(ctx, buf, len, opts, RetryPolicy::bootstrap())
        .expect("set-up export");
    names.send(&ctx.handle(), name);
}

/// Import from `owner` the buffer whose name arrives on `names`.
pub(crate) fn attach(
    vmmc: &Vmmc,
    ctx: &Ctx,
    names: &SimChannel<BufferName>,
    owner: NodeId,
) -> ImportHandle {
    let name = names.recv(ctx);
    vmmc.import_retry(ctx, owner, name, RetryPolicy::bootstrap())
        .expect("set-up import")
}

/// Allocate `pages` and bind them for automatic update to the start of
/// `peer`, combining consecutive stores or not.
pub(crate) fn bind_au(
    vmmc: &Vmmc,
    ctx: &Ctx,
    peer: &ImportHandle,
    pages: usize,
    combine: bool,
) -> VAddr {
    let au = vmmc.proc_().alloc(pages * PAGE_SIZE, CacheMode::WriteBack);
    vmmc.bind_au(ctx, au, peer, 0, pages, combine, false)
        .expect("set-up binding");
    au
}

/// One party of the two-party set-up every raw-VMMC exchange opens
/// with: each exports a receive buffer, the two swap names, each imports
/// the other's.
pub(crate) struct Party {
    /// This party's endpoint.
    pub(crate) vmmc: Vmmc,
    /// Whether this is the party that moves first in every round.
    pub(crate) first: bool,
    mine: SimChannel<BufferName>,
    theirs: SimChannel<BufferName>,
    peer: NodeId,
}

/// The two parties of an exchange: the one that moves first as endpoint
/// `first.1` on node `first.0`, then its partner.
pub(crate) fn parties(
    system: &Arc<ShrimpSystem>,
    first: (usize, &str),
    second: (usize, &str),
) -> [Party; 2] {
    let (a_names, b_names) = (SimChannel::new(), SimChannel::new());
    let party = |(node, name), peer, first, mine: &SimChannel<_>, theirs: &SimChannel<_>| Party {
        vmmc: system.endpoint(node, name),
        first,
        mine: mine.clone(),
        theirs: theirs.clone(),
        peer: NodeId(peer),
    };
    [
        party(first, second.0, true, &a_names, &b_names),
        party(second, first.0, false, &b_names, &a_names),
    ]
}

impl Party {
    /// The set-up: export `len` bytes at `recv` under `opts`, swap names,
    /// import the partner's buffer.
    pub(crate) fn swap(&self, ctx: &Ctx, recv: (VAddr, usize), opts: ExportOpts) -> ImportHandle {
        publish(&self.vmmc, ctx, recv, opts, &self.mine);
        attach(&self.vmmc, ctx, &self.theirs, self.peer)
    }
}

/// One party of Figure 3's ping-pong: set up, then `WARMUP` untimed and
/// `ROUNDS` timed round trips of `n`-byte messages, the partners
/// differing only in who sends first. Returns the microseconds the
/// timed rounds took.
fn rally(ctx: &Ctx, party: Party, strategy: Strategy, n: usize, uncached: bool) -> f64 {
    let (vmmc, p) = (&party.vmmc, party.vmmc.proc_());
    let pages = n.div_ceil(PAGE_SIZE);
    // The exported receive buffer, and the local user buffer (payload
    // source, receiver copy target).
    let recv = p.alloc(pages * PAGE_SIZE, CacheMode::WriteBack);
    let user = p.alloc(pages * PAGE_SIZE, CacheMode::WriteBack);
    let peer = party.swap(ctx, (recv, pages * PAGE_SIZE), ExportOpts::default());
    let au_send = matches!(strategy, Strategy::Au1Copy | Strategy::Au2Copy).then(|| {
        let au = bind_au(vmmc, ctx, &peer, pages, true);
        if uncached {
            // Caching disabled on the AU region (paper's 3.7 us case).
            for i in 0..pages {
                let page = au.add(i * PAGE_SIZE).page();
                p.aspace()
                    .set_cache_mode(page, CacheMode::Uncached)
                    .unwrap();
            }
        }
        au
    });
    // Fill the payload once (applications send live buffers; the
    // per-round flag update is the only refresh, like the original
    // microbenchmark).
    let fill: Vec<u8> = (0..n).map(|i| (i % 239) as u8).collect();
    p.poke(user, &fill).unwrap();

    // The message's last word is its flag, stored last.
    let send = |seq: u32| {
        p.write_u32(ctx, user.add(n - 4), seq).unwrap();
        match au_send {
            // The copy into the AU region is the send.
            Some(au) => p.copy(ctx, user, au, n).unwrap(),
            None => vmmc.send(ctx, user, &peer, 0, n).unwrap(),
        }
    };
    let receive = |seq: u32| {
        vmmc.wait_u32(ctx, recv.add(n - 4), POLL_BUDGET, |v| v == seq)
            .unwrap();
        if matches!(strategy, Strategy::Au2Copy | Strategy::Du1Copy) {
            // Consume into user memory.
            p.copy(ctx, recv, user, n).unwrap();
        }
    };
    time_rounds(ctx, WARMUP, ROUNDS, |r| {
        if party.first {
            send(r * 2 + 1);
            receive(r * 2 + 2);
        } else {
            receive(r * 2 + 1);
            send(r * 2 + 2);
        }
    })
}

/// Run one ping-pong experiment on a fresh prototype system charging
/// `costs`; returns the measured point.
pub(crate) fn vmmc_pingpong(
    strategy: Strategy,
    size: usize,
    uncached: bool,
    costs: CostModel,
) -> Point {
    let mut config = SystemConfig::prototype();
    config.costs = costs;
    let exp = Experiment::new(config, None);
    let n = size.max(4);
    let [ping, pong] = parties(&exp.system, (0, "ping"), (1, "pong"));
    let timed = exp.spawn("ping", move |ctx| rally(ctx, ping, strategy, n, uncached));
    exp.spawn("pong", move |ctx| rally(ctx, pong, strategy, n, uncached));
    exp.run("ping-pong");
    let one_way_us = timed.take() / (2.0 * ROUNDS as f64);
    Point {
        size: n,
        latency_us: one_way_us,
        bandwidth_mbs: n as f64 / one_way_us, // bytes/us == MB/s
    }
}

/// [`vmmc_pingpong`] as the paper ran it: caching on, the prototype's
/// costs.
pub(crate) fn paper_pingpong(strategy: Strategy, size: usize) -> Point {
    vmmc_pingpong(strategy, size, false, CostModel::shrimp_prototype())
}

/// **Figure 3**: latency and bandwidth delivered by the VMMC layer for
/// AU-1copy / AU-2copy / DU-0copy / DU-1copy. `--uncached` adds the
/// caching-disabled AU case quoted in §3.4 (3.7 µs vs 4.75 µs for one
/// word).
pub(crate) fn fig3(args: &Args) -> Outcome {
    let all = sweep(&STRATEGIES, paper_pingpong);
    let mut out = String::new();
    let title = "Figure 3: VMMC base-layer latency and bandwidth";
    out += &format!("{}\n", render_figure(title, &all));

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
