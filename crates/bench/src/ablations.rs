//! Ablations of the design choices DESIGN.md §5 calls out: what the
//! paper's co-design decisions are worth, measured.

use shrimp_core::{ExportOpts, SystemConfig};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, CostModel};
use shrimp_nx::{NxConfig, NxProc};
use shrimp_sim::{Ctx, SimChannel, SimDur};

use crate::harness::{time_rounds, Args, Experiment, Outcome};
use crate::nx_pingpong::{nx_rally, nx_two_ranks, NxVariant};
use crate::pingpong::{
    attach, bind_au, paper_pingpong, parties, publish, vmmc_pingpong, Party, Strategy,
};

/// A1 — combine-timeout sweep: one-word AU latency as a function of the
/// packetizer's hold window (the timer of paper §3.2).
fn combine_timeout_sweep() -> Vec<(f64, f64)> {
    [0.25, 0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .map(|us| {
            let mut costs = CostModel::shrimp_prototype();
            costs.au_combine_timeout = SimDur::from_us(us);
            let p = vmmc_pingpong(Strategy::Au1Copy, 4, false, costs);
            (us, p.latency_us)
        })
        .collect()
}

/// A2 — write combining on/off for a 64-byte message written as sixteen
/// single-word stores (the marshaling pattern combining was built for).
/// Returns `(combine, one_way_us, packets, rx_eisa_busy_us)` per case:
/// combining trades a little hold-timer latency for an order of
/// magnitude fewer packets and far less receive-bus occupancy.
fn combining_on_off() -> [(bool, f64, u64, f64); 2] {
    [true, false].map(|combine| {
        let mut config = SystemConfig::prototype();
        // A hold window longer than one word-store's cost, so the
        // combining mechanism (not the timer) is what is measured.
        config.costs.au_combine_timeout = SimDur::from_us(3.0);
        let exp = Experiment::new(config, None);
        let names = SimChannel::new();
        let (rx, rx_names) = (exp.system.endpoint(1, "rx"), names.clone());
        let landed = exp.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(4096, CacheMode::WriteBack);
            publish(&rx, ctx, (buf, 4096), ExportOpts::default(), &rx_names);
            rx.wait_u32(ctx, buf.add(60), 4096, |v| v == 0xF1A6)
                .unwrap();
            ctx.now()
        });
        let tx = exp.system.endpoint(0, "tx");
        let started = exp.spawn("tx", move |ctx| {
            let dst = attach(&tx, ctx, &names, NodeId(1));
            let au = bind_au(&tx, ctx, &dst, 1, combine);
            let t0 = ctx.now();
            // Sixteen word stores, the last one the flag.
            for w in 0..15u32 {
                tx.proc_()
                    .write_u32(ctx, au.add(w as usize * 4), w + 1)
                    .unwrap();
            }
            tx.proc_().write_u32(ctx, au.add(60), 0xF1A6).unwrap();
            t0
        });
        exp.run("combining ablation");
        let (busy, _txns, _bytes) = exp.system.node(1).eisa().stats();
        (
            combine,
            (landed.take() - started.take()).as_us(),
            exp.system.nic(0).stats().au_packets_out,
            busy.as_us(),
        )
    })
}

/// A3 — the word-alignment restriction: NX DU-1copy one-way latency for
/// an aligned vs deliberately misaligned user buffer (the unaligned one
/// falls back to the marshal-copy path; paper §6 regrets this hardware
/// restriction).
fn alignment_fallback() -> (f64, f64) {
    fn run(offset: usize) -> f64 {
        let mut config = NxConfig::paper_default();
        config.send_variant = shrimp_nx::SendVariant::DuFromUser;
        let tx = move |ctx: &Ctx, nx: &mut NxProc| {
            let p = nx.vmmc().proc_().clone();
            let buf = p.alloc_at_offset(2048, offset, CacheMode::WriteBack);
            let rbuf = p.alloc(2048, CacheMode::WriteBack);
            let one_way_us = nx_rally(ctx, nx, (buf, 1024), (rbuf, 2048), 8);
            nx.flush(ctx).unwrap();
            one_way_us
        };
        let rx = |ctx: &Ctx, nx: &mut NxProc| {
            let buf = nx.vmmc().proc_().alloc(2048, CacheMode::WriteBack);
            nx_rally(ctx, nx, (buf, 1024), (buf, 2048), 8);
            nx.flush(ctx).unwrap();
        };
        nx_two_ranks(config, tx, rx).0
    }
    (run(0), run(2))
}

/// A4 — the optimistic sender-side copy (paper footnote 1): how long a
/// blocking `csend` of a large message detains the application, with and
/// without the safe copy. Returns ((blocked_us, total_us), ...) for
/// (optimistic, non-optimistic).
fn optimistic_copy_on_off(len: usize) -> ((f64, f64), (f64, f64)) {
    fn run(optimistic: bool, len: usize) -> (f64, f64) {
        let mut config = NxConfig::paper_default();
        config.optimistic_copy = optimistic;
        let tx = move |ctx: &Ctx, nx: &mut NxProc| {
            let buf = nx.vmmc().proc_().alloc(len, CacheMode::WriteBack);
            let t0 = ctx.now();
            nx.csend(ctx, 1, buf, len, 1).unwrap();
            let blocked_us = (ctx.now() - t0).as_us(); // application blocked
            nx.flush(ctx).unwrap();
            blocked_us
        };
        // Delivery is timed from the receiver's `join` exit, so set-up
        // cost never moves it.
        let rx = move |ctx: &Ctx, nx: &mut NxProc| {
            let t0 = ctx.now();
            let buf = nx.vmmc().proc_().alloc(len, CacheMode::WriteBack);
            // The receiver is busy for a while before it posts the
            // receive — exactly when the optimistic copy pays off.
            ctx.advance(SimDur::from_us(2_000.0));
            nx.crecv(ctx, 1, buf, len).unwrap();
            (ctx.now() - t0).as_us()
        };
        nx_two_ranks(config, tx, rx)
    }
    (run(true, len), run(false, len))
}

/// A5 — separating data from control transfer: one-way latency of a
/// small transfer when every message also forces a notification
/// interrupt on the receiver (signal delivery included), against the
/// polling protocol. The gap is why the libraries avoid interrupts
/// (paper §6).
fn interrupt_per_message() -> (f64, f64) {
    // Polling baseline: the raw AU ping-pong.
    let polling = paper_pingpong(Strategy::Au1Copy, 16).latency_us;

    // Notification path: each side blocks on wait_notification and
    // answers with send_notify; one warm-up round trip, then N timed.
    const N: u32 = 8;
    let side = |ctx: &Ctx, party: Party| {
        let vmmc = &party.vmmc;
        let buf = vmmc.proc_().alloc(4096, CacheMode::WriteBack);
        let opts = ExportOpts {
            perms: Default::default(),
            handler: Some(Box::new(|_, _| {})),
            ..Default::default()
        };
        let dst = party.swap(ctx, (buf, 4096), opts);
        let src = vmmc.proc_().alloc(4096, CacheMode::WriteBack);
        let round = |_| {
            if party.first {
                vmmc.send_notify(ctx, src, &dst, 0, 16).unwrap();
                vmmc.wait_notification(ctx);
            } else {
                vmmc.wait_notification(ctx);
                vmmc.send_notify(ctx, src, &dst, 0, 16).unwrap();
            }
        };
        time_rounds(ctx, 1, N, round) / (2.0 * N as f64)
    };
    let exp = Experiment::new(SystemConfig::prototype(), None);
    let [tx, rx] = parties(&exp.system, (0, "tx"), (1, "rx"));
    exp.spawn("rx", move |ctx| side(ctx, rx));
    let with_interrupts = exp.spawn("tx", move |ctx| side(ctx, tx));
    exp.run("notification ablation");
    (polling, with_interrupts.take())
}

/// A6 — the zero-copy protocol itself: one-way latency of a 3 KB NX
/// message with the rendezvous allowed to go user-to-user, against the
/// chunked one-copy fallback (zero-copy disabled).
fn zero_copy_on_off() -> Vec<(bool, f64)> {
    let run = |allow| {
        let mut config = NxVariant::Au2Copy.config();
        config.allow_zero_copy = allow;
        let size = 3072usize;
        let rank = move |ctx: &Ctx, nx: &mut NxProc| {
            let buf = nx.vmmc().proc_().alloc(size, CacheMode::WriteBack);
            let one_way_us = nx_rally(ctx, nx, (buf, size), (buf, size), 6);
            nx.flush(ctx).unwrap();
            one_way_us
        };
        (allow, nx_two_ranks(config, rank, rank).0)
    };
    [true, false].into_iter().map(run).collect()
}

/// The ablation studies of the design choices DESIGN.md §5 calls out,
/// A1–A6.
pub fn run(_: &Args) -> Outcome {
    let mut out = String::new();
    out += "== A1: combine-timeout sweep (1-word AU latency) ==\n";
    for (timeout_us, latency_us) in combine_timeout_sweep() {
        out += &format!("  hold window {timeout_us:>5.2} us  ->  one-way {latency_us:>6.2} us\n");
    }

    out += "\n== A2: write combining on/off (64 B as 16 word stores) ==\n";
    for (combine, latency_us, packets, rx_bus_us) in combining_on_off() {
        out += &format!("  combining {combine:<5}  latency {latency_us:>6.2} us  packets {packets:>3}  rx EISA busy {rx_bus_us:>5.2} us\n");
    }

    out += "\n== A3: deliberate-update word-alignment restriction (NX DU-1copy, 1 KB) ==\n";
    let (aligned, unaligned) = alignment_fallback();
    out += &format!("  aligned buffer   {aligned:>7.2} us one-way\n");
    out += &format!("  unaligned buffer {unaligned:>7.2} us one-way (marshal-copy fallback, §6)\n");

    out += "\n== A4: optimistic safe copy (16 KB csend, receiver 2 ms late) ==\n";
    let ((ob, ot), (bb, bt)) = optimistic_copy_on_off(16 * 1024);
    out +=
        &format!("  optimistic:     sender blocked {ob:>8.1} us, delivery complete {ot:>8.1} us\n");
    out +=
        &format!("  no safe copy:   sender blocked {bb:>8.1} us, delivery complete {bt:>8.1} us\n");

    out += "\n== A5: an interrupt per message vs polling (16 B transfers) ==\n";
    let (polling, interrupts) = interrupt_per_message();
    out += &format!("  polling protocol:        {polling:>7.2} us one-way\n");
    out += &format!(
        "  notification per packet: {interrupts:>7.2} us one-way (signal delivery on the path)\n"
    );

    out += "\n== A6: zero-copy rendezvous vs chunked one-copy (3 KB NX message) ==\n";
    for (allowed, latency_us) in zero_copy_on_off() {
        out += &format!("  zero-copy {allowed:<5}  ->  {latency_us:>7.2} us one-way\n");
    }

    Outcome::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_combine_timeout_raises_small_message_latency() {
        let sweep = combine_timeout_sweep();
        assert!(sweep.windows(2).all(|w| w[1].1 >= w[0].1), "{sweep:?}");
        // The sweep spans several microseconds of the latency budget.
        assert!(sweep.last().unwrap().1 - sweep[0].1 > 2.0);
    }

    #[test]
    fn combining_collapses_word_stores_into_one_packet() {
        let [(_, _lat_on, pkts_on, bus_on), (_, _lat_off, pkts_off, bus_off)] = combining_on_off();
        assert_eq!(pkts_on, 1, "combining on: one packet");
        assert_eq!(pkts_off, 16, "combining off: a packet per word store");
        // The receive path does sixteen DMA transactions instead of one.
        assert!(
            bus_off > 1.8 * bus_on,
            "rx EISA busy without combining {bus_off:.1} us vs with {bus_on:.1} us"
        );
    }

    #[test]
    fn unaligned_buffers_pay_the_marshal_copy() {
        let (aligned, unaligned) = alignment_fallback();
        assert!(
            unaligned > aligned + 5.0,
            "unaligned {unaligned:.1} us should clearly exceed aligned {aligned:.1} us"
        );
    }

    #[test]
    fn optimistic_copy_unblocks_the_sender() {
        let ((opt_blocked, opt_total), (block_blocked, block_total)) =
            optimistic_copy_on_off(16 * 1024);
        // With the safe copy the sender resumes long before the slow
        // receiver arrives; without it the sender waits for the reply.
        assert!(
            opt_blocked < block_blocked / 2.0,
            "optimistic blocked {opt_blocked:.0} us vs blocking {block_blocked:.0} us"
        );
        // End-to-end completion is similar either way.
        let ratio = opt_total / block_total;
        assert!(
            (0.5..1.5).contains(&ratio),
            "totals {opt_total:.0} vs {block_total:.0}"
        );
    }

    #[test]
    fn interrupts_per_message_cost_an_order_of_magnitude() {
        let (polling, interrupts) = interrupt_per_message();
        assert!(
            interrupts > 3.0 * polling,
            "with interrupts {interrupts:.1} us vs polling {polling:.1} us"
        );
    }

    #[test]
    fn zero_copy_beats_chunked_fallback() {
        let sweep = zero_copy_on_off();
        let (zc, chunked) = (sweep[0].1, sweep[1].1);
        assert!(
            (zc - chunked).abs() > 5.0,
            "zero-copy {zc:.1} us vs chunked {chunked:.1} us should differ"
        );
    }
}
