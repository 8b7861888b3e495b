//! Golden-trace determinism guard for the simulation engine.
//!
//! Hashes the kernel's full scheduled-item trace (every executed event
//! and process resume, with its virtual timestamp) over two workloads —
//! one on the bare VMMC layer, one through the collective layer — and
//! checks each hash against its own committed golden value, so a
//! deliberate protocol change in one layer cannot hide a regression in
//! the other.
//!
//! This is the pre/post guard for engine work (zero-copy payload path,
//! event-kernel fast paths): any change that shifts a single virtual
//! timestamp, reorders two same-time items, or adds/drops a scheduled
//! item changes a hash and fails here. The VMMC constant is the
//! pre-overhaul engine's trace, so passing proves bit-identical virtual
//! behaviour across every change since. Wall-clock-only changes keep
//! both green by construction.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp::coll::{CollConfig, CollWorld, ReduceOp};
use shrimp::prelude::*;
use shrimp::sim::TraceEvent;
use shrimp::vmmc::{BufferName, ExportOpts};

/// Trace hashes of the two phases. Do not update either constant for
/// engine-side changes — a mismatch there is a determinism regression.
/// Update one (in its own commit, with an explanation) only when a
/// *modelled* behaviour of its layer legitimately changes: costs,
/// protocol structure, workload.
///
/// The VMMC phase's trace is the one the pre-overhaul engine (PR 2 head)
/// produced; until PR 18 it was pinned only folded with the collective
/// phase's into [`FOLDED_GOLDEN_BEFORE_PR18`], which
/// `split_goldens_fold_to_the_constant_they_replaced` re-derives from it.
const GOLDEN_VMMC_TRACE_HASH: u64 = 0x8bee_fcc2_69f2_3a4d;

/// Re-pinned in PR 18 (was [`COLL_TRACE_HASH_BEFORE_PR18`], also since
/// PR 2): `shrimp-coll` channels moved from deliberate-update flag and
/// ack sends to the paper's two-path protocol — flags, acks and payloads
/// of at most `EAGER_BYTES` are stores into an automatic-update control
/// page, deliberate update carries bulk payloads only — so every
/// collective's schedule changed (the phase's barriers 25.9 → 8.9 µs).
/// Re-pinned in PR 25 (was `0xdbf5_f9e4_0af2_78ad`): only a payload is
/// acked, so an empty chunk — every barrier edge — is one flag packet
/// and no ack (the phase's barriers 8.9 → 7.0 µs).
/// Re-pinned (was `0xe8a3_9a9a_6548_dd03`) when the chunk engine began
/// to post a bulk chunk as a non-blocking deliberate update and flag it
/// after `send_wait`, consuming the previous chunk in between: the
/// phase's 8 KiB recursive-doubling rounds are four chunks each, so
/// their instants move; its barriers and 64 B rounds do not.
/// Re-pinned (was `0x59b4_5ce5_3525_fcf5`) when a bulk chunk began to
/// leave by both send paths — a deliberate-update tail, and a head the
/// CPU stores through an automatic-update mirror of the peer's data
/// slots while the tail's DMA runs: every 8 KiB round's chunks are
/// 1 280 B heads and 768 B tails now, so their instants move; the
/// barriers and 64 B rounds (eager chunks) do not.
/// Re-pinned (was `0xe3c9_6342_988f_acdb`) when the ack of a transfer's
/// last consume began to be owed to the rank's next flag wait, stored
/// before its first poll or before the call returns, instead of right
/// after the combine: every recursive-doubling round's ack now leaves
/// behind the next round's payload and flag, so the 64 B and 8 KiB
/// rounds move; the barriers (empty chunks, never acked) do not.
const GOLDEN_COLL_TRACE_HASH: u64 = 0x2d20_6ef0_3327_65ab;

/// What the single golden constant was (PR 2 to PR 17): FNV-1a over the
/// VMMC phase's hash, then the collective phase's.
const FOLDED_GOLDEN_BEFORE_PR18: u64 = 0x7d86_e013_e88f_23dc;
const COLL_TRACE_HASH_BEFORE_PR18: u64 = 0xe918_fb6f_756a_c70b;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn install_trace_hash(kernel: &Kernel) -> Arc<Mutex<u64>> {
    let hash = Arc::new(Mutex::new(FNV_OFFSET));
    let h = Arc::clone(&hash);
    kernel.set_tracer(move |ev| {
        let mut acc = h.lock();
        match ev {
            TraceEvent::Event { at } => {
                fnv1a(&mut acc, &[1]);
                fnv1a(&mut acc, &at.as_ps().to_le_bytes());
            }
            TraceEvent::Resume { at, process } => {
                fnv1a(&mut acc, &[2]);
                fnv1a(&mut acc, &at.as_ps().to_le_bytes());
                fnv1a(&mut acc, process.as_bytes());
            }
        }
    });
    hash
}

/// Phase A: deliberate update, notifications, and automatic update
/// between two endpoint pairs on the 4-node prototype.
fn run_vmmc_phase() -> u64 {
    let kernel = Kernel::new();
    let hash = install_trace_hash(&kernel);
    let system = shrimp::vmmc::ShrimpSystem::build(&kernel, SystemConfig::prototype());

    let names: SimChannel<BufferName> = SimChannel::new();

    // Receiver on node 1: exports a 2-page buffer with a notification
    // handler, then waits for the sender's flag word.
    {
        let vmmc = system.endpoint(1, "rx");
        let rx_names = names.clone();
        kernel.spawn("rx", move |ctx| {
            let buf = vmmc.proc_().alloc(2 * 4096, CacheMode::WriteBack);
            let notified = Arc::new(Mutex::new(0u32));
            let n2 = Arc::clone(&notified);
            let name = vmmc
                .export(
                    ctx,
                    buf,
                    2 * 4096,
                    ExportOpts {
                        handler: Some(Box::new(move |_ctx, _ev| *n2.lock() += 1)),
                        ..Default::default()
                    },
                )
                .unwrap();
            rx_names.send(&ctx.handle(), name);
            // Flag word at offset 4096+512: last word the sender writes.
            let v = vmmc
                .wait_u32(ctx, buf.add(4096 + 512), 16, |v| v == 0xfeed_beef)
                .unwrap();
            assert_eq!(v, 0xfeed_beef);
            vmmc.wait_notification(ctx);
            assert!(*notified.lock() >= 1);
        });
    }

    // Sender on node 0: imports, streams a deliberate update, then an
    // automatic-update binding with combining, then the notify flag.
    {
        let vmmc = system.endpoint(0, "tx");
        let tx_names = names.clone();
        kernel.spawn("tx", move |ctx| {
            let name = tx_names.recv(ctx);
            let handle = vmmc.import(ctx, NodeId(1), name).unwrap();
            let src = vmmc.proc_().alloc(2 * 4096, CacheMode::WriteBack);
            let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
            vmmc.proc_().poke(src, &payload).unwrap();
            vmmc.send(ctx, src, &handle, 0, 4096).unwrap();

            // One page of automatic update with combining.
            let au_va = vmmc.proc_().alloc(4096, CacheMode::WriteBack);
            let binding = vmmc
                .bind_au(ctx, au_va, &handle, 4096, 1, true, false)
                .unwrap();
            let p = vmmc.proc_().clone();
            p.write(ctx, au_va, &[0xA5u8; 256]).unwrap();
            p.write(ctx, au_va.add(256), &[0x5Au8; 256]).unwrap();
            vmmc.unbind_au(ctx, binding);

            // Notify flag via deliberate update (sender interrupt).
            p.poke(src, &0xfeed_beefu32.to_le_bytes()).unwrap();
            vmmc.send_notify(ctx, src, &handle, 4096 + 512, 4).unwrap();
        });
    }

    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
    let v = *hash.lock();
    v
}

/// Phase B: collective layer on all four prototype nodes — barrier plus
/// two allreduce rounds at two sizes. With four ranks the selector's
/// `n <= 4` rule picks recursive doubling for both; the larger
/// communicators' picks are pinned by `tests/coll_selector.rs`.
fn run_coll_phase() -> u64 {
    let kernel = Kernel::new();
    let hash = install_trace_hash(&kernel);
    let system = shrimp::vmmc::ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let n = system.len();
    let world = CollWorld::new(Arc::clone(&system), CollConfig::default(), (0..n).collect());

    for rank in 0..n {
        let world = Arc::clone(&world);
        kernel.spawn(format!("rank{rank}"), move |ctx| {
            let mut comm = world.join(ctx, rank);
            let p = comm.vmmc().proc_().clone();
            let buf = p.alloc(8192, CacheMode::WriteBack);
            comm.barrier(ctx).unwrap();
            for &bytes in &[64usize, 8192] {
                let count = bytes / 8;
                let lanes: Vec<u8> = (0..count)
                    .flat_map(|i| ((rank + i) as i64).to_le_bytes())
                    .collect();
                for _ in 0..2 {
                    p.poke(buf, &lanes).unwrap();
                    comm.allreduce(ctx, buf, count, ReduceOp::SumI64).unwrap();
                }
            }
            comm.barrier(ctx).unwrap();
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
    let v = *hash.lock();
    v
}

/// `[VMMC phase, collective phase]`.
const GOLDEN: [u64; 2] = [GOLDEN_VMMC_TRACE_HASH, GOLDEN_COLL_TRACE_HASH];

fn phase_trace_hashes() -> [u64; 2] {
    [run_vmmc_phase(), run_coll_phase()]
}

#[test]
fn sim_determinism_golden() {
    let first = phase_trace_hashes();
    let second = phase_trace_hashes();
    assert_eq!(
        first, second,
        "same-build replay must produce an identical scheduled-item trace"
    );
    assert_eq!(
        first, GOLDEN,
        "a phase's trace hash diverged from its committed golden value: \
         virtual timestamps or event order changed (hashes {first:#018x?})"
    );
}

/// The split lost nothing: the VMMC constant, folded with the collective
/// phase's hash as it was before PR 18 the way the single-constant test
/// folded them, is the constant that test pinned. So the VMMC phase's
/// trace is provably the one guarded since PR 2, not a value recorded
/// after the fact.
#[test]
fn split_goldens_fold_to_the_constant_they_replaced() {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &GOLDEN_VMMC_TRACE_HASH.to_le_bytes());
    fnv1a(&mut h, &COLL_TRACE_HASH_BEFORE_PR18.to_le_bytes());
    assert_eq!(h, FOLDED_GOLDEN_BEFORE_PR18, "folded {h:#018x}");
}

/// Observability must be passive: running the same workload with a
/// `shrimp-obs` recorder installed (spans recorded at every layer)
/// must leave every scheduled item and virtual timestamp untouched —
/// the same golden hashes — while actually collecting spans.
#[test]
fn sim_determinism_golden_with_recorder_installed() {
    let rec = shrimp::obs::Recorder::new();
    let hashes = {
        let _g = rec.install();
        phase_trace_hashes()
    };
    assert_eq!(
        hashes, GOLDEN,
        "an installed recorder perturbed the virtual trace (hashes {hashes:#018x?})"
    );
    assert!(
        !rec.is_empty(),
        "the recorder must have observed the workload's spans"
    );
    let spans = rec.spans();
    assert!(
        shrimp::obs::breakdown::message_ids(&spans)
            .iter()
            .all(|&m| shrimp::obs::breakdown(&spans, m).unwrap().is_conserved()),
        "every observed message must conserve its latency"
    );
}
