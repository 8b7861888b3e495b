//! The idle-horizon fast-forward must be invisible on both clocks'
//! *counts*: one 64 KiB deliberate update streamed to a receiver that
//! polls the last word lands at the same virtual instant, through the
//! same number of executed items, as it did when every poll miss was a
//! heap push and pop. The constants were recorded on the commit before
//! the fast-forward (PR 11, `bd4d79c`); only host time may differ.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp::prelude::*;
use shrimp::sim::MetricsRegistry;
use shrimp::vmmc::BufferName;

const LEN: usize = 64 * 1024;
const FLAG: u32 = 0x5348_524d;

/// Virtual instant at which the receiver's poll returns (2.87 ms: one
/// 64 KiB transfer at the prototype's deliberate-update bandwidth).
const SEEN_AT_PS: u64 = 2_870_035_000;
/// The lone-waiter shape the fast-forward is for: nearly every resume
/// is the receiver's own.
const RESUMES: u64 = 11_344;
const FAST_RESUMES: u64 = 11_301;
const EVENTS_EXECUTED: u64 = 176;

#[test]
fn bulk_deposit_to_a_polling_receiver_keeps_its_instant_and_counts() {
    let reg = MetricsRegistry::new();
    let _installed = reg.install();
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let names: SimChannel<BufferName> = SimChannel::new();
    let seen_at = Arc::new(Mutex::new(None));

    {
        let rx = system.endpoint(1, "rx");
        let names = names.clone();
        let seen_at = Arc::clone(&seen_at);
        kernel.spawn("rx", move |ctx| {
            let buf = rx.proc_().alloc(LEN, CacheMode::WriteBack);
            let name = rx.export(ctx, buf, LEN, ExportOpts::default()).unwrap();
            names.send(&ctx.handle(), name);
            // The paper's receive: spin on the word written last.
            let v = rx
                .proc_()
                .poll_u32(ctx, buf.add(LEN - 4), 1_000_000, |v| v == FLAG)
                .unwrap();
            assert_eq!(v, Some(FLAG));
            *seen_at.lock() = Some(ctx.now());
            // Data before control: the payload is all there.
            let got = rx.proc_().peek(buf, LEN - 4).unwrap();
            assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
        });
    }
    {
        let tx = system.endpoint(0, "tx");
        kernel.spawn("tx", move |ctx| {
            let dst = tx.import(ctx, NodeId(1), names.recv(ctx)).unwrap();
            let src = tx.proc_().alloc(LEN, CacheMode::WriteBack);
            let payload: Vec<u8> = (0..LEN - 4).map(|i| (i % 251) as u8).collect();
            tx.proc_().poke(src, &payload).unwrap();
            tx.proc_()
                .poke(src.add(LEN - 4), &FLAG.to_le_bytes())
                .unwrap();
            tx.send(ctx, src, &dst, 0, LEN).unwrap();
        });
    }
    let end = kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());

    let m = reg.snapshot();
    assert_eq!(*seen_at.lock(), Some(SimTime(SEEN_AT_PS)));
    // The receiver is the last thing to run.
    assert_eq!(end, SimTime(SEEN_AT_PS));
    assert_eq!(
        (m.resumes, m.fast_resumes, m.events_executed),
        (RESUMES, FAST_RESUMES, EVENTS_EXECUTED)
    );
}
