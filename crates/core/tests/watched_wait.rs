//! VMMC's watched wait against the unwatched one, deadline included.
//!
//! `Vmmc::wait_u32_watched(.., Some(d))` is the bounded wait the service's
//! record stream takes (a backup's flag wait, a replicator's ack wait):
//! the deadline is checked only after each poll phase, and a phase that
//! misses arms a timer at the deadline and blocks. Watched or not, it
//! must return the same thing at the same instant, through the same
//! kernel items. The unwatched wait is written out here, from the
//! parts the library's is made of (`UserProc::poll_u32`, one timer
//! through `Ctx::schedule_at`, `Vmmc::wait_activity`), as the oracle.
//! `shrimp-sim`'s reference check and kernel property (`sched.rs`)
//! cover the kernel's streak under `run_until` deadlines; this covers
//! the VMMC timer arm.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts, ShrimpSystem, SystemConfig, Vmmc, VmmcError};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, VAddr, PAGE_SIZE};
use shrimp_sim::{Ctx, Kernel, MetricsRegistry, SimChannel, SimDur, SimTime, TraceEvent};

/// When the receiver starts its wait, long after export and import.
const WAIT_AT: SimTime = SimTime(1_000_000_000);
/// 64 polls of 250 ns: a 16 µs poll phase.
const BUDGET: usize = 64;
/// The writer stores a value the predicate refuses, then this much
/// later the one it accepts.
const GAP_US: f64 = 6.0;

/// What one wait did: its result, the instant it returned, every item
/// the kernel executed, and the engine's counts.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<u32, VmmcError>,
    returned: SimTime,
    trace: Vec<String>,
    events: u64,
    resumes: u64,
}

/// The unwatched deadline wait: poll a phase of [`BUDGET`] polls, one
/// handoff per interrupted miss; give up once a phase ends at or past
/// `deadline`; else arm one timer at the deadline (on the first miss
/// only) and block until it or a deposit wakes this process, re-checking
/// the word once registered.
fn wait_unwatched(
    rx: &Vmmc,
    ctx: &Ctx,
    va: VAddr,
    deadline: SimTime,
    pred: impl Fn(u32) -> bool + Copy,
) -> Result<u32, VmmcError> {
    let start = ctx.now();
    let mut timer = Some(deadline);
    loop {
        if let Some(v) = rx.proc_().poll_u32(ctx, va, BUDGET, pred).unwrap() {
            return Ok(v);
        }
        if ctx.now() >= deadline {
            return Err(VmmcError::Timeout {
                op: "wait_u32",
                waited: ctx.now().since(start),
            });
        }
        if let Some(d) = timer.take() {
            let (pid, h) = (ctx.pid(), ctx.handle());
            ctx.schedule_at(d, move || h.unpark(pid));
        }
        rx.wait_activity(ctx, || {
            matches!(rx.proc_().poll_u32(ctx, va, 1, pred), Ok(Some(_)))
        });
    }
}

/// Node 1 waits from [`WAIT_AT`] for its exported word to read 7, until
/// `deadline` after that; node 0 deposits 1 there by deliberate update
/// at `write_at` after `WAIT_AT − 10 µs`, then 7 [`GAP_US`] later.
fn wait_once(watched: bool, deadline: SimDur, write_at: SimDur) -> Outcome {
    let reg = MetricsRegistry::new();
    let _counted = reg.install();
    let kernel = Kernel::new();
    let trace = Arc::new(Mutex::new(Vec::new()));
    let t = Arc::clone(&trace);
    kernel.set_tracer(move |ev| {
        t.lock().push(match ev {
            TraceEvent::Event { at } => format!("event@{}", at.as_ps()),
            TraceEvent::Resume { at, process } => format!("{process}@{}", at.as_ps()),
        });
    });
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let names: SimChannel<BufferName> = SimChannel::new();
    let (rx, tx) = (system.endpoint(1, "rx"), system.endpoint(0, "tx"));
    let out = Arc::new(Mutex::new(None));
    let o = Arc::clone(&out);
    let n = names.clone();
    kernel.spawn("rx", move |ctx| {
        let buf = rx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        let name = rx.export(ctx, buf, PAGE_SIZE, ExportOpts::default());
        n.send(&ctx.handle(), name.unwrap());
        ctx.sleep_until(WAIT_AT);
        let d = WAIT_AT + deadline;
        let pred = |v| v == 7;
        let result = if watched {
            rx.wait_u32_watched(ctx, buf, BUDGET, Some(d), pred)
        } else {
            wait_unwatched(&rx, ctx, buf, d, pred)
        };
        *o.lock() = Some((result, ctx.now()));
    });
    kernel.spawn("tx", move |ctx| {
        let dst = tx.import(ctx, NodeId(1), names.recv(ctx)).unwrap();
        let src = tx.proc_().alloc(PAGE_SIZE, CacheMode::WriteBack);
        let first = WAIT_AT - SimDur::from_us(10.0) + write_at;
        for (v, at) in [(1, first), (7, first + SimDur::from_us(GAP_US))] {
            ctx.sleep_until(at);
            tx.proc_().write_u32(ctx, src, v).unwrap();
            tx.send(ctx, src, &dst, 0, 4).unwrap();
        }
    });
    kernel.run_until_quiescent().unwrap();
    assert!(system.violations().is_empty());
    let (result, returned) = out.lock().take().expect("the wait never returned");
    let counts = reg.snapshot();
    let trace = std::mem::take(&mut *trace.lock());
    Outcome {
        result,
        returned,
        trace,
        events: counts.events_executed,
        resumes: counts.resumes,
    }
}

/// The deposits sweep across a deadline 8 µs into the first poll phase
/// and one 30 µs in, past the phase, where the wait has blocked with
/// its timer armed. Every sweep point returns the same result at the
/// same instant through the same items, watched or not; and the sweep
/// reaches each outcome the deadline allows: a hit before it, a hit
/// after it inside the phase that straddles it (the deadline is checked
/// only once the phase ends), and a timeout.
#[test]
fn a_watched_deadline_wait_is_the_unwatched_one() {
    for deadline_us in [8.0, 30.0] {
        let deadline = SimDur::from_us(deadline_us);
        let d = WAIT_AT + deadline;
        let (mut before, mut after, mut timeouts) = (0, 0, 0);
        for step in 0..=24 {
            let write_at = SimDur::from_us(2.0) * step;
            let plain = wait_once(false, deadline, write_at);
            let watched = wait_once(true, deadline, write_at);
            assert_eq!(
                watched, plain,
                "deadline {deadline_us} µs, first deposit at step {step}"
            );
            match plain.result {
                Ok(7) if plain.returned < d => before += 1,
                Ok(7) => after += 1,
                Err(VmmcError::Timeout { waited, .. }) => {
                    assert_eq!(WAIT_AT + waited, plain.returned);
                    assert!(plain.returned >= d);
                    timeouts += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            before > 0 && after > 0 && timeouts > 0,
            "deadline {deadline_us} µs: {before} before, {after} after, {timeouts} timeouts"
        );
    }
}
