//! Edge cases of the simulation kernel's scheduling semantics.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_sim::{Gate, Kernel, SimChannel, SimDur, SimTime, WaitQueue};

#[test]
fn unpark_of_terminated_process_is_harmless() {
    let kernel = Kernel::new();
    let pid = kernel.spawn("short", |_ctx| {});
    kernel.run_until_quiescent().unwrap();
    let h = kernel.handle();
    h.unpark(pid); // must not panic or resurrect the process
    kernel.run_until_quiescent().unwrap();
}

#[test]
fn schedule_at_in_the_past_clamps_to_now() {
    let kernel = Kernel::new();
    let ran_at = Arc::new(AtomicU64::new(u64::MAX));
    let h = kernel.handle();
    let r = Arc::clone(&ran_at);
    kernel.schedule_in(SimDur::from_us(10.0), move || {
        let r2 = Arc::clone(&r);
        // Deliberately in the past: must fire immediately, not never.
        h.schedule_at(SimTime::ZERO, move || {
            r2.store(0xAA, Ordering::SeqCst);
        });
    });
    let end = kernel.run_until_quiescent().unwrap();
    assert_eq!(ran_at.load(Ordering::SeqCst), 0xAA);
    assert_eq!(end.as_us(), 10.0);
}

#[test]
fn many_processes_interleave_deterministically() {
    let kernel = Kernel::new();
    let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    for i in 0..32 {
        let order = Arc::clone(&order);
        kernel.spawn(format!("p{i}"), move |ctx| {
            // All advance by the same amount: FIFO tie-break by spawn
            // order applies at every step.
            for _ in 0..3 {
                ctx.advance(SimDur::from_us(1.0));
            }
            order.lock().push(i);
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert_eq!(*order.lock(), (0..32).collect::<Vec<_>>());
}

#[test]
fn notify_all_releases_everyone_at_once() {
    let kernel = Kernel::new();
    let q = Arc::new(WaitQueue::new());
    let released = Arc::new(AtomicUsize::new(0));
    for i in 0..5 {
        let q = Arc::clone(&q);
        let released = Arc::clone(&released);
        kernel.spawn(format!("w{i}"), move |ctx| {
            q.wait(ctx);
            released.fetch_add(1, Ordering::SeqCst);
        });
    }
    let q2 = Arc::clone(&q);
    let h = kernel.handle();
    kernel.schedule_in(SimDur::from_us(3.0), move || {
        assert_eq!(q2.notify_all(&h), 5);
    });
    kernel.run_until_quiescent().unwrap();
    assert_eq!(released.load(Ordering::SeqCst), 5);
    assert!(q.is_empty());
}

#[test]
fn gate_open_is_idempotent() {
    let kernel = Kernel::new();
    let gate = Arc::new(Gate::new());
    let h = kernel.handle();
    gate.open(&h);
    gate.open(&h);
    let g = Arc::clone(&gate);
    kernel.spawn("late", move |ctx| {
        g.wait(ctx); // already open: returns immediately
        assert_eq!(ctx.now(), SimTime::ZERO);
    });
    kernel.run_until_quiescent().unwrap();
}

#[test]
fn channel_interleaves_multiple_producers_in_virtual_time_order() {
    let kernel = Kernel::new();
    let ch: SimChannel<(usize, u64)> = SimChannel::new();
    for i in 0..3 {
        let ch = ch.clone();
        kernel.spawn(format!("producer{i}"), move |ctx| {
            for k in 0..4u64 {
                // Distinct, interleaved timestamps per producer.
                ctx.advance(SimDur::from_us((k * 3 + i as u64 + 1) as f64));
                ch.send(&ctx.handle(), (i, ctx.now().as_ps()));
            }
        });
    }
    let got: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let ch = ch.clone();
        let got = Arc::clone(&got);
        kernel.spawn("consumer", move |ctx| {
            for _ in 0..12 {
                got.lock().push(ch.recv(ctx));
            }
        });
    }
    kernel.run_until_quiescent().unwrap();
    let got = got.lock();
    assert_eq!(got.len(), 12);
    // Deliveries are globally ordered by send time.
    assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
}

#[test]
fn run_until_can_be_resumed_repeatedly() {
    let kernel = Kernel::new();
    let count = Arc::new(AtomicUsize::new(0));
    for i in 1..=10 {
        let c = Arc::clone(&count);
        kernel.schedule_in(SimDur::from_us(i as f64), move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
    }
    for stop in [2.5, 5.5, 20.0] {
        kernel
            .run_until(SimTime::ZERO + SimDur::from_us(stop))
            .unwrap();
    }
    assert_eq!(count.load(Ordering::SeqCst), 10);
}

#[test]
fn tracer_observes_events_and_resumes() {
    use shrimp_sim::TraceEvent;
    let kernel = Kernel::new();
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let log = Arc::clone(&log);
        kernel.set_tracer(move |ev| {
            log.lock().push(match ev {
                TraceEvent::Event { at } => format!("event@{}", at.as_us()),
                TraceEvent::Resume { at, process } => format!("{process}@{}", at.as_us()),
            });
        });
    }
    kernel.spawn("worker", |ctx| ctx.advance(SimDur::from_us(2.0)));
    kernel.schedule_in(SimDur::from_us(1.0), || {});
    kernel.run_until_quiescent().unwrap();
    let log = log.lock();
    assert_eq!(
        *log,
        vec![
            "worker@0".to_string(),
            "event@1".to_string(),
            "worker@2".to_string()
        ]
    );
}

/// Sixteen parkers and sixteen steppers, spawned in pairs: stepper `e`
/// is staggered by `e + 1` ns, then takes `rounds` steps of 16 ns and
/// wakes its parker after each. Another process's resume is always
/// queued before a step's landing instant (the idle horizon takes no
/// step in place), and a wake is queued before its stepper's next step,
/// so no resume — spawn, step or wake — is a process popping its own:
/// each is a token handoff to another thread.
fn handoff_storm(rounds: u64) -> (Vec<String>, shrimp_sim::MetricsSnapshot) {
    use shrimp_sim::{MetricsRegistry, TraceEvent};
    let reg = MetricsRegistry::new();
    let guard = reg.install();
    let kernel = Kernel::new();
    drop(guard);
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let log = Arc::clone(&log);
        kernel.set_tracer(move |ev| {
            log.lock().push(match ev {
                TraceEvent::Event { at } => format!("event@{}", at.as_ps()),
                TraceEvent::Resume { at, process } => format!("{process}@{}", at.as_ps()),
            });
        });
    }
    for e in 0..16u64 {
        let parker = kernel.spawn(format!("park{e}"), move |ctx| {
            for _ in 0..rounds {
                ctx.park();
            }
        });
        kernel.spawn(format!("step{e}"), move |ctx| {
            ctx.advance(SimDur::from_ns((e + 1) as f64));
            for _ in 0..rounds {
                ctx.advance(SimDur::from_ns(16.0));
                ctx.unpark(parker);
            }
        });
    }
    kernel.run_until_quiescent().unwrap();
    assert!(kernel.parked_processes().is_empty());
    let log = log.lock().clone();
    (log, reg.snapshot())
}

#[test]
fn a_handoff_storm_hands_every_resume_across_threads_and_replays() {
    let rounds = 8;
    let (first, m) = handoff_storm(rounds);
    let (second, again) = handoff_storm(rounds);
    assert_eq!(first, second);
    assert_eq!(m, again);
    // Per pair: two spawn resumes, the stagger step, `rounds` steps and
    // `rounds` wakes.
    let handoffs = 16 * (3 + 2 * rounds);
    assert_eq!(m.resumes - m.fast_resumes, handoffs);
    assert_eq!((m.fast_resumes, m.events_executed), (0, 0));
    assert_eq!(first.len() as u64, handoffs);
    // A wake runs at its stepper's instant, right after the step.
    let step3 = (3 + 1 + 16 * 2) * 1_000;
    let i = first
        .iter()
        .position(|l| *l == format!("step3@{step3}"))
        .unwrap();
    assert_eq!(first[i + 1], format!("park3@{step3}"));
}

#[test]
fn dropping_a_stopped_kernel_unwinds_and_joins_every_thread() {
    let held = Arc::new(());
    let kernel = Kernel::new();
    for i in 0..16 {
        let parked = Arc::clone(&held);
        kernel.spawn(format!("parked{i}"), move |ctx| {
            let _held = parked;
            ctx.park();
            unreachable!("nobody unparks");
        });
        let stepping = Arc::clone(&held);
        kernel.spawn(format!("stepping{i}"), move |ctx| {
            let _held = stepping;
            loop {
                ctx.advance(SimDur::from_us((i + 1) as f64));
            }
        });
    }
    let stop = SimTime::ZERO + SimDur::from_us(100.0);
    assert_eq!(kernel.run_until(stop).unwrap(), stop);
    assert_eq!(kernel.parked_processes().len(), 16);
    assert_eq!(Arc::strong_count(&held), 33);
    drop(kernel);
    assert_eq!(Arc::strong_count(&held), 1);
}
