//! Model test for the idle-horizon fast path.
//!
//! Random mixes of events, stepping processes and `run_until` deadlines
//! run on the real kernel twice — once stepping through
//! `Ctx::advance_repeat`, once through a loop of plain `Ctx::advance` —
//! and once on `model`, a single-threaded reference that pushes every
//! step through a `(time, seq)`-ordered queue and never takes one in
//! place. All three must agree on the executed item trace, the engine
//! counters and the final clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use shrimp_sim::{Kernel, MetricsRegistry, MetricsSnapshot, SimDur, SimTime, TraceEvent};

/// Times are small multiples of one unit so that steps, events and
/// deadlines collide on the same instant often.
const UNIT_PS: u64 = 100;

#[derive(Debug, Clone)]
enum Op {
    /// `n` consecutive steps of `d` units.
    Steps { d: u64, n: u64 },
    /// Schedule a no-op event `delay` units from now.
    Schedule { delay: u64 },
}

#[derive(Debug, Clone)]
struct Scenario {
    /// Event times in units, scheduled before any process is spawned.
    events: Vec<u64>,
    procs: Vec<Vec<Op>>,
    /// `run_until` deadlines in units, ascending; a quiescent run follows.
    deadlines: Vec<u64>,
}

#[derive(Debug, PartialEq)]
struct Outcome {
    trace: Vec<String>,
    metrics: MetricsSnapshot,
    end_ps: u64,
}

/// Two steppings for every scheduled event.
fn op() -> impl Strategy<Value = Op> {
    (0u8..3, 0u64..6, 0u64..12, 0u64..20).prop_map(|(kind, d, n, delay)| match kind {
        0 => Op::Schedule { delay },
        _ => Op::Steps { d, n },
    })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec(0u64..80, 0..10),
        proptest::collection::vec(proptest::collection::vec(op(), 0..6), 1..4),
        proptest::collection::vec(0u64..90, 0..4),
    )
        .prop_map(|(events, procs, mut deadlines)| {
            deadlines.sort_unstable();
            Scenario {
                events,
                procs,
                deadlines,
            }
        })
}

fn units(n: u64) -> SimDur {
    SimDur::from_ps(n * UNIT_PS)
}

fn run_kernel(sc: &Scenario, repeat: bool) -> Outcome {
    let reg = MetricsRegistry::new();
    let _installed = reg.install();
    let kernel = Kernel::new();
    let trace = Arc::new(Mutex::new(Vec::new()));
    let t = Arc::clone(&trace);
    kernel.set_tracer(move |ev| {
        t.lock().push(match ev {
            TraceEvent::Event { at } => format!("event@{}", at.as_ps()),
            TraceEvent::Resume { at, process } => format!("{process}@{}", at.as_ps()),
        });
    });
    for &at in &sc.events {
        kernel.schedule_in(units(at), || {});
    }
    for (i, script) in sc.procs.iter().enumerate() {
        let script = script.clone();
        kernel.spawn(format!("p{i}"), move |ctx| {
            for op in script {
                match op {
                    Op::Steps { d, n } if repeat => {
                        let mut left = n;
                        while left > 0 {
                            let took = ctx.advance_repeat(units(d), left);
                            assert!((1..=left).contains(&took));
                            left -= took;
                        }
                    }
                    Op::Steps { d, n } => (0..n).for_each(|_| ctx.advance(units(d))),
                    Op::Schedule { delay } => ctx.schedule_in(units(delay), || {}),
                }
            }
        });
    }
    for &deadline in &sc.deadlines {
        kernel.run_until(SimTime::ZERO + units(deadline)).unwrap();
    }
    let end_ps = kernel.run_until_quiescent().unwrap().as_ps();
    let trace = trace.lock().clone();
    Outcome {
        trace,
        metrics: reg.snapshot(),
        end_ps,
    }
}

/// The reference: one thread, one queue, every step pushed and popped.
/// `holder` is the actor holding the dispatch token (`None` = the
/// kernel thread), which decides whether a resume counts as in-place
/// and an event as batched.
fn model(sc: &Scenario) -> Outcome {
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Item {
        Event,
        Resume(usize),
    }
    struct Proc {
        ops: std::vec::IntoIter<Op>,
        /// The `Steps` being worked through: step length, steps left.
        stepping: (u64, u64),
    }

    let mut queue: BinaryHeap<Reverse<(u64, u64, Item)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut push = |queue: &mut BinaryHeap<_>, at: u64, item: Item| {
        queue.push(Reverse((at, seq, item)));
        seq += 1;
    };
    for &at in &sc.events {
        push(&mut queue, at, Item::Event);
    }
    let mut procs: Vec<Proc> = Vec::new();
    for (pid, script) in sc.procs.iter().enumerate() {
        procs.push(Proc {
            ops: script.clone().into_iter(),
            stepping: (0, 0),
        });
        push(&mut queue, 0, Item::Resume(pid));
    }

    let mut out = Outcome {
        trace: Vec::new(),
        metrics: MetricsSnapshot::default(),
        end_ps: 0,
    };
    let mut now = 0u64;
    let mut holder: Option<usize> = None;
    let runs = sc.deadlines.iter().copied().chain([u64::MAX]);
    for deadline in runs {
        while let Some(&Reverse((at, _, item))) = queue.peek() {
            if at > deadline {
                break;
            }
            queue.pop();
            now = at;
            match item {
                Item::Event => {
                    out.trace.push(format!("event@{}", at * UNIT_PS));
                    out.metrics.events_executed += 1;
                    out.metrics.batched_events += u64::from(holder.is_some());
                }
                Item::Resume(pid) => {
                    out.trace.push(format!("p{pid}@{}", at * UNIT_PS));
                    out.metrics.resumes += 1;
                    out.metrics.fast_resumes += u64::from(holder == Some(pid));
                    holder = Some(pid);
                    // Run the body up to its next step.
                    let p = &mut procs[pid];
                    loop {
                        if p.stepping.1 > 0 {
                            p.stepping.1 -= 1;
                            push(&mut queue, now + p.stepping.0, Item::Resume(pid));
                            break;
                        }
                        match p.ops.next() {
                            Some(Op::Steps { d, n }) => p.stepping = (d, n),
                            Some(Op::Schedule { delay }) => {
                                push(&mut queue, now + delay, Item::Event);
                            }
                            // Body returned: the kernel thread joins it.
                            None => {
                                holder = None;
                                break;
                            }
                        }
                    }
                }
            }
        }
        // End of run: the token is back with the kernel thread, and the
        // clock reads the deadline unless the queue drained first.
        holder = None;
        if !queue.is_empty() {
            now = now.max(deadline);
        }
    }
    out.end_ps = now * UNIT_PS;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn repeat_and_plain_advance_match_the_queue_model(sc in scenario()) {
        let expect = model(&sc);
        let repeat = run_kernel(&sc, true);
        let plain = run_kernel(&sc, false);
        prop_assert_eq!(&repeat, &plain);
        prop_assert_eq!(&repeat, &expect);
    }
}

#[test]
fn model_agrees_on_a_fixed_collision_heavy_case() {
    // Hand-picked so that steps land exactly on events, on each other
    // and on deadlines, including zero-length steps.
    let sc = Scenario {
        events: vec![3, 3, 6, 0, 12],
        procs: vec![
            vec![
                Op::Steps { d: 1, n: 7 },
                Op::Schedule { delay: 0 },
                Op::Steps { d: 0, n: 3 },
            ],
            vec![Op::Steps { d: 3, n: 4 }, Op::Schedule { delay: 2 }],
            vec![],
        ],
        deadlines: vec![0, 3, 3, 7],
    };
    let expect = model(&sc);
    assert_eq!(run_kernel(&sc, true), expect);
    assert_eq!(run_kernel(&sc, false), expect);
    assert!(expect.metrics.fast_resumes > 0 && expect.metrics.batched_events > 0);
}
