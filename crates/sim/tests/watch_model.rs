//! Model test for the watched poll streak.
//!
//! Random schedules of word writes run on the real kernel twice: once
//! with every poll loop charging its misses through
//! `Ctx::advance_watched`, once through the `Ctx::advance_repeat` loop it
//! replaces (`UserProc::poll_u32`'s shape). Writes come from events
//! scheduled up front, from events that writer processes schedule as
//! they go (so a write at a step's instant may sit before or after the
//! step in the queue), from writer processes' own bodies, and from the
//! harness between `run_until` calls; steps, writes and deadlines share
//! a coarse time grid, and up to five pollers step mostly by one or two
//! units, so their streaks interleave and share instants (a dispatcher
//! takes such steps one after another at the heap top, probing the word
//! only when something that may write it came since the last read).
//! Both runs must agree on every poll's return instant,
//! steps taken and value seen, on the executed-item trace, on the
//! `events` / `resumes` counts and on the final clock. Only the handoff
//! counters may differ.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use shrimp_sim::{Kernel, MetricsRegistry, Probe, SimDur, SimTime, TraceEvent};

/// Times are small multiples of one unit so that steps, writes and
/// deadlines land on the same instant often.
const UNIT_PS: u64 = 100;
/// Words the writers write and the pollers watch.
const WORDS: usize = 2;

#[derive(Debug, Clone)]
struct Poll {
    word: usize,
    /// Poll step in units.
    gap: u64,
    budget: u64,
    /// The predicate: the word reads at least this.
    goal: u32,
}

#[derive(Debug, Clone)]
enum WriterOp {
    Advance(u64),
    /// Store now, from this process's body.
    Store {
        word: usize,
        value: u32,
    },
    /// Schedule an event that stores `delay` units from now.
    Later {
        delay: u64,
        word: usize,
        value: u32,
    },
}

#[derive(Debug, Clone)]
struct Scenario {
    /// `(at, word, value)` store events scheduled before any spawn.
    writes: Vec<(u64, usize, u32)>,
    /// Each poller runs its polls in order.
    pollers: Vec<Vec<Poll>>,
    writers: Vec<Vec<WriterOp>>,
    /// `run_until` deadlines in units, ascending, each with the store
    /// `(word, value)` the harness makes once that run returns; a
    /// quiescent run follows.
    deadlines: Vec<(u64, Option<(usize, u32)>)>,
}

/// What one poll returned: instant, steps charged, value that held.
type PollResult = (u64, u64, Option<u32>);

#[derive(Debug, PartialEq)]
struct Outcome {
    polls: Vec<Vec<PollResult>>,
    trace: Vec<String>,
    events: u64,
    resumes: u64,
    end_ps: u64,
}

fn poll() -> impl Strategy<Value = Poll> {
    // Mostly one- and two-unit gaps, so that streaks share instants.
    let gap = prop_oneof![1u64..3, 1u64..3, 1u64..3, 0u64..5];
    (0..WORDS, gap, 0u64..24, 0u32..6).prop_map(|(word, gap, budget, goal)| Poll {
        word,
        gap,
        budget,
        goal,
    })
}

fn writer_op() -> impl Strategy<Value = WriterOp> {
    (0u8..3, 0u64..12, 0..WORDS, 0u32..6).prop_map(|(kind, n, word, value)| match kind {
        0 => WriterOp::Advance(n),
        1 => WriterOp::Store { word, value },
        _ => WriterOp::Later {
            delay: n,
            word,
            value,
        },
    })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        proptest::collection::vec((0u64..60, 0..WORDS, 0u32..6), 0..10),
        proptest::collection::vec(proptest::collection::vec(poll(), 1..5), 1..6),
        proptest::collection::vec(proptest::collection::vec(writer_op(), 0..8), 0..3),
        proptest::collection::vec((0u64..70, any::<bool>(), 0..WORDS, 0u32..6), 0..4),
    )
        .prop_map(|(writes, pollers, writers, deadlines)| {
            let mut deadlines: Vec<_> = deadlines
                .into_iter()
                .map(|(at, store, word, value)| (at, store.then_some((word, value))))
                .collect();
            deadlines.sort_unstable_by_key(|&(at, _)| at);
            Scenario {
                writes,
                pollers,
                writers,
                deadlines,
            }
        })
}

fn units(n: u64) -> SimDur {
    SimDur::from_ps(n * UNIT_PS)
}

fn store_later(words: &Arc<[AtomicU32; WORDS]>, word: usize, value: u32) -> impl FnOnce() {
    let words = Arc::clone(words);
    move || words[word].store(value, Ordering::SeqCst)
}

fn run(sc: &Scenario, watched: bool) -> Outcome {
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
    let words: Arc<[AtomicU32; WORDS]> = Arc::new([AtomicU32::new(0), AtomicU32::new(0)]);
    for &(at, word, value) in &sc.writes {
        kernel.schedule_in(units(at), store_later(&words, word, value));
    }
    let polls = Arc::new(Mutex::new(vec![Vec::new(); sc.pollers.len()]));
    for (i, script) in sc.pollers.iter().enumerate() {
        let (script, words, polls) = (script.clone(), Arc::clone(&words), Arc::clone(&polls));
        kernel.spawn(format!("poller{i}"), move |ctx| {
            // One reader of both words, as a node builds one for its DRAM.
            let probe: Probe = Arc::new(move |word| words[word as usize].load(Ordering::SeqCst));
            for p in script {
                // `UserProc::poll_u32`'s loop, with a one-unit load.
                let (mut left, mut steps, mut hit) = (p.budget, 0, None);
                while left > 0 {
                    let v = probe(p.word as u64);
                    if v >= p.goal {
                        ctx.advance(units(1));
                        hit = Some(v);
                        break;
                    }
                    let took = if watched {
                        ctx.advance_watched(units(p.gap), left, &probe, p.word as u64, v)
                    } else {
                        ctx.advance_repeat(units(p.gap), left)
                    };
                    assert!((1..=left).contains(&took));
                    left -= took;
                    steps += took;
                }
                polls.lock()[i].push((ctx.now().as_ps(), steps, hit));
            }
        });
    }
    for (i, script) in sc.writers.iter().enumerate() {
        let (script, words) = (script.clone(), Arc::clone(&words));
        kernel.spawn(format!("writer{i}"), move |ctx| {
            for op in script {
                match op {
                    WriterOp::Advance(n) => ctx.advance(units(n)),
                    WriterOp::Store { word, value } => words[word].store(value, Ordering::SeqCst),
                    WriterOp::Later { delay, word, value } => {
                        ctx.schedule_in(units(delay), store_later(&words, word, value))
                    }
                }
            }
        });
    }
    for &(deadline, store) in &sc.deadlines {
        kernel.run_until(SimTime::ZERO + units(deadline)).unwrap();
        if let Some((word, value)) = store {
            words[word].store(value, Ordering::SeqCst);
        }
    }
    let end_ps = kernel.run_until_quiescent().unwrap().as_ps();
    let m = reg.snapshot();
    let polls = polls.lock().clone();
    let trace = trace.lock().clone();
    Outcome {
        polls,
        trace,
        events: m.events_executed,
        resumes: m.resumes,
        end_ps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_watched_streak_matches_its_repeat_loop(sc in scenario()) {
        let watched = run(&sc, true);
        let repeat = run(&sc, false);
        prop_assert_eq!(watched, repeat);
    }
}

/// The shapes the random schedules must reach, pinned: one write at a
/// step's instant scheduled before the poll (it runs first, so that
/// step sees it), one scheduled by a writer after the step was queued
/// (the step runs first and misses it), a write between steps, and a
/// deadline inside the streak.
#[test]
fn ties_both_ways_and_a_deadline_inside_a_streak() {
    let poll = |goal| Poll {
        word: 0,
        gap: 2,
        budget: 20,
        goal,
    };
    let sc = Scenario {
        // At a step instant of the first poll (t = 6), queued first.
        writes: vec![(6, 0, 1), (13, 0, 3)],
        pollers: vec![vec![poll(1), poll(2), poll(3)]],
        // Queued at t = 10 for t = 11, behind the poll's step at 11
        // (queued at 9).
        writers: vec![vec![
            WriterOp::Advance(10),
            WriterOp::Later {
                delay: 1,
                word: 0,
                value: 2,
            },
        ]],
        deadlines: vec![(4, None), (12, None)],
    };
    let watched = run(&sc, true);
    assert_eq!(watched, run(&sc, false));
    assert_eq!(
        watched.polls,
        [vec![
            // Hit at 6 (steps 2, 4, 6), then the one-unit load.
            (700, 3, Some(1)),
            // Steps at 9 (in place), 11 (misses the write queued
            // behind it; the deadline at 12 stops the run inside the
            // streak) and 13, which sees the 3 written at 13 first.
            (1_400, 3, Some(3)),
            // Already 3: no step.
            (1_500, 0, Some(3)),
        ]]
    );
}

/// Three pollers on one grid wait on one word, so at each step instant
/// a dispatcher takes their steps one after another at the heap top. A
/// write at such an instant queued before the steps (scheduled up front)
/// is seen by all three at that instant; one queued after them (by a
/// writer, once the steps were queued) is missed until their next steps.
/// A harness store between runs is seen at the first step after it,
/// though only watched steps ran since all three last read the word.
#[test]
fn three_pollers_on_one_grid_see_writes_queued_before_and_after_their_steps() {
    let poll = |goal| Poll {
        word: 0,
        gap: 2,
        budget: 30,
        goal,
    };
    let sc = Scenario {
        // At t = 6, queued before the steps at 6 (queued at t = 4); at
        // t = 16 to the other word, so the steps at 16 re-read theirs.
        writes: vec![(6, 0, 1), (16, 1, 1)],
        pollers: vec![vec![poll(1), poll(2), poll(3)]; 3],
        // Queued at t = 10 for t = 11, behind the steps at 11 (queued
        // at t = 9).
        writers: vec![vec![
            WriterOp::Advance(10),
            WriterOp::Later {
                delay: 1,
                word: 0,
                value: 2,
            },
        ]],
        // The harness writes 3 at t = 17, between two steps.
        deadlines: vec![(17, Some((0, 3)))],
    };
    let watched = run(&sc, true);
    assert_eq!(watched, run(&sc, false));
    let each = vec![
        // Steps at 2, 4, 6 see the write at 6, then the one-unit load.
        (700, 3, Some(1)),
        // Steps at 9, 11 (misses the write queued behind it) and 13.
        (1_400, 3, Some(2)),
        // Steps at 16 and 18, which sees the harness's 3.
        (1_900, 2, Some(3)),
    ];
    assert_eq!(watched.polls, [each.clone(), each.clone(), each]);
}
