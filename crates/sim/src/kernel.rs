//! The discrete-event simulation kernel.
//!
//! The kernel owns a priority queue of scheduled items and a set of
//! *processes*. A process is protocol code written in ordinary blocking
//! style (loops, calls, waits) that runs on its own OS thread, but the
//! kernel guarantees that **at most one thread — the kernel thread or a
//! single process thread — executes at any moment**. The whole
//! simulation is deterministic: every run with the same inputs produces
//! the same event order and the same virtual timestamps.
//!
//! Two kinds of items live in the event queue:
//!
//! * **Closures** — one-shot events (a packet arriving, a DMA completing).
//! * **Resumes** — wake-ups for processes that called
//!   [`Ctx::advance`](crate::Ctx::advance) or were unparked.
//!
//! Items at equal timestamps execute in the order they were scheduled
//! (FIFO tie-break by sequence number).
//!
//! ## Execution model: direct token passing
//!
//! Exactly one *token* exists per kernel; the thread holding it drains
//! the queue. Each pop is dispatched by the token holder itself:
//!
//! * a **closure** runs inline on whatever thread holds the token (event
//!   closures are `Send` and never block, so any thread will do);
//! * a **resume for the dispatching process itself** simply returns
//!   control to its body — the common polling-loop case costs no context
//!   switch at all, and when nothing else is queued before the wake-up
//!   instant (the *idle horizon*, see `Shared::advance_process`) the
//!   resume is not even queued: it is taken in place, whole runs of
//!   equal steps at once;
//! * a **resume for another process** hands the token *directly* to that
//!   process's thread — one context switch, not a round-trip through the
//!   kernel thread;
//! * a **watched step** — a step of a poll streak the process entered
//!   with [`Ctx::advance_watched`](crate::Ctx::advance_watched) — is
//!   taken at the heap top by the dispatcher itself, which keeps the
//!   token. While the polled word reads what the poller last saw and
//!   steps remain, the step and those after it that fit in place are
//!   charged, and the entry is re-keyed where the poller's next step
//!   would be pushed: one sift, no pop, push or slot traffic, and a run
//!   of such steps under one hold of the state lock. The word is
//!   re-read through the streak's [`Probe`] only when something that
//!   could write it — a closure, a process given control, the harness
//!   between runs — came since the poller's last read (the kernel's
//!   *generation* counts those). Only a changed word or the streak's end
//!   pops the step and hands the token over.
//!
//! The token travels in one kind of mailbox, `Mailbox<T>`: a one-slot
//! `Mutex<Option<T>>` plus a condvar. Each process has a
//! `Mailbox<ToProc>`, the kernel thread a `Mailbox<KernelWake>`. A post
//! stores the message, **drops the lock, then notifies**: a receiver
//! woken while the poster still held the lock would go straight back to
//! sleep on it, and each handoff would cost two switches instead of one.
//!
//! The kernel thread is woken only to finish a run (queue empty or
//! deadline reached), join a terminated process, or surface a panic.
//! Shutdown posts `ToProc::Shutdown` to each live process and joins its
//! thread; the join is the only wait it needs.
//!
//! Because every pop happens in strict queue order under one lock and
//! trace/metrics hooks fire at the pop regardless of which thread
//! dispatches it, the executed item sequence — and therefore every
//! virtual timestamp — is bit-identical to a classic single-dispatcher
//! loop; only the host-side handoff count changes. Event storage itself
//! is a slab: the binary heap orders small `Copy` keys `(at, seq, slot)`
//! while the actions sit in a recycled slot arena, so heap sifts never
//! move boxed closures around.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::time::{SimDur, SimTime};

/// Identifies a simulation process for the lifetime of its [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) usize);

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Errors surfaced by [`Kernel::run_until_quiescent`] and friends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A process panicked; carries the process name and panic message.
    ProcessPanicked {
        /// Name given at spawn time.
        process: String,
        /// Stringified panic payload.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ProcessPanicked { process, message } => {
                write!(f, "simulation process '{process}' panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Panic payload used to unwind process threads at shutdown. Process code
/// never sees it: the unwind is caught by the process wrapper.
pub(crate) struct ShutdownSignal;

type EventFn = Box<dyn FnOnce() + Send + 'static>;

enum Action {
    Closure(EventFn),
    Resume(ProcessId),
}

/// Heap entry: ordering fields plus the index of the action's slot in the
/// arena. Keeping the heap to a small `Copy` value makes sift operations
/// cheap and leaves the boxed closures in place.
#[derive(Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Token handed to a process thread.
pub(crate) enum ToProc {
    /// You hold the token: continue executing.
    Run,
    /// Unwind and exit; the simulation is shutting down.
    Shutdown,
}

/// Reasons the token comes back to the kernel thread.
enum KernelWake {
    /// Queue empty or next entry past the deadline: finish the run.
    Idle,
    /// A process body returned; join its thread and keep dispatching.
    ProcTerminated(ProcessId),
    /// A process body panicked (a real panic, not a shutdown unwind).
    ProcPanicked(ProcessId, String),
    /// An event closure panicked while running on a process thread; the
    /// payload is re-raised on the kernel thread so `run_until` callers
    /// observe the same panic they would from a kernel-dispatched event.
    ClosurePanic(Box<dyn Any + Send>),
}

/// A one-message mailbox that carries the token (see the module doc).
/// Only the token holder posts, so at most one message is ever pending.
pub(crate) struct Mailbox<T> {
    slot: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Mailbox<T> {
    fn new() -> Self {
        Mailbox {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Store `msg`, release the lock, then wake the receiver: notified
    /// under the lock, it would wake only to sleep again on it.
    fn post(&self, msg: T) {
        let mut g = self.slot.lock();
        debug_assert!(g.is_none(), "mailbox posted twice");
        *g = Some(msg);
        drop(g);
        self.cv.notify_one();
    }

    /// Block until a message arrives and empty the slot.
    fn take(&self) -> T {
        let mut g = self.slot.lock();
        loop {
            if let Some(msg) = g.take() {
                return msg;
            }
            self.cv.wait(&mut g);
        }
    }
}

impl Mailbox<ToProc> {
    /// Process side: block until the token arrives. Returns `false` when
    /// the simulation is shutting down.
    pub(crate) fn wait_token(&self) -> bool {
        matches!(self.take(), ToProc::Run)
    }
}

/// Outcome of dispatching one queue entry.
enum Step {
    /// A closure ran; the dispatching actor keeps the token.
    Ran,
    /// The dispatching process popped its own resume: keep running.
    MyResume,
    /// The token was handed to another process.
    Handed,
    /// The queue is empty.
    Quiesced,
    /// The next entry lies beyond the current run's deadline.
    PastDeadline,
    /// A closure panicked on a process thread; the kernel has been woken
    /// with the payload and will re-raise it.
    Poisoned,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcStatus {
    /// Has a resume entry in the queue (or is currently running).
    Scheduled,
    /// Waiting for an unpark.
    Parked,
    /// Finished; thread joined or about to be.
    Terminated,
}

struct ProcSlot {
    name: String,
    mailbox: Arc<Mailbox<ToProc>>,
    join: Option<JoinHandle<()>>,
    status: ProcStatus,
    wake_pending: bool,
    /// Set while the process waits in a watched poll streak.
    watch: Option<Watch>,
}

/// Reads a word of some memory by its address, for the watched poll
/// streaks on it (see [`Ctx::advance_watched`](crate::Ctx::advance_watched)):
/// one probe serves every word of that memory. It must read the one
/// word and touch nothing else: any thread that takes a streak's step
/// calls it, under the kernel's lock.
///
/// The only things that may change a watched word are another queued
/// item (an event closure), a process body (which runs only once a
/// resume gives it control), or the harness between runs. The kernel
/// counts each of those and skips the probe when none came since the
/// poller's last read, so memory written any other way — from a thread
/// outside the simulation, say — is not seen by a watched streak.
pub type Probe = Arc<dyn Fn(u64) -> u32 + Send + Sync>;

/// A watched poll streak's state: whichever thread takes its step
/// re-reads the word when it could have changed, and hands the poller
/// the token only when it did or the streak's steps ran out.
struct Watch {
    probe: Probe,
    /// The address of the word, as `probe` takes it.
    addr: u64,
    /// The value the poller last read; its predicate rejected it.
    seen: u32,
    /// `State::gen` when the word last read `seen`.
    gen: u64,
    d: SimDur,
    /// Steps not yet taken, counting the one queued.
    left: u64,
}

/// `fit` steps of `d` from `from`, taken in place by the idle horizon
/// (see `Shared::advance_process`).
#[derive(Clone, Copy)]
struct InPlace {
    from: SimTime,
    d: SimDur,
    fit: u64,
}

pub(crate) struct State {
    now: SimTime,
    seq: u64,
    /// Deadline of the run currently in progress; no dispatcher may
    /// execute an entry past it.
    deadline: SimTime,
    queue: BinaryHeap<Reverse<HeapKey>>,
    /// Slot arena holding the actions the heap keys point at.
    slots: Vec<Option<Action>>,
    free_slots: Vec<u32>,
    procs: Vec<ProcSlot>,
    shutting_down: bool,
    /// Bumped by everything that may write a watched word (see
    /// [`Probe`]): each closure dispatched, each resume that gives a
    /// process control, each run's start. A watch whose `gen` still
    /// equals it reads what its poller saw without a probe.
    gen: u64,
}

impl State {
    fn push(&mut self, at: SimTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(action);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event slot arena overflow");
                self.slots.push(Some(action));
                s
            }
        };
        self.queue.push(Reverse(HeapKey { at, seq, slot }));
    }

    fn take_action(&mut self, key: HeapKey) -> Action {
        let action = self.slots[key.slot as usize]
            .take()
            .expect("popped key points at an empty slot");
        self.free_slots.push(key.slot);
        action
    }
}

/// How many of up to `max` `d`-steps from `from` land strictly before
/// the entry `next` and at or before `deadline`: the idle horizon's
/// in-place steps (see `Shared::advance_process`). An entry at exactly
/// a landing instant has the lower `seq` and must run first, hence
/// "strictly".
fn horizon(next: Option<HeapKey>, deadline: SimTime, from: SimTime, d: SimDur, max: u64) -> u64 {
    // Steps may land on instants in `from..end`.
    let end = next
        .map_or(SimTime::MAX, |k| k.at)
        .min(deadline + SimDur::from_ps(1));
    match (end.as_ps().saturating_sub(from.as_ps()), d.as_ps()) {
        (0, _) => 0,
        (_, 0) => max,
        (room, step) => max.min((room - 1) / step),
    }
}

/// What the dispatcher does with the heap top (`Shared::watched_top`).
enum Top {
    /// Pop it; a watched streak's last step brings the steps after it
    /// that fit in place.
    Pop(InPlace),
    /// A watched step taken in place, with the steps that fit behind
    /// it, and re-keyed as the poller's next: the streak goes on.
    Rekeyed(ProcessId, InPlace),
}

/// The watched steps one dispatch took at the heap top, counted and
/// traced once the state lock is released.
#[derive(Default)]
struct Drained {
    /// Resumes taken: the steps re-keyed and those they took in place.
    resumes: u64,
    /// When tracing, each re-keyed step's poller and steps, in order.
    trace: Vec<(String, InPlace)>,
}

/// Shared between the kernel, all [`Ctx`](crate::Ctx) handles, and all
/// [`SimHandle`](crate::SimHandle)s.
pub(crate) struct Shared {
    pub(crate) state: Mutex<State>,
    kernel_mailbox: Mailbox<KernelWake>,
    /// Mirror of `state.now`, so `now()` never takes the state lock.
    now_ps: AtomicU64,
    /// Trace hook; lives here (not on `Kernel`) because any thread that
    /// holds the token dispatches entries and must emit the same events
    /// the kernel thread would.
    tracer: OnceLock<Tracer>,
    /// Engine counters this kernel records into: the registry current
    /// on the constructing thread (see `crate::metrics`).
    counters: Arc<crate::metrics::Counters>,
}

impl Shared {
    pub(crate) fn now(&self) -> SimTime {
        SimTime(self.now_ps.load(Ordering::Relaxed))
    }

    fn set_now(&self, st: &mut State, at: SimTime) {
        st.now = at;
        self.now_ps.store(at.as_ps(), Ordering::Relaxed);
    }

    fn trace(&self, ev: TraceEvent) {
        if let Some(t) = self.tracer.get() {
            t(&ev);
        }
    }

    pub(crate) fn schedule_at(&self, at: SimTime, f: EventFn) {
        let mut st = self.state.lock();
        let at = at.max(st.now);
        st.push(at, Action::Closure(f));
    }

    pub(crate) fn schedule_in(&self, d: SimDur, f: EventFn) {
        let mut st = self.state.lock();
        let at = st.now + d;
        st.push(at, Action::Closure(f));
    }

    /// Wake `pid` if it is parked; otherwise remember the wake-up so the
    /// next `park` returns immediately (exactly like thread unpark).
    pub(crate) fn unpark(&self, pid: ProcessId) {
        let mut st = self.state.lock();
        let now = st.now;
        let slot = &mut st.procs[pid.0];
        match slot.status {
            ProcStatus::Parked => {
                slot.status = ProcStatus::Scheduled;
                st.push(now, Action::Resume(pid));
            }
            ProcStatus::Scheduled => slot.wake_pending = true,
            ProcStatus::Terminated => {}
        }
    }

    /// Called by a process that is about to park. Returns `true` if a
    /// pending wake-up was consumed (the caller should not park).
    pub(crate) fn prepare_park(&self, pid: ProcessId) -> bool {
        let mut st = self.state.lock();
        let slot = &mut st.procs[pid.0];
        if slot.wake_pending {
            slot.wake_pending = false;
            // Stay Scheduled: the caller continues running without
            // yielding, which is safe because it still holds the token.
            true
        } else {
            slot.status = ProcStatus::Parked;
            false
        }
    }

    /// Dispatch the next queue entry on the calling thread. `me` is the
    /// dispatching process, or `None` when the kernel thread dispatches.
    ///
    /// Exactly one thread per kernel is ever inside this function (it
    /// holds the token), so the pops — and the trace/metrics emissions
    /// that accompany them — form one globally ordered sequence no
    /// matter which threads perform them.
    fn dispatch_next(&self, me: Option<ProcessId>) -> Step {
        let mut drained = Drained::default();
        loop {
            enum Todo {
                Run(EventFn),
                /// A process gets control: its name when tracing, the
                /// steps a watched streak's end took in place behind this
                /// one, and the mailbox to hand the token to (`None`: the
                /// dispatcher is that process).
                Resume {
                    name: Option<String>,
                    steps: InPlace,
                    hand: Option<Arc<Mailbox<ToProc>>>,
                },
            }
            let at;
            let todo;
            {
                let mut st = self.state.lock();
                let (key, steps) = loop {
                    let Some(&Reverse(key)) = st.queue.peek() else {
                        drop(st);
                        self.took_drained(drained);
                        return Step::Quiesced;
                    };
                    if key.at > st.deadline {
                        drop(st);
                        self.took_drained(drained);
                        return Step::PastDeadline;
                    }
                    match self.watched_top(&mut st, key) {
                        Top::Pop(steps) => break (key, steps),
                        Top::Rekeyed(pid, steps) => {
                            drained.resumes += 1 + steps.fit;
                            if self.tracer.get().is_some() {
                                drained.trace.push((st.procs[pid.0].name.clone(), steps));
                            }
                        }
                    }
                };
                st.queue.pop();
                at = key.at;
                self.set_now(&mut st, at);
                todo = match st.take_action(key) {
                    Action::Closure(f) => {
                        st.gen += 1; // a closure may write a watched word
                        Todo::Run(f)
                    }
                    Action::Resume(pid) => {
                        let slot = &st.procs[pid.0];
                        if slot.status == ProcStatus::Terminated {
                            continue; // stale resume for a finished process
                        }
                        debug_assert_eq!(slot.status, ProcStatus::Scheduled);
                        let name = self.tracer.get().map(|_| slot.name.clone());
                        let hand = (me != Some(pid)).then(|| Arc::clone(&slot.mailbox));
                        if steps.fit > 0 {
                            st.seq += steps.fit;
                            self.set_now(&mut st, at + steps.d * steps.fit);
                        }
                        st.gen += 1; // and so may the body given control
                        Todo::Resume { name, steps, hand }
                    }
                };
            }
            self.took_drained(drained);
            return match todo {
                Todo::Run(f) => {
                    self.counters
                        .events_executed
                        .fetch_add(1, Ordering::Relaxed);
                    if me.is_some() {
                        // A kernel-thread handoff avoided: the closure
                        // runs inline on the process thread.
                        self.counters.batched_events.fetch_add(1, Ordering::Relaxed);
                    }
                    self.trace(TraceEvent::Event { at });
                    if me.is_some() {
                        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                            self.kernel_mailbox.post(KernelWake::ClosurePanic(payload));
                            return Step::Poisoned;
                        }
                    } else {
                        f();
                    }
                    Step::Ran
                }
                Todo::Resume { name, steps, hand } => {
                    self.counters.resumes.fetch_add(1, Ordering::Relaxed);
                    if hand.is_none() {
                        self.counters.fast_resumes.fetch_add(1, Ordering::Relaxed);
                    }
                    // Trace before any handoff so the receiving process
                    // cannot emit its next event first.
                    if let Some(process) = &name {
                        self.trace(TraceEvent::Resume {
                            at,
                            process: process.clone(),
                        });
                    }
                    self.took_in_place(steps, name.as_ref());
                    match hand {
                        Some(mailbox) => {
                            mailbox.post(ToProc::Run);
                            Step::Handed
                        }
                        None => Step::MyResume,
                    }
                }
            };
        }
    }

    /// Take the heap top `key` if it is a step of a watched streak that
    /// goes on: its word still reads what the poller saw, and steps
    /// remain after this one and those that fit in place behind it. The
    /// entry is then re-keyed where the pop, the in-place steps and the
    /// push of the poller's next step would put it — the same `seq`s,
    /// the same slot — with one sift and no item run, so no `gen` bump.
    /// Any other top is to be popped; a watched streak's last step
    /// brings the steps it takes in place.
    fn watched_top(&self, st: &mut State, key: HeapKey) -> Top {
        let from = key.at;
        let ordinary = Top::Pop(InPlace {
            from,
            d: SimDur::ZERO,
            fit: 0,
        });
        let Some(Action::Resume(pid)) = st.slots[key.slot as usize] else {
            return ordinary;
        };
        let Some(w) = st.procs[pid.0].watch.as_mut() else {
            return ordinary;
        };
        w.left -= 1;
        // Probe only if something that may write the word came since
        // the poller's last read.
        if w.left == 0 || !(w.gen == st.gen || (w.probe)(w.addr) == w.seen) {
            return Top::Pop(InPlace {
                from,
                d: w.d,
                fit: 0,
            });
        }
        w.gen = st.gen;
        // The entry after this one: the smaller child of the root.
        let next = st.queue.as_slice()[1..].iter().take(2).max();
        let next = next.map(|&Reverse(k)| k);
        let steps = InPlace {
            from,
            d: w.d,
            fit: horizon(next, st.deadline, from, w.d, w.left),
        };
        w.left -= steps.fit;
        if w.left == 0 {
            return Top::Pop(steps);
        }
        let seq = st.seq + steps.fit;
        st.seq = seq + 1;
        let now = from + steps.d * steps.fit;
        let at = now + steps.d;
        self.set_now(st, now);
        *st.queue.peek_mut().expect("the top entry") = Reverse(HeapKey {
            at,
            seq,
            slot: key.slot,
        });
        // Every step that fit was taken: the entry sank below the next
        // one, or past the deadline.
        debug_assert!(
            at > st.deadline || st.queue.peek().map(|&Reverse(k)| k.slot) != Some(key.slot),
            "a re-keyed watched step is back at the top"
        );
        Top::Rekeyed(pid, steps)
    }

    /// Count and trace the watched steps `watched_top` took, in the
    /// order it took them: each is a resume that needed no handoff.
    fn took_drained(&self, drained: Drained) {
        if drained.resumes == 0 {
            return;
        }
        self.counters
            .resumes
            .fetch_add(drained.resumes, Ordering::Relaxed);
        self.counters
            .fast_resumes
            .fetch_add(drained.resumes, Ordering::Relaxed);
        for (process, steps) in &drained.trace {
            self.trace(TraceEvent::Resume {
                at: steps.from,
                process: process.clone(),
            });
            self.trace_in_place(steps, process);
        }
    }

    /// Drive the queue from a process thread until control returns to
    /// this process — either it pops its own resume directly, or it hands
    /// the token away and blocks until another dispatcher pops its
    /// resume. Returns `false` when the simulation is shutting down.
    fn dispatch_as_process(&self, me: ProcessId, mailbox: &Mailbox<ToProc>) -> bool {
        loop {
            match self.dispatch_next(Some(me)) {
                Step::Ran => continue,
                Step::MyResume => return true,
                Step::Handed | Step::Poisoned => return mailbox.wait_token(),
                Step::Quiesced | Step::PastDeadline => {
                    self.kernel_mailbox.post(KernelWake::Idle);
                    return mailbox.wait_token();
                }
            }
        }
    }

    /// [`Ctx::advance`](crate::Ctx::advance) (`max == 1`),
    /// [`Ctx::advance_repeat`](crate::Ctx::advance_repeat) and, with a
    /// `watch`, [`Ctx::advance_watched`](crate::Ctx::advance_watched):
    /// take up to `max` consecutive `d`-steps and return how many were
    /// taken, or `None` at shutdown.
    ///
    /// **Idle horizon.** While this process holds the token nothing can
    /// change simulated state before the earliest queued entry. A step
    /// landing strictly before that entry and within the run deadline
    /// would be pushed and popped straight back with nothing in between,
    /// so it is taken in place: same `seq` consumed, same counters, same
    /// trace event, no heap traffic. An entry at exactly the landing
    /// instant has the lower `seq` and must run first, hence "strictly".
    /// If steps remain after those that fit, one more is taken the
    /// ordinary way — scheduled, then dispatched until it comes up —
    /// which lets the queue head run; the call then returns so the
    /// caller can observe what changed.
    ///
    /// **Watched.** With `watch = (probe, addr, seen)` that queued step
    /// is watched: whichever thread finds it at the heap top checks the
    /// word at `addr` — through `probe`, unless nothing that may write it
    /// came since `seen` was read — and while it still reads `seen` and
    /// steps remain takes the steps the poller would take next, in place,
    /// re-keys the entry as the next queued one and keeps the token
    /// (`watched_top`). `seen` must be what the caller just read. The
    /// call returns when the word changed or all `max` steps are taken.
    pub(crate) fn advance_process(
        &self,
        me: ProcessId,
        mailbox: &Mailbox<ToProc>,
        d: SimDur,
        max: u64,
        watch: Option<(&Probe, u64, u32)>,
    ) -> Option<u64> {
        let (steps, name) = {
            let mut st = self.state.lock();
            if st.shutting_down {
                drop(st);
                mailbox.wait_token(); // delivers the Shutdown token
                return None;
            }
            let steps = self.step_in_place(&mut st, me, d, max);
            if let Some((probe, addr, seen)) = watch.filter(|_| steps.fit < max) {
                let gen = st.gen;
                st.procs[me.0].watch = Some(Watch {
                    probe: Arc::clone(probe),
                    addr,
                    seen,
                    gen,
                    d,
                    left: max - steps.fit,
                });
            }
            let name = (steps.fit > 0)
                .then(|| self.tracer.get().map(|_| st.procs[me.0].name.clone()))
                .flatten();
            (steps, name)
        };
        self.took_in_place(steps, name.as_ref());
        if steps.fit == max {
            return Some(max);
        }
        if !self.dispatch_as_process(me, mailbox) {
            return None;
        }
        Some(match watch {
            None => steps.fit + 1,
            Some(_) => {
                let w = self.state.lock().procs[me.0].watch.take();
                max - w.expect("a watched streak keeps its watch").left
            }
        })
    }

    /// Take the `d`-steps of `me` that fit in place before the queue
    /// head (`horizon`), and queue the next one if any of the `max`
    /// remain.
    fn step_in_place(&self, st: &mut State, me: ProcessId, d: SimDur, max: u64) -> InPlace {
        let from = st.now;
        let head = st.queue.peek().map(|&Reverse(k)| k);
        let fit = horizon(head, st.deadline, from, d, max);
        if fit > 0 {
            st.seq += fit;
            self.set_now(st, from + d * fit);
        }
        if fit < max {
            let at = st.now + d;
            st.push(at, Action::Resume(me));
        }
        InPlace { from, d, fit }
    }

    /// Count and trace steps taken in place: each is a resume that
    /// needed no handoff.
    fn took_in_place(&self, steps: InPlace, name: Option<&String>) {
        let fit = steps.fit;
        if fit == 0 {
            return;
        }
        self.counters.resumes.fetch_add(fit, Ordering::Relaxed);
        self.counters.fast_resumes.fetch_add(fit, Ordering::Relaxed);
        if let Some(process) = name {
            self.trace_in_place(&steps, process);
        }
    }

    fn trace_in_place(&self, &InPlace { from, d, fit }: &InPlace, process: &str) {
        for i in 1..=fit {
            self.trace(TraceEvent::Resume {
                at: from + d * i,
                process: process.to_string(),
            });
        }
    }

    /// [`Ctx::park`](crate::Ctx::park) after `prepare_park`: dispatch
    /// without scheduling a resume; control returns when an unpark
    /// schedules one. Returns `false` at shutdown.
    pub(crate) fn park_process(&self, me: ProcessId, mailbox: &Mailbox<ToProc>) -> bool {
        if self.state.lock().shutting_down {
            return mailbox.wait_token();
        }
        self.dispatch_as_process(me, mailbox)
    }

    pub(crate) fn spawn(
        self: &Arc<Self>,
        name: impl Into<String>,
        f: impl FnOnce(&crate::Ctx) + Send + 'static,
    ) -> ProcessId {
        let name = name.into();
        let mailbox = Arc::new(Mailbox::new());
        let mut st = self.state.lock();
        let pid = ProcessId(st.procs.len());
        let ctx = crate::Ctx::new(pid, Arc::clone(self), Arc::clone(&mailbox));
        let tmailbox = Arc::clone(&mailbox);
        let tname = name.clone();
        let shared = Arc::clone(self);
        let join = std::thread::Builder::new()
            .name(format!("sim-{tname}"))
            .spawn(move || {
                if !tmailbox.wait_token() {
                    return;
                }
                match panic::catch_unwind(AssertUnwindSafe(|| f(&ctx))) {
                    // The body finished while holding the token: hand it
                    // to the kernel thread, which joins us and carries on.
                    Ok(()) => shared.kernel_mailbox.post(KernelWake::ProcTerminated(pid)),
                    // A shutdown unwind: `Kernel::shutdown` joins us.
                    Err(payload) if payload.is::<ShutdownSignal>() => {}
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        shared
                            .kernel_mailbox
                            .post(KernelWake::ProcPanicked(pid, msg));
                    }
                }
            })
            .expect("failed to spawn simulation process thread");
        st.procs.push(ProcSlot {
            name,
            mailbox,
            join: Some(join),
            status: ProcStatus::Scheduled,
            wake_pending: false,
            watch: None,
        });
        let now = st.now;
        st.push(now, Action::Resume(pid));
        pid
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The simulation kernel. See the crate documentation for the
/// execution model.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{Kernel, SimDur};
/// use std::sync::{Arc, atomic::{AtomicU64, Ordering}};
///
/// let kernel = Kernel::new();
/// let done_at = Arc::new(AtomicU64::new(0));
/// let d = Arc::clone(&done_at);
/// kernel.spawn("worker", move |ctx| {
///     ctx.advance(SimDur::from_us(3.0));
///     d.store(ctx.now().as_ps(), Ordering::SeqCst);
/// });
/// kernel.run_until_quiescent()?;
/// assert_eq!(done_at.load(Ordering::SeqCst), 3_000_000);
/// # Ok::<(), shrimp_sim::SimError>(())
/// ```
pub struct Kernel {
    shared: Arc<Shared>,
}

/// What a trace hook observes: every scheduled item the kernel executes.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A one-shot event closure ran at the given time.
    Event {
        /// Execution time.
        at: SimTime,
    },
    /// A process was resumed at the given time.
    Resume {
        /// Execution time.
        at: SimTime,
        /// The process's spawn name.
        process: String,
    },
}

/// A trace hook installed with [`Kernel::set_tracer`].
pub type Tracer = Box<dyn Fn(&TraceEvent) + Send + Sync>;

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Create an empty kernel at time zero.
    pub fn new() -> Kernel {
        Kernel {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    now: SimTime::ZERO,
                    seq: 0,
                    deadline: SimTime::ZERO,
                    queue: BinaryHeap::new(),
                    slots: Vec::new(),
                    free_slots: Vec::new(),
                    procs: Vec::new(),
                    shutting_down: false,
                    gen: 0,
                }),
                kernel_mailbox: Mailbox::new(),
                now_ps: AtomicU64::new(0),
                tracer: OnceLock::new(),
                counters: crate::metrics::current_counters(),
            }),
        }
    }

    /// Install a trace hook observing every executed item (diagnostics;
    /// adds a callback per event). The hook may be invoked from any
    /// simulation thread, but invocations are strictly serialized and in
    /// queue order.
    ///
    /// # Panics
    ///
    /// Panics if the kernel already has one: the tracer is set once.
    pub fn set_tracer(&self, tracer: impl Fn(&TraceEvent) + Send + Sync + 'static) {
        if self.shared.tracer.set(Box::new(tracer)).is_err() {
            panic!("kernel: tracer set twice");
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// A cloneable, kernel-side handle for scheduling events and waking
    /// processes from outside process context.
    pub fn handle(&self) -> crate::SimHandle {
        crate::SimHandle::new(Arc::clone(&self.shared))
    }

    /// Spawn a named process. Its body starts executing at the current
    /// virtual time, when the kernel next runs.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(&crate::Ctx) + Send + 'static,
    ) -> ProcessId {
        self.shared.spawn(name, f)
    }

    /// Schedule a one-shot event `d` after the current virtual time.
    pub fn schedule_in(&self, d: SimDur, f: impl FnOnce() + Send + 'static) {
        self.shared.schedule_in(d, Box::new(f));
    }

    /// Run until the event queue is empty. Parked processes (servers,
    /// daemons) may remain; they are cleanly shut down when the kernel is
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessPanicked`] if any process panicked; the
    /// rest of the simulation is shut down first.
    pub fn run_until_quiescent(&self) -> Result<SimTime, SimError> {
        self.run_inner(SimTime::MAX)
    }

    /// Run until the queue is empty **or** virtual time would pass
    /// `deadline`; on return the clock reads `min(deadline, quiescent
    /// time)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ProcessPanicked`] if any process panicked.
    pub fn run_until(&self, deadline: SimTime) -> Result<SimTime, SimError> {
        self.run_inner(deadline)
    }

    fn run_inner(&self, deadline: SimTime) -> Result<SimTime, SimError> {
        {
            let mut st = self.shared.state.lock();
            st.deadline = deadline;
            st.gen += 1; // the harness may have written a watched word
        }
        loop {
            match self.shared.dispatch_next(None) {
                Step::Ran => {}
                Step::MyResume | Step::Poisoned => {
                    unreachable!("kernel dispatch has no own resume and re-raises panics directly")
                }
                Step::Handed => match self.shared.kernel_mailbox.take() {
                    KernelWake::Idle => {} // re-examine the queue
                    KernelWake::ProcTerminated(pid) => self.finish_proc(pid),
                    KernelWake::ProcPanicked(pid, message) => {
                        let process = {
                            let st = self.shared.state.lock();
                            st.procs[pid.0].name.clone()
                        };
                        self.finish_proc(pid);
                        self.shutdown();
                        return Err(SimError::ProcessPanicked { process, message });
                    }
                    KernelWake::ClosurePanic(payload) => panic::resume_unwind(payload),
                },
                Step::Quiesced => return Ok(self.shared.now()),
                Step::PastDeadline => {
                    let mut st = self.shared.state.lock();
                    let clamped = deadline.max(st.now);
                    self.shared.set_now(&mut st, clamped);
                    return Ok(clamped);
                }
            }
        }
    }

    fn finish_proc(&self, pid: ProcessId) {
        let join = {
            let mut st = self.shared.state.lock();
            let slot = &mut st.procs[pid.0];
            slot.status = ProcStatus::Terminated;
            slot.join.take()
        };
        if let Some(j) = join {
            let _ = j.join();
        }
    }

    /// Names of processes currently parked (useful for deadlock checks in
    /// tests).
    pub fn parked_processes(&self) -> Vec<String> {
        let st = self.shared.state.lock();
        st.procs
            .iter()
            .filter(|p| p.status == ProcStatus::Parked)
            .map(|p| p.name.clone())
            .collect()
    }

    /// Cleanly unwind every live process. Called automatically on drop.
    fn shutdown(&self) {
        let live: Vec<(ProcessId, Arc<Mailbox<ToProc>>)> = {
            let mut st = self.shared.state.lock();
            st.shutting_down = true;
            st.queue.clear();
            st.slots.clear();
            st.free_slots.clear();
            st.procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.status != ProcStatus::Terminated)
                .map(|(i, p)| (ProcessId(i), Arc::clone(&p.mailbox)))
                .collect()
        };
        for (pid, mailbox) in live {
            mailbox.post(ToProc::Shutdown);
            self.finish_proc(pid);
        }
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn events_run_in_time_order_with_fifo_tiebreak() {
        let k = Kernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (i, d) in [(0usize, 5.0), (1, 1.0), (2, 5.0), (3, 3.0)] {
            let log = Arc::clone(&log);
            k.schedule_in(SimDur::from_us(d), move || log.lock().push(i));
        }
        k.run_until_quiescent().unwrap();
        assert_eq!(*log.lock(), vec![1, 3, 0, 2]);
    }

    #[test]
    fn process_advance_moves_virtual_time() {
        let k = Kernel::new();
        let t = Arc::new(Mutex::new(SimTime::ZERO));
        let t2 = Arc::clone(&t);
        k.spawn("p", move |ctx| {
            ctx.advance(SimDur::from_us(2.0));
            ctx.advance(SimDur::from_us(3.0));
            *t2.lock() = ctx.now();
        });
        let end = k.run_until_quiescent().unwrap();
        assert_eq!(t.lock().as_us(), 5.0);
        assert_eq!(end.as_us(), 5.0);
    }

    #[test]
    fn park_unpark_round_trip() {
        let k = Kernel::new();
        let woke_at = Arc::new(Mutex::new(SimTime::ZERO));
        let w = Arc::clone(&woke_at);
        let pid = k.spawn("sleeper", move |ctx| {
            ctx.park();
            *w.lock() = ctx.now();
        });
        let h = k.handle();
        k.schedule_in(SimDur::from_us(7.0), move || h.unpark(pid));
        k.run_until_quiescent().unwrap();
        assert_eq!(woke_at.lock().as_us(), 7.0);
    }

    #[test]
    fn unpark_before_park_is_not_lost() {
        let k = Kernel::new();
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        let pid = k.spawn("p", move |ctx| {
            // Give the waker a chance to run first.
            ctx.advance(SimDur::from_us(10.0));
            ctx.park(); // wake already pending: returns immediately
            r.store(1, Ordering::SeqCst);
        });
        let h = k.handle();
        k.schedule_in(SimDur::from_us(1.0), move || h.unpark(pid));
        k.run_until_quiescent().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn process_panic_is_reported() {
        let k = Kernel::new();
        k.spawn("bad", |_ctx| panic!("boom"));
        let err = k.run_until_quiescent().unwrap_err();
        match err {
            SimError::ProcessPanicked { process, message } => {
                assert_eq!(process, "bad");
                assert_eq!(message, "boom");
            }
        }
    }

    #[test]
    fn parked_processes_survive_quiescence_and_shutdown() {
        let k = Kernel::new();
        k.spawn("daemon", |ctx| {
            ctx.park(); // never woken
            unreachable!("daemon should be unwound at shutdown, not resumed");
        });
        k.run_until_quiescent().unwrap();
        assert_eq!(k.parked_processes(), vec!["daemon".to_string()]);
        // Drop (end of scope) must not hang or panic.
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let k = Kernel::new();
        let hits = Arc::new(AtomicUsize::new(0));
        for i in 1..=10 {
            let h = Arc::clone(&hits);
            k.schedule_in(SimDur::from_us(i as f64), move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        let t = k.run_until(SimTime::ZERO + SimDur::from_us(4.5)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(t.as_us(), 4.5);
        k.run_until_quiescent().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn run_until_deadline_interrupts_advancing_process() {
        // A process sleeping past the deadline must not carry the clock
        // with it: its dispatch hands control back to the kernel, which
        // stops at exactly the deadline; the process finishes in a later
        // run.
        let k = Kernel::new();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        k.spawn("sleeper", move |ctx| {
            ctx.advance(SimDur::from_us(10.0));
            d.store(ctx.now().as_ps() as usize, Ordering::SeqCst);
        });
        let t = k.run_until(SimTime::ZERO + SimDur::from_us(4.0)).unwrap();
        assert_eq!(t.as_us(), 4.0);
        assert_eq!(done.load(Ordering::SeqCst), 0, "must not run past deadline");
        assert_eq!(k.now().as_us(), 4.0);
        k.run_until_quiescent().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 10_000_000);
    }

    #[test]
    fn nested_spawn_from_process() {
        let k = Kernel::new();
        let sum = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&sum);
        k.spawn("parent", move |ctx| {
            let s2 = Arc::clone(&s);
            ctx.spawn("child", move |cctx| {
                cctx.advance(SimDur::from_us(1.0));
                s2.fetch_add(10, Ordering::SeqCst);
            });
            ctx.advance(SimDur::from_us(2.0));
            s.fetch_add(1, Ordering::SeqCst);
        });
        k.run_until_quiescent().unwrap();
        assert_eq!(sum.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> Vec<(u64, usize)> {
            let k = Kernel::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..4 {
                let log = Arc::clone(&log);
                k.spawn(format!("p{i}"), move |ctx| {
                    for step in 0..3 {
                        ctx.advance(SimDur::from_us((i + 1) as f64));
                        log.lock().push((ctx.now().as_ps(), i * 10 + step));
                    }
                });
            }
            k.run_until_quiescent().unwrap();
            let v = log.lock().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn own_resume_dispatch_is_traced_like_a_kernel_one() {
        // A lone advancing process pops its own resumes without any
        // handoff; the tracer must still see one Resume per advance, at
        // the right timestamps.
        let k = Kernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        k.set_tracer(move |ev| {
            if let TraceEvent::Resume { at, process } = ev {
                l.lock().push((at.as_ps(), process.clone()));
            }
        });
        k.spawn("solo", |ctx| {
            ctx.advance(SimDur::from_us(1.0));
            ctx.advance(SimDur::from_us(2.0));
        });
        k.run_until_quiescent().unwrap();
        let log = log.lock().clone();
        assert_eq!(
            log,
            vec![
                (0, "solo".to_string()),
                (1_000_000, "solo".to_string()),
                (3_000_000, "solo".to_string()),
            ]
        );
    }

    #[test]
    fn closures_run_inline_during_process_advance() {
        // An event scheduled between now and the wake-up time executes
        // (on the advancing process's thread) before the advance returns,
        // in queue order.
        let k = Kernel::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        k.schedule_in(SimDur::from_us(1.0), move || o1.lock().push("event"));
        k.spawn("p", move |ctx| {
            ctx.advance(SimDur::from_us(5.0));
            o2.lock().push("proc");
        });
        k.run_until_quiescent().unwrap();
        assert_eq!(*order.lock(), vec!["event", "proc"]);
    }

    #[test]
    fn closure_panic_surfaces_on_the_run_caller() {
        // Closures may execute on process threads, but a panicking
        // closure must still unwind out of run_until_quiescent on the
        // kernel thread, exactly as if the kernel had dispatched it.
        let k = Kernel::new();
        k.spawn("driver", |ctx| {
            ctx.schedule_in(SimDur::from_us(1.0), || panic!("event went bad"));
            ctx.advance(SimDur::from_us(5.0));
        });
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| k.run_until_quiescent()));
        let payload = caught.expect_err("closure panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("event went bad")
        );
    }

    #[test]
    fn direct_handoff_preserves_round_robin_order() {
        // Three processes advancing by the same step hand the token to
        // each other directly; the interleaving must stay strict FIFO.
        let k = Kernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3usize {
            let log = Arc::clone(&log);
            k.spawn(format!("p{i}"), move |ctx| {
                for step in 0..3usize {
                    ctx.advance(SimDur::from_us(1.0));
                    log.lock().push((step, i));
                }
            });
        }
        k.run_until_quiescent().unwrap();
        let expect: Vec<(usize, usize)> = (0..3)
            .flat_map(|step| (0..3).map(move |i| (step, i)))
            .collect();
        assert_eq!(*log.lock(), expect);
    }

    #[test]
    fn same_time_event_batch_preserves_fifo_and_interleaving() {
        // Five closures at one timestamp, where the middle one schedules
        // a sixth at the same time: execution must stay in seq order.
        let k = Kernel::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let h = k.handle();
        for i in 0..5 {
            let log = Arc::clone(&log);
            let h = h.clone();
            k.schedule_in(SimDur::from_us(1.0), move || {
                log.lock().push(i);
                if i == 2 {
                    let log = Arc::clone(&log);
                    h.schedule_in(SimDur::ZERO, move || log.lock().push(99));
                }
            });
        }
        k.run_until_quiescent().unwrap();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4, 99]);
    }

    // ------------------------------------------------------------------
    // Idle horizon: in-place steps of `advance` / `advance_repeat`
    // ------------------------------------------------------------------

    /// Install a tracer that logs every executed item as `name@ps`.
    fn item_log(k: &Kernel) -> Arc<Mutex<Vec<String>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = Arc::clone(&log);
        k.set_tracer(move |ev| {
            l.lock().push(match ev {
                TraceEvent::Event { at } => format!("event@{}", at.as_ps()),
                TraceEvent::Resume { at, process } => format!("{process}@{}", at.as_ps()),
            });
        });
        log
    }

    /// A kernel recording into its own registry, so counts are exact
    /// while other tests run.
    fn counted_kernel() -> (Kernel, crate::MetricsRegistry) {
        let reg = crate::MetricsRegistry::new();
        let _g = reg.install();
        (Kernel::new(), reg)
    }

    #[test]
    fn lone_repeat_traces_and_counts_one_resume_per_step() {
        let (k, reg) = counted_kernel();
        let log = item_log(&k);
        let took = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&took);
        k.spawn("solo", move |ctx| {
            t.store(
                ctx.advance_repeat(SimDur::from_us(1.0), 5),
                Ordering::SeqCst,
            );
        });
        assert_eq!(k.run_until_quiescent().unwrap().as_us(), 5.0);
        assert_eq!(took.load(Ordering::SeqCst), 5);
        let expect: Vec<String> = (0..=5).map(|i| format!("solo@{}", i * 1_000_000)).collect();
        assert_eq!(*log.lock(), expect);
        let m = reg.snapshot();
        // The spawn resume is a handoff from the kernel thread; the five
        // steps are this process's own.
        assert_eq!((m.resumes, m.fast_resumes, m.events_executed), (6, 5, 0));
    }

    #[test]
    fn entry_at_the_landing_instant_runs_first() {
        // Steps land at 250, 500, 750 ns; the event sits at exactly
        // 750 ns with the lower seq. Two steps fit in place, the third
        // goes through the queue behind the event, and the call returns
        // so the caller can look at what the event did.
        let (k, reg) = counted_kernel();
        let log = item_log(&k);
        let seen = Arc::new(Mutex::new((0u64, false)));
        let hit = Arc::new(AtomicBool::new(false));
        let h = Arc::clone(&hit);
        k.schedule_in(SimDur::from_ns(750.0), move || {
            h.store(true, Ordering::SeqCst)
        });
        let s = Arc::clone(&seen);
        k.spawn("p", move |ctx| {
            let took = ctx.advance_repeat(SimDur::from_ns(250.0), 10);
            *s.lock() = (took, hit.load(Ordering::SeqCst));
            // Plain `advance` obeys the same rule: nothing is queued, so
            // this one is taken in place.
            ctx.advance(SimDur::from_ns(250.0));
        });
        k.run_until_quiescent().unwrap();
        assert_eq!(*seen.lock(), (3, true));
        assert_eq!(
            *log.lock(),
            [
                "p@0",
                "p@250000",
                "p@500000",
                "event@750000",
                "p@750000",
                "p@1000000"
            ]
        );
        let m = reg.snapshot();
        assert_eq!((m.resumes, m.fast_resumes, m.batched_events), (5, 4, 1));
    }

    #[test]
    fn deadline_inside_a_skipped_span_stops_at_the_deadline() {
        let k = Kernel::new();
        let log = item_log(&k);
        let took = Arc::new(Mutex::new(Vec::new()));
        let t = Arc::clone(&took);
        k.spawn("p", move |ctx| {
            let mut left = 10;
            while left > 0 {
                let n = ctx.advance_repeat(SimDur::from_us(1.0), left);
                t.lock().push(n);
                left -= n;
            }
        });
        // A step may land on the deadline itself, not beyond it.
        assert_eq!(k.run_until(SimTime(4_000_000)).unwrap().as_us(), 4.0);
        assert_eq!(log.lock().len(), 5, "spawn resume + steps at 1..=4 us");
        assert!(took.lock().is_empty(), "the call has not returned yet");
        assert_eq!(k.run_until(SimTime(6_500_000)).unwrap().as_us(), 6.5);
        assert_eq!(log.lock().len(), 7);
        // The first call took four steps in place and the ordinary one
        // that crossed the first deadline; the second is still waiting.
        assert_eq!(*took.lock(), [5]);
        assert_eq!(k.run_until_quiescent().unwrap().as_us(), 10.0);
        assert_eq!(took.lock().iter().sum::<u64>(), 10);
        let expect: Vec<String> = (0..=10).map(|i| format!("p@{}", i * 1_000_000)).collect();
        assert_eq!(*log.lock(), expect);
    }

    #[test]
    fn repeat_of_zero_steps_or_zero_duration() {
        let (k, reg) = counted_kernel();
        let log = item_log(&k);
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&out);
        k.spawn("p", move |ctx| {
            ctx.advance(SimDur::from_us(1.0));
            // max = 0: nothing happens at all.
            o.lock().push(ctx.advance_repeat(SimDur::from_us(1.0), 0));
            // d = 0 with nothing queued at this instant: all in place.
            o.lock().push(ctx.advance_repeat(SimDur::ZERO, 3));
            // d = 0 behind a same-instant entry: that entry runs first,
            // and the call returns after the one step it interrupted.
            ctx.schedule_in(SimDur::ZERO, || {});
            o.lock().push(ctx.advance_repeat(SimDur::ZERO, 3));
            o.lock().push(ctx.now().as_ps());
        });
        k.run_until_quiescent().unwrap();
        assert_eq!(*out.lock(), [0, 3, 1, 1_000_000]);
        assert_eq!(
            *log.lock(),
            [
                "p@0",
                "p@1000000",
                "p@1000000",
                "p@1000000",
                "p@1000000",
                "event@1000000",
                "p@1000000"
            ]
        );
        assert_eq!(reg.snapshot().resumes, 6);
    }

    #[test]
    fn shutdown_during_a_repeat_unwinds_the_process() {
        let k = Kernel::new();
        let returned = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&returned);
        k.spawn("p", move |ctx| {
            ctx.advance_repeat(SimDur::from_us(1.0), 1_000);
            r.store(true, Ordering::SeqCst);
        });
        // The process is left waiting for the step past the deadline.
        k.run_until(SimTime(3_500_000)).unwrap();
        assert_eq!(k.now().as_us(), 3.5);
        drop(k); // must not hang, and must not let the call return
        assert!(!returned.load(Ordering::SeqCst));
    }

    // ------------------------------------------------------------------
    // Watched streaks: `advance_watched`
    // ------------------------------------------------------------------

    /// A probe of a memory that nothing writes.
    fn still_word() -> Probe {
        Arc::new(|_| 0)
    }

    #[test]
    fn shutdown_during_a_watched_streak_unwinds_the_poller() {
        let k = Kernel::new();
        let returned = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&returned);
        k.spawn("poller", move |ctx| {
            ctx.advance_watched(SimDur::from_us(1.0), 1_000, &still_word(), 0, 0);
            r.store(true, Ordering::SeqCst);
        });
        // Another process's steps queue the poller's, so the kernel
        // thread and the ticker pop them while the poller waits.
        k.spawn("ticker", |ctx| {
            for _ in 0..10 {
                ctx.advance(SimDur::from_us(1.0));
            }
        });
        k.run_until(SimTime(3_500_000)).unwrap();
        assert_eq!(k.now().as_us(), 3.5);
        drop(k); // must not hang, and must not let the call return
        assert!(!returned.load(Ordering::SeqCst));
    }

    #[test]
    fn watched_steps_popped_elsewhere_need_no_handoff() {
        // A poller and a ticker stepping in lockstep: every one of the
        // poller's steps is queued behind the ticker's and popped by the
        // ticker. Watched, those pops keep the token; the items, the
        // trace and the resume count are the repeat loop's.
        fn run(watched: bool) -> (Vec<String>, u64, crate::MetricsSnapshot) {
            let (k, reg) = counted_kernel();
            let log = item_log(&k);
            let took = Arc::new(AtomicU64::new(0));
            let t = Arc::clone(&took);
            k.spawn("ticker", |ctx| {
                for _ in 0..8 {
                    ctx.advance(SimDur::from_us(1.0));
                }
            });
            k.spawn("poller", move |ctx| {
                let d = SimDur::from_us(1.0);
                let n = if watched {
                    ctx.advance_watched(d, 6, &still_word(), 0, 0)
                } else {
                    (0..6).map(|_| ctx.advance_repeat(d, 1)).sum()
                };
                t.store(n, Ordering::SeqCst);
            });
            k.run_until_quiescent().unwrap();
            let log = log.lock().clone();
            (log, took.load(Ordering::SeqCst), reg.snapshot())
        }
        let (watched, repeat) = (run(true), run(false));
        assert_eq!((&watched.0, watched.1), (&repeat.0, repeat.1));
        assert_eq!(watched.1, 6);
        let (w, r) = (watched.2, repeat.2);
        assert_eq!(
            (w.resumes, w.events_executed),
            (r.resumes, r.events_executed)
        );
        // Of the 16 resumes, the repeat loop hands the token over for all
        // but the ticker's last step. Watched, the ticker keeps it at the
        // poller's steps at 1..=5 us and so pops its own at 2..=6 us; the
        // handoffs left are the two spawns, the ticker's first step, the
        // poller's last (the streak's end) and the ticker's step after it.
        assert_eq!((w.fast_resumes, r.fast_resumes), (11, 1), "{w:?} vs {r:?}");
    }
}
