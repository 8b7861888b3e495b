//! The discrete-event simulation kernel: the thread driver of the
//! scheduler.
//!
//! The kernel owns a [`Scheduler`](crate::sched) — the queue of events
//! and process resumes, and every rule for which item runs next and
//! where a process's steps land (see `sched.rs`) — and a set of
//! *processes*. A process is protocol code written in ordinary blocking
//! style (loops, calls, waits) that runs on its own OS thread, but the
//! kernel guarantees that **at most one thread — the kernel thread or a
//! single process thread — executes at any moment**. The whole
//! simulation is deterministic: every run with the same inputs produces
//! the same event order and the same virtual timestamps.
//!
//! ## Execution model: direct token passing
//!
//! Exactly one *token* exists per kernel; the thread holding it drives
//! the scheduler: it takes the state lock, asks the scheduler what runs
//! next, releases the lock, and acts on the answer:
//!
//! * an **event** closure runs inline on whatever thread holds the
//!   token (closures are `Send` and never block, so any thread will do);
//! * a **resume for the driving process itself** simply returns control
//!   to its body — the common polling-loop case costs no context switch
//!   at all;
//! * a **resume for another process** hands the token *directly* to that
//!   process's thread — one context switch, not a round-trip through the
//!   kernel thread;
//! * a **re-keyed watched step** (see `sched.rs`) gives nobody control:
//!   the driver keeps the token, and takes a run of such answers under
//!   one hold of the lock.
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
//! Because only the token holder asks the scheduler, and trace/metrics
//! hooks fire for each answer in order regardless of which thread
//! drives, the executed item sequence — and therefore every virtual
//! timestamp — is the scheduler's alone; only the host-side handoff
//! count depends on the threads.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::sched::{Next, Probe, ProcessId, Scheduler};
use crate::time::{SimDur, SimTime};

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

/// A process's thread: what the driver keeps for it in the scheduler.
struct ProcThread {
    name: String,
    mailbox: Arc<Mailbox<ToProc>>,
    join: Option<JoinHandle<()>>,
}

struct State {
    sched: Scheduler<EventFn, ProcThread>,
    shutting_down: bool,
}

/// `n` resumes of `process`, `d` apart from `at`, traced once the state
/// lock is released.
struct Resumes {
    process: String,
    at: SimTime,
    d: SimDur,
    n: u64,
}

impl Resumes {
    fn of(st: &State, pid: ProcessId, at: SimTime, d: SimDur, n: u64) -> Resumes {
        let process = st.sched.data(pid).name.clone();
        Resumes { process, at, d, n }
    }
}

/// Shared between the kernel, all [`Ctx`](crate::Ctx) handles, and all
/// [`SimHandle`](crate::SimHandle)s.
pub(crate) struct Shared {
    state: Mutex<State>,
    kernel_mailbox: Mailbox<KernelWake>,
    /// Mirror of the scheduler's clock, so `now()` never takes the lock.
    now_ps: AtomicU64,
    /// Trace hook; lives here (not on `Kernel`) because any thread that
    /// holds the token drives the scheduler and must emit the same
    /// events the kernel thread would.
    tracer: OnceLock<Tracer>,
    /// Engine counters this kernel records into: the registry current
    /// on the constructing thread (see `crate::metrics`).
    counters: Arc<crate::metrics::Counters>,
}

impl Shared {
    pub(crate) fn now(&self) -> SimTime {
        SimTime(self.now_ps.load(Ordering::Relaxed))
    }

    fn mirror_now(&self, st: &State) {
        self.now_ps.store(st.sched.now().as_ps(), Ordering::Relaxed);
    }

    fn trace(&self, ev: TraceEvent) {
        if let Some(t) = self.tracer.get() {
            t(&ev);
        }
    }

    /// Count `resumes` resumes, `fast` of them without a handoff, and
    /// trace `traced` in order.
    fn took(&self, resumes: u64, fast: u64, traced: &[Resumes]) {
        if resumes > 0 {
            self.counters.resumes.fetch_add(resumes, Ordering::Relaxed);
        }
        if fast > 0 {
            self.counters
                .fast_resumes
                .fetch_add(fast, Ordering::Relaxed);
        }
        for r in traced {
            for i in 0..r.n {
                self.trace(TraceEvent::Resume {
                    at: r.at + r.d * i,
                    process: r.process.clone(),
                });
            }
        }
    }

    pub(crate) fn schedule_at(&self, at: SimTime, f: EventFn) {
        self.state.lock().sched.push(at, f);
    }

    pub(crate) fn schedule_in(&self, d: SimDur, f: EventFn) {
        let mut st = self.state.lock();
        let at = st.sched.now() + d;
        st.sched.push(at, f);
    }

    /// Wake `pid` if it is parked; otherwise remember the wake-up so the
    /// next `park` returns immediately (exactly like thread unpark).
    pub(crate) fn unpark(&self, pid: ProcessId) {
        self.state.lock().sched.unpark(pid);
    }

    /// The driver, on the thread holding the token: ask the scheduler
    /// what runs next, release the lock, act, and again, until the token
    /// leaves this thread (`true`) or this thread's turn ends (`false`):
    /// `me`'s own resume came up, or, on the kernel thread (`me` is
    /// `None`), the run is over. `fast` and `traced` are resumes `me`
    /// has just taken in place, counted and traced before any item that
    /// follows them.
    fn drive<'a>(
        &'a self,
        me: Option<ProcessId>,
        mut st: MutexGuard<'a, State>,
        mut fast: u64,
        mut traced: Vec<Resumes>,
    ) -> bool {
        let tracing = self.tracer.get().is_some();
        loop {
            let next = st.sched.next();
            self.mirror_now(&st);
            match next {
                // Taken under this hold of the lock, counted with the
                // answer that ends the run of them.
                Next::Rekeyed { pid, steps } => {
                    fast += 1 + steps.fit;
                    if tracing {
                        traced.push(Resumes::of(&st, pid, steps.from, steps.d, 1 + steps.fit));
                    }
                }
                Next::Run(f) => {
                    let at = st.sched.now();
                    drop(st);
                    self.took(fast, fast, &traced);
                    fast = 0;
                    traced.clear();
                    self.counters
                        .events_executed
                        .fetch_add(1, Ordering::Relaxed);
                    self.trace(TraceEvent::Event { at });
                    if me.is_some() {
                        // A kernel-thread handoff avoided: the closure
                        // runs inline on the process thread.
                        self.counters.batched_events.fetch_add(1, Ordering::Relaxed);
                        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                            self.kernel_mailbox.post(KernelWake::ClosurePanic(payload));
                            return true;
                        }
                    } else {
                        f();
                    }
                    st = self.state.lock();
                }
                Next::Resume { pid, steps } => {
                    let hand = (me != Some(pid)).then(|| Arc::clone(&st.sched.data(pid).mailbox));
                    if tracing {
                        traced.push(Resumes::of(&st, pid, steps.from, steps.d, 1 + steps.fit));
                    }
                    drop(st);
                    let handed = u64::from(hand.is_some());
                    fast += 1 + steps.fit - handed;
                    // Trace before any handoff so the receiving process
                    // cannot emit its next event first.
                    self.took(fast + handed, fast, &traced);
                    let Some(mailbox) = hand else {
                        return false;
                    };
                    mailbox.post(ToProc::Run);
                    return true;
                }
                Next::Quiesced | Next::PastDeadline => {
                    drop(st);
                    self.took(fast, fast, &traced);
                    if me.is_some() {
                        self.kernel_mailbox.post(KernelWake::Idle);
                    }
                    return me.is_some();
                }
            }
        }
    }

    /// [`Ctx::advance`](crate::Ctx::advance) (`max == 1`),
    /// [`Ctx::advance_repeat`](crate::Ctx::advance_repeat) and, with a
    /// `watch`, [`Ctx::advance_watched`](crate::Ctx::advance_watched):
    /// take up to `max` consecutive `d`-steps ([`Scheduler::advance`])
    /// and return how many were taken, or `None` at shutdown. If steps
    /// remain after those taken in place, drive until this process's
    /// resume comes up: once for a plain step, at a changed word or the
    /// streak's end for a watched one.
    pub(crate) fn advance_process(
        &self,
        me: ProcessId,
        mailbox: &Mailbox<ToProc>,
        d: SimDur,
        max: u64,
        watch: Option<(&Probe, u64, u32)>,
    ) -> Option<u64> {
        let mut st = self.state.lock();
        if st.shutting_down {
            drop(st);
            mailbox.wait_token(); // delivers the Shutdown token
            return None;
        }
        let steps = st.sched.advance(me, d, max, watch);
        let mut traced = Vec::new();
        if steps.fit > 0 && self.tracer.get().is_some() {
            traced.push(Resumes::of(&st, me, steps.from + d, d, steps.fit));
        }
        if steps.fit == max {
            self.mirror_now(&st);
            drop(st);
            self.took(max, max, &traced);
            return Some(max);
        }
        if self.drive(Some(me), st, steps.fit, traced) && !mailbox.wait_token() {
            return None;
        }
        Some(match watch {
            None => steps.fit + 1,
            Some(_) => {
                let left = self.state.lock().sched.take_watch(me);
                max - left.expect("a watched streak keeps its watch")
            }
        })
    }

    /// [`Ctx::park`](crate::Ctx::park): unless a wake-up is pending,
    /// park `me` and drive until an unpark's resume gives it control.
    /// Returns `false` at shutdown.
    pub(crate) fn park_process(&self, me: ProcessId, mailbox: &Mailbox<ToProc>) -> bool {
        let mut st = self.state.lock();
        if !st.sched.park(me) {
            return true; // consumed a pending wake-up
        }
        if st.shutting_down {
            drop(st);
            return mailbox.wait_token();
        }
        !self.drive(Some(me), st, 0, Vec::new()) || mailbox.wait_token()
    }

    pub(crate) fn spawn(
        self: &Arc<Self>,
        name: impl Into<String>,
        f: impl FnOnce(&crate::Ctx) + Send + 'static,
    ) -> ProcessId {
        let name = name.into();
        let mailbox = Arc::new(Mailbox::new());
        let (tname, tmailbox) = (name.clone(), Arc::clone(&mailbox));
        let mut st = self.state.lock();
        let join = None;
        let pid = st.sched.spawn(ProcThread {
            name,
            mailbox,
            join,
        });
        let ctx = crate::Ctx::new(pid, Arc::clone(self), Arc::clone(&tmailbox));
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
        st.sched.data_mut(pid).join = Some(join);
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
                    sched: Scheduler::default(),
                    shutting_down: false,
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
        let mut st = self.shared.state.lock();
        st.sched.begin_run(deadline);
        // Until the run is over, the token leaves this thread and comes
        // back with a reason.
        while self.shared.drive(None, st, 0, Vec::new()) {
            match self.shared.kernel_mailbox.take() {
                KernelWake::Idle => {} // ask again
                KernelWake::ProcTerminated(pid) => self.finish_proc(pid),
                KernelWake::ProcPanicked(pid, message) => {
                    let process = self.shared.state.lock().sched.data(pid).name.clone();
                    self.finish_proc(pid);
                    self.shutdown();
                    return Err(SimError::ProcessPanicked { process, message });
                }
                KernelWake::ClosurePanic(payload) => panic::resume_unwind(payload),
            }
            st = self.shared.state.lock();
        }
        Ok(self.shared.now())
    }

    fn finish_proc(&self, pid: ProcessId) {
        let join = {
            let mut st = self.shared.state.lock();
            st.sched.finish(pid);
            st.sched.data_mut(pid).join.take()
        };
        if let Some(j) = join {
            let _ = j.join();
        }
    }

    /// Names of processes currently parked (useful for deadlock checks in
    /// tests).
    pub fn parked_processes(&self) -> Vec<String> {
        let st = self.shared.state.lock();
        let parked = st.sched.parked();
        parked.map(|pid| st.sched.data(pid).name.clone()).collect()
    }

    /// Cleanly unwind every live process. Called automatically on drop.
    fn shutdown(&self) {
        let live: Vec<(ProcessId, Arc<Mailbox<ToProc>>)> = {
            let mut st = self.shared.state.lock();
            st.shutting_down = true;
            let live = st.sched.halt();
            live.map(|(pid, p)| (pid, Arc::clone(&p.mailbox))).collect()
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
