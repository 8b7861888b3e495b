//! Process-side and kernel-side handles into a running simulation.

use std::sync::Arc;

use crate::kernel::{Mailbox, ProcessId, Shared, ShutdownSignal, ToProc};
use crate::time::{SimDur, SimTime};

/// The context handed to every simulation process body.
///
/// A `Ctx` lets protocol code observe virtual time, spend it
/// ([`advance`](Ctx::advance)), block ([`park`](Ctx::park)) and wake other
/// processes ([`unpark`](Ctx::unpark)), and schedule one-shot events.
///
/// A `Ctx` must only be used from the process thread it was created for;
/// using it from elsewhere can deadlock the simulation (it cannot cause
/// undefined behaviour). To interact with the simulation from event
/// closures or from the test harness, use [`SimHandle`].
///
/// # Examples
///
/// ```
/// use shrimp_sim::{Kernel, SimDur};
/// let kernel = Kernel::new();
/// kernel.spawn("ping", |ctx| {
///     ctx.advance(SimDur::from_ns(250.0)); // spend CPU time
///     assert_eq!(ctx.now().as_ns(), 250.0);
/// });
/// kernel.run_until_quiescent()?;
/// # Ok::<(), shrimp_sim::SimError>(())
/// ```
pub struct Ctx {
    pid: ProcessId,
    shared: Arc<Shared>,
    mailbox: Arc<Mailbox<ToProc>>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("pid", &self.pid).finish()
    }
}

impl Ctx {
    pub(crate) fn new(pid: ProcessId, shared: Arc<Shared>, mailbox: Arc<Mailbox<ToProc>>) -> Ctx {
        Ctx {
            pid,
            shared,
            mailbox,
        }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Spend `d` of virtual time: the process suspends and resumes once
    /// the clock has advanced past every other event in between.
    ///
    /// Under the token-passing executor this thread usually keeps the
    /// token: intervening event closures run inline here, and popping its
    /// own resume simply returns — observable behaviour is identical to a
    /// kernel round-trip, the context switches are just skipped.
    pub fn advance(&self, d: SimDur) {
        self.advance_repeat(d, 1);
    }

    /// Spend up to `max` consecutive `d`-steps and return how many were
    /// taken: `0` only when `max` is `0`. Observably identical — item
    /// order, timestamps, trace, metrics — to calling
    /// [`advance(d)`](Ctx::advance) that many times; no other scheduled
    /// item ran before the last step, so state the caller observed
    /// before the call can only have changed during it. Steps that fit
    /// strictly before the next queued item and within the run deadline
    /// are taken together without touching the event queue.
    ///
    /// This is the primitive for polling loops: re-check after each
    /// call rather than after each `d`.
    ///
    /// ```
    /// use shrimp_sim::{Kernel, SimDur};
    /// let kernel = Kernel::new();
    /// kernel.schedule_in(SimDur::from_ns(1000.0), || {});
    /// kernel.spawn("poller", |ctx| {
    ///     // Three steps fit before the event; the fourth lets it run.
    ///     assert_eq!(ctx.advance_repeat(SimDur::from_ns(250.0), 10), 4);
    ///     assert_eq!(ctx.now().as_ns(), 1000.0);
    /// });
    /// kernel.run_until_quiescent()?;
    /// # Ok::<(), shrimp_sim::SimError>(())
    /// ```
    pub fn advance_repeat(&self, d: SimDur, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        match self.shared.advance_process(self.pid, &self.mailbox, d, max) {
            Some(taken) => taken,
            None => self.shutdown_unwind(),
        }
    }

    /// Yield without spending time, letting any same-timestamp events run
    /// first (FIFO order).
    pub fn yield_now(&self) {
        self.advance(SimDur::ZERO);
    }

    /// Suspend until the virtual clock reads `t`. Returns immediately if
    /// `t` is in the past.
    pub fn sleep_until(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.advance(t - now);
        }
    }

    /// Block until another process or event calls [`unpark`](Ctx::unpark)
    /// (or [`SimHandle::unpark`]) for this process.
    ///
    /// Wake-ups are latched: if an unpark arrived while this process was
    /// running, `park` consumes it and returns immediately.
    pub fn park(&self) {
        if self.shared.prepare_park(self.pid) {
            return; // consumed a pending wake-up
        }
        if !self.shared.park_process(self.pid, &self.mailbox) {
            self.shutdown_unwind();
        }
    }

    /// Wake the given process if it is parked; otherwise latch the wake-up.
    pub fn unpark(&self, pid: ProcessId) {
        self.shared.unpark(pid);
    }

    /// Schedule a one-shot event `d` after now.
    pub fn schedule_in(&self, d: SimDur, f: impl FnOnce() + Send + 'static) {
        self.shared.schedule_in(d, Box::new(f));
    }

    /// Schedule a one-shot event at absolute time `at` (clamped to now).
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce() + Send + 'static) {
        self.shared.schedule_at(at, Box::new(f));
    }

    /// Spawn a sibling process starting at the current virtual time.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ProcessId {
        self.shared.spawn(name, f)
    }

    /// A kernel-side handle usable from event closures spawned by this
    /// process.
    pub fn handle(&self) -> SimHandle {
        SimHandle::new(Arc::clone(&self.shared))
    }

    fn shutdown_unwind(&self) -> ! {
        // Shutdown requested: unwind this thread. The unwind is caught
        // by the process wrapper in kernel.rs and reported as a clean
        // termination. `resume_unwind` (rather than `panic_any`) skips
        // the panic hook, so clean shutdowns print no backtrace.
        std::panic::resume_unwind(Box::new(ShutdownSignal));
    }
}

/// A cloneable handle for interacting with the simulation from *outside*
/// process context: event closures, the test harness between
/// [`Kernel::run_until`](crate::Kernel::run_until) calls, or component
/// callbacks.
///
/// Unlike [`Ctx`], a `SimHandle` can never block, so it is safe to use
/// from anywhere.
#[derive(Clone)]
pub struct SimHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for SimHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimHandle").finish_non_exhaustive()
    }
}

impl SimHandle {
    pub(crate) fn new(shared: Arc<Shared>) -> SimHandle {
        SimHandle { shared }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Wake the given process if parked; otherwise latch the wake-up.
    pub fn unpark(&self, pid: ProcessId) {
        self.shared.unpark(pid);
    }

    /// Schedule a one-shot event `d` after now.
    pub fn schedule_in(&self, d: SimDur, f: impl FnOnce() + Send + 'static) {
        self.shared.schedule_in(d, Box::new(f));
    }

    /// Schedule a one-shot event at absolute time `at` (clamped to now).
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce() + Send + 'static) {
        self.shared.schedule_at(at, Box::new(f));
    }

    /// Spawn a new process starting at the current virtual time.
    pub fn spawn(
        &self,
        name: impl Into<String>,
        f: impl FnOnce(&Ctx) + Send + 'static,
    ) -> ProcessId {
        self.shared.spawn(name, f)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Kernel, SimDur, SimTime};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn sleep_until_past_is_noop() {
        let k = Kernel::new();
        let t = Arc::new(AtomicU64::new(u64::MAX));
        let t2 = Arc::clone(&t);
        k.spawn("p", move |ctx| {
            ctx.advance(SimDur::from_us(5.0));
            ctx.sleep_until(SimTime::ZERO + SimDur::from_us(2.0)); // past
            t2.store(ctx.now().as_ps(), Ordering::SeqCst);
        });
        k.run_until_quiescent().unwrap();
        assert_eq!(t.load(Ordering::SeqCst), 5_000_000);
    }

    #[test]
    fn yield_now_lets_same_time_events_run() {
        let k = Kernel::new();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        k.spawn("a", move |ctx| {
            o1.lock().push("a-before");
            ctx.yield_now();
            o1.lock().push("a-after");
        });
        k.spawn("b", move |_ctx| {
            o2.lock().push("b");
        });
        k.run_until_quiescent().unwrap();
        assert_eq!(*order.lock(), vec!["a-before", "b", "a-after"]);
    }

    #[test]
    fn handle_schedules_from_event_closures() {
        let k = Kernel::new();
        let hits = Arc::new(AtomicU64::new(0));
        let h = k.handle();
        let hits2 = Arc::clone(&hits);
        k.schedule_in(SimDur::from_us(1.0), move || {
            let hits3 = Arc::clone(&hits2);
            h.schedule_in(SimDur::from_us(1.0), move || {
                hits3.fetch_add(1, Ordering::SeqCst);
            });
        });
        let end = k.run_until_quiescent().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(end.as_us(), 2.0);
    }
}
