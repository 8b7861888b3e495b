//! Blocking synchronization primitives for simulation processes.
//!
//! These are the simulation-world analogues of condition variables and
//! channels. Because the kernel guarantees only one logical thread runs at
//! a time, their internals are simple FIFO queues — there are no lost
//! wake-up races beyond the park/unpark latch already handled by the
//! kernel.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::process::{Ctx, SimHandle};
use crate::sched::ProcessId;
use crate::time::SimTime;

/// A FIFO wait queue: processes [`wait`](WaitQueue::wait) on it and are
/// released in order by [`notify_one`](WaitQueue::notify_one) /
/// [`notify_all`](WaitQueue::notify_all). A notify releases only the
/// processes waiting at that moment; nothing is latched for later ones.
///
/// This is the simulator's one list of parked processes: every blocking
/// primitive above the kernel — a channel's receivers, a rendezvous's
/// parties, a VMMC endpoint's activity and notification waits — parks
/// on one. Most protocol code polls a shared flag instead (the paper's
/// libraries poll) and falls back to blocking here.
///
/// # Examples
///
/// ```
/// use shrimp_sim::{Kernel, SimDur, WaitQueue};
/// use std::sync::Arc;
///
/// let k = Kernel::new();
/// let q = Arc::new(WaitQueue::new());
/// let q2 = Arc::clone(&q);
/// let h = k.handle();
/// k.spawn("waiter", move |ctx| {
///     assert!(q2.wait(ctx, None));
///     assert_eq!(ctx.now().as_us(), 4.0);
/// });
/// let q3 = Arc::clone(&q);
/// k.schedule_in(SimDur::from_us(4.0), move || { q3.notify_one(&h); });
/// k.run_until_quiescent()?;
/// # Ok::<(), shrimp_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct WaitQueue {
    waiters: Mutex<VecDeque<ProcessId>>,
}

impl WaitQueue {
    /// Create an empty queue.
    pub fn new() -> WaitQueue {
        WaitQueue::default()
    }

    /// Block the calling process until a notify releases it or, given a
    /// `deadline`, until virtual time reaches it. Returns `true` if
    /// notified, `false` on timeout (the process is removed from the
    /// queue, so a later notify goes to someone else). With a deadline
    /// the wait arms one timer at it; without one it arms none.
    pub fn wait(&self, ctx: &Ctx, deadline: Option<SimTime>) -> bool {
        let pid = ctx.pid();
        let passed = || deadline.is_some_and(|d| ctx.now() >= d);
        if passed() {
            return false;
        }
        self.waiters.lock().push_back(pid);
        if let Some(d) = deadline {
            let h = ctx.handle();
            ctx.schedule_at(d, move || h.unpark(pid));
        }
        loop {
            ctx.park();
            // A stale latched wake-up (from an unrelated unpark) could
            // release the park early; re-check membership.
            if !self.waiters.lock().contains(&pid) {
                return true; // a notify popped us
            }
            if passed() {
                self.leave(pid);
                return false;
            }
        }
    }

    /// One blocking step for a caller that loops on its own condition:
    /// join the queue, run `recheck` (it may spend virtual time), park
    /// unless it returned `true`, and leave. Any wake ends the step —
    /// a notify or an unrelated unpark — so callers loop. Running
    /// `recheck` once registered closes the lost-wakeup race: a notify
    /// that lands during it is latched and ends the park at once.
    pub fn wait_once(&self, ctx: &Ctx, recheck: impl FnOnce() -> bool) {
        let pid = ctx.pid();
        self.waiters.lock().push_back(pid);
        if !recheck() {
            ctx.park();
        }
        self.leave(pid);
    }

    fn leave(&self, pid: ProcessId) {
        self.waiters.lock().retain(|p| *p != pid);
    }

    /// Release the longest-waiting process, if any. Returns whether a
    /// process was released.
    pub fn notify_one(&self, h: &SimHandle) -> bool {
        let popped = self.waiters.lock().pop_front();
        match popped {
            Some(pid) => {
                h.unpark(pid);
                true
            }
            None => false,
        }
    }

    /// Release every waiting process, in the order they joined. Returns
    /// how many were released.
    pub fn notify_all(&self, h: &SimHandle) -> usize {
        let mut waiters = self.waiters.lock();
        let n = waiters.len();
        for pid in waiters.drain(..) {
            h.unpark(pid);
        }
        n
    }

    /// Number of processes currently waiting.
    pub fn len(&self) -> usize {
        self.waiters.lock().len()
    }

    /// True if no process is waiting.
    pub fn is_empty(&self) -> bool {
        self.waiters.lock().is_empty()
    }
}

/// An unbounded, FIFO, inter-process channel carrying values of type `T`
/// through simulated time. Receiving blocks the calling process until a
/// value is available.
///
/// This models out-of-band control paths (e.g. the prototype's Ethernet);
/// the mesh datapath is modelled in `shrimp-mesh`, not with this type.
#[derive(Debug)]
pub struct SimChannel<T> {
    inner: Arc<ChannelInner<T>>,
}

#[derive(Debug)]
struct ChannelInner<T> {
    queue: Mutex<VecDeque<T>>,
    waiters: WaitQueue,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send + 'static> Default for SimChannel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send + 'static> SimChannel<T> {
    /// Create an empty channel.
    pub fn new() -> SimChannel<T> {
        SimChannel {
            inner: Arc::new(ChannelInner {
                queue: Mutex::new(VecDeque::new()),
                waiters: WaitQueue::new(),
            }),
        }
    }

    /// Enqueue a value and wake one waiting receiver. Usable from both
    /// processes and event closures.
    pub fn send(&self, h: &SimHandle, value: T) {
        self.inner.queue.lock().push_back(value);
        self.inner.waiters.notify_one(h);
    }

    /// Dequeue a value, blocking the calling process until one arrives.
    pub fn recv(&self, ctx: &Ctx) -> T {
        self.recv_until(ctx, None)
            .expect("a receive with no deadline returns a value")
    }

    /// Like [`recv`](SimChannel::recv), but give up at `deadline` and
    /// return `None` if no value arrived by then. The timed-out receiver
    /// leaves the queue untouched for other receivers.
    pub fn recv_deadline(&self, ctx: &Ctx, deadline: SimTime) -> Option<T> {
        self.recv_until(ctx, Some(deadline))
    }

    /// The one receive loop: each wait on the receivers' queue arms its
    /// own timer at `deadline`, if any.
    fn recv_until(&self, ctx: &Ctx, deadline: Option<SimTime>) -> Option<T> {
        loop {
            if let Some(v) = self.inner.queue.lock().pop_front() {
                return Some(v);
            }
            if !self.inner.waiters.wait(ctx, deadline) {
                // One last poll: a send may land exactly at the deadline.
                return self.inner.queue.lock().pop_front();
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.queue.lock().pop_front()
    }

    /// Number of queued values.
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// True if no values are queued.
    pub fn is_empty(&self) -> bool {
        self.inner.queue.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kernel, SimDur};

    #[test]
    fn wait_queue_releases_in_fifo_order() {
        let k = Kernel::new();
        let q = Arc::new(WaitQueue::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..3 {
            let q = Arc::clone(&q);
            let order = Arc::clone(&order);
            k.spawn(format!("w{i}"), move |ctx| {
                // Stagger arrival so the queue order is w0, w1, w2.
                ctx.advance(SimDur::from_us(i as f64));
                q.wait(ctx, None);
                order.lock().push(i);
            });
        }
        let h = k.handle();
        let q2 = Arc::clone(&q);
        k.schedule_in(SimDur::from_us(10.0), move || {
            q2.notify_one(&h);
            q2.notify_one(&h);
            q2.notify_one(&h);
        });
        k.run_until_quiescent().unwrap();
        assert_eq!(*order.lock(), vec![0, 1, 2]);
    }

    #[test]
    fn notify_one_on_empty_queue_returns_false() {
        let k = Kernel::new();
        let q = WaitQueue::new();
        assert!(!q.notify_one(&k.handle()));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn channel_keeps_send_order_across_processes() {
        let k = Kernel::new();
        let ch: SimChannel<u32> = SimChannel::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let ch = ch.clone();
            let got = Arc::clone(&got);
            k.spawn("rx", move |ctx| {
                for _ in 0..3 {
                    got.lock().push(ch.recv(ctx));
                }
            });
        }
        {
            let ch = ch.clone();
            k.spawn("tx", move |ctx| {
                for v in [7u32, 8, 9] {
                    ctx.advance(SimDur::from_us(1.0));
                    ch.send(&ctx.handle(), v);
                }
            });
        }
        k.run_until_quiescent().unwrap();
        assert_eq!(*got.lock(), vec![7, 8, 9]);
        assert!(ch.is_empty());
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        let k = Kernel::new();
        let ch: SimChannel<u32> = SimChannel::new();
        let got = Arc::new(Mutex::new(Vec::new()));
        {
            let ch = ch.clone();
            let got = Arc::clone(&got);
            k.spawn("rx", move |ctx| {
                // Nothing arrives before 5 us: timeout.
                let miss = ch.recv_deadline(ctx, ctx.now() + SimDur::from_us(5.0));
                got.lock().push((miss, ctx.now().as_us()));
                // A value arrives at 10 us, well before the 50 us deadline.
                let hit = ch.recv_deadline(ctx, ctx.now() + SimDur::from_us(45.0));
                got.lock().push((hit, ctx.now().as_us()));
            });
        }
        let h = k.handle();
        let tx = ch.clone();
        k.schedule_in(SimDur::from_us(10.0), move || tx.send(&h, 9));
        k.run_until_quiescent().unwrap();
        let v = got.lock().clone();
        assert_eq!(v[0], (None, 5.0), "timed out exactly at the deadline");
        assert_eq!(v[1], (Some(9), 10.0), "woken as soon as the value arrived");
        assert!(ch.is_empty());
    }

    #[test]
    fn wait_with_a_deadline_reports_timeout_then_notify() {
        let k = Kernel::new();
        let q = Arc::new(WaitQueue::new());
        let results = Arc::new(Mutex::new(Vec::new()));
        {
            let q = Arc::clone(&q);
            let r = Arc::clone(&results);
            k.spawn("w", move |ctx| {
                let early = q.wait(ctx, Some(ctx.now() + SimDur::from_us(2.0)));
                r.lock().push((early, ctx.now().as_us()));
                let late = q.wait(ctx, Some(ctx.now() + SimDur::from_us(20.0)));
                r.lock().push((late, ctx.now().as_us()));
                // A deadline already reached returns at once.
                let spent = q.wait(ctx, Some(ctx.now()));
                r.lock().push((spent, ctx.now().as_us()));
            });
        }
        let q2 = Arc::clone(&q);
        let h = k.handle();
        k.schedule_in(SimDur::from_us(8.0), move || {
            assert_eq!(q2.notify_all(&h), 1);
        });
        k.run_until_quiescent().unwrap();
        let v = results.lock().clone();
        assert_eq!(v, [(false, 2.0), (true, 8.0), (false, 8.0)]);
        assert!(q.is_empty(), "a timed-out waiter leaves the queue");
    }

    /// A notify that lands while the recheck spends virtual time ends
    /// the step without a park; a recheck that passes skips the park.
    /// Either way the process leaves the queue.
    #[test]
    fn wait_once_keeps_a_notify_that_lands_during_its_recheck() {
        let k = Kernel::new();
        let q = Arc::new(WaitQueue::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        {
            let (q, seen) = (Arc::clone(&q), Arc::clone(&seen));
            k.spawn("w", move |ctx| {
                q.wait_once(ctx, || {
                    ctx.advance(SimDur::from_us(3.0));
                    false
                });
                seen.lock().push((ctx.now().as_us(), q.len()));
                q.wait_once(ctx, || true);
                seen.lock().push((ctx.now().as_us(), q.len()));
            });
        }
        let q2 = Arc::clone(&q);
        let h = k.handle();
        k.schedule_in(SimDur::from_us(1.0), move || {
            assert_eq!(q2.notify_all(&h), 1);
        });
        k.run_until_quiescent().unwrap();
        assert_eq!(*seen.lock(), [(3.0, 0), (3.0, 0)]);
    }

    #[test]
    fn channel_try_recv_is_nonblocking() {
        let k = Kernel::new();
        let ch: SimChannel<u8> = SimChannel::new();
        assert_eq!(ch.try_recv(), None);
        ch.send(&k.handle(), 5);
        assert_eq!(ch.len(), 1);
        assert_eq!(ch.try_recv(), Some(5));
    }
}
