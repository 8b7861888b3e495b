//! The scheduler: which item runs next, and where each process's steps
//! land. It is plain data — no lock, no thread, no mailbox, no tracer,
//! no counter — and the kernel (`kernel.rs`) is its driver: it takes
//! its lock, asks [`Scheduler::next`], releases the lock and acts on the
//! answer. A test steps it alone.
//!
//! Two kinds of items wait in the queue: *events* (`E`; the kernel's
//! are one-shot closures) and *resumes*, each giving a process control.
//! The queue orders `(at, seq, slot)` keys: earliest instant first, and
//! at one instant in the order the items were queued (FIFO by `seq`).
//! The items sit in a recycled slot arena, so heap sifts move small
//! `Copy` keys only. A process has at most one resume queued, and none
//! while it runs: one is queued at spawn, on the unpark of a parked
//! process, and for its own next step. Beside each process's state the
//! table holds a `P` that the scheduler never reads: what the driver
//! keeps per process (the kernel: its thread, mailbox and name).
//!
//! **Idle horizon.** While a process runs, nothing can change simulated
//! state before the earliest queued item: every change is made by an
//! item, and the items wait for it. A step of [`Scheduler::advance`]
//! landing *strictly* before that item and within the run deadline
//! would be queued and popped straight back with nothing in between, so
//! it is taken in place: it consumes the `seq` its push would have and
//! moves the clock, and nothing else. An item at exactly the landing
//! instant has the lower `seq` and must run first, hence "strictly". If
//! steps remain after those that fit, the next is queued.
//!
//! **Watched streaks.** An advance with a watch (the word at `addr`,
//! read through a [`Probe`], last read as `seen`) is a poll streak. When
//! its queued step is at the heap top, [`Scheduler::next`] does what the
//! poller would: if the word still reads `seen` and steps remain after
//! this one and those that fit in place behind it, it takes them and
//! re-keys the entry where the poller's next step would be queued — the
//! same `seq`s, the same slot, one sift — and answers
//! [`Next::Rekeyed`]: nobody gets control. Only a changed word or the
//! streak's end pops the step and gives the poller control.
//!
//! **Generation.** The word can change only by an event, by a process
//! body (which runs only once a resume gives it control), or by the
//! harness between runs. The scheduler counts those in `gen` — at each
//! event popped, each resume popped and each run begun — and a streak
//! remembers the count at its poller's last read. While the two agree
//! the word reads `seen` without a probe. A step taken in place or
//! re-keyed runs no item, so it needs no bump.
//!
//! The executed sequence is that of a naive loop that pops one item at
//! a time and queues one step per resume; the tests below hold the
//! scheduler to such a loop on random programs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::time::{SimDur, SimTime};

/// Identifies a simulation process for the lifetime of its
/// [`Kernel`](crate::Kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub(crate) usize);

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "proc#{}", self.0)
    }
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

enum Item<E> {
    Event(E),
    Resume(ProcessId),
}

/// Heap entry: ordering fields plus the index of the item's slot.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Has a resume queued, or runs.
    Scheduled,
    /// Waiting for an unpark.
    Parked,
    /// Its body returned.
    Terminated,
}

struct Proc<P> {
    status: Status,
    /// An unpark came while it was scheduled: its next park returns.
    wake_pending: bool,
    /// Set while it waits in a watched poll streak.
    watch: Option<Watch>,
    data: P,
}

/// A watched poll streak (see the module doc).
struct Watch {
    probe: Probe,
    /// The address of the word, as `probe` takes it.
    addr: u64,
    /// The value the poller last read; its predicate rejected it.
    seen: u32,
    /// `Scheduler::gen` when the word last read `seen`.
    gen: u64,
    d: SimDur,
    /// Steps not yet taken, counting the one queued.
    left: u64,
}

/// One process's steps: `fit` steps of `d` after `from`, taken in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InPlace {
    pub(crate) from: SimTime,
    pub(crate) d: SimDur,
    pub(crate) fit: u64,
}

/// What [`Scheduler::next`] took from the queue.
pub(crate) enum Next<E> {
    /// An event, popped: the clock reads its instant.
    Run(E),
    /// `pid` gets control at `steps.from`, after the `steps.fit` steps
    /// that a watched streak's last step took in place behind it.
    Resume { pid: ProcessId, steps: InPlace },
    /// A watched step of `pid` at `steps.from` and the `steps.fit` in
    /// place behind it were taken, and the entry re-keyed as the
    /// poller's next step: nobody gets control.
    Rekeyed { pid: ProcessId, steps: InPlace },
    /// The queue is empty.
    Quiesced,
    /// The next item lies past the run's deadline; the clock reads the
    /// deadline, unless it was already later.
    PastDeadline,
}

pub(crate) struct Scheduler<E, P> {
    now: SimTime,
    seq: u64,
    /// The run's deadline: no item past it is taken.
    deadline: SimTime,
    queue: BinaryHeap<Reverse<HeapKey>>,
    slots: Vec<Option<Item<E>>>,
    free_slots: Vec<u32>,
    procs: Vec<Proc<P>>,
    /// Bumped by everything that may write a watched word (see the
    /// module doc).
    gen: u64,
}

impl<E, P> Default for Scheduler<E, P> {
    fn default() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            deadline: SimTime::ZERO,
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            procs: Vec::new(),
            gen: 0,
        }
    }
}

impl<E, P> Scheduler<E, P> {
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Queue event `e` at `at`, or now if `at` has passed.
    pub(crate) fn push(&mut self, at: SimTime, e: E) {
        self.enqueue(at.max(self.now), Item::Event(e));
    }

    fn enqueue(&mut self, at: SimTime, item: Item<E>) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(item);
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event slot arena overflow");
                self.slots.push(Some(item));
                s
            }
        };
        self.queue.push(Reverse(HeapKey { at, seq, slot }));
    }

    /// A new process, resumed now, and what the driver keeps for it.
    pub(crate) fn spawn(&mut self, data: P) -> ProcessId {
        let pid = ProcessId(self.procs.len());
        self.procs.push(Proc {
            status: Status::Scheduled,
            wake_pending: false,
            watch: None,
            data,
        });
        self.enqueue(self.now, Item::Resume(pid));
        pid
    }

    /// What the driver keeps for `pid`.
    pub(crate) fn data(&self, pid: ProcessId) -> &P {
        &self.procs[pid.0].data
    }

    pub(crate) fn data_mut(&mut self, pid: ProcessId) -> &mut P {
        &mut self.procs[pid.0].data
    }

    /// Resume `pid` now if it is parked; if it is scheduled, its next
    /// `park` returns at once (a latched wake-up).
    pub(crate) fn unpark(&mut self, pid: ProcessId) {
        let now = self.now;
        let p = &mut self.procs[pid.0];
        match p.status {
            Status::Parked => {
                p.status = Status::Scheduled;
                self.enqueue(now, Item::Resume(pid));
            }
            Status::Scheduled => p.wake_pending = true,
            Status::Terminated => {}
        }
    }

    /// Park `me`, which runs: `true` if it now waits for an unpark,
    /// `false` if it consumed a pending wake-up and runs on.
    pub(crate) fn park(&mut self, me: ProcessId) -> bool {
        let p = &mut self.procs[me.0];
        if p.wake_pending {
            p.wake_pending = false;
            return false;
        }
        p.status = Status::Parked;
        true
    }

    /// `me`, which runs, takes up to `max` steps of `d`: those that fit
    /// before the queue head and the deadline in place (the idle
    /// horizon), and if any remain, the next is queued — watched if
    /// `watch` is `(probe, addr, seen)`, with `seen` what the caller has
    /// just read.
    pub(crate) fn advance(
        &mut self,
        me: ProcessId,
        d: SimDur,
        max: u64,
        watch: Option<(&Probe, u64, u32)>,
    ) -> InPlace {
        let from = self.now;
        let head = self.queue.peek().map(|&Reverse(k)| k);
        let fit = horizon(head, self.deadline, from, d, max);
        self.seq += fit;
        self.now = from + d * fit;
        if fit < max {
            self.enqueue(self.now + d, Item::Resume(me));
            if let Some((probe, addr, seen)) = watch {
                self.procs[me.0].watch = Some(Watch {
                    probe: Arc::clone(probe),
                    addr,
                    seen,
                    gen: self.gen,
                    d,
                    left: max - fit,
                });
            }
        }
        InPlace { from, d, fit }
    }

    /// End `me`'s watched streak, once it has control again: the steps
    /// the streak left untaken, or `None` if it had none.
    pub(crate) fn take_watch(&mut self, me: ProcessId) -> Option<u64> {
        self.procs[me.0].watch.take().map(|w| w.left)
    }

    /// `pid`, which ran, has returned.
    pub(crate) fn finish(&mut self, pid: ProcessId) {
        self.procs[pid.0].status = Status::Terminated;
    }

    /// Drop every queued item for good; yields the processes that have
    /// not finished.
    pub(crate) fn halt(&mut self) -> impl Iterator<Item = (ProcessId, &P)> + '_ {
        self.queue.clear();
        self.slots.clear();
        self.free_slots.clear();
        let live = self.procs.iter().enumerate();
        let live = live.filter(|(_, p)| p.status != Status::Terminated);
        live.map(|(i, p)| (ProcessId(i), &p.data))
    }

    /// Begin a run that takes no item past `deadline`.
    pub(crate) fn begin_run(&mut self, deadline: SimTime) {
        self.deadline = deadline;
        self.gen += 1; // the harness may have written a watched word
    }

    /// The processes waiting for an unpark.
    pub(crate) fn parked(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let procs = self.procs.iter().enumerate();
        let parked = procs.filter(|(_, p)| p.status == Status::Parked);
        parked.map(|(i, _)| ProcessId(i))
    }

    /// Take the next item: pop it, or re-key a watched step that goes on.
    /// Inlined into the driver's loop, whose hot path is a run of
    /// re-keyed steps: out of line, six watched pollers' 1.2 M re-keys
    /// ran 11 % slower (2-core Xeon, pinned).
    #[inline]
    pub(crate) fn next(&mut self) -> Next<E> {
        let Some(&Reverse(key)) = self.queue.peek() else {
            return Next::Quiesced;
        };
        if key.at > self.deadline {
            self.now = self.now.max(self.deadline);
            return Next::PastDeadline;
        }
        let mut steps = InPlace {
            from: key.at,
            d: SimDur::ZERO,
            fit: 0,
        };
        if let Some(Item::Resume(pid)) = self.slots[key.slot as usize] {
            if let Some(w) = self.procs[pid.0].watch.as_mut() {
                steps.d = w.d;
                w.left -= 1;
                // Probe only if something that may write the word came
                // since the poller's last read.
                if w.left > 0 && (w.gen == self.gen || (w.probe)(w.addr) == w.seen) {
                    w.gen = self.gen;
                    // The entry after this one: the smaller child of the root.
                    let after = self.queue.as_slice()[1..].iter().take(2).max();
                    let after = after.map(|&Reverse(k)| k);
                    steps.fit = horizon(after, self.deadline, key.at, w.d, w.left);
                    w.left -= steps.fit;
                    if w.left > 0 {
                        let seq = self.seq + steps.fit;
                        self.seq = seq + 1;
                        self.now = key.at + w.d * steps.fit;
                        let at = self.now + w.d;
                        let slot = key.slot;
                        *self.queue.peek_mut().expect("the top entry") =
                            Reverse(HeapKey { at, seq, slot });
                        // Every step that fit was taken: the entry sank
                        // below the next one, or past the deadline.
                        debug_assert!(
                            at > self.deadline
                                || self.queue.peek().map(|&Reverse(k)| k.slot) != Some(slot),
                            "a re-keyed watched step is back at the top"
                        );
                        return Next::Rekeyed { pid, steps };
                    }
                }
            }
        }
        self.queue.pop();
        let item = self.slots[key.slot as usize].take();
        self.free_slots.push(key.slot);
        self.seq += steps.fit;
        self.now = key.at + steps.d * steps.fit;
        match item.expect("a queued key points at its item") {
            Item::Event(e) => {
                self.gen += 1; // an event may write a watched word
                Next::Run(e)
            }
            Item::Resume(pid) => {
                // Queued only for a scheduled process, which finishes
                // only while it runs, with nothing of its own queued.
                debug_assert_eq!(self.procs[pid.0].status, Status::Scheduled);
                self.gen += 1; // and so may the body given control
                Next::Resume { pid, steps }
            }
        }
    }
}

/// How many of up to `max` `d`-steps from `from` land strictly before
/// the entry `next` and at or before `deadline`: the idle horizon's
/// in-place steps (see the module doc).
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

#[cfg(test)]
mod tests {
    //! The reference check: random programs stepped by [`Scheduler`] and
    //! by [`RefScheduler`], a naive loop that pops one item at a time
    //! and queues one step per resume, must execute the same items at
    //! the same instants, end each run at the same clock and leave the
    //! same processes parked. No thread runs: each process is a state
    //! machine that `run` steps when the scheduler gives it control.
    //!
    //! Then the kernel property: the same programs, run by a real
    //! [`Kernel`] whose processes are threads on the public `Ctx` API,
    //! trace the scheduler's items, and read every engine counter as the
    //! token moves between threads: fast resumes and batched events too.

    use super::*;
    use crate::rng::SplitMix64;
    use crate::{Kernel, MetricsRegistry, MetricsSnapshot, TraceEvent};
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Times are small multiples of one unit, so that steps, events and
    /// deadlines share instants often.
    const UNIT_PS: u64 = 100;
    /// The words the programs store to and poll.
    const WORDS: usize = 2;

    fn units(n: u64) -> SimDur {
        SimDur::from_ps(n * UNIT_PS)
    }

    /// The test scheduler's event: store a value to a word.
    type Store = (usize, u32);

    /// One step of a process's program.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `n` steps of `d` units (`Ctx::advance_repeat`).
        Steps {
            d: u64,
            n: u64,
        },
        /// Poll `word` every `d` units for up to `n` steps, until it
        /// reads at least `goal` (`Ctx::advance_watched`).
        Poll {
            word: usize,
            d: u64,
            n: u64,
            goal: u32,
        },
        Park,
        /// Unpark the `i`th process: parked, running, or finished.
        Unpark(usize),
        /// Store from the body.
        Store {
            word: usize,
            value: u32,
        },
        /// Queue an event `delay` units from now that stores.
        Later {
            delay: u64,
            word: usize,
            value: u32,
        },
    }

    #[derive(Debug, Clone, Default)]
    struct Program {
        /// Stores queued before any process spawns, and their instants.
        writes: Vec<(u64, Store)>,
        procs: Vec<Vec<Op>>,
        /// `run_until` deadlines, ascending, each with the store the
        /// harness makes once that run returns; a quiescent run follows.
        runs: Vec<(u64, Option<Store>)>,
    }

    impl Program {
        /// A random program of 1 to `procs` processes. Polls step mostly
        /// by one or two units, so that streaks share instants.
        fn random(rng: &mut SplitMix64, procs: usize) -> Program {
            let mut r = |n: u64| rng.next_below(n);
            let store = |r: &mut dyn FnMut(u64) -> u64| (r(WORDS as u64) as usize, r(6) as u32);
            let k = 1 + r(procs as u64) as usize;
            let writes = (0..r(10)).map(|_| (r(60), store(&mut r))).collect();
            let procs = (0..k)
                .map(|_| {
                    (0..r(8))
                        .map(|_| match r(10) {
                            0..=2 => Op::Steps { d: r(6), n: r(12) },
                            3..=5 => {
                                let (word, goal) = store(&mut r);
                                let d = if r(4) == 0 { r(5) } else { 1 + r(2) };
                                Op::Poll {
                                    word,
                                    d,
                                    n: r(24),
                                    goal,
                                }
                            }
                            6 => Op::Park,
                            7 => Op::Unpark(r(k as u64) as usize),
                            8 => {
                                let (word, value) = store(&mut r);
                                Op::Store { word, value }
                            }
                            _ => {
                                let (word, value) = store(&mut r);
                                Op::Later {
                                    delay: r(12),
                                    word,
                                    value,
                                }
                            }
                        })
                        .collect()
                })
                .collect();
            let mut runs: Vec<_> = (0..r(4))
                .map(|_| (r(70), (r(2) == 0).then(|| store(&mut r))))
                .collect();
            runs.sort_by_key(|&(at, _)| at);
            Program {
                writes,
                procs,
                runs,
            }
        }
    }

    /// An executed item.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Exec {
        Store(usize, u32),
        Resume(usize),
    }

    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct Outcome {
        /// Every item executed, with its instant, in order.
        items: Vec<(SimTime, Exec)>,
        /// Per process, what each poll returned: the instant, the steps
        /// taken and the value that met the goal.
        polls: Vec<Vec<(SimTime, u64, Option<u32>)>>,
        /// The clock as each run returned.
        ends: Vec<SimTime>,
        parked: Vec<usize>,
    }

    /// How the token a kernel would pass moves as it runs the answers:
    /// resumes handed to another thread than the one driving, and events
    /// run on a process thread. Every other resume is a fast one.
    #[derive(Debug, Clone, Copy, Default)]
    struct Token {
        handoffs: u64,
        batched: u64,
    }

    impl Outcome {
        fn resumes(&mut self, pid: ProcessId, at: SimTime, d: SimDur, n: u64) {
            let steps = (0..n).map(|i| (at + d * i, Exec::Resume(pid.0)));
            self.items.extend(steps);
        }
    }

    /// What a program asks of a scheduler.
    trait Machine: Default {
        fn push(&mut self, at: SimTime, e: Store);
        fn spawn(&mut self) -> ProcessId;
        fn unpark(&mut self, pid: ProcessId);
        fn park(&mut self, me: ProcessId) -> bool;
        fn advance(
            &mut self,
            me: ProcessId,
            d: SimDur,
            max: u64,
            w: Option<(&Probe, u64, u32)>,
        ) -> InPlace;
        fn take_watch(&mut self, me: ProcessId) -> Option<u64>;
        fn finish(&mut self, pid: ProcessId);
        fn begin_run(&mut self, deadline: SimTime);
        fn next(&mut self) -> Next<Store>;
        fn now(&self) -> SimTime;
        fn parked(&self) -> Vec<ProcessId>;
    }

    impl Machine for Scheduler<Store, ()> {
        fn push(&mut self, at: SimTime, e: Store) {
            Scheduler::push(self, at, e)
        }
        fn spawn(&mut self) -> ProcessId {
            Scheduler::spawn(self, ())
        }
        fn unpark(&mut self, pid: ProcessId) {
            Scheduler::unpark(self, pid)
        }
        fn park(&mut self, me: ProcessId) -> bool {
            Scheduler::park(self, me)
        }
        fn advance(
            &mut self,
            me: ProcessId,
            d: SimDur,
            max: u64,
            w: Option<(&Probe, u64, u32)>,
        ) -> InPlace {
            Scheduler::advance(self, me, d, max, w)
        }
        fn take_watch(&mut self, me: ProcessId) -> Option<u64> {
            Scheduler::take_watch(self, me)
        }
        fn finish(&mut self, pid: ProcessId) {
            Scheduler::finish(self, pid)
        }
        fn begin_run(&mut self, deadline: SimTime) {
            Scheduler::begin_run(self, deadline)
        }
        fn next(&mut self) -> Next<Store> {
            Scheduler::next(self)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn parked(&self) -> Vec<ProcessId> {
            Scheduler::parked(self).collect()
        }
    }

    /// The reference: one pop per item, one queued step per resume (a
    /// watched streak is its poll loop, re-reading the word after every
    /// step), no idle horizon, no re-key and no generation.
    #[derive(Default)]
    struct RefScheduler {
        now: SimTime,
        seq: u64,
        deadline: SimTime,
        queue: BinaryHeap<Reverse<(SimTime, u64, Exec)>>,
        /// Each process's status and latched wake-up.
        procs: Vec<(Status, bool)>,
    }

    impl RefScheduler {
        fn queue(&mut self, at: SimTime, item: Exec) {
            self.queue.push(Reverse((at, self.seq, item)));
            self.seq += 1;
        }
    }

    impl Machine for RefScheduler {
        fn push(&mut self, at: SimTime, (word, value): Store) {
            self.queue(at.max(self.now), Exec::Store(word, value));
        }
        fn spawn(&mut self) -> ProcessId {
            self.procs.push((Status::Scheduled, false));
            self.queue(self.now, Exec::Resume(self.procs.len() - 1));
            ProcessId(self.procs.len() - 1)
        }
        fn unpark(&mut self, pid: ProcessId) {
            match self.procs[pid.0].0 {
                Status::Parked => {
                    self.procs[pid.0].0 = Status::Scheduled;
                    self.queue(self.now, Exec::Resume(pid.0));
                }
                Status::Scheduled => self.procs[pid.0].1 = true,
                Status::Terminated => {}
            }
        }
        fn park(&mut self, me: ProcessId) -> bool {
            let p = &mut self.procs[me.0];
            if std::mem::take(&mut p.1) {
                return false;
            }
            p.0 = Status::Parked;
            true
        }
        fn advance(
            &mut self,
            me: ProcessId,
            d: SimDur,
            _: u64,
            _: Option<(&Probe, u64, u32)>,
        ) -> InPlace {
            self.queue(self.now + d, Exec::Resume(me.0));
            InPlace {
                from: self.now,
                d,
                fit: 0,
            }
        }
        fn take_watch(&mut self, _: ProcessId) -> Option<u64> {
            None
        }
        fn finish(&mut self, pid: ProcessId) {
            self.procs[pid.0].0 = Status::Terminated;
        }
        fn begin_run(&mut self, deadline: SimTime) {
            self.deadline = deadline;
        }
        fn next(&mut self) -> Next<Store> {
            let Some(&Reverse((at, _, item))) = self.queue.peek() else {
                return Next::Quiesced;
            };
            if at > self.deadline {
                self.now = self.now.max(self.deadline);
                return Next::PastDeadline;
            }
            self.queue.pop();
            self.now = at;
            match item {
                Exec::Store(word, value) => Next::Run((word, value)),
                Exec::Resume(pid) => Next::Resume {
                    pid: ProcessId(pid),
                    steps: InPlace {
                        from: at,
                        d: SimDur::ZERO,
                        fit: 0,
                    },
                },
            }
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn parked(&self) -> Vec<ProcessId> {
            let parked = self.procs.iter().enumerate();
            let parked = parked.filter(|(_, p)| p.0 == Status::Parked);
            parked.map(|(i, _)| ProcessId(i)).collect()
        }
    }

    /// A process of a program, stepped as a state machine: `resume`
    /// goes on from the advance or park it last waited in.
    struct Body {
        ops: Vec<Op>,
        pc: usize,
        /// Steps left in the current `Steps` or `Poll`, once begun.
        left: Option<u64>,
        /// Steps the current poll has taken.
        taken: u64,
        /// The advance it waits in: its `max`, and the steps it took in
        /// place.
        waiting: Option<(u64, u64)>,
    }

    /// The words, and the probe that reads them.
    struct Memory {
        words: Arc<[AtomicU32; WORDS]>,
        probe: Probe,
    }

    impl Memory {
        fn new() -> Memory {
            let words = Arc::new([AtomicU32::new(0), AtomicU32::new(0)]);
            let w = Arc::clone(&words);
            let probe = Arc::new(move |addr| w[addr as usize].load(Ordering::Relaxed));
            Memory { words, probe }
        }
    }

    /// Run `prog` on machine `M`, following the token: the kernel
    /// thread (`None`) holds it as each run begins, a resume hands it to
    /// its process, and a body that returns gives it back.
    fn run<M: Machine>(prog: &Program) -> (Outcome, Token) {
        let mut m = M::default();
        let mem = Memory::new();
        for &(at, store) in &prog.writes {
            m.push(SimTime::ZERO + units(at), store);
        }
        let mut bodies: Vec<Body> = (prog.procs.iter())
            .map(|ops| {
                m.spawn();
                Body {
                    ops: ops.clone(),
                    pc: 0,
                    left: None,
                    taken: 0,
                    waiting: None,
                }
            })
            .collect();
        let mut out = Outcome {
            polls: vec![Vec::new(); bodies.len()],
            ..Outcome::default()
        };
        let runs = prog
            .runs
            .iter()
            .map(|&(at, s)| (SimTime::ZERO + units(at), s));
        let mut token = Token::default();
        for (deadline, store) in runs.chain([(SimTime::MAX, None)]) {
            m.begin_run(deadline);
            let mut holder = None;
            loop {
                match m.next() {
                    Next::Run((word, value)) => {
                        token.batched += u64::from(holder.is_some());
                        out.items.push((m.now(), Exec::Store(word, value)));
                        mem.words[word].store(value, Ordering::Relaxed);
                    }
                    Next::Rekeyed { pid, steps } => {
                        out.resumes(pid, steps.from, steps.d, 1 + steps.fit);
                    }
                    Next::Resume { pid, steps } => {
                        out.resumes(pid, steps.from, steps.d, 1 + steps.fit);
                        token.handoffs += u64::from(holder != Some(pid));
                        holder = Some(pid);
                        if resume(&mut m, pid, &mut bodies[pid.0], &mem, &mut out) {
                            holder = None;
                        }
                    }
                    Next::Quiesced | Next::PastDeadline => break,
                }
            }
            out.ends.push(m.now());
            if let Some((word, value)) = store {
                mem.words[word].store(value, Ordering::Relaxed);
            }
        }
        out.parked = m.parked().into_iter().map(|p| p.0).collect();
        (out, token)
    }

    /// Run `b`, given control, until it waits (`false`) or returns.
    fn resume<M: Machine>(
        m: &mut M,
        me: ProcessId,
        b: &mut Body,
        mem: &Memory,
        out: &mut Outcome,
    ) -> bool {
        if let Some((max, fit)) = b.waiting.take() {
            let took = m.take_watch(me).map_or(fit + 1, |left| max - left);
            b.left = b.left.map(|left| left - took);
            b.taken += took;
        }
        while let Some(&op) = b.ops.get(b.pc) {
            match op {
                Op::Steps { d, n } => {
                    let left = *b.left.get_or_insert(n);
                    if left > 0 {
                        if advance(m, me, b, out, units(d), None) {
                            return false;
                        }
                        continue;
                    }
                }
                Op::Poll { word, d, n, goal } => {
                    let left = *b.left.get_or_insert(n);
                    let v = (mem.probe)(word as u64);
                    if v < goal && left > 0 {
                        let watch = Some((&mem.probe, word as u64, v));
                        if advance(m, me, b, out, units(d), watch) {
                            return false;
                        }
                        continue;
                    }
                    out.polls[me.0].push((m.now(), b.taken, (v >= goal).then_some(v)));
                }
                Op::Park => {
                    b.pc += 1;
                    if m.park(me) {
                        return false;
                    }
                    continue;
                }
                Op::Unpark(i) => m.unpark(ProcessId(i)),
                Op::Store { word, value } => mem.words[word].store(value, Ordering::Relaxed),
                Op::Later { delay, word, value } => m.push(m.now() + units(delay), (word, value)),
            }
            b.pc += 1;
            b.left = None;
            b.taken = 0;
        }
        m.finish(me);
        true
    }

    /// `me` asks for the steps `b` has left, of `d`; `true` if it waits
    /// for some of them.
    fn advance<M: Machine>(
        m: &mut M,
        me: ProcessId,
        b: &mut Body,
        out: &mut Outcome,
        d: SimDur,
        watch: Option<(&Probe, u64, u32)>,
    ) -> bool {
        let max = b.left.expect("an advance in a begun op");
        let s = m.advance(me, d, max, watch);
        out.resumes(me, s.from + d, d, s.fit);
        if s.fit < max {
            b.waiting = Some((max, s.fit));
            return true;
        }
        b.left = Some(0);
        b.taken += max;
        false
    }

    /// Hold `Scheduler` to the reference on `prog`; return its outcome
    /// and the token's moves, the scheduler's and the reference's.
    fn check(prog: &Program) -> (Outcome, [Token; 2]) {
        let (got, token) = run::<Scheduler<Store, ()>>(prog);
        let (want, ref_token) = run::<RefScheduler>(prog);
        assert_eq!(got, want, "{prog:?}");
        (got, [token, ref_token])
    }

    #[test]
    fn random_programs_step_as_the_one_pop_reference_steps_them() {
        let mut rng = SplitMix64::new(61);
        for _ in 0..4_000 {
            check(&Program::random(&mut rng, 4));
        }
    }

    #[test]
    fn a_second_park_after_a_latched_wake_waits() {
        // p1 unparks p0 while p0 steps: the first park consumes the
        // wake-up, the second waits for good.
        let prog = Program {
            procs: vec![
                vec![Op::Steps { d: 2, n: 1 }, Op::Park, Op::Park],
                vec![Op::Unpark(0)],
            ],
            ..Program::default()
        };
        assert_eq!(check(&prog).0.parked, [0]);
    }

    #[test]
    fn unparking_a_finished_process_queues_nothing() {
        let prog = Program {
            procs: vec![vec![], vec![Op::Steps { d: 1, n: 1 }, Op::Unpark(0)]],
            ..Program::default()
        };
        let items = check(&prog).0.items;
        let at = |ps| SimTime::ZERO + SimDur::from_ps(ps);
        let expect = [
            (at(0), Exec::Resume(0)),
            (at(0), Exec::Resume(1)),
            (at(100), Exec::Resume(1)),
        ];
        assert_eq!(items, expect);
    }

    // ------------------------------------------------------------------
    // The kernel runs programs as the scheduler steps them alone
    // ------------------------------------------------------------------

    /// Run `prog` on a kernel, each process a thread on the public `Ctx`
    /// API: with `fast`, `advance_repeat` and `advance_watched`;
    /// without, one `advance` per step and the `advance_repeat` poll
    /// loop that `advance_watched` stands for. The items are the trace's
    /// (a resume names its process by index); an event's store is the
    /// one its closure made.
    fn run_on_kernel(prog: &Program, fast: bool) -> (Outcome, MetricsSnapshot) {
        let reg = MetricsRegistry::new();
        let k = {
            let _counted = reg.install();
            Kernel::new()
        };
        let trace = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&trace);
        k.set_tracer(move |ev| {
            log.lock().push(match ev {
                TraceEvent::Event { at } => (*at, None),
                TraceEvent::Resume { at, process } => (*at, Some(process.parse().unwrap())),
            })
        });
        let mem = Memory::new();
        let stored = Arc::new(Mutex::new(Vec::new()));
        for &(at, s) in &prog.writes {
            k.schedule_in(units(at), store_event(&mem.words, &stored, s));
        }
        let polls = Arc::new(Mutex::new(vec![Vec::new(); prog.procs.len()]));
        for (i, ops) in prog.procs.iter().enumerate() {
            let (ops, polls, stored) = (ops.clone(), Arc::clone(&polls), Arc::clone(&stored));
            let (words, probe) = (Arc::clone(&mem.words), Arc::clone(&mem.probe));
            k.spawn(i.to_string(), move |ctx| {
                for op in ops {
                    match op {
                        Op::Steps { d, mut n } if fast => {
                            while n > 0 {
                                n -= ctx.advance_repeat(units(d), n);
                            }
                        }
                        Op::Steps { d, n } => (0..n).for_each(|_| ctx.advance(units(d))),
                        Op::Poll { word, d, n, goal } => {
                            let (addr, mut left) = (word as u64, n);
                            let v = loop {
                                let v = probe(addr);
                                if v >= goal || left == 0 {
                                    break v;
                                }
                                left -= if fast {
                                    ctx.advance_watched(units(d), left, &probe, addr, v)
                                } else {
                                    ctx.advance_repeat(units(d), left)
                                };
                            };
                            let hit = (v >= goal).then_some(v);
                            polls.lock()[i].push((ctx.now(), n - left, hit));
                        }
                        Op::Park => ctx.park(),
                        Op::Unpark(j) => ctx.unpark(ProcessId(j)),
                        Op::Store { word, value } => words[word].store(value, Ordering::Relaxed),
                        Op::Later { delay, word, value } => {
                            let f = store_event(&words, &stored, (word, value));
                            ctx.schedule_in(units(delay), f);
                        }
                    }
                }
            });
        }
        let mut ends = Vec::new();
        for &(at, harness) in &prog.runs {
            ends.push(k.run_until(SimTime::ZERO + units(at)).unwrap());
            if let Some((word, value)) = harness {
                mem.words[word].store(value, Ordering::Relaxed);
            }
        }
        ends.push(k.run_until_quiescent().unwrap());
        let mut stored = stored.lock().clone().into_iter();
        let trace = trace.lock().clone();
        let items = trace.into_iter().map(|(at, pid)| {
            let store = || stored.next().map(|(w, v)| Exec::Store(w, v));
            (at, pid.map(Exec::Resume).or_else(store).unwrap())
        });
        let out = Outcome {
            items: items.collect(),
            polls: polls.lock().clone(),
            ends,
            parked: k
                .parked_processes()
                .iter()
                .map(|p| p.parse().unwrap())
                .collect(),
        };
        (out, reg.snapshot())
    }

    /// An event that stores to `words` and logs the store.
    fn store_event(
        words: &Arc<[AtomicU32; WORDS]>,
        log: &Arc<Mutex<Vec<Store>>>,
        (word, value): Store,
    ) -> impl FnOnce() + Send + 'static {
        let (words, log) = (Arc::clone(words), Arc::clone(log));
        move || {
            words[word].store(value, Ordering::Relaxed);
            log.lock().push((word, value));
        }
    }

    /// Hold the kernel, both ways, to the scheduler stepped alone, and
    /// that to the reference; return the scheduler's outcome. The fast
    /// run passes the token as the scheduler's answers do, a re-keyed
    /// step counted fast; the plain run as the reference's, one popped
    /// resume per step.
    fn kernel_check(prog: &Program) -> Outcome {
        let (want, tokens) = check(prog);
        let events = want
            .items
            .iter()
            .filter(|(_, e)| matches!(e, Exec::Store(..)));
        let events = events.count() as u64;
        let resumes = want.items.len() as u64 - events;
        for (fast, t) in [true, false].into_iter().zip(tokens) {
            let (got, m) = run_on_kernel(prog, fast);
            assert_eq!(got, want, "fast {fast}: {prog:?}");
            let counts = MetricsSnapshot {
                events_executed: events,
                resumes,
                fast_resumes: resumes - t.handoffs,
                batched_events: t.batched,
            };
            assert_eq!(m, counts, "fast {fast}: {prog:?}");
        }
        want
    }

    #[test]
    fn random_programs_run_on_the_kernel_as_the_scheduler_steps_them() {
        // Up to six processes, so up to five pollers share instants.
        let mut rng = SplitMix64::new(60);
        for _ in 0..256 {
            kernel_check(&Program::random(&mut rng, 6));
        }
    }

    /// A poll of word 0 every two units, then a one-unit load.
    fn poll_and_load(goal: u32, n: u64) -> [Op; 2] {
        [
            Op::Poll {
                word: 0,
                d: 2,
                n,
                goal,
            },
            Op::Steps { d: 1, n: 1 },
        ]
    }

    #[test]
    fn steps_land_on_events_on_each_other_and_on_deadlines() {
        let nop = |at| (at, (1, 0));
        let prog = Program {
            writes: vec![nop(3), nop(3), nop(6), nop(0), nop(12)],
            procs: vec![
                vec![
                    Op::Steps { d: 1, n: 7 },
                    Op::Later {
                        delay: 0,
                        word: 1,
                        value: 0,
                    },
                    Op::Steps { d: 0, n: 3 },
                ],
                vec![
                    Op::Steps { d: 3, n: 4 },
                    Op::Later {
                        delay: 2,
                        word: 1,
                        value: 0,
                    },
                ],
                vec![],
            ],
            runs: vec![(0, None), (3, None), (3, None), (7, None)],
        };
        kernel_check(&prog);
        let (_, m) = run_on_kernel(&prog, true);
        assert!(m.fast_resumes > 0 && m.batched_events > 0, "{m:?}");
    }

    #[test]
    fn a_write_at_a_step_sees_it_when_queued_first_and_a_deadline_cuts_a_streak() {
        // A write at 6, a step instant of the first poll, queued before
        // it; one queued at 10 for 11, behind the second poll's step at
        // 11 (queued at 9); a write at 13 queued first again; deadlines
        // at 4 and 12 stop runs inside streaks.
        let writer = vec![
            Op::Steps { d: 10, n: 1 },
            Op::Later {
                delay: 1,
                word: 0,
                value: 2,
            },
        ];
        let prog = Program {
            writes: vec![(6, (0, 1)), (13, (0, 3))],
            procs: vec![
                [1, 2, 3]
                    .iter()
                    .flat_map(|&g| poll_and_load(g, 20))
                    .collect(),
                writer,
            ],
            runs: vec![(4, None), (12, None)],
        };
        let at = |u| SimTime::ZERO + units(u);
        assert_eq!(
            kernel_check(&prog).polls[0],
            [
                // Steps at 2, 4, 6 see the write at 6.
                (at(6), 3, Some(1)),
                // Steps at 9, 11 (misses the write queued behind it)
                // and 13, which sees the 3 written at 13 first.
                (at(13), 3, Some(3)),
                // Already 3: no step.
                (at(14), 0, Some(3)),
            ]
        );
    }

    #[test]
    fn three_pollers_on_one_grid_see_writes_queued_before_and_after_their_steps() {
        // At each step instant a driver takes the three pollers' steps
        // one after another at the heap top. The write to word 1 at 16
        // makes the steps at 16 re-read theirs; the harness stores 3 at
        // 17, between two steps, though only watched steps ran since all
        // three last read the word.
        let writer = vec![
            Op::Steps { d: 10, n: 1 },
            Op::Later {
                delay: 1,
                word: 0,
                value: 2,
            },
        ];
        let poller: Vec<Op> = [1, 2, 3]
            .iter()
            .flat_map(|&g| poll_and_load(g, 30))
            .collect();
        let prog = Program {
            writes: vec![(6, (0, 1)), (16, (1, 1))],
            procs: vec![poller.clone(), poller.clone(), poller, writer],
            runs: vec![(17, Some((0, 3)))],
        };
        let at = |u| SimTime::ZERO + units(u);
        // Steps at 2, 4, 6; at 9, 11 (misses the write queued behind
        // it) and 13; at 16 and 18, which sees the harness's 3.
        let each = vec![
            (at(6), 3, Some(1)),
            (at(13), 3, Some(2)),
            (at(18), 2, Some(3)),
        ];
        assert_eq!(
            kernel_check(&prog).polls[..3],
            [each.clone(), each.clone(), each]
        );
    }
}
