//! Per-kernel wall-clock metrics for the simulation engine.
//!
//! These counters measure the *host* cost of running the simulator —
//! how many scheduled items the engine executed, and how many of those
//! the token-passing executor dispatched without a thread handoff — as
//! opposed to the *modelled* (virtual time) costs everything else in
//! this workspace reports. The perf harness (`shrimp-bench`'s
//! `simperf` binary and its `bench simprof` workload) snapshots them
//! around each workload to derive events/sec.
//!
//! Counters live on a [`MetricsRegistry`]; every [`Kernel`](crate::Kernel)
//! captures the thread's *current* registry at construction (the
//! process-wide default when none is installed), so a harness that
//! installs a fresh registry before building its kernels reads exact
//! per-workload numbers even while other kernels run concurrently on
//! other threads. The module-level [`snapshot`] reads the default
//! registry and keeps the old additive-across-everything behaviour for
//! callers that don't care about isolation.
//!
//! Increments use relaxed ordering; only one simulation thread of a
//! kernel executes at any moment, so totals are exact per registry.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The four engine counters backing one registry. Hot paths touch
/// these through `Shared.counters`, paying one pointer indirection per
/// increment (no thread-local lookup on the dispatch path).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) events_executed: AtomicU64,
    pub(crate) resumes: AtomicU64,
    pub(crate) fast_resumes: AtomicU64,
    pub(crate) batched_events: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            events_executed: self.events_executed.load(Ordering::Relaxed),
            resumes: self.resumes.load(Ordering::Relaxed),
            fast_resumes: self.fast_resumes.load(Ordering::Relaxed),
            batched_events: self.batched_events.load(Ordering::Relaxed),
        }
    }
}

fn default_counters() -> &'static Arc<Counters> {
    static DEFAULT: OnceLock<Arc<Counters>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(Counters::default()))
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Counters>>> = const { RefCell::new(None) };
}

/// The counters a kernel built on this thread should record into: the
/// installed registry's, else the process-wide default.
pub(crate) fn current_counters() -> Arc<Counters> {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .cloned()
            .unwrap_or_else(|| Arc::clone(default_counters()))
    })
}

/// An isolated set of engine counters.
///
/// Install one around a workload so that only kernels built inside the
/// scope record into it:
///
/// ```
/// use shrimp_sim::{Kernel, MetricsRegistry, SimDur};
/// let reg = MetricsRegistry::new();
/// let guard = reg.install();
/// let k = Kernel::new(); // records into `reg`
/// k.spawn("p", |ctx| ctx.advance(SimDur::from_us(1.0)));
/// k.run_until_quiescent()?;
/// drop(guard);
/// assert!(reg.snapshot().resumes >= 1);
/// # Ok::<(), shrimp_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Arc<Counters>,
}

impl MetricsRegistry {
    /// A fresh registry with zeroed counters.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Make this the thread's current registry until the guard drops.
    /// Kernels capture the current registry at [`Kernel::new`]
    /// (crate::Kernel::new) and keep recording into it for their whole
    /// lifetime, even after the guard is gone.
    pub fn install(&self) -> MetricsGuard {
        let prev = CURRENT.with(|c| c.replace(Some(Arc::clone(&self.counters))));
        MetricsGuard { prev }
    }

    /// Current values of this registry's counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.counters.snapshot()
    }
}

/// Restores the previously-installed registry on drop. Returned by
/// [`MetricsRegistry::install`].
#[must_use = "dropping the guard immediately uninstalls the registry"]
#[derive(Debug)]
pub struct MetricsGuard {
    prev: Option<Arc<Counters>>,
}

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            *c.borrow_mut() = self.prev.take();
        });
    }
}

/// A point-in-time copy of a registry's counters. Obtain with
/// [`snapshot`] or [`MetricsRegistry::snapshot`]; subtract two
/// snapshots (see [`MetricsSnapshot::delta`]) to attribute counts to a
/// workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// One-shot event closures executed (on any dispatching thread).
    pub events_executed: u64,
    /// Process resumes, counting both token handoffs and own-resume
    /// pops.
    pub resumes: u64,
    /// Resumes a process consumed for *itself* while holding the token
    /// (no thread handoff at all); a subset of `resumes`.
    pub fast_resumes: u64,
    /// Event closures executed inline on a process thread (each one a
    /// kernel-thread handoff avoided); a subset of `events_executed`.
    pub batched_events: u64,
}

impl MetricsSnapshot {
    /// Counts accumulated since `earlier` (saturating).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            events_executed: self.events_executed.saturating_sub(earlier.events_executed),
            resumes: self.resumes.saturating_sub(earlier.resumes),
            fast_resumes: self.fast_resumes.saturating_sub(earlier.fast_resumes),
            batched_events: self.batched_events.saturating_sub(earlier.batched_events),
        }
    }

    /// Total scheduled items executed (events plus resumes).
    pub fn items(&self) -> u64 {
        self.events_executed + self.resumes
    }
}

/// Read the current values of the *default* registry — every kernel
/// built while no [`MetricsRegistry`] was installed on the building
/// thread. Additive across all such kernels.
pub fn snapshot() -> MetricsSnapshot {
    default_counters().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_saturating_and_additive() {
        let a = MetricsSnapshot {
            events_executed: 10,
            resumes: 5,
            fast_resumes: 2,
            batched_events: 1,
        };
        let b = MetricsSnapshot {
            events_executed: 25,
            resumes: 9,
            fast_resumes: 4,
            batched_events: 3,
        };
        let d = b.delta(&a);
        assert_eq!(d.events_executed, 15);
        assert_eq!(d.resumes, 4);
        assert_eq!(d.items(), 19);
        // Reversed order saturates to zero rather than wrapping.
        assert_eq!(a.delta(&b).events_executed, 0);
    }

    #[test]
    fn kernel_execution_moves_the_default_counters() {
        let before = snapshot();
        let k = crate::Kernel::new();
        k.schedule_in(crate::SimDur::from_us(1.0), || {});
        k.spawn("p", |ctx| ctx.advance(crate::SimDur::from_us(2.0)));
        k.run_until_quiescent().unwrap();
        let d = snapshot().delta(&before);
        assert!(d.events_executed >= 1);
        assert!(d.resumes >= 2, "spawn resume + advance resume");
    }

    #[test]
    fn installed_registry_isolates_kernels() {
        let reg = MetricsRegistry::new();
        let default_before = snapshot();
        {
            let _g = reg.install();
            let k = crate::Kernel::new();
            k.schedule_in(crate::SimDur::from_us(1.0), || {});
            k.spawn("p", |ctx| ctx.advance(crate::SimDur::from_us(2.0)));
            k.run_until_quiescent().unwrap();
        }
        let d = reg.snapshot();
        assert!(d.events_executed >= 1);
        assert!(d.resumes >= 2);
        // Concurrent default-registry kernels (other test threads) may
        // move the default counters, but *this* kernel must not have:
        // build a second isolated registry and check zero cross-talk.
        let other = MetricsRegistry::new();
        assert_eq!(other.snapshot(), MetricsSnapshot::default());
        // The guard restored the previous (default) registry.
        let k2 = crate::Kernel::new();
        k2.spawn("q", |ctx| ctx.advance(crate::SimDur::from_us(1.0)));
        k2.run_until_quiescent().unwrap();
        assert!(snapshot().delta(&default_before).resumes >= 1);
        // And the isolated registry did not see k2.
        assert_eq!(reg.snapshot(), d);
    }

    #[test]
    fn kernel_keeps_registry_after_guard_drop() {
        let reg = MetricsRegistry::new();
        let k = {
            let _g = reg.install();
            crate::Kernel::new()
        };
        k.spawn("p", |ctx| ctx.advance(crate::SimDur::from_us(1.0)));
        k.run_until_quiescent().unwrap();
        assert!(reg.snapshot().resumes >= 1);
    }
}
