//! The host clock: CPU pinning, `getrusage`, allocation counting and
//! harness-side host spans.
//!
//! Host time is what the simulator costs to run. It is noisy, so every
//! number derived from it is a median over reps on one pinned core.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Words in the affinity mask handed to the kernel: 1024 CPUs, the
/// size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// `struct rusage` of x86-64/aarch64 Linux: two `timeval`s, then
/// fourteen `long`s in the order of `getrusage(2)`.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// A CPU affinity mask.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuMask([u64; MASK_WORDS]);

impl CpuMask {
    /// The calling thread's current mask.
    pub fn current() -> Result<CpuMask, String> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread; the kernel
        // writes at most that many bytes.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Err("sched_getaffinity failed".into());
        }
        Ok(CpuMask(mask))
    }

    /// CPUs in the mask.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// The lowest CPU in the mask.
    pub fn lowest(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// A mask holding only `cpu`.
    pub fn single(cpu: usize) -> CpuMask {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        CpuMask(mask)
    }

    /// Make this the calling thread's mask. Threads spawned afterwards
    /// (every simulated process is one) inherit it.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: the mask is a live buffer of exactly the byte length
        // passed and is only read; pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc != 0 {
            return Err("sched_setaffinity failed".into());
        }
        Ok(())
    }
}

/// Keep glibc's allocator to one arena. Every simulated process is an
/// OS thread and exactly one runs at a time, so per-thread arenas buy
/// no parallelism; they only make the resident set depend on which
/// threads happened to allocate first. Call before any thread starts.
pub fn single_malloc_arena() -> Result<(), String> {
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only records a tuning value; it is called once,
    // from the only thread, with a parameter glibc documents.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        return Err("mallopt(M_ARENA_MAX, 1) failed".into());
    }
    Ok(())
}

/// Pin the calling thread to the lowest CPU of the inherited mask.
/// Returns `(pinned cpu, inherited mask)`.
pub fn pin_to_lowest_cpu() -> Result<(usize, CpuMask), String> {
    let inherited = CpuMask::current()?;
    let cpu = inherited
        .lowest()
        .ok_or_else(|| "empty affinity mask".to_string())?;
    CpuMask::single(cpu).apply()?;
    if CpuMask::current()? != CpuMask::single(cpu) {
        return Err(format!("pinning to cpu {cpu} did not take effect"));
    }
    Ok((cpu, inherited))
}

/// Peak resident set of this program, MB.
///
/// `VmHWM` of `/proc/self/status` where there is one: it belongs to the
/// address space, so it starts afresh at `exec`. `ru_maxrss` does not:
/// it carries the launcher's peak over, and under `cargo run` reads
/// cargo's 26 MB whatever this program does.
pub fn peak_rss_mb() -> f64 {
    let hwm_kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    match hwm_kb {
        Some(kb) => kb / 1024.0,
        None => Rusage::now().max_rss_mb,
    }
}

/// Process-wide resource usage so far (all threads, exited ones too).
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set of this process or of whatever `exec`ed it, MB.
    pub max_rss_mb: f64,
    /// Voluntary context switches.
    pub vcsw: u64,
}

impl Rusage {
    /// Read `getrusage(RUSAGE_SELF)`.
    pub fn now() -> Rusage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` with the
        // layout the kernel fills; who = 0 is RUSAGE_SELF.
        let rc = unsafe { getrusage(0, &mut raw) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail on valid arguments"
        );
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Rusage {
            user_s: secs(raw.utime),
            sys_s: secs(raw.stime),
            max_rss_mb: raw.maxrss_kb as f64 / 1024.0,
            vcsw: raw.nvcsw as u64,
        }
    }
}

/// The harness's allocator: `System`, plus relaxed counters that are
/// bumped only while [`set_alloc_counting`] is on (the traced rep).
///
/// Every method forwards to `System`'s method of the same name. A
/// wrapper that leaves `alloc_zeroed` to the trait default turns each
/// `calloc` of lazily-zeroed pages into `malloc` + `memset`, which is
/// what made `ShrimpSystem::build` look 40 MB/node expensive in the
/// PR 3 `simperf` record (see README.md).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turn allocation counting on or off.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One harness-side host span: a named interval and the span that
/// caused it.
#[derive(Clone, Debug)]
pub struct HostSpan {
    /// What ran, e.g. `measure:nx:1k`.
    pub name: String,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Seconds since the recorder's origin.
    pub start_s: f64,
    /// Seconds since the recorder's origin.
    pub end_s: f64,
}

/// Collects [`HostSpan`]s in memory; off by default, so timed reps pay
/// nothing but the `Instant` reads their own metrics need.
#[derive(Debug)]
pub struct HostSpans {
    origin: Instant,
    enabled: bool,
    spans: Vec<HostSpan>,
}

impl HostSpans {
    /// A recorder; a disabled one drops everything.
    pub fn new(enabled: bool) -> HostSpans {
        HostSpans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Record `[start, end]` under `parent`; returns the span's index
    /// for use as a parent.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(HostSpan {
            name: name.into(),
            parent,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            end_s: end.duration_since(self.origin).as_secs_f64(),
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span at the current instant; close it with
    /// [`HostSpans::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.push(name, parent, now, now)
    }

    /// Close a span opened with [`HostSpans::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_s = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Everything recorded, in push order.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }
}
