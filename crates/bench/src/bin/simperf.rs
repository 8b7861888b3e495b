//! Wall-clock performance harness for the simulation engine (host
//! seconds, scheduled items/sec, heap allocations) over the repo's own
//! figure workloads. See `shrimp_bench::simperf` for the workload
//! definitions.
//!
//! Usage:
//!   `cargo run --release -p shrimp-bench --bin simperf [-- --only NAME]
//!        [-- --json] [-- --check BENCH_simperf.json [--threshold X]]`
//!
//! * default: run all workloads, print a human-readable table plus the
//!   JSON fragment to splice into `BENCH_simperf.json`;
//! * `--only NAME`: run a single workload (`fig3`, `fig7`, `coll4x4`,
//!   `coll8x8`);
//! * `--check FILE`: CI regression gate — after running, compare each
//!   workload's wall seconds against its newest row in the committed
//!   ledger and exit non-zero if any exceeds `threshold ×` baseline
//!   (default 1.5; CI machines are noisy, virtual results are exact,
//!   so only gross regressions should trip this);
//! * `--obs-overhead NAME [--obs-threshold PCT]`: observability-cost
//!   gate — run NAME with the `shrimp-obs` recorder disabled and
//!   enabled, demand identical virtual digests, and fail when the
//!   enabled run costs more than PCT percent extra wall clock
//!   (default 5).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use shrimp_bench::simperf::{baseline_wall_s, render_json, run_all};

/// Counts every allocation the workloads make. Wraps the system
/// allocator; the counters are what `--json` reports as `allocs` /
/// `alloc_bytes`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; only adds relaxed counter
// increments, which allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    // Counted exactly as `alloc`; forwarded so that zeroed memory comes
    // from the system allocator (fresh zero pages for a 40 MB `PhysMem`)
    // rather than the trait default's `alloc` plus a real memset.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn read_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// The observability-cost gate: run one workload alternately with the
/// recorder disabled and enabled (min wall seconds of `REPS` runs
/// each, to ride out CI noise), demand bit-identical virtual digests,
/// and fail when the enabled run costs more than `pct_limit` percent
/// extra wall clock.
fn run_obs_overhead(name: &str, pct_limit: f64) -> ! {
    const REPS: usize = 3;
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    let (mut off_digest, mut on_digest) = (0u64, 0u64);
    let mut spans = 0usize;
    for _ in 0..REPS {
        let Some(r) = run_all(Some(name), read_counters).into_iter().next() else {
            eprintln!("unknown workload {name}; expected fig3|fig7|coll4x4|coll8x8");
            std::process::exit(2);
        };
        off = off.min(r.wall_s);
        off_digest = r.virt_digest;

        let rec = shrimp_obs::Recorder::new();
        let guard = rec.install();
        let r = run_all(Some(name), read_counters)
            .into_iter()
            .next()
            .unwrap();
        drop(guard);
        on = on.min(r.wall_s);
        on_digest = r.virt_digest;
        spans = rec.len();
    }
    assert_eq!(
        off_digest, on_digest,
        "virt_digest changed with the recorder installed"
    );
    assert!(spans > 0, "enabled runs must actually record spans");
    let pct = (on / off.max(1e-9) - 1.0) * 100.0;
    println!(
        "obs-overhead {name}: disabled {off:.3}s, enabled {on:.3}s ({pct:+.1}%, \
         {spans} spans, limit +{pct_limit:.1}%)"
    );
    if pct > pct_limit {
        eprintln!("obs-overhead gate FAILED: enabled run costs {pct:.1}% > {pct_limit:.1}%");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(name) = arg_value(&args, "--obs-overhead") {
        let pct_limit: f64 = arg_value(&args, "--obs-threshold")
            .and_then(|v| v.parse().ok())
            .unwrap_or(5.0);
        run_obs_overhead(&name, pct_limit);
    }
    let only = arg_value(&args, "--only");
    let json_only = args.iter().any(|a| a == "--json");
    let check = arg_value(&args, "--check");
    let threshold: f64 = arg_value(&args, "--threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.5);

    let results = run_all(only.as_deref(), read_counters);
    if results.is_empty() {
        eprintln!("unknown workload {only:?}; expected fig3|fig7|coll4x4|coll8x8");
        std::process::exit(2);
    }

    if !json_only {
        println!(
            "{:<9} {:>9} {:>12} {:>14} {:>12} {:>12} {:>14}  virt digest",
            "workload", "wall s", "items", "items/sec", "fast-resume", "allocs", "alloc bytes",
        );
        for r in &results {
            println!(
                "{:<9} {:>9.3} {:>12} {:>14.0} {:>12} {:>12} {:>14}  {:016x}",
                r.name,
                r.wall_s,
                r.metrics.items(),
                r.items_per_sec(),
                r.metrics.fast_resumes,
                r.allocs,
                r.alloc_bytes,
                r.virt_digest
            );
        }
        println!();
    }
    println!("{}", render_json(&results));

    if let Some(path) = check {
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let mut failed = false;
        for r in &results {
            match baseline_wall_s(&committed, r.name) {
                None => {
                    eprintln!("check: no committed baseline for {}, skipping", r.name);
                }
                Some(base) => {
                    let ratio = r.wall_s / base.max(1e-9);
                    let verdict = if ratio > threshold { "FAIL" } else { "ok" };
                    eprintln!(
                        "check: {} wall {:.3}s vs baseline {:.3}s ({:.2}x, limit {:.2}x) {}",
                        r.name, r.wall_s, base, ratio, threshold, verdict
                    );
                    failed |= ratio > threshold;
                }
            }
        }
        if failed {
            eprintln!("check: wall-clock regression beyond {threshold}x baseline");
            std::process::exit(1);
        }
    }
}
