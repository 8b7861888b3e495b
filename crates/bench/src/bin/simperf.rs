//! Wall-clock performance harness for the simulation engine (host
//! seconds, scheduled items/sec, heap allocations) over the repo's own
//! figure workloads. See `shrimp_bench::simperf` for the workload
//! definitions and `simperf --help` for the flags.
//!
//! A binary of its own rather than a `bench` workload: it installs the
//! process's `#[global_allocator]` to count allocations and measures
//! host time, so it must not share a process with anything else. Its
//! digest and flag parsing are the harness's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use shrimp_bench::harness::{usage, Args, Flag, Kind};
use shrimp_bench::simperf::{render_json, run_all, Baseline};

const ABOUT: &str = "host cost of the simulation engine on the figure workloads";
const NAMES: [&str; 4] = ["fig3", "fig7", "coll4x4", "coll8x8"];
const FLAGS: &[Flag] = &[
    Flag::new("--only", Kind::Choice(&NAMES), "run one workload"),
    Flag::new(
        "--check",
        Kind::Text("FILE"),
        "gate on FILE's newest rows: wall time, counts, digest",
    ),
    Flag::new(
        "--threshold",
        Kind::Real,
        "--check fails above X x baseline (1.5)",
    ),
    Flag::new(
        "--obs-overhead",
        Kind::Choice(&NAMES),
        "recorder off vs on: same digest",
    ),
    Flag::new(
        "--obs-threshold",
        Kind::Real,
        "percent the recorder may cost (5)",
    ),
];

/// Counts every allocation the workloads make. Wraps the system
/// allocator; the counters are what the JSON rows report as `allocs` /
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

/// The observability-cost gate: run one workload alternately with the
/// recorder disabled and enabled until each side has run `SIDE_S` wall
/// seconds (a fig7 run is 0.06-0.2 s: a handful of them leaves the
/// minimum to the scheduler), demand bit-identical virtual digests,
/// and fail when the enabled side's fastest run costs more than
/// `pct_limit` percent extra wall clock over the disabled side's.
fn run_obs_overhead(name: &str, pct_limit: f64) -> ! {
    const SIDE_S: f64 = 1.0;
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    let (mut off_total, mut on_total) = (0.0, 0.0);
    let (mut off_digest, mut on_digest) = (0u64, 0u64);
    let (mut spans, mut reps) = (0usize, 0usize);
    while off_total < SIDE_S || on_total < SIDE_S {
        let r = run_all(Some(name), read_counters).remove(0);
        off = off.min(r.wall_s);
        off_total += r.wall_s;
        off_digest = r.virt_digest;

        let rec = shrimp_obs::Recorder::new();
        let guard = rec.install();
        let r = run_all(Some(name), read_counters).remove(0);
        drop(guard);
        on = on.min(r.wall_s);
        on_total += r.wall_s;
        on_digest = r.virt_digest;
        spans = rec.len();
        reps += 1;
    }
    assert_eq!(
        off_digest, on_digest,
        "virt_digest changed with the recorder installed"
    );
    assert!(spans > 0, "enabled runs must actually record spans");
    let pct = (on / off.max(1e-9) - 1.0) * 100.0;
    println!(
        "obs-overhead {name}: disabled {off:.3}s, enabled {on:.3}s ({pct:+.1}%, \
         {spans} spans, min of {reps} reps, limit +{pct_limit:.1}%)"
    );
    if pct > pct_limit {
        eprintln!("obs-overhead gate FAILED: enabled run costs {pct:.1}% > {pct_limit:.1}%");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage("simperf", ABOUT, FLAGS));
        return;
    }
    let args = Args::parse(FLAGS, &argv).unwrap_or_else(|message| {
        eprintln!("simperf: {message}");
        eprint!("{}", usage("simperf", ABOUT, FLAGS));
        std::process::exit(2);
    });
    if let Some(name) = args.get("--obs-overhead") {
        run_obs_overhead(name, args.real("--obs-threshold", 5.0));
    }
    let only = args.get("--only");
    let threshold = args.real("--threshold", 1.5);

    let results = run_all(only, read_counters);

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
    println!("{}", render_json(&results));

    if let Some(path) = args.get("--check") {
        let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("simperf: cannot read --check file {path}: {e}");
            std::process::exit(2);
        });
        let mut failed = false;
        for r in &results {
            let Some(base) = Baseline::newest(&committed, r.name) else {
                eprintln!("check: no committed baseline for {}, skipping", r.name);
                continue;
            };
            let ratio = r.wall_s / base.wall_s.max(1e-9);
            let verdict = if ratio > threshold { "FAIL" } else { "ok" };
            eprintln!(
                "check: {} wall {:.3}s vs baseline {:.3}s ({:.2}x, limit {:.2}x) {}",
                r.name, r.wall_s, base.wall_s, ratio, threshold, verdict
            );
            failed |= ratio > threshold;
            // Virtual work is exact: any count or digest off the
            // committed row is a change the ledger has not recorded.
            for line in base.mismatches(r) {
                eprintln!("check: {} {line} FAIL", r.name);
                failed = true;
            }
        }
        if failed {
            eprintln!("check: beyond {threshold}x baseline, or virtual work off the ledger");
            std::process::exit(1);
        }
    }
}
