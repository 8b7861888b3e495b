//! Wall-clock performance harness for the simulation engine itself.
//!
//! Everything else in this crate measures *virtual* time — the modelled
//! hardware. This module measures *host* time: how many wall seconds
//! and allocations the simulator burns to execute representative
//! workloads, and how many scheduled items per second the event kernel
//! sustains. It exists to keep the simulator fast enough that large
//! meshes and chaos sweeps are bound by the modelled hardware, not by
//! `Box<dyn FnOnce>` churn and condvar handshakes.
//!
//! The workloads are the repo's own figures, reused verbatim so the
//! numbers track real usage:
//!
//! * `fig3` — VMMC base-layer ping-pong, all four copy strategies;
//! * `fig7` — stream-socket ping-pong, all three variants;
//! * `coll4x4` — barrier + allreduce scaling study on a 4×4 mesh;
//! * `coll8x8` — the same on an 8×8 mesh (64 process threads), the
//!   headline number for engine-overhaul PRs.
//!
//! Virtual results (latencies, reduced values) are checked against the
//! same invariants the figure workloads assert, so a simperf run is also
//! an end-to-end correctness pass; and because virtual time is
//! deterministic, any two builds must agree on every virtual output
//! while differing only in wall cost.

use std::time::Instant;

use shrimp_sim::metrics::MetricsSnapshot;
use shrimp_sim::{Fnv1a, MetricsRegistry};

use crate::collectives::{allreduce_sweep, barrier_latency};
use crate::harness::Obj;
use crate::pingpong::{paper_pingpong, STRATEGIES};
use crate::report::{sweep, Point};
use crate::socket_bench::{self, socket_pingpong};

/// Measured host-side cost of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name (`fig3`, `fig7`, `coll4x4`, `coll8x8`).
    pub name: &'static str,
    /// Wall-clock seconds to run the workload.
    pub wall_s: f64,
    /// Engine counter deltas attributed to the workload.
    pub metrics: MetricsSnapshot,
    /// Heap allocations during the workload (0 when the caller
    /// installed no counting allocator).
    pub allocs: u64,
    /// Bytes requested from the allocator during the workload.
    pub alloc_bytes: u64,
    /// A virtual-time checksum: a stable digest of the workload's
    /// modelled results. Must be bit-identical across engine changes.
    pub virt_digest: u64,
}

impl WorkloadResult {
    /// Scheduled items (events + resumes) executed per wall second.
    pub fn items_per_sec(&self) -> f64 {
        self.metrics.items() as f64 / self.wall_s.max(1e-12)
    }
}

/// Allocation counter hooks. The `simperf` binary installs a counting
/// global allocator and passes its readers here; library users (tests)
/// pass [`no_alloc_counter`].
pub type AllocCounter = fn() -> (u64, u64);

/// The no-op allocation counter.
pub fn no_alloc_counter() -> (u64, u64) {
    (0, 0)
}

/// A figure's sweep — every variant over the paper's sizes — as a digest
/// of its points.
fn figure_digest<V: Copy>(variants: &[(V, &'static str)], cell: fn(V, usize) -> Point) -> u64 {
    let mut h = Fnv1a::default();
    for series in sweep(variants, cell) {
        for p in series.points {
            h.u64(p.size as u64).f64(p.latency_us).f64(p.bandwidth_mbs);
        }
    }
    h.finish()
}

fn run_workload(
    name: &'static str,
    alloc_counter: AllocCounter,
    body: impl FnOnce() -> u64,
) -> WorkloadResult {
    let (a0, b0) = alloc_counter();
    // A fresh registry per workload: counters attribute exactly to the
    // kernels this workload builds, not additively across workloads.
    let registry = MetricsRegistry::new();
    let guard = registry.install();
    let t0 = Instant::now();
    let virt_digest = body();
    let wall_s = t0.elapsed().as_secs_f64();
    drop(guard);
    let metrics = registry.snapshot();
    let (a1, b1) = alloc_counter();
    WorkloadResult {
        name,
        wall_s,
        metrics,
        allocs: a1.saturating_sub(a0),
        alloc_bytes: b1.saturating_sub(b0),
        virt_digest,
    }
}

/// The `fig3` workload: VMMC ping-pong, four strategies over the
/// paper's message sizes.
pub fn workload_fig3(alloc_counter: AllocCounter) -> WorkloadResult {
    let body = || figure_digest(&STRATEGIES, paper_pingpong);
    run_workload("fig3", alloc_counter, body)
}

/// The `fig7` workload: stream-socket ping-pong, three variants over
/// the paper's message sizes.
pub fn workload_fig7(alloc_counter: AllocCounter) -> WorkloadResult {
    let body = || figure_digest(&socket_bench::VARIANTS, socket_pingpong);
    run_workload("fig7", alloc_counter, body)
}

fn workload_coll(
    name: &'static str,
    width: usize,
    height: usize,
    sizes: &[usize],
    rounds: u32,
    alloc_counter: AllocCounter,
) -> WorkloadResult {
    run_workload(name, alloc_counter, || {
        let mut h = Fnv1a::default();
        h.f64(barrier_latency(width, height, rounds.max(4)));
        for pt in allreduce_sweep(width, height, sizes, None, rounds, 42) {
            h.u64(pt.bytes as u64).f64(pt.us_per_op);
        }
        h.finish()
    })
}

/// The `coll4x4` workload: barrier + allreduce sweep on a 4×4 mesh.
pub fn workload_coll4x4(alloc_counter: AllocCounter) -> WorkloadResult {
    workload_coll("coll4x4", 4, 4, &[64, 1024, 8192], 4, alloc_counter)
}

/// The `coll8x8` workload: barrier + allreduce sweep on an 8×8 mesh —
/// 64 blocking process threads, the engine's worst case and the
/// headline number for simulator-throughput work.
pub fn workload_coll8x8(alloc_counter: AllocCounter) -> WorkloadResult {
    workload_coll("coll8x8", 8, 8, &[64, 1024, 8192, 65536], 3, alloc_counter)
}

type WorkloadFn = fn(AllocCounter) -> WorkloadResult;

/// Run every workload (or the named subset) in a fixed order.
pub fn run_all(only: Option<&str>, alloc_counter: AllocCounter) -> Vec<WorkloadResult> {
    let all: [(&str, WorkloadFn); 4] = [
        ("fig3", workload_fig3),
        ("fig7", workload_fig7),
        ("coll4x4", workload_coll4x4),
        ("coll8x8", workload_coll8x8),
    ];
    all.iter()
        .filter(|(n, _)| only.is_none_or(|o| o == *n))
        .map(|(_, f)| f(alloc_counter))
        .collect()
}

/// Render results as the `BENCH_simperf.json` fragment for this run.
pub fn render_json(results: &[WorkloadResult]) -> String {
    let rows = results.iter().map(|r| {
        let row = Obj::new()
            .str("name", r.name)
            .num("wall_s", r.wall_s, 4)
            .raw("items", r.metrics.items())
            .num("items_per_sec", r.items_per_sec(), 0)
            .raw("events", r.metrics.events_executed)
            .raw("resumes", r.metrics.resumes)
            .raw("fast_resumes", r.metrics.fast_resumes)
            .raw("allocs", r.allocs)
            .raw("alloc_bytes", r.alloc_bytes)
            .hex("virt_digest", r.virt_digest);
        format!("    {row}")
    });
    format!("[\n{}\n  ]", rows.collect::<Vec<_>>().join(",\n"))
}

/// A workload's newest row in a committed `BENCH_simperf.json`. Its wall
/// time is what `--check` gates within a threshold; its counts and
/// digest are virtual work, which a run must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Committed wall seconds.
    pub wall_s: f64,
    /// Scheduled items (events plus resumes).
    pub items: u64,
    /// Event closures executed.
    pub events: u64,
    /// Process resumes.
    pub resumes: u64,
    /// Virtual-time checksum.
    pub virt_digest: u64,
}

impl Baseline {
    /// The newest row for workload `name`. Sections are appended in PR
    /// order, so it is the last object containing `"name": "<name>"`.
    /// `None` when no row names the workload or the row lacks a field.
    /// Minimal scan, no JSON dependency.
    pub fn newest(json: &str, name: &str) -> Option<Baseline> {
        let obj = json.rfind(&format!("\"name\": \"{name}\""))?;
        let row = &json[obj..];
        let row = &row[..row.find('}').unwrap_or(row.len())];
        let field = |key: &str| {
            let key = format!("\"{key}\":");
            let value = row[row.find(&key)? + key.len()..].trim_start();
            let value = value.trim_start_matches('"');
            let end = value.find([',', '"']).unwrap_or(value.len());
            Some(value[..end].trim())
        };
        Some(Baseline {
            wall_s: field("wall_s")?.parse().ok()?,
            items: field("items")?.parse().ok()?,
            events: field("events")?.parse().ok()?,
            resumes: field("resumes")?.parse().ok()?,
            virt_digest: u64::from_str_radix(field("virt_digest")?, 16).ok()?,
        })
    }

    /// One line per count or digest of `r` that differs from this row.
    pub fn mismatches(&self, r: &WorkloadResult) -> Vec<String> {
        let m = &r.metrics;
        let counts = [
            ("items", m.items(), self.items),
            ("events", m.events_executed, self.events),
            ("resumes", m.resumes, self.resumes),
        ];
        let mut out: Vec<String> = counts
            .iter()
            .filter(|(_, got, want)| got != want)
            .map(|(what, got, want)| format!("{what} {got}, committed {want}"))
            .collect();
        if r.virt_digest != self.virt_digest {
            let (got, want) = (r.virt_digest, self.virt_digest);
            out.push(format!("virt_digest {got:016x}, committed {want:016x}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_digest_is_deterministic() {
        let a = workload_fig3(no_alloc_counter);
        let b = workload_fig3(no_alloc_counter);
        assert_eq!(a.virt_digest, b.virt_digest);
        assert!(a.metrics.items() > 0);
    }

    #[test]
    fn baseline_parser_reads_committed_shape() {
        let json = r#"{
  "after": [
    {"name": "fig3", "wall_s": 0.1234, "items": 10, "events": 4, "resumes": 6, "virt_digest": "00000000000000ff"},
    {"name": "coll8x8", "wall_s": 2.5, "items": 20, "items_per_sec": 8, "events": 5, "resumes": 15, "virt_digest": "1c755f535b21e0bd"}
  ],
  "pr12": [
    {"name": "fig3", "wall_s": 0.0617, "items": 11, "events": 4, "resumes": 7, "virt_digest": "0a"},
    {"name": "fig7", "wall_s": 0.07, "items": 11}
  ],
  "speedup": {"fig3": 2.0}
}"#;
        // The newest section that has a row for the workload wins.
        let fig3 = Baseline::newest(json, "fig3").unwrap();
        assert_eq!(fig3.wall_s, 0.0617);
        assert_eq!((fig3.items, fig3.events, fig3.resumes), (11, 4, 7));
        assert_eq!(fig3.virt_digest, 0x0a);
        let coll = Baseline::newest(json, "coll8x8").unwrap();
        assert_eq!((coll.wall_s, coll.items), (2.5, 20), "not items_per_sec");
        assert_eq!(coll.virt_digest, 0x1c75_5f53_5b21_e0bd);
        assert_eq!(Baseline::newest(json, "nope"), None);
        assert_eq!(Baseline::newest(json, "fig7"), None, "a row without counts");
    }

    #[test]
    fn check_names_every_count_and_the_digest_that_differ() {
        let metrics = MetricsSnapshot {
            events_executed: 4,
            resumes: 7,
            ..MetricsSnapshot::default()
        };
        let r = WorkloadResult {
            name: "fig3",
            wall_s: 9.0,
            metrics,
            allocs: 0,
            alloc_bytes: 0,
            virt_digest: 0x0a,
        };
        let base = Baseline {
            wall_s: 0.1,
            items: 11,
            events: 4,
            resumes: 7,
            virt_digest: 0x0a,
        };
        assert!(base.mismatches(&r).is_empty(), "wall time is not a count");
        let moved = Baseline {
            items: 12,
            resumes: 8,
            virt_digest: 0x0b,
            ..base
        };
        assert_eq!(
            moved.mismatches(&r),
            [
                "items 11, committed 12",
                "resumes 7, committed 8",
                "virt_digest 000000000000000a, committed 000000000000000b",
            ]
        );
    }
}
