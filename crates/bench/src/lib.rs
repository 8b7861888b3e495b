//! # shrimp-bench — the workloads regenerating the paper's evaluation
//!
//! Two binaries. `bench <workload> [flags]` runs any entry of
//! [`WORKLOADS`] — the paper's figures, the extension studies and the
//! four ledger workloads whose digests gate a committed
//! `BENCH_*.json` — through the one [`harness`] (`bench --list`,
//! `bench <workload> --help`). `simperf` measures the *host* cost of
//! the engine and is a binary of its own because it owns the process's
//! global allocator. This library holds the workloads and their
//! reporting. See DESIGN.md §3 for the experiment index and
//! EXPERIMENTS.md for paper-vs-measured results.
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod chaos;
mod collectives;
pub mod harness;
pub mod nx_pingpong;
mod pingpong;
mod report;
mod rmcbench;
pub mod rpc_compare;
pub mod scale;
pub mod simperf;
mod simprof;
pub mod socket_bench;
mod svcbench;
pub mod svcsoak;
pub mod topobench;
pub mod vrpc_bench;

use harness::{Flag, Kind, Workload, CHECK, LEDGER, SMOKE, WRITE_JSON};

/// A ledger workload whose `BENCH_*.json` commits no `smoke_digest`: the
/// full run is the only one there is something to check against.
const FULL_LEDGER: &[Flag] = &[WRITE_JSON, CHECK];
const UNCACHED: Flag = Flag::new(
    "--uncached",
    Kind::Switch,
    "add the caching-disabled AU case of §3.4",
);
const BREAKDOWN: Flag = Flag::new(
    "--breakdown",
    Kind::Switch,
    "add the SRPC software-only round trip",
);
const SEED: Flag = Flag::new("--seed", Kind::Int, "input seed (default 42)");
const SEEDS: Flag = Flag::new(
    "--seeds",
    Kind::Int,
    "generated plan pairs (default 2; smoke 1)",
);
const PROFILE: Flag = Flag::new(
    "PROFILE",
    Kind::Choice(&simprof::WORKLOADS),
    "the workload to profile",
);
const CHAOS: Flag = Flag::new(
    "--chaos",
    Kind::Switch,
    "run under faults, overlay the fault log",
);
const TRACE: Flag = Flag::new(
    "--trace",
    Kind::Text("FILE"),
    "also write Chrome trace-event JSON",
);

/// Every `bench` workload, in `--list` order.
#[rustfmt::skip]
pub const WORKLOADS: &[Workload] = &[
    Workload::new("fig3", "Figure 3: VMMC base-layer latency and bandwidth", &[UNCACHED], pingpong::fig3),
    Workload::new("fig4", "Figure 4: NX latency and bandwidth", &[], nx_pingpong::fig4),
    Workload::new("fig5", "Figure 5: VRPC round trip", &[], vrpc_bench::fig5),
    Workload::new("fig7", "Figure 7: stream sockets", &[], socket_bench::fig7),
    Workload::new("fig8", "Figure 8: compatible vs specialized null RPC", &[BREAKDOWN], rpc_compare::fig8),
    Workload::new("ttcp", "§4.3: ttcp one-way socket throughput", &[], socket_bench::ttcp),
    Workload::new("ablations", "A1-A6: what each co-design choice is worth", &[], ablations::run),
    Workload::new("scale", "§8: NX collectives and mesh load, 4 vs 16 nodes", &[], scale::run),
    Workload::new("collectives", "shrimp-coll scaling and algorithm crossover", &[SMOKE, SEED], collectives::run),
    Workload::new("chaos", "every library under the fault-plan matrix", &[SMOKE, SEEDS], chaos::run),
    Workload::new("simprof", "per-layer virtual-time decomposition", &[PROFILE, CHAOS, TRACE], simprof::run),
    Workload::new("svcbench", "KV serving curve + failover (BENCH_svc.json)", FULL_LEDGER, svcbench::run),
    Workload::new("svcsoak", "chaos-soaked SLO run (BENCH_svcsoak.json)", LEDGER, svcsoak::run),
    Workload::new("rmcbench", "one-sided fetch, get, pager (BENCH_rmc.json)", FULL_LEDGER, rmcbench::run),
    Workload::new("topobench", "topology zoo, sw vs in-network (BENCH_topo.json)", LEDGER, topobench::run),
];
