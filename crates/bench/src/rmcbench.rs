//! The one-sided remote-memory benchmark: raw fetch latency and
//! bandwidth, the zero-copy svc `get` against its SRPC baseline, and
//! the disaggregated-memory pager — all in virtual time, so every
//! number replays bit-identically.
//!
//! Three cells:
//!
//! * **fetch** — a reader fetches `size` bytes from a remote export
//!   (read permission set) over a sweep of transfer sizes; per-fetch
//!   latency histograms give the median curve, and the total
//!   bytes-over-span give the achieved one-sided bandwidth.
//! * **get** — the serving comparison the paper's one-sided model
//!   motivates: the same keyed workload is read twice from a chained
//!   KV cluster, once over the SRPC request/response fast path and
//!   once with `read_through` on (one-sided fetch of the primary's
//!   slot table, RPC fallback). A remote `get` then costs roughly half
//!   the RPC's round trip: the request packet *is* the fetch
//!   descriptor and the primary's CPU never runs. The harness asserts
//!   the one-sided median actually beats the SRPC median.
//! * **pager** — an LRU [`RemotePager`] over a memory-server pool
//!   drives a deterministic hot/cold access pattern and reports hit
//!   rate, evictions, write-backs, and fault-latency percentiles.
//!
//! Digests over every virtual quantity gate `BENCH_rmc.json` in CI
//! (`rmcbench --check`), together with one relation measured inside the
//! run: the largest fetch must reach 0.9 × the DU-0copy bandwidth of a
//! deposit of the same size, because a fetch reply *is* a deliberate
//! update issued by the responder's engine.

use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{BufferName, ExportOpts, ShrimpSystem, SystemConfig};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, PAGE_SIZE};
use shrimp_obs::Log2Hist;
use shrimp_sim::{Kernel, SimChannel, SplitMix64};
use shrimp_svc::{SvcClient, SvcCluster, SvcConfig};

use crate::harness::{Args, Fnv1a, Json, Obj, Outcome};
use crate::pingpong::{paper_pingpong, Strategy};
use crate::report::us;

/// Experiment shape for all three cells.
#[derive(Debug, Clone)]
pub struct RmcConfig {
    /// Mesh width.
    pub width: usize,
    /// Mesh height.
    pub height: usize,
    /// Fetch-cell transfer sizes (bytes, word-multiples).
    pub fetch_sizes: Vec<usize>,
    /// Fetches per size.
    pub fetch_reps: usize,
    /// Get-cell keys (spread over remote shards).
    pub get_keys: usize,
    /// Measured get rounds over the key set (after warm-up).
    pub get_rounds: usize,
    /// Pager-cell far-memory pages.
    pub pager_vpages: usize,
    /// Pager-cell local frames.
    pub pager_frames: usize,
    /// Pager-cell accesses.
    pub pager_ops: usize,
    /// Schedule seed.
    pub seed: u64,
}

impl RmcConfig {
    /// The committed configuration.
    pub fn paper() -> RmcConfig {
        RmcConfig {
            width: 2,
            height: 2,
            fetch_sizes: vec![64, 256, 1024, 4096, 16384, 65536],
            fetch_reps: 32,
            get_keys: 32,
            get_rounds: 8,
            pager_vpages: 32,
            pager_frames: 8,
            pager_ops: 2_000,
            seed: 42,
        }
    }

    /// A CI-sized variant.
    pub fn smoke() -> RmcConfig {
        RmcConfig {
            width: 2,
            height: 2,
            fetch_sizes: vec![64, 4096, 16384],
            fetch_reps: 8,
            get_keys: 12,
            get_rounds: 3,
            pager_vpages: 12,
            pager_frames: 4,
            pager_ops: 300,
            seed: 42,
        }
    }
}

/// One fetch-cell size point.
#[derive(Debug, Clone)]
pub struct FetchPoint {
    /// Transfer size, bytes.
    pub size: usize,
    /// Median per-fetch latency, picoseconds.
    pub p50_ps: u64,
    /// Mean per-fetch latency, picoseconds.
    pub mean_ps: u64,
    /// Achieved one-sided bandwidth over the cell, MB/s.
    pub mb_s: f64,
    /// Latency histogram digest.
    pub hist_digest: u64,
}

/// One serving-comparison run (SRPC baseline or one-sided).
#[derive(Debug, Clone, Default)]
pub struct GetCell {
    /// Median remote-get latency, picoseconds.
    pub p50_ps: u64,
    /// Mean remote-get latency, picoseconds.
    pub mean_ps: u64,
    /// Measured gets.
    pub gets: u64,
    /// Gets served by a one-sided fetch (0 for the SRPC baseline).
    pub fetch_hits: u64,
    /// Read-through attempts that fell back to RPC.
    pub fetch_misses: u64,
    /// Read-through transport refusals.
    pub fetch_errors: u64,
    /// Latency histogram digest.
    pub hist_digest: u64,
}

/// The pager cell's outcome.
#[derive(Debug, Clone, Default)]
pub struct PagerCell {
    /// Frame-cache hits.
    pub hits: u64,
    /// Remote page faults.
    pub misses: u64,
    /// Evictions.
    pub evictions: u64,
    /// Dirty write-backs.
    pub writebacks: u64,
    /// Hit rate over all accesses.
    pub hit_rate: f64,
    /// Median fault latency, picoseconds.
    pub fault_p50_ps: u64,
    /// Fault-latency histogram digest.
    pub fault_digest: u64,
    /// Virtual completion time of the workload, picoseconds.
    pub span_ps: u64,
}

/// Everything `rmcbench` measures.
#[derive(Debug, Clone)]
pub struct RmcOutcome {
    /// The fetch latency/bandwidth sweep.
    pub fetch: Vec<FetchPoint>,
    /// SRPC-served remote gets.
    pub srpc: GetCell,
    /// One-sided (read-through) remote gets.
    pub onesided: GetCell,
    /// The disaggregated-memory pager cell.
    pub pager: PagerCell,
    /// Figure 3's DU-0copy bandwidth (MB/s) at the largest fetch size,
    /// from a ping-pong run beside the cells: what the same two buses
    /// deliver to a deposit.
    pub du0copy_mb_s: f64,
}

/// `BENCH_rmc.json` before PR 13 (fetch replies read a whole page, then
/// streamed it; `Vmmc::fetch` waited out each page chunk in turn):
/// `(bytes, p50_us)` of the fetch sweep, and the pager's `fault_p50_us`.
const PR13_BEFORE_FETCH: [(usize, f64); 6] = [
    (64, 12.31),
    (256, 26.21),
    (1024, 81.80),
    (4096, 292.60),
    (16384, 1161.39),
    (65536, 4636.57),
];
const PR13_BEFORE_FAULT_P50_US: f64 = 368.68;

/// Spawn the owner of a one-sided read experiment: a process on node 1
/// that fills `len` bytes with the `i % 241` pattern, exports them with
/// read permission, and publishes the buffer name on the returned
/// channel. Its CPU then idles; the NIC serves the fetches.
pub(crate) fn spawn_read_owner(
    kernel: &Kernel,
    system: &Arc<ShrimpSystem>,
    len: usize,
) -> SimChannel<BufferName> {
    let names: SimChannel<BufferName> = SimChannel::new();
    let owner = system.endpoint(1, "read-owner");
    let published = names.clone();
    kernel.spawn("read-owner", move |ctx| {
        let buf = owner
            .proc_()
            .alloc(len.max(PAGE_SIZE), CacheMode::WriteBack);
        let fill: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
        owner.proc_().write(ctx, buf, &fill).unwrap();
        let opts = ExportOpts {
            read: true,
            ..Default::default()
        };
        let name = owner.export(ctx, buf, len.max(PAGE_SIZE), opts).unwrap();
        published.send(&ctx.handle(), name);
    });
    names
}

/// Raw fetch sweep: node 0 fetches from node 1's read-exported pool.
pub fn run_fetch_cell(cfg: &RmcConfig) -> Vec<FetchPoint> {
    let mut out = Vec::new();
    for &size in &cfg.fetch_sizes {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(cfg.width, cfg.height));
        let names = spawn_read_owner(&kernel, &system, size);
        let reader = system.endpoint(0, "rmcbench-reader");
        let reps = cfg.fetch_reps;
        let result: Arc<Mutex<Option<(Log2Hist, u64)>>> = Arc::new(Mutex::new(None));
        let res = Arc::clone(&result);
        kernel.spawn("reader", move |ctx| {
            let name = names.recv(ctx);
            let src = reader.import(ctx, NodeId(1), name).unwrap();
            let dst = reader
                .proc_()
                .alloc(size.max(PAGE_SIZE), CacheMode::WriteBack);
            let mut hist = Log2Hist::default();
            let t_start = ctx.now();
            for _ in 0..reps {
                let t0 = ctx.now();
                reader.fetch(ctx, dst, &src, 0, size).unwrap();
                hist.record(ctx.now().since(t0).as_ps());
            }
            let span = ctx.now().since(t_start).as_ps();
            *res.lock() = Some((hist, span));
        });
        kernel
            .run_until_quiescent()
            .expect("fetch cell must quiesce");
        let (hist, span_ps) = result.lock().take().expect("reader must finish");
        let bytes = (size * reps) as f64;
        out.push(FetchPoint {
            size,
            p50_ps: hist.percentile(0.50),
            mean_ps: hist.mean(),
            mb_s: bytes / (span_ps as f64 / 1e12) / 1e6,
            hist_digest: hist.digest(),
        });
    }
    out
}

/// Remote-get comparison: the same keyed read workload against a
/// chained cluster, with or without the one-sided read-through path.
///
/// Only keys routing to shards whose primary is *not* the client's
/// node are measured — the comparison is about remote reads.
pub fn run_get_cell(cfg: &RmcConfig, read_through: bool) -> GetCell {
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(cfg.width, cfg.height));
    let nodes = system.len();
    let mut scfg = SvcConfig::chained(nodes);
    scfg.read_through = read_through;
    let cluster = SvcCluster::spawn(&system, scfg);
    cluster.register_clients(1);
    let result: Arc<Mutex<Option<GetCell>>> = Arc::new(Mutex::new(None));

    let res = Arc::clone(&result);
    let cl = Arc::clone(&cluster);
    let want = cfg.get_keys;
    let rounds = cfg.get_rounds;
    kernel.spawn("rmcbench-get-client", move |ctx| {
        let mut cli = SvcClient::new(&cl, 0, "rmc");
        // Deterministic key set, filtered to remote shards.
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut i = 0u64;
        while keys.len() < want {
            let key = format!("rmc-get-{i:04}").into_bytes();
            i += 1;
            if cl.route(cli.shard_of(&key)).primary != 0 {
                keys.push(key);
            }
        }
        for (k, key) in keys.iter().enumerate() {
            let val = format!("rmc-val-{k:04}-payload").into_bytes();
            cli.put(ctx, key, &val).unwrap();
        }
        // Warm-up: bindings, table imports, first-touch fallbacks.
        for _ in 0..2 {
            for key in &keys {
                cli.get(ctx, key).unwrap();
            }
        }
        let warm = cli.stats();
        let mut hist = Log2Hist::default();
        let mut gets = 0u64;
        for _ in 0..rounds {
            for (k, key) in keys.iter().enumerate() {
                let t0 = ctx.now();
                let (_, val) = cli.get(ctx, key).unwrap();
                hist.record(ctx.now().since(t0).as_ps());
                gets += 1;
                assert_eq!(
                    val.as_deref(),
                    Some(format!("rmc-val-{k:04}-payload").as_bytes()),
                    "measured get returned the wrong value"
                );
            }
        }
        let stats = cli.stats();
        *res.lock() = Some(GetCell {
            p50_ps: hist.percentile(0.50),
            mean_ps: hist.mean(),
            gets,
            fetch_hits: stats.fetch_hits - warm.fetch_hits,
            fetch_misses: stats.fetch_misses - warm.fetch_misses,
            fetch_errors: stats.fetch_errors - warm.fetch_errors,
            hist_digest: hist.digest(),
        });
        cl.client_done();
    });
    kernel.run_until_quiescent().expect("get cell must quiesce");
    let cell = result.lock().take().expect("client must finish");
    if read_through {
        assert!(
            cell.fetch_hits > 0,
            "the one-sided run must serve measured gets by fetch: {cell:?}"
        );
    } else {
        assert_eq!(cell.fetch_hits, 0, "the baseline must never fetch");
    }
    cell
}

/// Disaggregated-memory pager cell: a hot/cold access pattern (80% of
/// accesses to the first quarter of the pages) over a remote pool.
pub fn run_pager_cell(cfg: &RmcConfig) -> PagerCell {
    use shrimp_rmc::{MemoryServer, RemotePager};

    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::with_mesh(cfg.width, cfg.height));
    let names: SimChannel<BufferName> = SimChannel::new();
    let server = system.endpoint(1, "rmcbench-memserver");
    let client = system.endpoint(0, "rmcbench-pager");
    let (vpages, frames, ops, seed) = (cfg.pager_vpages, cfg.pager_frames, cfg.pager_ops, cfg.seed);
    let result: Arc<Mutex<Option<PagerCell>>> = Arc::new(Mutex::new(None));

    {
        let names = names.clone();
        kernel.spawn("memserver", move |ctx| {
            let srv = MemoryServer::export(server, ctx, vpages).unwrap();
            names.send(&ctx.handle(), srv.name());
            // The server CPU idles; its NIC serves fetches and accepts
            // write-back deposits on its own.
        });
    }
    let res = Arc::clone(&result);
    kernel.spawn("pager", move |ctx| {
        let name = names.recv(ctx);
        let pool = client.import(ctx, NodeId(1), name).unwrap();
        let mut pager = RemotePager::new(client, pool, vpages, frames);
        let mut rng = SplitMix64::new(seed);
        let hot = (vpages / 4).max(1);
        for _ in 0..ops {
            let page = if rng.next_below(100) < 80 {
                rng.next_below(hot as u64) as usize
            } else {
                rng.next_below(vpages as u64) as usize
            };
            let addr = page * PAGE_SIZE + rng.next_below((PAGE_SIZE - 64) as u64) as usize;
            if rng.next_below(100) < 30 {
                let fill = [(page % 251) as u8; 64];
                pager.write(ctx, addr, &fill).unwrap();
            } else {
                let _ = pager.read(ctx, addr, 64).unwrap();
            }
        }
        pager.flush(ctx).unwrap();
        let s = pager.stats();
        *res.lock() = Some(PagerCell {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            writebacks: s.writebacks,
            hit_rate: s.hit_rate(),
            fault_p50_ps: s.fault_latency.percentile(0.50),
            fault_digest: s.fault_latency.digest(),
            span_ps: ctx.now().since(shrimp_sim::SimTime::ZERO).as_ps(),
        });
    });
    kernel
        .run_until_quiescent()
        .expect("pager cell must quiesce");
    let cell = result.lock().take().expect("pager must finish");
    cell
}

/// The full run.
///
/// # Panics
///
/// Panics unless the one-sided svc `get` beats the SRPC baseline on
/// median latency — the whole point of the remote-fetch engine.
pub fn run_all(cfg: &RmcConfig) -> RmcOutcome {
    let fetch = run_fetch_cell(cfg);
    let srpc = run_get_cell(cfg, false);
    let onesided = run_get_cell(cfg, true);
    assert!(
        onesided.p50_ps < srpc.p50_ps,
        "one-sided get (p50 {} ps) must beat SRPC get (p50 {} ps)",
        onesided.p50_ps,
        srpc.p50_ps
    );
    let pager = run_pager_cell(cfg);
    let largest = fetch.last().map_or(PAGE_SIZE, |p| p.size);
    let du = paper_pingpong(Strategy::Du0Copy, largest);
    RmcOutcome {
        fetch,
        srpc,
        onesided,
        pager,
        du0copy_mb_s: du.bandwidth_mbs,
    }
}

/// Replay-stable digest over every virtual quantity.
pub fn rmc_digest(o: &RmcOutcome) -> u64 {
    let mut h = Fnv1a::default();
    for p in &o.fetch {
        for v in [p.size as u64, p.p50_ps, p.mean_ps, p.hist_digest] {
            h.u64(v);
        }
    }
    for c in [&o.srpc, &o.onesided] {
        for v in [
            c.p50_ps,
            c.mean_ps,
            c.gets,
            c.fetch_hits,
            c.fetch_misses,
            c.fetch_errors,
            c.hist_digest,
        ] {
            h.u64(v);
        }
    }
    for v in [
        o.pager.hits,
        o.pager.misses,
        o.pager.evictions,
        o.pager.writebacks,
        o.pager.fault_p50_ps,
        o.pager.fault_digest,
        o.pager.span_ps,
    ] {
        h.u64(v);
    }
    h.finish()
}

/// Render the committed `results/rmc_curve.txt`.
pub fn render_curve(cfg: &RmcConfig, o: &RmcOutcome) -> String {
    let mut out = format!(
        "one-sided remote memory mesh={}x{} reps={} seed={}\n\
         fetch latency/bandwidth (node0 <- node1):\n\
         {:>9} {:>10} {:>10} {:>10}\n",
        cfg.width, cfg.height, cfg.fetch_reps, cfg.seed, "bytes", "p50_us", "mean_us", "MB/s",
    );
    for p in &o.fetch {
        out.push_str(&format!(
            "{:>9} {:>10.2} {:>10.2} {:>10.1}\n",
            p.size,
            us(p.p50_ps),
            us(p.mean_ps),
            p.mb_s,
        ));
    }
    if let Some(p) = o.fetch.last() {
        out.push_str(&format!(
            "deposit of {} bytes, DU-0copy: {:.1} MB/s (fetch/deposit {:.2})\n",
            p.size,
            o.du0copy_mb_s,
            p.mb_s / o.du0copy_mb_s,
        ));
    }
    let speedup = o.srpc.p50_ps as f64 / o.onesided.p50_ps.max(1) as f64;
    out.push_str(&format!(
        "svc remote get ({} gets/run): srpc_p50_us={:.2} onesided_p50_us={:.2} \
         speedup={:.2}x fetch_hits={} misses={} errors={}\n",
        o.srpc.gets,
        us(o.srpc.p50_ps),
        us(o.onesided.p50_ps),
        speedup,
        o.onesided.fetch_hits,
        o.onesided.fetch_misses,
        o.onesided.fetch_errors,
    ));
    out.push_str(&format!(
        "pager vpages={} frames={} ops={}: hits={} misses={} evictions={} \
         writebacks={} hit_rate={:.3} fault_p50_us={:.2}\n",
        cfg.pager_vpages,
        cfg.pager_frames,
        cfg.pager_ops,
        o.pager.hits,
        o.pager.misses,
        o.pager.evictions,
        o.pager.writebacks,
        o.pager.hit_rate,
        us(o.pager.fault_p50_ps),
    ));
    out
}

/// Render the committed `BENCH_rmc.json`.
pub fn render_json(cfg: &RmcConfig, o: &RmcOutcome) -> String {
    let mut json = Json::new(&[
        "One-sided remote memory: raw fetch latency/bandwidth, the",
        "zero-copy svc get vs its SRPC baseline, and the disaggregated-",
        "memory pager. Generated by `cargo run --release -p shrimp-bench",
        "-- rmcbench`. All quantities are virtual-time deterministic;",
        "CI's rmc-smoke job re-runs the cells and compares the digest.",
    ]);
    let config = Obj::new()
        .str("mesh", &format!("{}x{}", cfg.width, cfg.height))
        .raw("fetch_reps", cfg.fetch_reps)
        .raw("get_keys", cfg.get_keys)
        .raw("get_rounds", cfg.get_rounds)
        .raw("pager_vpages", cfg.pager_vpages)
        .raw("pager_frames", cfg.pager_frames)
        .raw("pager_ops", cfg.pager_ops)
        .raw("seed", cfg.seed);
    json.put("config", config);
    let fetch = o.fetch.iter().map(|p| {
        Obj::new()
            .raw("bytes", p.size)
            .num("p50_us", us(p.p50_ps), 2)
            .num("mean_us", us(p.mean_ps), 2)
            .num("mb_s", p.mb_s, 1)
            .hex("hist_digest", p.hist_digest)
    });
    json.rows("fetch", fetch);
    json.put("du0copy_mb_s", format_args!("{:.1}", o.du0copy_mb_s));
    for (name, c) in [("srpc_get", &o.srpc), ("onesided_get", &o.onesided)] {
        let cell = Obj::new()
            .num("p50_us", us(c.p50_ps), 2)
            .num("mean_us", us(c.mean_ps), 2)
            .raw("gets", c.gets)
            .raw("fetch_hits", c.fetch_hits)
            .raw("fetch_misses", c.fetch_misses)
            .raw("fetch_errors", c.fetch_errors)
            .hex("hist_digest", c.hist_digest);
        json.put(name, cell);
    }
    let pager = Obj::new()
        .raw("hits", o.pager.hits)
        .raw("misses", o.pager.misses)
        .raw("evictions", o.pager.evictions)
        .raw("writebacks", o.pager.writebacks)
        .num("hit_rate", o.pager.hit_rate, 3)
        .num("fault_p50_us", us(o.pager.fault_p50_ps), 2)
        .hex("fault_digest", o.pager.fault_digest);
    json.put("pager", pager);
    let row = |name: &str, fetch: &[(usize, f64)], fault_us: f64| {
        let cells = (fetch.iter()).fold(Obj::new(), |o, (b, p50)| o.num(&b.to_string(), *p50, 2));
        let row = Obj::new()
            .raw("fetch_p50_us", cells)
            .num("pager_fault_p50_us", fault_us, 2);
        format!("\"{name}\": {row}")
    };
    let before = row("before", &PR13_BEFORE_FETCH, PR13_BEFORE_FAULT_P50_US);
    let after_fetch: Vec<_> = o.fetch.iter().map(|p| (p.size, us(p.p50_ps))).collect();
    let after = row("after", &after_fetch, us(o.pager.fault_p50_ps));
    json.block("pr13", "{}", [before, after].iter());
    json.hex("rmc_digest", rmc_digest(o));
    json.finish()
}

/// The remote-memory benchmark as a `bench` workload: the committed
/// cells, gated on `rmc_digest` and on one relation measured inside the
/// run — the largest fetch must reach 0.9 × the DU-0copy bandwidth of a
/// deposit of the same size.
pub fn run(_: &Args) -> Outcome {
    let cfg = RmcConfig::paper();
    let o = run_all(&cfg);
    let largest = o.fetch.last().expect("a fetch sweep");
    let relation = format!(
        "{} B fetch {:.1} MB/s reaches 0.9 x DU-0copy {:.1} MB/s",
        largest.size, largest.mb_s, o.du0copy_mb_s
    );
    Outcome {
        text: render_curve(&cfg, &o),
        json: Some(render_json(&cfg, &o)),
        digests: vec![("rmc_digest", rmc_digest(&o))],
        checks: vec![(relation, largest.mb_s >= 0.9 * o.du0copy_mb_s)],
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::committed_digest;

    #[test]
    fn smoke_onesided_beats_srpc_and_replays() {
        let cfg = RmcConfig::smoke();
        let o = run_all(&cfg);
        assert!(o.onesided.p50_ps < o.srpc.p50_ps);
        assert!(o.pager.misses > 0 && o.pager.hits > 0);
        assert!(o.fetch.iter().all(|p| p.p50_ps > 0));
        // Larger transfers achieve more bandwidth, and the largest runs
        // at what a deposit of its size gets.
        let largest = o.fetch.last().unwrap();
        assert!(largest.mb_s > o.fetch.first().unwrap().mb_s);
        assert!(largest.mb_s >= 0.9 * o.du0copy_mb_s, "{largest:?}");
        let o2 = run_all(&cfg);
        assert_eq!(rmc_digest(&o), rmc_digest(&o2), "rmcbench must replay");
        let json = render_json(&cfg, &o);
        assert_eq!(committed_digest(&json, "rmc_digest"), Some(rmc_digest(&o)));
    }
}
