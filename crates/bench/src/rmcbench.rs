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
//!   slot table, RPC fallback). The one-sided read's request packet
//!   *is* the fetch descriptor and the primary's CPU never runs; the
//!   RPC's request and reply carry only the bytes they use. The report
//!   quotes the ratio of the two medians, whose inputs the digest
//!   covers.
//! * **pager** — an LRU [`RemotePager`] over a memory-server pool
//!   drives a deterministic hot/cold access pattern and reports hit
//!   rate, evictions, write-backs, and fault-latency percentiles.
//!
//! Digests over every virtual quantity gate `BENCH_rmc.json` in CI
//! (`rmcbench --check`), together with one relation measured inside the
//! run: the largest fetch must reach 0.9 × the DU-0copy bandwidth of a
//! deposit of the same size, because a fetch reply *is* a deliberate
//! update issued by the responder's engine.

use shrimp_core::{BufferName, ExportOpts, SystemConfig};
use shrimp_mesh::NodeId;
use shrimp_node::{CacheMode, PAGE_SIZE};
use shrimp_obs::Log2Hist;
use shrimp_sim::{SimChannel, SplitMix64};
use shrimp_svc::{SvcClient, SvcCluster, SvcConfig};

use crate::harness::{field, Args, Cell, Experiment, Fnv1a, Json, Obj, Outcome, Row};
use crate::pingpong::{attach, paper_pingpong, publish, Strategy};
use crate::report::us;

/// Mesh every cell runs on, `(width, height)`.
const MESH: (usize, usize) = (2, 2);

/// Schedule seed.
const SEED: u64 = 42;

/// Experiment shape for all three cells.
#[derive(Debug, Clone)]
struct RmcConfig {
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
}

impl RmcConfig {
    /// The committed configuration.
    fn paper() -> RmcConfig {
        RmcConfig {
            fetch_sizes: vec![64, 256, 1024, 4096, 16384, 65536],
            fetch_reps: 32,
            get_keys: 32,
            get_rounds: 8,
            pager_vpages: 32,
            pager_frames: 8,
            pager_ops: 2_000,
        }
    }

    /// A CI-sized variant.
    #[cfg(test)]
    fn smoke() -> RmcConfig {
        RmcConfig {
            fetch_sizes: vec![64, 4096, 16384],
            fetch_reps: 8,
            get_keys: 12,
            get_rounds: 3,
            pager_vpages: 12,
            pager_frames: 4,
            pager_ops: 300,
        }
    }
}

/// One fetch-cell size point.
#[derive(Debug, Clone)]
struct FetchPoint {
    /// Transfer size, bytes.
    pub size: usize,
    /// Achieved one-sided bandwidth over the cell, MB/s.
    pub mb_s: f64,
    /// Per-fetch latency, picoseconds.
    pub hist: Log2Hist,
}

impl FetchPoint {
    /// Median per-fetch latency, picoseconds.
    fn p50_ps(&self) -> u64 {
        self.hist.percentile(0.50)
    }

    fn row(&self) -> Row {
        use Cell::{Count, Digest, Ps, Real};
        Row(vec![
            field("bytes", Count(self.size as u64)).col("bytes", 9),
            field("p50_us", Ps(self.p50_ps())).col("p50_us", 10),
            field("mean_us", Ps(self.hist.mean())).col("mean_us", 10),
            field("mb_s", Real(self.mb_s, 1))
                .col("MB/s", 10)
                .shown_only(),
            field("hist_digest", Digest(self.hist.digest())),
        ])
    }
}

/// One serving-comparison run (SRPC baseline or one-sided).
#[derive(Debug, Clone, Default)]
struct GetCell {
    /// Remote-get latency of each measured get, picoseconds.
    pub hist: Log2Hist,
    /// Gets served by a one-sided fetch (0 for the SRPC baseline).
    pub fetch_hits: u64,
    /// Read-through attempts that fell back to RPC.
    pub fetch_misses: u64,
    /// Read-through transport refusals.
    pub fetch_errors: u64,
}

impl GetCell {
    /// Median remote-get latency, picoseconds.
    fn p50_ps(&self) -> u64 {
        self.hist.percentile(0.50)
    }

    fn row(&self) -> Row {
        use Cell::{Count, Digest, Ps};
        Row(vec![
            field("p50_us", Ps(self.p50_ps())),
            field("mean_us", Ps(self.hist.mean())),
            field("gets", Count(self.hist.count())),
            field("fetch_hits", Count(self.fetch_hits)),
            field("fetch_misses", Count(self.fetch_misses)),
            field("fetch_errors", Count(self.fetch_errors)),
            field("hist_digest", Digest(self.hist.digest())),
        ])
    }
}

/// The pager cell's outcome.
#[derive(Debug, Clone, Default)]
struct PagerCell {
    /// What the pager counted, and its fault-latency histogram.
    stats: shrimp_rmc::PagerStats,
    /// Virtual completion time of the workload, picoseconds.
    span_ps: u64,
}

impl PagerCell {
    /// Median fault latency, picoseconds.
    fn fault_p50_ps(&self) -> u64 {
        self.stats.fault_latency.percentile(0.50)
    }

    fn row(&self) -> Row {
        use Cell::{Count, Digest, Ps, Real};
        let s = &self.stats;
        Row(vec![
            field("hits", Count(s.hits)),
            field("misses", Count(s.misses)),
            field("evictions", Count(s.evictions)),
            field("writebacks", Count(s.writebacks)),
            field("hit_rate", Real(s.hit_rate(), 3)).shown_only(),
            field("fault_p50_us", Ps(self.fault_p50_ps())),
            field("fault_digest", Digest(s.fault_latency.digest())),
            field("span_ps", Count(self.span_ps)).digest_only(),
        ])
    }
}

/// Everything `rmcbench` measures.
#[derive(Debug, Clone)]
struct RmcOutcome {
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
pub(crate) fn spawn_read_owner(exp: &Experiment, len: usize) -> SimChannel<BufferName> {
    let names = SimChannel::new();
    let (owner, published) = (exp.system.endpoint(1, "read-owner"), names.clone());
    exp.spawn("read-owner", move |ctx| {
        let pool = len.max(PAGE_SIZE);
        let buf = owner.proc_().alloc(pool, CacheMode::WriteBack);
        let fill: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
        owner.proc_().write(ctx, buf, &fill).unwrap();
        let opts = ExportOpts {
            read: true,
            ..Default::default()
        };
        publish(&owner, ctx, (buf, pool), opts, &published);
    });
    names
}

/// Raw fetch sweep: node 0 fetches from node 1's read-exported pool.
fn run_fetch_cell(cfg: &RmcConfig) -> Vec<FetchPoint> {
    let point = |&size: &usize| {
        let exp = Experiment::new(SystemConfig::with_mesh(MESH.0, MESH.1), None);
        let names = spawn_read_owner(&exp, size);
        let reader = exp.system.endpoint(0, "rmcbench-reader");
        let reps = cfg.fetch_reps;
        let measured = exp.spawn("reader", move |ctx| {
            let src = attach(&reader, ctx, &names, NodeId(1));
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
            (hist, ctx.now().since(t_start).as_ps())
        });
        exp.run("fetch cell");
        let (hist, span_ps) = measured.take();
        let bytes = (size * reps) as f64;
        FetchPoint {
            size,
            mb_s: bytes / (span_ps as f64 / 1e12) / 1e6,
            hist,
        }
    };
    cfg.fetch_sizes.iter().map(point).collect()
}

/// Remote-get comparison: the same keyed read workload against a
/// chained cluster, with or without the one-sided read-through path.
///
/// Only keys routing to shards whose primary is *not* the client's
/// node are measured — the comparison is about remote reads.
fn run_get_cell(cfg: &RmcConfig, read_through: bool) -> GetCell {
    let exp = Experiment::new(SystemConfig::with_mesh(MESH.0, MESH.1), None);
    let mut scfg = SvcConfig::chained(exp.system.len());
    scfg.read_through = read_through;
    let cl = SvcCluster::spawn(&exp.system, scfg);
    cl.register_clients(1);
    let (want, rounds) = (cfg.get_keys, cfg.get_rounds);
    let measured = exp.spawn("rmcbench-get-client", move |ctx| {
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
        for _ in 0..rounds {
            for (k, key) in keys.iter().enumerate() {
                let t0 = ctx.now();
                let (_, val) = cli.get(ctx, key).unwrap();
                hist.record(ctx.now().since(t0).as_ps());
                assert_eq!(
                    val.as_deref(),
                    Some(format!("rmc-val-{k:04}-payload").as_bytes()),
                    "measured get returned the wrong value"
                );
            }
        }
        let stats = cli.stats();
        cl.client_done();
        GetCell {
            hist,
            fetch_hits: stats.fetch_hits - warm.fetch_hits,
            fetch_misses: stats.fetch_misses - warm.fetch_misses,
            fetch_errors: stats.fetch_errors - warm.fetch_errors,
        }
    });
    exp.run("get cell");
    let cell = measured.take();
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
fn run_pager_cell(cfg: &RmcConfig) -> PagerCell {
    use shrimp_rmc::{MemoryServer, RemotePager};

    let exp = Experiment::new(SystemConfig::with_mesh(MESH.0, MESH.1), None);
    let names: SimChannel<BufferName> = SimChannel::new();
    let server = exp.system.endpoint(1, "rmcbench-memserver");
    let client = exp.system.endpoint(0, "rmcbench-pager");
    let (vpages, frames, ops) = (cfg.pager_vpages, cfg.pager_frames, cfg.pager_ops);

    let published = names.clone();
    exp.spawn("memserver", move |ctx| {
        let srv = MemoryServer::export(server, ctx, vpages).unwrap();
        published.send(&ctx.handle(), srv.name());
        // The server CPU idles; its NIC serves fetches and accepts
        // write-back deposits on its own.
    });
    let measured = exp.spawn("pager", move |ctx| {
        let pool = attach(&client, ctx, &names, NodeId(1));
        let mut pager = RemotePager::new(client, pool, vpages, frames);
        let mut rng = SplitMix64::new(SEED);
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
        PagerCell {
            stats: pager.stats().clone(),
            span_ps: ctx.now().since(shrimp_sim::SimTime::ZERO).as_ps(),
        }
    });
    exp.run("pager cell");
    measured.take()
}

/// The full run.
fn run_all(cfg: &RmcConfig) -> RmcOutcome {
    let fetch = run_fetch_cell(cfg);
    let srpc = run_get_cell(cfg, false);
    let onesided = run_get_cell(cfg, true);
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
fn rmc_digest(o: &RmcOutcome) -> u64 {
    let mut h = Fnv1a::default();
    let fetch = o.fetch.iter().map(FetchPoint::row);
    let cells = [o.srpc.row(), o.onesided.row(), o.pager.row()];
    fetch.chain(cells).for_each(|row| row.feed(&mut h));
    h.finish()
}

/// Render the committed `results/rmc_curve.txt`.
fn render_curve(cfg: &RmcConfig, o: &RmcOutcome) -> String {
    let mut out = format!(
        "one-sided remote memory mesh={}x{} reps={} seed={}\n\
         fetch latency/bandwidth (node0 <- node1):\n",
        MESH.0, MESH.1, cfg.fetch_reps, SEED,
    );
    out.push_str(&Row::table(o.fetch.iter().map(FetchPoint::row)));
    if let Some(p) = o.fetch.last() {
        out.push_str(&format!(
            "deposit of {} bytes, DU-0copy: {:.1} MB/s (fetch/deposit {:.2})\n",
            p.size,
            o.du0copy_mb_s,
            p.mb_s / o.du0copy_mb_s,
        ));
    }
    let speedup = o.srpc.p50_ps() as f64 / o.onesided.p50_ps().max(1) as f64;
    out.push_str(&format!(
        "svc remote get ({} gets/run): srpc_p50_us={:.2} onesided_p50_us={:.2} \
         speedup={:.2}x fetch_hits={} misses={} errors={}\n",
        o.srpc.hist.count(),
        us(o.srpc.p50_ps()),
        us(o.onesided.p50_ps()),
        speedup,
        o.onesided.fetch_hits,
        o.onesided.fetch_misses,
        o.onesided.fetch_errors,
    ));
    out.push_str(&format!(
        "pager vpages={} frames={} ops={}: {}\n",
        cfg.pager_vpages,
        cfg.pager_frames,
        cfg.pager_ops,
        o.pager.row().pairs(),
    ));
    out
}

/// Render the committed `BENCH_rmc.json`.
fn render_json(cfg: &RmcConfig, o: &RmcOutcome) -> String {
    let mut json = Json::new(&[
        "One-sided remote memory: raw fetch latency/bandwidth, the",
        "zero-copy svc get vs its SRPC baseline, and the disaggregated-",
        "memory pager. Generated by `cargo run --release -p shrimp-bench",
        "-- rmcbench`. All quantities are virtual-time deterministic;",
        "CI's rmc-smoke job re-runs the cells and compares the digest.",
    ]);
    let config = Obj::new()
        .str("mesh", &format!("{}x{}", MESH.0, MESH.1))
        .raw("fetch_reps", cfg.fetch_reps)
        .raw("get_keys", cfg.get_keys)
        .raw("get_rounds", cfg.get_rounds)
        .raw("pager_vpages", cfg.pager_vpages)
        .raw("pager_frames", cfg.pager_frames)
        .raw("pager_ops", cfg.pager_ops)
        .raw("seed", SEED);
    json.put("config", config);
    json.rows("fetch", o.fetch.iter().map(|p| p.row().json()));
    json.put("du0copy_mb_s", format_args!("{:.1}", o.du0copy_mb_s));
    json.put("srpc_get", o.srpc.row().json());
    json.put("onesided_get", o.onesided.row().json());
    json.put("pager", o.pager.row().json());
    let row = |name: &str, fetch: &[(usize, f64)], fault_us: f64| {
        let cells = (fetch.iter()).fold(Obj::new(), |o, (b, p50)| o.num(&b.to_string(), *p50, 2));
        let row = Obj::new()
            .raw("fetch_p50_us", cells)
            .num("pager_fault_p50_us", fault_us, 2);
        format!("\"{name}\": {row}")
    };
    let before = row("before", &PR13_BEFORE_FETCH, PR13_BEFORE_FAULT_P50_US);
    let after_fetch: Vec<_> = o.fetch.iter().map(|p| (p.size, us(p.p50_ps()))).collect();
    let after = row("after", &after_fetch, us(o.pager.fault_p50_ps()));
    json.block("pr13", "{}", [before, after].iter());
    json.hex("rmc_digest", rmc_digest(o));
    json.finish()
}

/// The remote-memory benchmark as a `bench` workload: the committed
/// cells, gated on `rmc_digest` and on one relation measured inside the
/// run — the largest fetch must reach 0.9 × the DU-0copy bandwidth of a
/// deposit of the same size.
pub(crate) fn run(_: &Args) -> Outcome {
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

    #[test]
    fn smoke_runs_every_cell_and_replays() {
        let cfg = RmcConfig::smoke();
        let o = run_all(&cfg);
        assert!(o.onesided.fetch_hits > 0 && o.srpc.fetch_hits == 0);
        assert!(o.pager.stats.misses > 0 && o.pager.stats.hits > 0);
        assert!(o.fetch.iter().all(|p| p.p50_ps() > 0));
        // Larger transfers achieve more bandwidth, and the largest runs
        // at what a deposit of its size gets.
        let largest = o.fetch.last().unwrap();
        assert!(largest.mb_s > o.fetch.first().unwrap().mb_s);
        assert!(largest.mb_s >= 0.9 * o.du0copy_mb_s, "{largest:?}");
        let o2 = run_all(&cfg);
        assert_eq!(rmc_digest(&o), rmc_digest(&o2), "rmcbench must replay");
    }
}
