//! Isolated layer probes: each measures one crate from outside, through
//! its `pub` items, at fixed inputs. They run only in the traced run and
//! mean the same on every workload, so a per-layer change shows here
//! even when the workload being traced never touches that layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_fabric::{Dragonfly, Mesh2D, Topology};
use shrimp_mesh::{Backplane, LinkParams, NodeId};
use shrimp_node::CacheMode;
use shrimp_sim::{Kernel, SimChannel, SimDur, SimHandle};
use shrimp_svc::{SvcClient, SvcCluster, SvcConfig};

use crate::coll::{self, CollPlan};
use crate::host::HostSpans;
use crate::msg::{FetchPlan, Lib, PagerPlan};
use crate::stats::{median, Rng};
use crate::workloads::{ping_latency_us, MsgPlan, SMALL_LIBS};

/// Named probe results.
pub type Results = BTreeMap<&'static str, f64>;

/// Seed of the probes' payload bytes. Probe sizes are fixed, so no
/// timing depends on it.
const PROBE_SEED: u64 = 0x5348_5249_4d50;

fn pct_err(sim: f64, paper: f64) -> f64 {
    100.0 * (sim - paper).abs() / paper
}

/// Bare-kernel probes: what the engine costs with nothing on top.
fn sim_probes(out: &mut Results) {
    const N: u64 = 20_000;
    // Cross-thread handoff: two processes ping-pong through channels.
    {
        let kernel = Kernel::new();
        let (ab, ba): (SimChannel<u64>, SimChannel<u64>) = (SimChannel::new(), SimChannel::new());
        let (ab2, ba2) = (ab.clone(), ba.clone());
        kernel.spawn("a", move |ctx| {
            for i in 0..N {
                ab.send(&ctx.handle(), i);
                black_box(ba.recv(ctx));
            }
        });
        kernel.spawn("b", move |ctx| {
            for _ in 0..N {
                let v = ab2.recv(ctx);
                ba2.send(&ctx.handle(), v);
            }
        });
        let t = Instant::now();
        kernel.run_until_quiescent().expect("handoff probe");
        // Two handoffs per round trip.
        out.insert(
            "sim.probe_handoff_ns",
            t.elapsed().as_secs_f64() * 1e9 / (2 * N) as f64,
        );
    }
    // In-place resume: one process advancing its own clock.
    {
        let kernel = Kernel::new();
        kernel.spawn("solo", move |ctx| {
            for _ in 0..10 * N {
                ctx.advance(SimDur::from_ns(100.0));
            }
        });
        let t = Instant::now();
        kernel.run_until_quiescent().expect("self-resume probe");
        out.insert(
            "sim.probe_self_resume_ns",
            t.elapsed().as_secs_f64() * 1e9 / (10 * N) as f64,
        );
    }
    // Event dispatch: a chain of scheduled closures.
    {
        fn chain(h: SimHandle, left: u64) {
            if left > 0 {
                let h2 = h.clone();
                h.schedule_in(SimDur::from_ns(50.0), move || chain(h2, left - 1));
            }
        }
        let kernel = Kernel::new();
        chain(kernel.handle(), 10 * N);
        let t = Instant::now();
        kernel.run_until_quiescent().expect("event probe");
        out.insert(
            "sim.probe_event_ns",
            t.elapsed().as_secs_f64() * 1e9 / (10 * N) as f64,
        );
    }
    // Process creation and teardown.
    {
        const PROCS: u64 = 512;
        let t = Instant::now();
        let kernel = Kernel::new();
        for i in 0..PROCS {
            kernel.spawn(format!("p{i}"), |ctx| ctx.advance(SimDur::from_ns(1.0)));
        }
        kernel.run_until_quiescent().expect("spawn probe");
        drop(kernel);
        out.insert(
            "sim.probe_spawn_us",
            t.elapsed().as_secs_f64() * 1e6 / PROCS as f64,
        );
    }
}

/// `Topology::route` over all pairs of an 8×8 mesh and a 4,4 dragonfly.
fn fabric_probe(out: &mut Results) {
    let topos: [Box<dyn Topology>; 2] =
        [Box::new(Mesh2D::new(8, 8)), Box::new(Dragonfly::new(4, 4))];
    let mut routes = 0u64;
    let t = Instant::now();
    for _ in 0..8 {
        for topo in &topos {
            for a in topo.nodes() {
                for b in topo.nodes() {
                    black_box(topo.route(a, b, 0));
                    routes += 1;
                }
            }
        }
    }
    out.insert(
        "fabric.probe_route_ns",
        t.elapsed().as_secs_f64() * 1e9 / routes as f64,
    );
}

/// A raw `Backplane<u32>` on an 8×8 mesh: uniform 64-byte packets, no
/// NIC, no processes.
fn mesh_probe(out: &mut Results) {
    const PACKETS: u64 = 40_000;
    let kernel = Kernel::new();
    let net: Arc<Backplane<u32>> = Backplane::new(
        kernel.handle(),
        Arc::new(Mesh2D::new(8, 8)),
        LinkParams::paragon(),
    );
    let delivered = Arc::new(Mutex::new(0u64));
    for n in 0..64 {
        let delivered = Arc::clone(&delivered);
        net.attach(NodeId(n), move |d| {
            *delivered.lock().expect("delivered") += u64::from(d.payload);
        });
    }
    let mut rng = Rng::new(PROBE_SEED, 1);
    let t = Instant::now();
    // Injected in waves so the fabric stays loaded without every packet
    // queueing behind the whole run.
    for wave in 0..PACKETS / 64 {
        let net = Arc::clone(&net);
        let pairs: Vec<(usize, usize)> = (0..64)
            .map(|_| (rng.below(64) as usize, rng.below(64) as usize))
            .collect();
        kernel.schedule_in(SimDur::from_us(2.0 * wave as f64), move || {
            for (a, b) in pairs {
                net.inject(NodeId(a), NodeId(b), 64, 1);
            }
        });
    }
    kernel.run_until_quiescent().expect("mesh probe");
    let ns = t.elapsed().as_secs_f64() * 1e9;
    assert_eq!(*delivered.lock().expect("delivered"), PACKETS / 64 * 64);
    out.insert("mesh.probe_pkt_ns", ns / (PACKETS / 64 * 64) as f64);
}

/// `UserProc::copy` of 64 KiB blocks on one node.
fn node_probe(out: &mut Results) {
    const BLOCK: usize = 65_536;
    const COPIES: usize = 256;
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let p = system.endpoint(0, "copy-probe").proc_().clone();
    let host_s = Arc::new(Mutex::new(0.0f64));
    let sink = Arc::clone(&host_s);
    kernel.spawn("copier", move |ctx| {
        let src = p.alloc(BLOCK, CacheMode::WriteBack);
        let dst = p.alloc(BLOCK, CacheMode::WriteBack);
        let t = Instant::now();
        for _ in 0..COPIES {
            p.copy(ctx, src, dst, BLOCK)
                .expect("both buffers are mapped");
        }
        *sink.lock().expect("host_s") = t.elapsed().as_secs_f64();
    });
    kernel.run_until_quiescent().expect("copy probe");
    let s = *host_s.lock().expect("host_s");
    out.insert(
        "node.probe_copy_ns_per_kb",
        s * 1e9 / (COPIES * BLOCK / 1024) as f64,
    );
}

/// The six libraries at the paper's anchor sizes: 4 bytes for latency,
/// 10 KiB and 64 KiB ping-pong for bandwidth, plus fetch and the pager.
fn library_probes(out: &mut Results) {
    let six = SMALL_LIBS;
    let small = MsgPlan::sections(PROBE_SEED, false, &six, &[("4", 4, 0, 8, 32)]).run_rep();
    assert_eq!(small.failed, 0, "library probes failed: {:?}", small.errors);
    // Bandwidth only where the paper plots it per message: raw VMMC,
    // NX and sockets.
    let mut plan = MsgPlan::sections(
        PROBE_SEED,
        false,
        &six[..4],
        &[("10k", 10_240, 0, 1, 6), ("64k", 65_536, 0, 1, 4)],
    );
    let mut rng = Rng::new(PROBE_SEED, 2);
    plan.set_read_side(
        FetchPlan::draw(&mut rng, 0, &[("64", 64, 2, 16), ("64k", 65_536, 1, 8)]),
        PagerPlan::draw(&mut rng, 32, 8, 512),
    );
    let rep = plan.run_rep();
    assert_eq!(rep.failed, 0, "library probes failed: {:?}", rep.errors);
    let lat =
        |lib, class: &str| ping_latency_us(if class == "4" { &small } else { &rep }, lib, class);
    // Ping-pong bandwidth as the paper's figures plot it: message bytes
    // over one-way time.
    let mbs = |lib: Lib, class: &str, bytes: f64| bytes / lat(lib, class);
    let host_us_per_op = |lib: Lib| {
        let p = small.phase(&format!("{}:4", lib.name()));
        let msgs = if lib.is_rpc() { 1.0 } else { 2.0 };
        p.host_s * 1e6 / (p.ops() as f64 * msgs)
    };
    let au = lat(Lib::VmmcAu, "4");
    let du = lat(Lib::VmmcDu, "4");
    let du_10k = mbs(Lib::VmmcDu, "10k", 10_240.0);
    out.insert("core.au_oneway_us", au);
    out.insert("core.du_oneway_us", du);
    out.insert("core.au_peak_mbs", mbs(Lib::VmmcAu, "64k", 65_536.0));
    out.insert("core.du_peak_mbs", mbs(Lib::VmmcDu, "64k", 65_536.0));
    out.insert("core.du_10k_mbs", du_10k);
    out.insert(
        "core.paper_err_pct",
        pct_err(au, 4.75)
            .max(pct_err(du, 7.6))
            .max(pct_err(du_10k, 23.0)),
    );
    out.insert(
        "core.host_us_per_msg",
        (host_us_per_op(Lib::VmmcAu) + host_us_per_op(Lib::VmmcDu)) / 2.0,
    );
    out.insert("core.fetch_64b_us", rep.phase("fetch:64").mean_us());
    out.insert("core.fetch_64k_mbs", rep.phase("fetch:64k").mbs());

    let nx = lat(Lib::Nx, "4");
    out.insert("nx.oneway_us", nx);
    out.insert("nx.overhead_us", nx - au);
    out.insert("nx.peak_mbs", mbs(Lib::Nx, "64k", 65_536.0));
    out.insert("nx.paper_err_pct", pct_err(nx - au, 6.0));
    out.insert("nx.host_us_per_msg", host_us_per_op(Lib::Nx));
    let sock = lat(Lib::Sockets, "4");
    out.insert("sockets.oneway_us", sock);
    out.insert("sockets.overhead_us", sock - au);
    out.insert("sockets.peak_mbs", mbs(Lib::Sockets, "64k", 65_536.0));
    out.insert("sockets.paper_err_pct", pct_err(sock - au, 13.0));
    out.insert("sockets.host_us_per_msg", host_us_per_op(Lib::Sockets));
    let vrpc = lat(Lib::Vrpc, "4");
    out.insert("sunrpc.null_call_us", vrpc);
    out.insert("sunrpc.paper_err_pct", pct_err(vrpc, 29.0));
    out.insert("sunrpc.host_us_per_call", host_us_per_op(Lib::Vrpc));
    let srpc = lat(Lib::Srpc, "4");
    out.insert("srpc.null_call_us", srpc);
    out.insert("srpc.paper_err_pct", pct_err(srpc, 9.5));
    out.insert("srpc.host_us_per_call", host_us_per_op(Lib::Srpc));

    let faults = rep.phase("pager:fault");
    let (hits, faulted) = (
        rep.counts["pager_hits"] as f64,
        rep.counts["pager_faults"] as f64,
    );
    out.insert("rmc.pager_fault_p50_us", faults.percentile_us(0.50));
    out.insert("rmc.pager_hit_share", hits / (hits + faulted));
    let pager_host = rep.phase("pager:sweep").host_s + rep.phase("pager:reref").host_s;
    out.insert("rmc.host_us_per_fault", pager_host * 1e6 / faulted);
}

/// The software collectives on 64 ranks at exact sizes.
fn coll_probe(out: &mut Results) {
    let plan = Arc::new(CollPlan::draw(PROBE_SEED, (8, 8), 4, 1));
    let rep = coll::run_rep(&plan);
    assert_eq!(rep.failed, 0, "coll probe failed: {:?}", rep.errors);
    out.insert("coll.barrier_us", rep.phase("barrier").mean_us());
    out.insert("coll.allreduce_64_us", rep.phase("allreduce:64").mean_us());
    out.insert("coll.allreduce_1k_us", rep.phase("allreduce:1k").mean_us());
    out.insert("coll.allreduce_8k_us", rep.phase("allreduce:8k").mean_us());
    out.insert("coll.setup_virt_us", rep.setup_virt_ps as f64 / 1e6);
    out.insert(
        "coll.host_ms_per_op",
        rep.measured_s() * 1e3 / rep.ops() as f64,
    );
}

struct SvcCell {
    bind_virt_ms: f64,
    get_p50_us: f64,
    put_p50_us: f64,
    hit_share: f64,
    host_ms_per_req: f64,
}

/// One closed-loop client on node 0 of a 2×2 cluster: bind every shard,
/// write 32 keys held by remote primaries, read them back four times.
fn svc_cell(read_through: bool) -> SvcCell {
    const KEYS: usize = 32;
    const ROUNDS: usize = 4;
    let kernel = Kernel::new();
    let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
    let mut cfg = SvcConfig::chained(system.len());
    cfg.read_through = read_through;
    let cluster = SvcCluster::spawn(&system, cfg);
    cluster.register_clients(1);
    let cell: Arc<Mutex<Option<SvcCell>>> = Arc::default();
    let (sink, cl) = (Arc::clone(&cell), Arc::clone(&cluster));
    kernel.spawn("svc-probe-client", move |ctx| {
        let mut cli = SvcClient::new(&cl, 0, "probe");
        let v0 = ctx.now();
        let shards = cl.config().shards;
        let mut bound = vec![false; shards];
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut i = 0u32;
        while keys.len() < KEYS || bound.iter().any(|b| !b) {
            let key = format!("probe-{i:05}").into_bytes();
            i += 1;
            let shard = cli.shard_of(&key);
            if !bound[shard] {
                cli.get(ctx, &key).expect("binding get");
                bound[shard] = true;
            }
            if keys.len() < KEYS && cl.route(shard).primary != 0 {
                keys.push(key);
            }
        }
        let bind_virt_ms = ctx.now().since(v0).as_us() / 1e3;
        let t = Instant::now();
        let mut puts = Vec::new();
        for (k, key) in keys.iter().enumerate() {
            let t0 = ctx.now();
            cli.put(ctx, key, format!("value-{k:010}").as_bytes())
                .expect("probe put");
            puts.push(ctx.now().since(t0).as_us());
        }
        // The first pass imports slot tables and takes first-touch
        // fallbacks; it is not measured.
        for key in &keys {
            cli.get(ctx, key).expect("probe get");
        }
        let warm = cli.stats();
        let mut gets = Vec::new();
        for _ in 0..ROUNDS {
            for (k, key) in keys.iter().enumerate() {
                let t0 = ctx.now();
                let (_, val) = cli.get(ctx, key).expect("probe get");
                gets.push(ctx.now().since(t0).as_us());
                assert_eq!(
                    val.as_deref(),
                    Some(format!("value-{k:010}").as_bytes()),
                    "probe get returned another value"
                );
            }
        }
        let stats = cli.stats();
        let requests = (KEYS * (ROUNDS + 2)) as f64;
        *sink.lock().expect("cell") = Some(SvcCell {
            bind_virt_ms,
            get_p50_us: median(&gets),
            put_p50_us: median(&puts),
            hit_share: (stats.fetch_hits - warm.fetch_hits) as f64 / gets.len() as f64,
            host_ms_per_req: t.elapsed().as_secs_f64() * 1e3 / requests,
        });
        cl.client_done();
    });
    kernel.run_until_quiescent().expect("svc probe cell");
    let cell = cell.lock().expect("cell").take().expect("client finished");
    cell
}

fn svc_probe(out: &mut Results) {
    let rpc = svc_cell(false);
    let one_sided = svc_cell(true);
    out.insert("svc.bind_virt_ms", rpc.bind_virt_ms);
    out.insert("svc.get_p50_us", rpc.get_p50_us);
    out.insert("svc.put_p50_us", rpc.put_p50_us);
    out.insert("svc.host_ms_per_req", rpc.host_ms_per_req);
    out.insert("svc.readthrough_get_p50_us", one_sided.get_p50_us);
    out.insert("svc.readthrough_hit_share", one_sided.hit_share);
}

/// Run every probe, recording one host span each under `parent`.
pub fn run_all(spans: &mut HostSpans, parent: Option<usize>) -> Results {
    let mut out = Results::new();
    type Probe = fn(&mut Results);
    let probes: [(&str, Probe); 7] = [
        ("probe:sim", sim_probes),
        ("probe:fabric", fabric_probe),
        ("probe:mesh", mesh_probe),
        ("probe:node", node_probe),
        ("probe:libraries", library_probes),
        ("probe:coll", coll_probe),
        ("probe:svc", svc_probe),
    ];
    for (name, probe) in probes {
        let span = spans.begin(name, parent);
        probe(&mut out);
        spans.end(span);
    }
    out
}
