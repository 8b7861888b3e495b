//! `simprof` — virtual-time profiles of the paper's workloads through
//! the `shrimp-obs` subsystem.
//!
//! Where `simperf` measures *host* cost (wall seconds, allocations),
//! this module decomposes *virtual* time: it reruns a figure workload
//! with a [`Recorder`] installed and attributes every picosecond of a
//! message's end-to-end latency to a stack layer. The headline outputs
//! reproduce the paper's two decomposition claims:
//!
//! * **Fig. 5 budget** (`fig5`): a null VRPC call split into header
//!   preparation / transfer + wait / header processing / return from
//!   call, summing *exactly* to the round-trip time;
//! * **§5 SRPC decomposition** (`srpc`): the specialized RPC's marshal /
//!   transfer + wait / server dispatch / unmarshal split, next to the
//!   software-only overhead rerun (paper: "under 1 µsec per call").
//!
//! `svc-get` and `svc-put` walk one remote KV request of `shrimp-svc`
//! along its critical path — client stub, call packet, primary
//! dispatch, and for a put the chained replication's record store and
//! its flag and ack stores — as a timeline whose legs sum exactly to
//! what the client observed.
//!
//! `fig3`, `fig7`, and `coll4x4` rerun the corresponding simperf
//! workloads under observation and report per-layer phase statistics
//! plus the per-message conservation check. With chaos enabled, the
//! run is driven through the fault-injection engine and the fault log
//! is overlaid on the exported trace as instant events.
//!
//! Every report derives from integer-picosecond virtual time, so it is
//! byte-identical across replays; and because recording is passive, the
//! profiled run's virtual results equal the unobserved run's.

use std::sync::Arc;

use shrimp_core::SystemConfig;
use shrimp_node::CostModel;
use shrimp_obs::breakdown::{layer_stats, message_ids};
use shrimp_obs::Layer::{Service, User};
use shrimp_obs::{breakdown, perfetto, Layer, Recorder, SpanRec};
use shrimp_sim::{FaultKind, FaultPlan, SimDur, SimTime};
use shrimp_sunrpc::StreamVariant;
use shrimp_svc::{SvcClient, SvcCluster, SvcConfig};

use crate::chaos::{fault_at, one_fault, run_cell, Workload};
use crate::harness::{Args, Experiment, Outcome};
use crate::pingpong::attach;
use crate::rmcbench::spawn_read_owner;
use crate::rpc_compare::{specialized_calls, specialized_software_overhead};
use crate::simperf::{
    no_alloc_counter, workload_coll4x4, workload_fig3, workload_fig7, AllocCounter, WorkloadResult,
};
use crate::vrpc_bench::{null_calls, ROUNDS, WARMUP};

/// Size of the one multi-page fetch that closes the rmc profile.
const STREAMED: usize = 64 * 1024;

/// The profiles `simprof` can run.
pub(crate) const WORKLOADS: [&str; 8] = [
    "fig3", "fig5", "fig7", "srpc", "coll4x4", "rmc", "svc-get", "svc-put",
];

/// Requests the svc profiles time, after the bindings are warm.
const SVC_OPS: usize = 10;

/// Which node of a run a leg table's span ran on: an index into the
/// run's role nodes.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// The caller.
    Client,
    /// The RPC server, or the svc shard's primary.
    Server,
    /// The svc shard's chained backup.
    Backup,
}
use Role::{Backup, Client, Server};

/// Node roles of the RPC profiles: `vrpc_bench` and `rpc_compare` put
/// the client on node 0 and the server on node 1.
const RPC_NODES: [usize; 2] = [0, 1];

/// What a leg table times, one window each.
#[derive(Debug, Clone, Copy)]
enum Windows {
    /// One RPC call: the message-tagged `User` spans sharing a
    /// [`shrimp_obs::MsgId`] (the client's), first start to last end.
    Calls,
    /// One `Service`/`request` span.
    Requests,
}

impl Windows {
    fn of(self, spans: &[SpanRec]) -> Vec<(SimTime, SimTime)> {
        match self {
            Windows::Calls => {
                let mut calls = std::collections::BTreeMap::new();
                for s in spans.iter().filter(|s| s.layer == User && s.msg.is_some()) {
                    let w = calls.entry(s.msg).or_insert((s.start, s.end));
                    *w = (w.0.min(s.start), w.1.max(s.end));
                }
                calls.into_values().collect()
            }
            Windows::Requests => spans
                .iter()
                .filter(|s| (s.layer, s.name) == (Service, "request"))
                .map(|s| (s.start, s.end))
                .collect(),
        }
    }
}

/// One instant of a window: the start (or end) of the one span in it
/// with this layer, name and node role.
#[derive(Debug, Clone, Copy)]
struct Edge {
    end: bool,
    layer: Layer,
    name: &'static str,
    role: Role,
}

const fn start(layer: Layer, name: &'static str, role: Role) -> Edge {
    Edge {
        end: false,
        layer,
        name,
        role,
    }
}

const fn end(layer: Layer, name: &'static str, role: Role) -> Edge {
    Edge {
        end: true,
        ..start(layer, name, role)
    }
}

/// A profile's decomposition: its windows, the edge the first leg
/// starts at, then each leg's label and the edge it ends at (where the
/// next leg starts). Legs sharing a label sum into one row, in the
/// order the labels first appear.
#[derive(Debug)]
struct LegTable {
    windows: Windows,
    from: Edge,
    legs: &'static [(&'static str, Edge)],
}

/// Fig. 5: a null VRPC call. The server's header processing splits the
/// client's wait, so both flights are transfer + wait.
const FIG5: LegTable = LegTable {
    windows: Windows::Calls,
    from: start(User, "header_prep", Client),
    legs: &[
        ("header preparation", end(User, "header_prep", Client)),
        ("transfer + wait", start(User, "header_proc", Server)),
        ("header processing", end(User, "header_proc", Server)),
        ("transfer + wait", start(User, "return", Client)),
        ("return from call", end(User, "return", Client)),
    ],
};

/// §5: a null specialized-RPC call, split the same way.
const SRPC: LegTable = LegTable {
    windows: Windows::Calls,
    from: start(User, "marshal", Client),
    legs: &[
        ("marshal + post call", end(User, "marshal", Client)),
        ("transfer + wait", start(User, "dispatch", Server)),
        ("server dispatch", end(User, "dispatch", Server)),
        ("transfer + wait", start(User, "unmarshal", Client)),
        ("unmarshal + return", end(User, "unmarshal", Client)),
    ],
};

/// One remote svc get, from the request span `run_svc_ops` records:
/// the svc client's own routing is part of the first and last legs.
const SVC_GET: LegTable = LegTable {
    windows: Windows::Requests,
    from: start(Service, "request", Client),
    legs: &[
        ("marshal + post call", end(User, "marshal", Client)),
        ("call in flight", start(User, "dispatch", Server)),
        (
            "primary: lookup, reply stores",
            end(User, "dispatch", Server),
        ),
        ("reply in flight", start(User, "unmarshal", Client)),
        ("unmarshal + return", end(Service, "request", Client)),
    ],
};

/// One remote svc put. Chained replication: the primary's replicator
/// stores the record into the backup's eager slot by automatic update
/// (a `store` span), then its flag; the backup applies the record and
/// stores the ack (each control word a `raise` span), and nothing else
/// is sent.
const SVC_PUT: LegTable = LegTable {
    windows: Windows::Requests,
    from: start(Service, "request", Client),
    legs: &[
        ("marshal + post call", end(User, "marshal", Client)),
        ("call in flight", start(User, "dispatch", Server)),
        (
            "primary: apply, hand to replicator",
            start(User, "store", Server),
        ),
        ("replicate: record store", end(User, "store", Server)),
        ("replicate: flag store", end(User, "raise", Server)),
        (
            "backup: flag lands, poll, apply",
            start(User, "raise", Backup),
        ),
        ("backup: ack store", end(User, "raise", Backup)),
        (
            "ack lands, resume, reply stores",
            end(User, "dispatch", Server),
        ),
        ("reply in flight", start(User, "unmarshal", Client)),
        ("unmarshal + return", end(Service, "request", Client)),
    ],
};

/// A leg table's sums: per-row totals (integer picoseconds, summed
/// across windows) that partition the end-to-end time exactly.
#[derive(Debug, Clone)]
struct Budget {
    /// Windows found in the span set.
    pub calls: u64,
    /// `(label, total ps)` rows, in table order.
    pub rows: Vec<(&'static str, u64)>,
    /// Summed end-to-end picoseconds.
    pub end_to_end_ps: u64,
}

impl Budget {
    /// The conservation invariant: rows sum exactly to end-to-end.
    fn is_conserved(&self) -> bool {
        self.rows.iter().map(|r| r.1).sum::<u64>() == self.end_to_end_ps
    }

    /// Render the per-call mean table.
    fn render(&self, title: &str) -> String {
        let per_call = |ps: u64| ps as f64 / 1e6 / self.calls.max(1) as f64;
        let mut out = format!("{title} (mean over {} calls, us):\n", self.calls);
        let wide = self
            .rows
            .iter()
            .map(|r| r.0.len())
            .max()
            .unwrap_or(0)
            .max(22);
        let rows = self.rows.iter().copied();
        for (label, ps) in rows.chain([("end-to-end", self.end_to_end_ps)]) {
            out.push_str(&format!("  {label:<wide$} {:>9.3}\n", per_call(ps)));
        }
        out.push_str(&format!(
            "  conservation: {} ({} ps across {} calls)\n",
            if self.is_conserved() {
                "exact"
            } else {
                "VIOLATED"
            },
            self.end_to_end_ps,
            self.calls
        ));
        out
    }
}

/// Sum `table` over `spans`, the span of role `r` on node `nodes[r]`.
/// Every window counts toward end-to-end; one whose every edge is found
/// exactly once also adds each leg, the difference of consecutive
/// edges, to its row — so the rows sum to end-to-end exactly unless an
/// edge is missing, doubled or out of order. All arithmetic is integer
/// picoseconds.
fn extract(spans: &[SpanRec], table: &LegTable, nodes: &[usize]) -> Budget {
    let mut rows: Vec<(&'static str, u64)> = Vec::new();
    for &(label, _) in table.legs {
        if rows.iter().all(|r| r.0 != label) {
            rows.push((label, 0));
        }
    }
    let windows = table.windows.of(spans);
    let mut e2e = 0;
    for &(from, to) in &windows {
        e2e += to.since(from).as_ps();
        let at = |e: &Edge| {
            let key = (e.layer, e.name, nodes[e.role as usize]);
            let mut hits = spans
                .iter()
                .filter(|s| (s.layer, s.name, s.node) == key && s.start >= from && s.end <= to);
            match (hits.next(), hits.next()) {
                (Some(s), None) => Some(if e.end { s.end } else { s.start }),
                _ => None,
            }
        };
        let edges = std::iter::once(&table.from).chain(table.legs.iter().map(|l| &l.1));
        let Some(at) = edges.map(at).collect::<Option<Vec<SimTime>>>() else {
            continue;
        };
        for (&(label, _), w) in table.legs.iter().zip(at.windows(2)) {
            let row = rows.iter_mut().find(|r| r.0 == label).expect("listed");
            row.1 += w[1].as_ps().saturating_sub(w[0].as_ps());
        }
    }
    Budget {
        calls: windows.len() as u64,
        rows,
        end_to_end_ps: e2e,
    }
}

/// Per-message conservation sweep: every traced message's segments
/// must sum exactly to its end-to-end latency. Returns the number of
/// messages checked and whether every one conserved.
fn check_conservation(spans: &[SpanRec]) -> (usize, bool) {
    let ids = message_ids(spans);
    let ok = ids
        .iter()
        .filter_map(|&id| breakdown(spans, id))
        .all(|b| b.is_conserved());
    (ids.len(), ok)
}

fn render_layer_table(spans: &[SpanRec]) -> String {
    let stats = layer_stats(spans);
    let mut out = String::from(
        "per-layer phases:\n  phase                       count    mean us     min us     max us    total us\n",
    );
    for st in &stats {
        out.push_str(&format!(
            "  {:<26} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>11.3}\n",
            format!("{}/{}", st.layer, st.name),
            st.count,
            st.mean().as_us(),
            st.min.as_us(),
            st.max.as_us(),
            st.total.as_us(),
        ));
    }
    out
}

/// The deterministic fault plan chaos profiles arm for the RPC
/// workloads: a mesh-wide brownout landing mid-traffic plus an IPT
/// violation on the server node.
fn rpc_chaos_plan() -> FaultPlan {
    FaultPlan::scripted(vec![
        fault_at(
            SimDur::from_us(450.0),
            FaultKind::Brownout {
                factor: 2.0,
                dur: SimDur::from_us(120.0),
            },
        ),
        fault_at(SimDur::from_us(500.0), FaultKind::IptViolation { node: 1 }),
    ])
}

/// The scripted plan the chaos matrix uses for the figure workloads
/// (an IPT violation timed to land mid-traffic).
fn figure_chaos_plan() -> FaultPlan {
    one_fault(SimDur::from_us(900.0), FaultKind::IptViolation { node: 1 })
}

/// Everything one profile run produced.
#[derive(Debug)]
struct ProfOutcome {
    /// Workload name.
    pub name: &'static str,
    /// The recorder holding every span and instant of the run.
    pub recorder: Arc<Recorder>,
    /// Rendered human-readable report.
    pub report: String,
    /// True when every conservation check passed.
    pub conserved: bool,
}

impl ProfOutcome {
    /// The run as Chrome trace-event JSON (Perfetto-loadable).
    fn trace_json(&self) -> String {
        perfetto::export(&self.recorder.spans(), &self.recorder.instants())
    }
}

/// Run one observed profile. Returns `None` for an unknown workload
/// name (see [`WORKLOADS`]).
fn profile(name: &str, chaos: bool) -> Option<ProfOutcome> {
    let rec = Recorder::new();
    // A simperf workload under observation, or under chaos the matrix
    // cell that drives the same library.
    let observe = |cell: Workload, plain: fn(AllocCounter) -> WorkloadResult| {
        if chaos {
            run_chaos_cell(&rec, cell);
        } else {
            let _g = rec.install();
            let _ = plain(no_alloc_counter);
        }
        String::new()
    };
    let (name, mut report): (&'static str, String) = match name {
        "fig5" => {
            let plan = chaos.then(rpc_chaos_plan);
            let stream = StreamVariant::AutomaticUpdate;
            observe_calls(&rec, || null_calls(stream, 4, plan.as_ref()));
            let budget = extract(&rec.spans(), &FIG5, &RPC_NODES);
            ("fig5", budget.render("fig5 VRPC null-call budget"))
        }
        "srpc" => {
            let plan = chaos.then(rpc_chaos_plan);
            let costs = CostModel::shrimp_prototype();
            observe_calls(&rec, || specialized_calls(4, costs, plan.as_ref()));
            let budget = extract(&rec.spans(), &SRPC, &RPC_NODES);
            let mut report = budget.render("srpc specialized null-call decomposition");
            // The §5 software-only rerun: outside the recorder scope so
            // its spans don't pollute this profile.
            let sw_us = specialized_software_overhead();
            report.push_str(&format!(
                "  software-only rerun     {sw_us:>9.3}  (paper: < 1 us of software overhead)\n"
            ));
            ("srpc", report)
        }
        "fig3" => ("fig3", observe(Workload::Vmmc, workload_fig3)),
        "fig7" => ("fig7", observe(Workload::Socket, workload_fig7)),
        "coll4x4" => ("coll4x4", observe(Workload::Coll, workload_coll4x4)),
        "rmc" if chaos => {
            run_chaos_cell(&rec, Workload::Rmc);
            ("rmc", String::new())
        }
        "rmc" => ("rmc", run_rmc_fetch(&rec)),
        "svc-get" | "svc-put" => {
            let (put, name, what) = match name {
                "svc-put" => (true, "svc-put", "put"),
                _ => (false, "svc-get", "get"),
            };
            let report = if chaos {
                run_chaos_cell(&rec, Workload::Svc);
                String::new()
            } else {
                let title = format!("svc remote {what} timeline, chained 2x2");
                run_svc_ops(&rec, put).render(&title)
            };
            (name, report)
        }
        _ => return None,
    };

    let spans = rec.spans();
    let (msgs, conserved_msgs) = check_conservation(&spans);
    let span_count = spans.len();
    // The rmc run ends with one 64 KiB fetch, reported in a section of
    // its own below; the table above it covers the page-sized rounds.
    let streamed = (name == "rmc" && !chaos)
        .then(|| message_ids(&spans).pop())
        .flatten();
    let (streamed_spans, round_spans): (Vec<SpanRec>, Vec<SpanRec>) =
        spans.into_iter().partition(|s| Some(s.msg) == streamed);
    report.push_str(&render_layer_table(&round_spans));
    report.push_str(&format!(
        "spans: {span_count}   messages: {msgs}   fault events: {}\n",
        rec.instants().len()
    ));
    report.push_str(&format!(
        "per-message conservation: {}\n",
        if conserved_msgs { "exact" } else { "VIOLATED" }
    ));
    if streamed.is_some() {
        report.push_str(&render_streamed_fetch(&streamed_spans));
    }

    // Budget conservation is already part of the rendered report for
    // the RPC workloads; fold it into the single verdict.
    let conserved = conserved_msgs && !report.contains("VIOLATED");
    Some(ProfOutcome {
        name,
        recorder: rec,
        report,
        conserved,
    })
}

/// Drive a chaos-matrix cell with the recorder installed, then overlay
/// its fault log as instant events.
fn run_chaos_cell(rec: &Arc<Recorder>, workload: Workload) {
    let _g = rec.install();
    let plan = figure_chaos_plan();
    let (_outcome, events) = run_cell(workload, "simprof-chaos", &plan);
    for (at, what) in events {
        rec.instant(at, None, what);
    }
}

/// The one-sided workload under observation: a reader on node 0
/// fetching one page per round from node 1's read-enabled export, then
/// the whole 64 KiB export in one call. The interesting property the
/// profile audits is the span shape of a fetch: requester-side issue +
/// park, the responder's NIC serving the read with its processor idle,
/// and the reply deposits — all summing exactly to the observed fetch
/// latency. Returns the responder-engine section for the page rounds
/// (queue depth from the NIC's serving counters, plus the queue-depth
/// instants the NIC emitted) for the rendered report.
fn run_rmc_fetch(rec: &Arc<Recorder>) -> String {
    use shrimp_mesh::NodeId;
    use shrimp_node::{CacheMode, PAGE_SIZE};

    let _g = rec.install();
    let exp = Experiment::new(SystemConfig::prototype(), None);
    let names = spawn_read_owner(&exp, STREAMED);
    // Responder-engine section: the serving-queue shape on the owner
    // node once the page rounds are done. Depth instants come from the
    // NIC itself, so a FetchStall or brownout that backs requests up
    // shows here and in the trace.
    let reader = exp.system.endpoint(0, "prof-reader");
    let (sys, rec) = (Arc::clone(&exp.system), Arc::clone(rec));
    let rounds_section = exp.spawn("prof-reader", move |ctx| {
        let src = attach(&reader, ctx, &names, NodeId(1));
        let dst = reader.proc_().alloc(STREAMED, CacheMode::WriteBack);
        let intact = |len: usize| {
            let got = reader.proc_().peek(dst, len).unwrap();
            got.iter().enumerate().all(|(i, &b)| b == (i % 241) as u8)
        };
        for _ in 0..WARMUP + ROUNDS {
            reader.fetch(ctx, dst, &src, 0, PAGE_SIZE).unwrap();
        }
        assert!(intact(PAGE_SIZE));
        let owner = sys.nic(1).stats();
        let depth_events = rec
            .instants()
            .iter()
            .filter(|i| i.label.starts_with("fetch_queue_depth="))
            .count();
        let section = format!(
            "responder engine (node 1):\n  fetch requests served: {}   reply packets: {}   denials: {}\n  queue depth peak: {}   depth events: {depth_events}\n",
            owner.fetch_reqs_in, owner.fetch_replies_out, owner.fetch_denials, owner.fetch_queue_peak
        );
        reader.fetch(ctx, dst, &src, 0, STREAMED).unwrap();
        assert!(intact(STREAMED));
        section
    });
    exp.run("rmc profile run");
    rounds_section.take()
}

/// The rmc profile's closing section: the spans of the one 64 KiB
/// fetch, where the pipeline shows — the responder's engine reads piece
/// n+1 out of memory (`fetch_read`, node 1) while piece n crosses the
/// mesh and deposits (`fetch_deposit`, node 0).
fn render_streamed_fetch(spans: &[SpanRec]) -> String {
    let named = |name: &str| -> Vec<&SpanRec> { spans.iter().filter(|s| s.name == name).collect() };
    let (reads, deposits) = (named("fetch_read"), named("fetch_deposit"));
    let call = named("fetch")[0];
    // A piece that queued for the bus deposits from its grant less the
    // DMA set-up, which the engine ran while the piece before still held
    // the bus, so back-to-back deposits overlap by one set-up: an engine
    // is busy over the union of its spans, and both are over the
    // intersection of those.
    let (read_busy, deposit_busy) = (covered(&reads), covered(&deposits));
    let busy = |v: &[(u64, u64)]| v.iter().map(|&(start, end)| end - start).sum::<u64>();
    let both: u64 = read_busy
        .iter()
        .flat_map(|r| deposit_busy.iter().map(move |d| (r, d)))
        .map(|(r, d)| r.1.min(d.1).saturating_sub(r.0.max(d.0)))
        .sum();
    let mut out = format!(
        "one {} KiB fetch, every page chunk in flight:\n  end to end: {:.3} us ({:.1} MB/s)   reply packets: {}\n  busy us: responder fetch_read {:.3}   requester fetch_deposit {:.3}   both at once {:.3}\n  first pieces, us from the call:\n    piece   fetch_read (node 1)     fetch_deposit (node 0)\n",
        STREAMED / 1024,
        call.dur().as_us(),
        STREAMED as f64 / call.dur().as_us(),
        deposits.len(),
        SimDur(busy(&read_busy)).as_us(),
        SimDur(busy(&deposit_busy)).as_us(),
        SimDur(both).as_us(),
    );
    let at = |t: SimTime| t.since(call.start).as_us();
    for (i, (r, d)) in reads.iter().zip(&deposits).take(4).enumerate() {
        out.push_str(&format!(
            "    {i:>5} {:>9.3} .. {:>8.3}   {:>9.3} .. {:>8.3}\n",
            at(r.start),
            at(r.end),
            at(d.start),
            at(d.end),
        ));
    }
    out.push_str(&render_layer_table(spans));
    out
}

/// The instants `spans` cover, as sorted disjoint (start, end)
/// picosecond intervals.
fn covered(spans: &[&SpanRec]) -> Vec<(u64, u64)> {
    let mut intervals: Vec<(u64, u64)> = spans.iter().map(|s| (s.start.0, s.end.0)).collect();
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (start, end) in intervals {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

/// The KV service under observation: a 2×2 chained cluster, one client
/// on node 0 and a key whose shard lives elsewhere. With the bindings
/// warm and the recorder cleared, [`SVC_OPS`] gets (or puts) run back to
/// back, each inside a `Service` span of the driver's own — the
/// end-to-end time the timeline's legs must add up to.
fn run_svc_ops(rec: &Arc<Recorder>, put: bool) -> Budget {
    let _g = rec.install();
    let exp = Experiment::new(SystemConfig::prototype(), None);
    let cl = SvcCluster::spawn(&exp.system, SvcConfig::chained(exp.system.len()));
    cl.register_clients(1);
    let spans = Arc::clone(rec);
    let route = exp.spawn("prof-client", move |ctx| {
        let mut cli = SvcClient::new(&cl, 0, "prof");
        let key = (0..64)
            .map(|i| format!("prof-key-{i}").into_bytes())
            .find(|k| cl.route(cli.shard_of(k)).primary != 0)
            .expect("some key lives on a remote shard");
        let route = cl.route(cli.shard_of(&key));
        let val = *b"sixteen byte val";
        for _ in 0..2 {
            cli.put(ctx, &key, &val).unwrap();
            assert_eq!(cli.get(ctx, &key).unwrap().1.as_deref(), Some(&val[..]));
        }
        spans.clear();
        for _ in 0..SVC_OPS {
            let start = ctx.now();
            if put {
                cli.put(ctx, &key, &val).unwrap();
            } else {
                cli.get(ctx, &key).unwrap();
            }
            spans.push(SpanRec {
                msg: shrimp_obs::MsgId::NONE,
                node: 0,
                layer: Layer::Service,
                name: "request",
                start,
                end: ctx.now(),
                bytes: val.len(),
            });
        }
        cl.client_done();
        route
    });
    exp.run("svc profile run");
    let route = route.take();
    let backup = route.backup.expect("the chained layout replicates");
    let table = if put { &SVC_PUT } else { &SVC_GET };
    extract(&rec.spans(), table, &[0, route.primary, backup])
}

/// Run a null-call loop with the recorder installed, then overlay the
/// fault log it returned as instant events. The two loops are Figure
/// 5's (a 4-byte INOUT argument over the automatic-update stream, the
/// paper's fastest compatible variant) and §5's specialized RPC.
fn observe_calls(rec: &Arc<Recorder>, calls: impl FnOnce() -> (f64, Vec<(SimTime, String)>)) {
    let _g = rec.install();
    for (at, what) in calls().1 {
        rec.instant(at, None, what);
    }
}

/// `bench simprof <profile> [--chaos] [--trace FILE.json]`: rerun a
/// figure workload with the `shrimp-obs` recorder installed and print
/// the per-layer decomposition; `--chaos` drives it through the fault
/// engine and overlays the fault log, `--trace` also exports Chrome
/// trace-event JSON (open in <https://ui.perfetto.dev>). The outcome's
/// extra check fails when any per-message breakdown or budget row does
/// not sum exactly to end-to-end virtual time.
pub(crate) fn run(args: &Args) -> Outcome {
    let (name, chaos) = (args.get("PROFILE").expect("required"), args.has("--chaos"));
    let prof = profile(name, chaos).expect("the parser admits only WORKLOADS");
    let mut out = Outcome::default();
    out.text += &format!(
        "simprof {}{}\n",
        prof.name,
        if chaos { " (chaos)" } else { "" }
    );
    out.text.push_str(&prof.report);
    if let Some(path) = args.get("--trace") {
        let json = prof.trace_json();
        out.text += &format!("trace: {path} ({} bytes)\n", json.len());
        out.files.push((path.to_string(), json));
    }
    out.checks
        .push(("exact conservation".to_string(), prof.conserved));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_budget_sums_exactly_and_matches_paper_shape() {
        let out = profile("fig5", false).unwrap();
        assert!(out.conserved, "report:\n{}", out.report);
        let budget = extract(&out.recorder.spans(), &FIG5, &RPC_NODES);
        assert!(budget.is_conserved());
        assert_eq!(budget.calls as u32, WARMUP + ROUNDS);
        // Paper Fig. 5 shape for a null call: every component nonzero,
        // round trip ~29 us, prep the largest client-side slice.
        let per_call = |ps: u64| ps as f64 / 1e6 / budget.calls as f64;
        let rtt = per_call(budget.end_to_end_ps);
        assert!((25.0..35.0).contains(&rtt), "null RTT {rtt:.1} us");
        for (label, ps) in &budget.rows {
            assert!(*ps > 0, "{label} must be nonzero");
        }
        assert!(per_call(budget.rows[0].1) > per_call(budget.rows[3].1));
    }

    #[test]
    fn srpc_decomposition_conserves() {
        let out = profile("srpc", false).unwrap();
        assert!(out.conserved, "report:\n{}", out.report);
        let budget = extract(&out.recorder.spans(), &SRPC, &RPC_NODES);
        assert!(budget.is_conserved());
        assert!(budget.calls > 0);
    }

    /// A window whose edges are not each found exactly once counts in
    /// end-to-end and in no leg, so the budget says VIOLATED.
    #[test]
    fn a_call_missing_or_doubling_its_server_span_breaks_conservation() {
        let span = |msg, node, name, start: u64, end: u64| SpanRec {
            msg: shrimp_obs::MsgId(msg),
            node,
            layer: User,
            name,
            start: SimTime(start),
            end: SimTime(end),
            bytes: 0,
        };
        let call = |msg, at| {
            [
                span(msg, 0, "header_prep", at, at + 10),
                span(msg, 0, "wait_reply", at + 10, at + 50),
                span(msg, 0, "return", at + 50, at + 60),
            ]
        };
        // Call 1 is whole; call 2 has no server span, call 3 two.
        let mut spans = Vec::new();
        spans.extend(call(1, 0));
        spans.push(span(0, 1, "header_proc", 20, 40));
        spans.extend(call(2, 100));
        spans.extend(call(3, 200));
        spans.push(span(0, 1, "header_proc", 215, 225));
        spans.push(span(0, 1, "header_proc", 230, 240));
        let budget = extract(&spans, &FIG5, &RPC_NODES);
        assert_eq!((budget.calls, budget.end_to_end_ps), (3, 180));
        // Only call 1's 60 ps are split: 10 prep, 10 + 10 in flight,
        // 20 at the server, 10 to return.
        let rows: Vec<u64> = budget.rows.iter().map(|r| r.1).collect();
        assert_eq!(rows, [10, 20, 20, 10]);
        assert!(!budget.is_conserved());
        assert!(budget
            .render("fig5")
            .contains("conservation: VIOLATED (180 ps across 3 calls)"));
    }

    #[test]
    fn svc_timelines_conserve_with_every_leg_found() {
        for (put, legs) in [(false, 5), (true, 10)] {
            let budget = run_svc_ops(&Recorder::new(), put);
            assert!(budget.is_conserved(), "{}", budget.render("svc"));
            assert_eq!(budget.calls as usize, SVC_OPS);
            assert_eq!(budget.rows.len(), legs);
            // A leg of zero is a span the timeline looked for and a
            // request did not record.
            for (label, ps) in &budget.rows {
                assert!(*ps > 0, "{label} must be nonzero");
            }
            let mean_us = budget.end_to_end_ps as f64 / 1e6 / SVC_OPS as f64;
            let bound = if put { 37.0 } else { 20.5 };
            assert!(mean_us < bound, "put={put}: {mean_us:.2} us");
        }
        for name in ["svc-get", "svc-put"] {
            let out = profile(name, false).unwrap();
            assert!(out.conserved, "report:\n{}", out.report);
        }
    }

    #[test]
    fn rmc_fetch_profile_traces_and_conserves() {
        let out = profile("rmc", false).unwrap();
        let spans = out.recorder.spans();
        let (msgs, ok) = check_conservation(&spans);
        assert!(msgs > 0, "fetches must appear as traced messages");
        assert!(ok, "fetch spans violated conservation");
        assert!(out.conserved, "report:\n{}", out.report);
        // The responder's CPU never runs: no server-side User spans.
        assert!(
            spans
                .iter()
                .all(|s| s.layer != Layer::User || !s.name.contains("dispatch")),
            "a one-sided fetch must not dispatch server code"
        );
    }

    #[test]
    fn per_message_conservation_holds_across_workloads() {
        for name in ["fig3", "fig5", "fig7", "rmc"] {
            let out = profile(name, false).unwrap();
            let spans = out.recorder.spans();
            let (msgs, ok) = check_conservation(&spans);
            assert!(msgs > 0, "{name}: no traced messages");
            assert!(ok, "{name}: conservation violated");
            assert!(out.conserved, "{name} report:\n{}", out.report);
        }
    }

    #[test]
    fn chaos_profile_overlays_fault_events() {
        let out = profile("fig5", true).unwrap();
        assert!(
            !out.recorder.instants().is_empty(),
            "chaos run must record fault instants"
        );
        let json = out.trace_json();
        assert!(json.contains("\"ph\":\"i\""));
    }
}
