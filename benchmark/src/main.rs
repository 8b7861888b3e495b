//! The repo's benchmark: four workloads, two clocks.
//!
//! ```text
//! shrimp-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! *Virtual* time is what the modelled SHRIMP would take; it is
//! deterministic, so for a given seed every `virt_*` number and the
//! `virt_digest` repeat exactly. *Host* time is what the simulator
//! costs; it is noisy, so it is a median over reps on one pinned core.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it carries the detail (digest, quartiles, the
//! workload's own named results). See README.md.

mod catalog;
mod coll;
mod host;
mod msg;
mod probes;
mod rep;
mod stats;
mod svc;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use shrimp_obs::{Layer, Recorder};

use crate::host::{CpuMask, HostSpans, Rusage};
use crate::rep::RepOut;
use crate::stats::{median, quartiles, spread_pct};
use crate::workloads::Plan;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Timed reps a run makes at least, however long they take.
const MIN_REPS: usize = 3;
/// Timed reps a traced run makes at most: it only needs a median to
/// compare the traced rep with.
const TRACED_RUN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Run `plan` once with the `shrimp-obs` recorder and the allocation
/// counters on.
fn traced_rep(plan: &Plan) -> (RepOut, trace::LayerTimes, (u64, u64)) {
    let rec = Recorder::new();
    let guard = rec.install();
    let before = host::alloc_counts();
    host::set_alloc_counting(true);
    let rep = plan.run_rep();
    host::set_alloc_counting(false);
    let after = host::alloc_counts();
    drop(guard);
    let layers = trace::LayerTimes::of(rec.spans());
    (rep, layers, (after.0 - before.0, after.1 - before.1))
}

fn host_spans_of(spans: &mut HostSpans, name: &str, rep: &RepOut) {
    let Some(t0) = rep.host_t0 else { return };
    let end = t0 + std::time::Duration::from_secs_f64(rep.wall_s);
    let root = spans.push(name, None, t0, end);
    let first = rep
        .phases
        .iter()
        .filter_map(|p| p.host_t0)
        .min()
        .unwrap_or(end);
    spans.push("build+setup", root, t0, first);
    for p in &rep.phases {
        if let Some(p0) = p.host_t0 {
            let p1 = p0 + std::time::Duration::from_secs_f64(p.host_s);
            spans.push(format!("measure:{}", p.name), root, p0, p1);
        }
    }
    let down = end - std::time::Duration::from_secs_f64(rep.teardown_s);
    spans.push("teardown", root, down, end);
}

fn run() -> Result<bool, String> {
    let process_start = Instant::now();
    let args = parse_args()?;
    // One core, or nothing: unpinned numbers are not comparable.
    let (cpu, inherited) = host::pin_to_lowest_cpu()?;
    host::single_malloc_arena()?;
    let nproc = inherited.count();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "host: pinned to cpu {cpu}; {nproc} cpus in the inherited mask; \
         available_parallelism now {parallelism}"
    );

    let plan = Plan::draw(&args.workload, args.seed).ok_or(format!(
        "unknown workload '{}' (one of {})",
        args.workload,
        workloads::NAMES.join(", ")
    ))?;
    let mut spans = HostSpans::new(args.trace);
    let warm = plan.run_rep();
    host_spans_of(&mut spans, "rep:warm-up", &warm);
    let startup_s = process_start.elapsed().as_secs_f64();
    let digest = warm.virt_digest();

    let max_reps = if args.trace {
        TRACED_RUN_REPS
    } else {
        usize::MAX
    };
    let measure_start = Instant::now();
    let usage0 = Rusage::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS
        || (reps.len() < max_reps && measure_start.elapsed().as_secs_f64() < args.seconds)
    {
        let rep = plan.run_rep();
        host_spans_of(&mut spans, &format!("rep:{}", reps.len()), &rep);
        reps.push(rep);
    }
    let usage1 = Rusage::now();

    // Correctness: nothing failed, and every rep behaved the same.
    let mut correct = true;
    let mut attempted = warm.attempted;
    let mut failed = warm.failed;
    for (i, rep) in std::iter::once(&warm).chain(&reps).enumerate() {
        if i > 0 {
            attempted += rep.attempted;
            failed += rep.failed;
        }
        for e in &rep.errors {
            eprintln!("rep {i}: {e}");
        }
        if rep.virt_digest() != digest {
            eprintln!(
                "rep {i}: virt_digest {:016x} differs from the warm-up rep's {:016x}",
                rep.virt_digest().0,
                digest.0
            );
            correct = false;
        }
    }
    correct &= failed == 0;

    let last = reps.last().expect("at least one timed rep");
    let virt = plan.summarize(last);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let wall_s = median(&walls);
    let setup_s = median(&setups);
    let peak_rss_mb = host::peak_rss_mb();
    let end_to_end: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("peak_rss_mb", peak_rss_mb),
        ("virt_lat_us", virt.lat_us),
        ("virt_slow_us", virt.slow_us),
        ("virt_mbs", virt.mbs),
        ("virt_kops", virt.kops),
    ]);

    // Host-side engine ratios over the timed reps.
    let d_user = usage1.user_s - usage0.user_s;
    let d_sys = usage1.sys_s - usage0.sys_s;
    let d_vcsw = usage1.vcsw - usage0.vcsw;
    let sum = |f: fn(&RepOut) -> u64| reps.iter().map(f).sum::<u64>() as f64;
    let resumes = sum(|r| r.sim.resumes);
    let cross = resumes - sum(|r| r.sim.fast_resumes);
    let items = sum(|r| r.sim.items());
    let sys_share = d_sys / (d_user + d_sys);
    let vcsw_per_resume = d_vcsw as f64 / cross.max(1.0);
    let host_ns_per_item = walls.iter().sum::<f64>() * 1e9 / items.max(1.0);
    let failed_share = failed as f64 / attempted.max(1) as f64;
    let rep_spread_pct = spread_pct(&walls);
    let (q1, q3) = quartiles(&walls);

    let mut detail: Vec<(String, String)> = vec![
        ("workload".into(), trace::string(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        (
            "virt_digest".into(),
            trace::string(&format!("{:016x}", digest.0)),
        ),
        ("reps".into(), reps.len().to_string()),
        ("wall_s_q1".into(), trace::num(q1)),
        ("wall_s_q3".into(), trace::num(q3)),
        ("rep_spread_pct".into(), trace::num(rep_spread_pct)),
        ("failed_share".into(), trace::num(failed_share)),
        ("pinned_cpu".into(), cpu.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("available_parallelism".into(), parallelism.to_string()),
        ("startup_s".into(), trace::num(startup_s)),
        ("sys_share".into(), trace::num(sys_share)),
        ("vcsw_per_resume".into(), trace::num(vcsw_per_resume)),
        (
            "fast_resume_share".into(),
            trace::num(sum(|r| r.sim.fast_resumes) / resumes.max(1.0)),
        ),
        ("host_ns_per_item".into(), trace::num(host_ns_per_item)),
    ];
    for (name, value) in &virt.detail {
        detail.push((name.clone(), trace::num(*value)));
    }
    for (name, value) in &last.counts {
        detail.push((name.clone(), value.to_string()));
    }

    let metrics = if args.trace {
        let (traced, layers, (allocs, alloc_bytes)) = traced_rep(&plan);
        host_spans_of(&mut spans, "rep:traced", &traced);
        if traced.virt_digest() != digest {
            eprintln!("traced rep: virt_digest differs; recording perturbed the simulation");
            correct = false;
        }
        correct &= layers.conserved == layers.messages;
        // One rep with the whole inherited mask, then back to one core.
        inherited.apply()?;
        let unpinned = plan.run_rep();
        CpuMask::single(cpu).apply()?;
        host_spans_of(&mut spans, "rep:unpinned", &unpinned);
        let probe_span = spans.begin("probes", None);
        let probed = probes::run_all(&mut spans, probe_span);
        spans.end(probe_span);

        let t = &last.traffic;
        let packets = (t.au_packets + t.du_packets + t.fetch_replies) as f64;
        let ops = last.ops() as f64;
        let steady: Vec<f64> = reps.iter().map(RepOut::measured_s).collect();
        let count = |k: &str| last.counts.get(k).copied().unwrap_or(0) as f64;
        let mut per_layer: BTreeMap<&str, f64> = probed;
        per_layer.extend([
            ("sim.items", last.sim.items() as f64),
            ("sim.events", last.sim.events_executed as f64),
            ("sim.resumes", last.sim.resumes as f64),
            (
                "sim.fast_resume_share",
                last.sim.fast_resumes as f64 / last.sim.resumes.max(1) as f64,
            ),
            (
                "sim.batched_event_share",
                last.sim.batched_events as f64 / last.sim.events_executed.max(1) as f64,
            ),
            ("sim.resumes_per_op", last.sim.resumes as f64 / ops),
            ("sim.host_ns_per_item", host_ns_per_item),
            ("sim.vcsw_per_resume", vcsw_per_resume),
            ("sim.sys_share", sys_share),
            (
                "sim.allocs_per_item",
                allocs as f64 / traced.sim.items().max(1) as f64,
            ),
            ("sim.alloc_mb_per_rep", alloc_bytes as f64 / 1e6),
            ("sim.unpinned_wall_ratio", unpinned.wall_s / wall_s),
            ("mesh.packets", t.mesh_packets as f64),
            ("mesh.payload_mb", t.mesh_payload_bytes as f64 / 1e6),
            ("mesh.virt_share", layers.share(Layer::Mesh)),
            ("nic.au_packets", t.au_packets as f64),
            ("nic.du_packets", t.du_packets as f64),
            ("nic.fetch_replies", t.fetch_replies as f64),
            ("nic.freezes", t.freezes as f64),
            (
                "nic.host_ns_per_pkt",
                median(&steady) * 1e9 / packets.max(1.0),
            ),
            ("nic.out_virt_share", layers.share(Layer::NicOut)),
            ("nic.in_virt_share", layers.share(Layer::NicIn)),
            ("nic.deposit_virt_share", layers.share(Layer::Deposit)),
            ("core.endpoint_virt_share", layers.share(Layer::Endpoint)),
            ("lib.user_virt_share", layers.share(Layer::User)),
            ("svc.hedges", count("hedges")),
            (
                "svc.shed_share_overload",
                count("shed_overload") / count("offered_overload").max(1.0),
            ),
            ("svc.gen_late_max_ps", count("gen_late_max_ps")),
            ("obs.wait_virt_share", layers.wait_share()),
            (
                "obs.trace_overhead_pct",
                100.0 * (traced.wall_s / wall_s - 1.0),
            ),
            ("obs.spans_per_rep", layers.spans as f64),
            ("obs.conserved_share", layers.conserved_share()),
            ("harness.startup_s", startup_s),
            ("harness.steady_s", median(&steady)),
            ("harness.host_us_per_op", median(&steady) * 1e6 / ops),
            ("harness.rep_spread_pct", rep_spread_pct),
            ("harness.reps", reps.len() as f64),
            ("harness.pinned_cpu", cpu as f64),
            ("harness.nproc", f64::from(nproc)),
            ("harness.failed_share", failed_share),
        ]);
        correct &= per_layer.values().all(|v| v.is_finite());
        let rendered = trace::metrics_object(
            catalog::PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, per_layer[name], unit)),
        );
        // End-to-end numbers ride along in the detail of a traced run.
        for (name, unit, ..) in catalog::END_TO_END {
            detail.push((format!("{name}[{unit}]"), trace::num(end_to_end[name])));
        }
        let text = trace::render(&args.workload, args.seed, spans.spans(), &layers, &rendered);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}.json", args.workload));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => eprintln!("trace written to {}", path.display()),
            Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
        }
        rendered
    } else {
        trace::metrics_object(
            catalog::END_TO_END
                .iter()
                .map(|&(name, unit, ..)| (name, end_to_end[name], unit)),
        )
    };
    // An end-to-end metric that is zero or not a number measured nothing.
    correct &= end_to_end.values().all(|v| v.is_finite() && *v > 0.0);

    let detail: Vec<String> = detail
        .iter()
        .map(|(k, v)| format!("{}: {v}", trace::string(k)))
        .collect();
    println!("{{\"detail\": {{{}}}}}", detail.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("the run's outputs were not correct");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
