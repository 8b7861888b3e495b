//! The four workloads behind one interface: draw the inputs from the
//! seed once, run a rep as often as asked, reduce a rep to its virtual
//! results.

use std::sync::Arc;
use std::time::Instant;

use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::{Kernel, MetricsRegistry, SimDur};

use crate::coll::{self, CollPlan};
use crate::msg::{
    self, ClassPlan, Env, FetchPlan, Lib, PagerPlan, Pool, Rig, SectionOut, SectionPlan,
};
use crate::rep::{RepOut, TrafficCounts, VirtSummary};
use crate::stats::{geomean, highest_supported_percentile, Rng};
use crate::svc::{self, StepSpec, SvcPlan};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["msg_small", "msg_bulk", "coll_8x8", "svc_4x4"];

// The frozen sizes. They fix how much work a rep is; no later change
// may move them together with a performance claim.

/// `msg_small`: measured round trips per library and size class.
pub const SMALL_TRIPS: usize = 128;
/// `msg_small`: unmeasured round trips before each class.
pub const SMALL_WARMUP: usize = 16;
/// `msg_small`: `(label, nominal bytes)` of the size classes. The first
/// is exactly 4 bytes, the size of the paper's latency anchors.
pub const SMALL_CLASSES: [(&str, usize); 4] = [("4", 4), ("64", 64), ("256", 256), ("1k", 1024)];
/// Message, fetch and operand sizes are drawn within this many percent
/// of their class's nominal size.
pub const SIZE_SPREAD_PCT: usize = 6;
/// Distinct sizes drawn per class.
pub const SIZES_PER_CLASS: usize = 4;
/// `msg_bulk`: `(label, nominal bytes, warm-up, measured)` one-way
/// messages per library.
pub const BULK_CLASSES: [(&str, usize, usize, usize); 2] =
    [("10k", 10_240, 4, 384), ("64k", 65_536, 4, 320)];
/// `msg_bulk`: `(label, nominal bytes, warm-up, measured)` fetches.
pub const FETCH_CLASSES: [(&str, usize, usize, usize); 3] = [
    ("64", 64, 8, 512),
    ("4k", 4_096, 4, 256),
    ("64k", 65_536, 2, 128),
];
/// `msg_bulk`: far-memory pages, local frames, re-references.
pub const PAGER_SHAPE: (usize, usize, usize) = (96, 24, 4_096);
/// `coll_8x8`: mesh, measured barriers, allreduce rounds per size.
pub const COLL_SHAPE: ((usize, usize), usize, usize) = ((8, 8), 8, 2);
/// `svc_4x4`: the ladder as `(offered kops, requests per engine,
/// overload?)`.
pub const SVC_LADDER: [StepSpec; 3] = [(48.0, 56, false), (144.0, 16, false), (384.0, 32, true)];
/// `svc_4x4`: index of the mid-rate step in [`SVC_LADDER`].
pub const SVC_MID: usize = 0;
/// `svc_4x4`: virtual microseconds before the first step, silence after
/// a step, silence after the overload step.
pub const SVC_TIMES_US: (f64, f64, f64) = (17_000.0, 1_000.0, 4_000.0);

/// A workload's inputs, drawn once from the seed.
pub enum Plan {
    /// Ping-pong through six libraries.
    MsgSmall(MsgPlan),
    /// One-way streams, fetches and the pager.
    MsgBulk(MsgPlan),
    /// Collectives on 64 ranks.
    Coll(Arc<CollPlan>),
    /// The KV service under an open loop.
    Svc(Arc<SvcPlan>),
}

/// Inputs of the two point-to-point workloads.
pub struct MsgPlan {
    pool: Arc<Pool>,
    /// Library sections in the seeded visiting order.
    sections: Vec<Arc<SectionPlan>>,
    fetch: Option<Arc<FetchPlan>>,
    pager: Option<Arc<PagerPlan>>,
}

impl MsgPlan {
    /// One section per library in `libs`, ping-pong or one-way, each
    /// over `classes` (`(label, nominal, spread %, warm-up, measured)`),
    /// visited in an order drawn from the seed.
    pub fn sections(
        seed: u64,
        stream: bool,
        libs: &[Lib],
        classes: &[(&'static str, usize, usize, usize, usize)],
    ) -> MsgPlan {
        let mut rng = Rng::new(seed, 10);
        let largest = classes.iter().map(|c| c.1).max().unwrap_or(4);
        let pool = Arc::new(Pool::new(&mut rng, largest * 5 / 4));
        let mut sections: Vec<Arc<SectionPlan>> = libs
            .iter()
            .map(|&lib| {
                let classes = classes
                    .iter()
                    .map(|&(label, nominal, spread, warmup, measured)| {
                        ClassPlan::draw(
                            &mut rng,
                            &pool,
                            label,
                            nominal,
                            spread,
                            SIZES_PER_CLASS,
                            warmup,
                            measured,
                        )
                    })
                    .collect();
                Arc::new(SectionPlan {
                    lib,
                    stream,
                    classes,
                })
            })
            .collect();
        rng.shuffle(&mut sections);
        MsgPlan {
            pool,
            sections,
            fetch: None,
            pager: None,
        }
    }

    /// Add the fetch and pager sections, run after the library ones.
    pub fn set_read_side(&mut self, fetch: FetchPlan, pager: PagerPlan) {
        self.fetch = Some(Arc::new(fetch));
        self.pager = Some(Arc::new(pager));
    }

    fn small(seed: u64) -> MsgPlan {
        let classes: Vec<_> = SMALL_CLASSES
            .iter()
            .map(|&(label, nominal)| {
                let spread = if nominal == 4 { 0 } else { SIZE_SPREAD_PCT };
                (label, nominal, spread, SMALL_WARMUP, SMALL_TRIPS)
            })
            .collect();
        MsgPlan::sections(seed, false, &SMALL_LIBS, &classes)
    }

    fn bulk(seed: u64) -> MsgPlan {
        let classes: Vec<_> = BULK_CLASSES
            .iter()
            .map(|&(label, nominal, warmup, measured)| {
                (label, nominal, SIZE_SPREAD_PCT, warmup, measured)
            })
            .collect();
        let mut plan = MsgPlan::sections(seed, true, &BULK_LIBS, &classes);
        let mut rng = Rng::new(seed, 11);
        plan.set_read_side(
            FetchPlan::draw(&mut rng, SIZE_SPREAD_PCT, &FETCH_CLASSES),
            PagerPlan::draw(&mut rng, PAGER_SHAPE.0, PAGER_SHAPE.1, PAGER_SHAPE.2),
        );
        plan
    }

    /// One rep: a fresh 2×2 prototype, every section in turn.
    pub fn run_rep(&self) -> RepOut {
        let rep_start = Instant::now();
        let reg = MetricsRegistry::new();
        let guard = reg.install();
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, SystemConfig::prototype());
        drop(guard);
        let rig = Rig {
            kernel: &kernel,
            system: Arc::clone(&system),
            env: Env {
                reg: reg.clone(),
                pool: Arc::clone(&self.pool),
            },
        };
        let mut out = RepOut {
            host_t0: Some(rep_start),
            ..RepOut::default()
        };
        let absorb = |s: SectionOut, out: &mut RepOut| {
            out.attempted += s.attempted;
            out.failed += s.failed;
            out.errors
                .extend(s.errors.iter().map(|e| format!("{}: {e}", s.name)));
            out.setup_virt_ps += s.setup_virt_ps;
            for mut p in s.classes {
                p.name = format!("{}:{}", s.name, p.name);
                out.phases.push(p);
            }
            if s.name == "pager" {
                out.counts.insert("pager_hits".into(), s.pager_hits);
                out.counts.insert("pager_faults".into(), s.pager_faults);
            }
        };
        for (i, plan) in self.sections.iter().enumerate() {
            let s = msg::run_section(&rig, Arc::clone(plan), 7_000 + i as u16);
            absorb(s, &mut out);
        }
        if let Some(plan) = &self.fetch {
            absorb(msg::fetch_section(&rig, Arc::clone(plan)), &mut out);
        }
        if let Some(plan) = &self.pager {
            absorb(msg::pager_section(&rig, Arc::clone(plan)), &mut out);
        }
        if !system.violations().is_empty() {
            out.fail("protection violations".into());
        }
        out.traffic = TrafficCounts::of(&system);
        let measured_s = out.measured_s();
        let t = Instant::now();
        drop(rig);
        drop(system);
        drop(kernel);
        out.teardown_s = t.elapsed().as_secs_f64();
        out.sim = reg.snapshot();
        out.wall_s = rep_start.elapsed().as_secs_f64();
        out.setup_s = out.wall_s - measured_s - out.teardown_s;
        out
    }
}

/// One-way latency of a ping-pong phase, or the round trip of an RPC
/// phase: virtual microseconds, mean over the measured trips.
pub fn ping_latency_us(rep: &RepOut, lib: Lib, class: &str) -> f64 {
    let rtt = rep.phase(&format!("{}:{class}", lib.name())).mean_us();
    if lib.is_rpc() {
        rtt
    } else {
        rtt / 2.0
    }
}

/// The libraries `msg_small` visits.
pub const SMALL_LIBS: [Lib; 6] = [
    Lib::VmmcAu,
    Lib::VmmcDu,
    Lib::Nx,
    Lib::Sockets,
    Lib::Vrpc,
    Lib::Srpc,
];
/// The libraries `msg_bulk` streams through.
pub const BULK_LIBS: [Lib; 4] = [Lib::VmmcDu, Lib::VmmcAu, Lib::Nx, Lib::Sockets];

fn whole_rep_kops(rep: &RepOut) -> f64 {
    let span_ps: u64 = rep.phases.iter().map(|p| p.span_ps).sum();
    rep.ops() as f64 / (span_ps as f64 / 1e9)
}

fn summarize_small(rep: &RepOut) -> VirtSummary {
    let lat = |lib, class| ping_latency_us(rep, lib, class);
    let small: Vec<f64> = SMALL_LIBS
        .iter()
        .flat_map(|&l| ["4", "64", "256"].map(|c| lat(l, c)))
        .collect();
    let big: Vec<f64> = SMALL_LIBS.iter().map(|&l| lat(l, "1k")).collect();
    let big_mbs: Vec<f64> = SMALL_LIBS
        .iter()
        .map(|l| rep.phase(&format!("{}:1k", l.name())).mbs())
        .collect();
    let four: Vec<f64> = SMALL_LIBS.iter().map(|&l| lat(l, "4")).collect();
    let mut detail = vec![("virt_small_us".to_string(), geomean(&four))];
    // The paper's 4-byte anchors; the two overheads are over the raw
    // automatic-update latency.
    let anchors = [
        ("au_oneway_us", lat(Lib::VmmcAu, "4"), 4.75),
        ("du_oneway_us", lat(Lib::VmmcDu, "4"), 7.6),
        (
            "nx_overhead_us",
            lat(Lib::Nx, "4") - lat(Lib::VmmcAu, "4"),
            6.0,
        ),
        (
            "sockets_overhead_us",
            lat(Lib::Sockets, "4") - lat(Lib::VmmcAu, "4"),
            13.0,
        ),
        ("vrpc_null_us", lat(Lib::Vrpc, "4"), 29.0),
        ("srpc_null_us", lat(Lib::Srpc, "4"), 9.5),
    ];
    let mut worst = 0.0f64;
    for (name, sim, paper) in anchors {
        detail.push((name.to_string(), sim));
        worst = worst.max(100.0 * (sim - paper).abs() / paper);
    }
    detail.push(("paper_err_pct".to_string(), worst));
    for &l in &SMALL_LIBS {
        for (c, _) in SMALL_CLASSES {
            detail.push((format!("{}:{c}_us", l.name()), lat(l, c)));
        }
    }
    VirtSummary {
        lat_us: geomean(&small),
        slow_us: geomean(&big),
        mbs: geomean(&big_mbs),
        kops: whole_rep_kops(rep),
        detail,
    }
}

fn summarize_bulk(rep: &RepOut) -> VirtSummary {
    let libs = BULK_LIBS;
    let stream = |l: Lib, c: &str| rep.phase(&format!("stream:{}:{c}", l.name())).mbs();
    let bulk: Vec<f64> = libs.iter().map(|&l| stream(l, "64k")).collect();
    let fetch = |c: &str| rep.phase(&format!("fetch:{c}"));
    let faults = rep.phase("pager:fault");
    let fault_p = highest_supported_percentile(faults.lat_ps.len()).unwrap_or(0.90);
    let hits = rep.counts["pager_hits"] as f64;
    let faulted = rep.counts["pager_faults"] as f64;
    let mut detail = vec![
        ("virt_bulk_mbs".to_string(), geomean(&bulk)),
        ("virt_fetch_mbs".to_string(), fetch("64k").mbs()),
        ("fetch_64_us".to_string(), fetch("64").mean_us()),
        ("fetch_4k_us".to_string(), fetch("4k").mean_us()),
        ("pager_fault_p50_us".to_string(), faults.percentile_us(0.50)),
        (
            format!("pager_fault_p{}_us", (fault_p * 100.0).round()),
            faults.percentile_us(fault_p),
        ),
        ("pager_hit_share".to_string(), hits / (hits + faulted)),
    ];
    for &l in &libs {
        for c in ["10k", "64k"] {
            detail.push((format!("stream:{}:{c}_mbs", l.name()), stream(l, c)));
        }
    }
    VirtSummary {
        lat_us: geomean(&[fetch("64").mean_us(), fetch("4k").mean_us()]),
        slow_us: fetch("64k").mean_us(),
        mbs: geomean(&bulk),
        kops: whole_rep_kops(rep),
        detail,
    }
}

impl Plan {
    /// Draw workload `name`'s inputs from `seed`.
    pub fn draw(name: &str, seed: u64) -> Option<Plan> {
        Some(match name {
            "msg_small" => Plan::MsgSmall(MsgPlan::small(seed)),
            "msg_bulk" => Plan::MsgBulk(MsgPlan::bulk(seed)),
            "coll_8x8" => Plan::Coll(Arc::new(CollPlan::draw(
                seed,
                COLL_SHAPE.0,
                COLL_SHAPE.1,
                COLL_SHAPE.2,
            ))),
            "svc_4x4" => Plan::Svc(Arc::new(SvcPlan::draw(
                seed,
                (4, 4),
                &SVC_LADDER,
                SVC_MID,
                SimDur::from_us(SVC_TIMES_US.0),
                SimDur::from_us(SVC_TIMES_US.1),
                SimDur::from_us(SVC_TIMES_US.2),
            ))),
            _ => return None,
        })
    }

    /// Run one rep.
    pub fn run_rep(&self) -> RepOut {
        match self {
            Plan::MsgSmall(p) | Plan::MsgBulk(p) => p.run_rep(),
            Plan::Coll(p) => coll::run_rep(p),
            Plan::Svc(p) => svc::run_rep(p),
        }
    }

    /// Reduce a rep to its virtual results.
    pub fn summarize(&self, rep: &RepOut) -> VirtSummary {
        match self {
            Plan::MsgSmall(_) => summarize_small(rep),
            Plan::MsgBulk(_) => summarize_bulk(rep),
            Plan::Coll(_) => coll::summarize(rep),
            Plan::Svc(p) => svc::summarize(p, rep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: [(&str, usize, usize, usize, usize); 2] =
        [("4", 4, 0, 1, 2), ("1k", 1024, SIZE_SPREAD_PCT, 1, 2)];

    fn tiny_bulk(seed: u64) -> MsgPlan {
        let mut plan = MsgPlan::sections(seed, true, &BULK_LIBS, &[("10k", 10_240, 6, 1, 5)]);
        let mut rng = Rng::new(seed, 11);
        plan.set_read_side(
            FetchPlan::draw(&mut rng, 6, &[("64", 64, 1, 3), ("4k", 4096, 0, 2)]),
            PagerPlan::draw(&mut rng, 8, 2, 24),
        );
        plan
    }

    #[test]
    fn every_library_passes_its_checks_and_reps_repeat() {
        let plan = MsgPlan::sections(7, false, &SMALL_LIBS, &TINY);
        let (a, b) = (plan.run_rep(), plan.run_rep());
        assert_eq!(a.failed, 0, "{:?}", a.errors);
        assert_eq!(a.attempted, 6 * 2 * 3);
        assert_eq!(a.phases.len(), 12);
        assert!(a.phases.iter().all(|p| p.ops() == 2 && p.span_ps > 0));
        assert_eq!(
            a.virt_digest(),
            b.virt_digest(),
            "same inputs, same virtual samples"
        );
        let other = MsgPlan::sections(8, false, &SMALL_LIBS, &TINY).run_rep();
        assert_ne!(
            a.virt_digest(),
            other.virt_digest(),
            "another seed, other sizes"
        );
        // The 4-byte class is the paper's anchor: exact on every seed.
        assert_eq!(a.phase("vmmc_au:4").lat_ps, other.phase("vmmc_au:4").lat_ps);
    }

    #[test]
    fn a_corrupt_payload_counts_as_a_failed_operation() {
        let mut plan = MsgPlan::sections(7, false, &[Lib::Nx, Lib::VmmcDu], &TINY);
        for section in &mut plan.sections {
            let msg = &mut Arc::get_mut(section).expect("sole owner").classes[1].msgs[2];
            msg.sum_full ^= 1;
            msg.sum_body ^= 1;
        }
        let rep = plan.run_rep();
        assert_eq!(rep.failed, 2, "{:?}", rep.errors);
        assert!(rep.errors.iter().all(|e| e.contains("corrupt")));
    }

    #[test]
    fn streams_fetches_and_pager_pass_their_checks() {
        let rep = tiny_bulk(3).run_rep();
        assert_eq!(rep.failed, 0, "{:?}", rep.errors);
        for lib in BULK_LIBS {
            let p = rep.phase(&format!("stream:{}:10k", lib.name()));
            assert_eq!(p.ops(), 5);
            assert!((5.0..40.0).contains(&p.mbs()), "{} {}", p.name, p.mbs());
        }
        assert_eq!(rep.phase("fetch:64").ops(), 3);
        assert_eq!(
            rep.counts["pager_hits"] + rep.counts["pager_faults"],
            8 + 24
        );
        assert!(rep.traffic.fetch_replies > 0 && rep.traffic.du_packets > 0);
        assert_eq!(rep.virt_digest(), tiny_bulk(3).run_rep().virt_digest());
    }

    #[test]
    fn collectives_match_the_reference_on_a_small_mesh() {
        let plan = Arc::new(CollPlan::draw(5, (2, 2), 2, 1));
        let rep = coll::run_rep(&plan);
        assert_eq!(rep.failed, 0, "{:?}", rep.errors);
        assert_eq!(rep.phase("barrier").ops(), 2);
        assert_eq!(rep.phase("allreduce:8k").bytes, 4 * 8192);
        let s = coll::summarize(&rep);
        assert!(s.lat_us > 0.0 && s.slow_us > s.lat_us);
        assert_eq!(rep.virt_digest(), coll::run_rep(&plan).virt_digest());
    }

    #[test]
    fn the_service_loses_no_acked_write_and_is_never_late() {
        let ladder = [(8.0, 8, false), (200.0, 8, true)];
        let plan = Arc::new(SvcPlan::draw(
            9,
            (2, 2),
            &ladder,
            0,
            SimDur::from_us(6_000.0),
            SimDur::from_us(500.0),
            SimDur::from_us(3_000.0),
        ));
        let rep = svc::run_rep(&plan);
        assert_eq!(rep.failed, 0, "{:?}", rep.errors);
        assert_eq!(rep.attempted, 2 * 4 * 8);
        assert_eq!(rep.counts["lost_acked_writes"], 0);
        assert_eq!(rep.counts["gen_late_max_ps"], 0);
        assert_eq!(rep.counts["s1_ok"], 32);
        let s = svc::summarize(&plan, &rep);
        assert!(s.lat_us > 10.0 && s.kops > 0.0 && s.mbs > 0.0);
        assert_eq!(rep.virt_digest(), svc::run_rep(&plan).virt_digest());
    }
}
