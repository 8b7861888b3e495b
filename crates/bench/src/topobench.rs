//! The topology-zoo study: collective latency per fabric, software vs
//! in-network hardware offload.
//!
//! Two questions, both answered in virtual time (bit-identically
//! reproducible):
//!
//! * **Does the backplane generalize?** The same barrier + allreduce
//!   workload runs over every in-order fabric in the zoo — 2-D mesh,
//!   torus, dragonfly — at 4, 16, and 64 nodes, with correctness
//!   checked against a host-side reference every run.
//! * **Is in-network computing worth router area?** Each cell runs
//!   twice, [`CollImpl::Software`] vs [`CollImpl::Hardware`]: the
//!   combining/replication stage crosses each spanning-tree link once
//!   per direction, versus the software algorithms' `log n` end-host
//!   rounds. The rendered curve records the speedup per fabric and
//!   size; the 64-node (8×8) rows are the headline.
//!
//! Digests over every virtual quantity gate `BENCH_topo.json` in CI
//! (`topobench --smoke --check`).

use std::sync::Arc;

use shrimp_coll::{CollConfig, CollImpl};
use shrimp_mesh::{Dragonfly, Mesh2D, TopologyRef, Torus2D};
use shrimp_sim::Fnv1a;

use crate::collectives::{allreduce_sweep_with, barrier_latency_with};
use crate::harness::{field, Args, Cell, Json, Obj, Outcome, Row};

/// Barrier rounds per timed cell.
const BARRIER_ROUNDS: u32 = 4;
/// Allreduce rounds per timed cell.
const SWEEP_ROUNDS: u32 = 2;
/// Allreduce payload (bytes) for the zoo comparison.
const ALLREDUCE_BYTES: usize = 1024;
/// Input seed for the verified allreduce rounds.
const SEED: u64 = 7;

/// The fabrics the study covers at `nodes` compute nodes (a perfect
/// square). Shapes follow the natural radix at each size: square
/// mesh/torus and a √n × √n dragonfly.
fn zoo(nodes: usize) -> Vec<TopologyRef> {
    let side = (nodes as f64).sqrt() as usize;
    assert_eq!(side * side, nodes, "zoo sizes are perfect squares");
    vec![
        Arc::new(Mesh2D::new(side, side)) as TopologyRef,
        Arc::new(Torus2D::new(side, side)) as TopologyRef,
        Arc::new(Dragonfly::new(side, side)) as TopologyRef,
    ]
}

/// Node counts the study sweeps (the 4-node prototype, the 16-node
/// planned machine, and the 8×8 scale-out point).
fn sizes(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![4, 16]
    } else {
        vec![4, 16, 64]
    }
}

/// One measured zoo cell: a fabric at a size, software vs hardware.
#[derive(Debug, Clone)]
struct TopoPoint {
    /// Fabric name ("mesh", "torus", ...).
    pub topo: String,
    /// Compute nodes.
    pub nodes: usize,
    /// Fabric diameter in links.
    pub diameter: usize,
    /// Unidirectional physical links.
    pub links: usize,
    /// Software barrier latency, microseconds per operation.
    pub sw_barrier_us: f64,
    /// In-network barrier latency, microseconds per operation.
    pub hw_barrier_us: f64,
    /// Software allreduce (1 KiB, selector's algorithm), microseconds.
    pub sw_allreduce_us: f64,
    /// In-network allreduce (1 KiB), microseconds.
    pub hw_allreduce_us: f64,
}

impl TopoPoint {
    /// Software-over-hardware barrier speedup.
    fn barrier_speedup(&self) -> f64 {
        self.sw_barrier_us / self.hw_barrier_us
    }

    /// Software-over-hardware allreduce speedup.
    fn allreduce_speedup(&self) -> f64 {
        self.sw_allreduce_us / self.hw_allreduce_us
    }

    fn row(&self) -> Row {
        use Cell::{Count, Real, Text, Times};
        let speedup = |name, v| field(name, Times(v)).col("speedup", 8).shown_only();
        Row(vec![
            field("topo", Text(self.topo.clone())).col("topo", 10),
            field("nodes", Count(self.nodes as u64)).col("nodes", 6),
            field("diameter", Count(self.diameter as u64)).col("diam", 5),
            field("links", Count(self.links as u64)).col("links", 6),
            field("sw_barrier_us", Real(self.sw_barrier_us, 2)).col("sw_bar", 9),
            field("hw_barrier_us", Real(self.hw_barrier_us, 2)).col("hw_bar", 9),
            speedup("barrier_speedup", self.barrier_speedup()),
            field("sw_allreduce_us", Real(self.sw_allreduce_us, 2)).col("sw_ar", 9),
            field("hw_allreduce_us", Real(self.hw_allreduce_us, 2)).col("hw_ar", 9),
            speedup("allreduce_speedup", self.allreduce_speedup()),
        ])
    }
}

/// Run the software-vs-hardware comparison for one fabric.
///
/// # Panics
///
/// Panics if any allreduce round produces a wrong sum (the sweep
/// verifies against a host-side reference), or if a cell fails to
/// quiesce.
fn run_point(topo: &TopologyRef) -> TopoPoint {
    let cell = |impl_: CollImpl| {
        let config = CollConfig { impl_ };
        let barrier = barrier_latency_with(Arc::clone(topo), config.clone(), BARRIER_ROUNDS);
        let sweep = allreduce_sweep_with(
            Arc::clone(topo),
            config,
            &[ALLREDUCE_BYTES],
            None,
            SWEEP_ROUNDS,
            SEED,
        );
        (barrier, sweep[0].us_per_op)
    };
    let (sw_barrier_us, sw_allreduce_us) = cell(CollImpl::Software);
    let (hw_barrier_us, hw_allreduce_us) = cell(CollImpl::Hardware);
    TopoPoint {
        topo: topo.name().to_string(),
        nodes: topo.len(),
        diameter: topo.diameter(),
        links: topo.links().len(),
        sw_barrier_us,
        hw_barrier_us,
        sw_allreduce_us,
        hw_allreduce_us,
    }
}

/// The full zoo sweep: every fabric at every size.
fn run_zoo(smoke: bool) -> Vec<TopoPoint> {
    let mut out = Vec::new();
    for n in sizes(smoke) {
        for topo in zoo(n) {
            out.push(run_point(&topo));
        }
    }
    out
}

/// Replay-stable digest over the zoo curves.
fn topo_digest(points: &[TopoPoint]) -> u64 {
    let mut h = Fnv1a::default();
    points.iter().for_each(|p| p.row().feed(&mut h));
    h.finish()
}

/// Render the committed `results/topo_curve.txt` (byte-identical
/// across replays).
fn render_curve(points: &[TopoPoint]) -> String {
    let mut out = format!(
        "topology zoo: software vs in-network collectives \
         (barrier x{BARRIER_ROUNDS}, allreduce {ALLREDUCE_BYTES} B x{SWEEP_ROUNDS}, seed={SEED})\n",
    );
    out.push_str(&Row::table(points.iter().map(TopoPoint::row)));
    if let Some(best) = points
        .iter()
        .filter(|p| p.nodes == 64)
        .find(|p| p.topo == "mesh")
    {
        out.push_str(&format!(
            "headline mesh 8x8: hw barrier {:.2}x, hw allreduce {:.2}x over best software\n",
            best.barrier_speedup(),
            best.allreduce_speedup(),
        ));
    }
    out
}

/// Render the committed `BENCH_topo.json` from the full run plus the
/// smoke configuration's digest (CI's topo-smoke job runs the cheap
/// smoke sweep and gates on `smoke_digest`; regenerating the file
/// requires both runs).
fn render_json(points: &[TopoPoint], smoke_digest: u64) -> String {
    let mut json = Json::new(&[
        "Topology zoo: the same barrier/allreduce workload over mesh,",
        "torus, and dragonfly fabrics, software algorithms vs",
        "the in-network combining stage. Generated by `cargo run",
        "--release -p shrimp-bench -- topobench`. All quantities are",
        "virtual-time and deterministic: regenerating on any host must",
        "reproduce this file byte-identically. CI's topo-smoke job",
        "re-runs the smoke sweep and gates on smoke_digest.",
    ]);
    let config = Obj::new()
        .raw("barrier_rounds", BARRIER_ROUNDS)
        .raw("allreduce_bytes", ALLREDUCE_BYTES)
        .raw("allreduce_rounds", SWEEP_ROUNDS)
        .raw("seed", SEED);
    json.put("config", config);
    json.rows("curve", points.iter().map(|p| p.row().json()));
    json.hex("smoke_digest", smoke_digest);
    json.hex("topo_digest", topo_digest(points));
    json.finish()
}

/// The zoo as a `bench` workload: the full run (mesh/torus/dragonfly
/// at 4, 16 and 64 nodes, software vs in-network hardware)
/// renders `BENCH_topo.json` and gates on `smoke_digest` and
/// `topo_digest`; `--smoke` runs only the 4- and 16-node sizes and
/// gates on `smoke_digest` alone.
pub fn run(args: &Args) -> Outcome {
    let smoke_points = run_zoo(true);
    let smoke_digest = topo_digest(&smoke_points);
    let mut out = Outcome {
        digests: vec![("smoke_digest", smoke_digest)],
        ..Outcome::default()
    };
    if args.has("--smoke") {
        out.text = render_curve(&smoke_points);
    } else {
        let points = run_zoo(false);
        out.text = render_curve(&points);
        out.json = Some(render_json(&points, smoke_digest));
        out.digests.push(("topo_digest", topo_digest(&points)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_three_fabrics_at_every_size() {
        for n in sizes(false) {
            let names: Vec<String> = zoo(n).iter().map(|t| t.name().to_string()).collect();
            assert_eq!(names, ["mesh", "torus", "dragonfly"]);
            for t in zoo(n) {
                assert_eq!(t.len(), n);
            }
        }
    }

    #[test]
    fn hardware_wins_on_every_smoke_fabric_and_replays() {
        let a = run_zoo(true);
        for p in &a {
            assert!(
                p.hw_barrier_us < p.sw_barrier_us,
                "{} n={}: hw barrier {:.2} us must beat sw {:.2} us",
                p.topo,
                p.nodes,
                p.hw_barrier_us,
                p.sw_barrier_us
            );
            assert!(
                p.hw_allreduce_us < p.sw_allreduce_us,
                "{} n={}: hw allreduce {:.2} us must beat sw {:.2} us",
                p.topo,
                p.nodes,
                p.hw_allreduce_us,
                p.sw_allreduce_us
            );
        }
        let b = run_zoo(true);
        assert_eq!(
            topo_digest(&a),
            topo_digest(&b),
            "the zoo must replay bit-identically"
        );
    }
}
