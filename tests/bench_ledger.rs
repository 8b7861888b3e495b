//! The ledger gate in tier 1, through the bench harness. Two smoke
//! runs, each against its committed `smoke_digest`: the topology-zoo
//! sweep covers fabric / coll / collnet; the svc chaos soak covers the
//! serving stack — a migration, a crash promotion, two re-arms, every
//! shed tier and the zero-lost-acked-writes audit. And seven of
//! the paper's own figures, whole, against their committed text: NX
//! (fig4, ablations, scale), sockets (fig7, ttcp) and VRPC (fig5, whose
//! DU-1copy column is the only committed run of the SBL's deliberate-update
//! path, and fig8). And the svc get and put critical-path timelines,
//! whose legs are the replication stream's wire and ordering, and the
//! page fetch's, whose legs are its reply pieces' reads and deposits. A virtual
//! result drifting in any of them fails `cargo test -q` at the root, not
//! only CI's smoke jobs.

use shrimp_bench::harness::{Args, Outcome, LEDGER};
use shrimp_bench::WORKLOADS;

fn smoke_matches_the_committed_digest(run: fn(&Args) -> Outcome, file: &str, committed: &str) {
    let args = Args::parse(LEDGER, &["--smoke".to_string()]).expect("--smoke is declared");
    let outcome = run(&args);
    assert!(outcome.json.is_none(), "a smoke run renders no JSON");
    let verdicts = outcome.verdicts(Some(committed));
    assert_eq!(verdicts.len(), 1, "{verdicts:?}");
    for (line, ok) in verdicts {
        assert!(ok, "{file} is stale or a virtual result drifted: {line}");
    }
}

#[test]
fn topobench_smoke_matches_the_committed_digest() {
    smoke_matches_the_committed_digest(
        shrimp_bench::topobench::run,
        "BENCH_topo.json",
        include_str!("../BENCH_topo.json"),
    );
}

#[test]
fn svcsoak_smoke_matches_the_committed_digest() {
    smoke_matches_the_committed_digest(
        shrimp_bench::svcsoak::run,
        "BENCH_svcsoak.json",
        include_str!("../BENCH_svcsoak.json"),
    );
}

/// A figure workload's whole report against `results/<file>`: virtual
/// time is exact, so any difference is a protocol or cost-model change
/// (`scripts/regen_results.sh` rewrites the file when it is meant).
fn figure_matches_the_committed_text(run: fn(&Args) -> Outcome, file: &str, committed: &str) {
    text_matches(&run(&Args::default()).text, file, committed);
}

/// A `simprof` profile's report against `results/<file>`.
fn simprof_matches_the_committed_text(profile: &str, file: &str, committed: &str) {
    let simprof = WORKLOADS.iter().find(|w| w.name == "simprof").unwrap();
    let args = Args::parse(simprof.flags, &[profile.to_string()]).expect("a declared profile");
    text_matches(&(simprof.run)(&args).text, file, committed);
}

fn text_matches(text: &str, file: &str, committed: &str) {
    let differs = text.lines().zip(committed.lines()).find(|(a, b)| a != b);
    assert!(
        text == committed,
        "results/{file} is stale or a virtual result drifted; first difference \
         (now, committed): {differs:?}"
    );
}

#[test]
fn fig4_matches_the_committed_text() {
    figure_matches_the_committed_text(
        shrimp_bench::nx_pingpong::fig4,
        "fig4.txt",
        include_str!("../results/fig4.txt"),
    );
}

#[test]
fn fig5_matches_the_committed_text() {
    figure_matches_the_committed_text(
        shrimp_bench::vrpc_bench::fig5,
        "fig5.txt",
        include_str!("../results/fig5.txt"),
    );
}

#[test]
fn fig7_matches_the_committed_text() {
    figure_matches_the_committed_text(
        shrimp_bench::socket_bench::fig7,
        "fig7.txt",
        include_str!("../results/fig7.txt"),
    );
}

#[test]
fn fig8_matches_the_committed_text() {
    figure_matches_the_committed_text(
        shrimp_bench::rpc_compare::fig8,
        "fig8.txt",
        include_str!("../results/fig8.txt"),
    );
}

#[test]
fn ttcp_matches_the_committed_text() {
    figure_matches_the_committed_text(
        shrimp_bench::socket_bench::ttcp,
        "ttcp.txt",
        include_str!("../results/ttcp.txt"),
    );
}

#[test]
fn ablations_match_the_committed_text() {
    figure_matches_the_committed_text(
        shrimp_bench::ablations::run,
        "ablations.txt",
        include_str!("../results/ablations.txt"),
    );
}

#[test]
fn scale_matches_the_committed_text() {
    figure_matches_the_committed_text(
        shrimp_bench::scale::run,
        "scale.txt",
        include_str!("../results/scale.txt"),
    );
}

#[test]
fn svc_get_decomposition_matches_the_committed_text() {
    simprof_matches_the_committed_text(
        "svc-get",
        "svc_get_decomposition.txt",
        include_str!("../results/svc_get_decomposition.txt"),
    );
}

#[test]
fn svc_put_decomposition_matches_the_committed_text() {
    simprof_matches_the_committed_text(
        "svc-put",
        "svc_put_decomposition.txt",
        include_str!("../results/svc_put_decomposition.txt"),
    );
}

#[test]
fn rmc_decomposition_matches_the_committed_text() {
    simprof_matches_the_committed_text(
        "rmc",
        "rmc_decomposition.txt",
        include_str!("../results/rmc_decomposition.txt"),
    );
}
