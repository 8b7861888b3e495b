//! The ledger gate in tier 1: two smoke runs, through the bench
//! harness, each against its committed `smoke_digest`. The topology-zoo
//! sweep covers fabric / coll / collnet; the svc chaos soak covers the
//! serving stack — a migration, a crash promotion, two re-arms, hedged
//! reads, tiered sheds and the zero-lost-acked-writes audit. A virtual
//! result drifting in either fails `cargo test -q` at the root, not only
//! CI's smoke jobs.

use shrimp_bench::harness::{Args, Outcome, LEDGER};

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
