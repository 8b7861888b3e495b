//! The ledger gate in tier 1: the topology-zoo smoke sweep, through the
//! bench harness, against the committed `BENCH_topo.json`. A virtual
//! result drifting anywhere in fabric / coll / collnet changes
//! `smoke_digest` and fails `cargo test -q` at the root, not only CI's
//! topo-smoke job.

use shrimp_bench::harness::{Args, LEDGER};

#[test]
fn topobench_smoke_matches_the_committed_digest() {
    let args = Args::parse(LEDGER, &["--smoke".to_string()]).expect("--smoke is declared");
    let outcome = shrimp_bench::topobench::run(&args);
    assert!(outcome.json.is_none(), "the smoke sweep renders no JSON");
    let verdicts = outcome.verdicts(Some(include_str!("../BENCH_topo.json")));
    assert_eq!(verdicts.len(), 1, "{verdicts:?}");
    for (line, ok) in verdicts {
        assert!(
            ok,
            "BENCH_topo.json is stale or a virtual result drifted: {line}"
        );
    }
}
