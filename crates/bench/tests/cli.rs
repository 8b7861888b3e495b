//! The `bench` driver's exit-code contract, on the built binary: 0 pass,
//! 1 a failed gate, 2 a usage error. Before the shared parser,
//! `topobench --smoke --check` (path forgotten) and `--chekc` both
//! exited 0 without comparing anything.

use std::process::{Command, Output};

const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_topo.json");

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("the bench binary runs")
}

fn exit_code(args: &[&str]) -> i32 {
    let out = bench(args);
    out.status
        .code()
        .unwrap_or_else(|| panic!("{args:?} died: {out:?}"))
}

#[test]
fn list_prints_the_fifteen_workloads() {
    let out = bench(&["--list"]);
    assert!(out.status.success());
    let names = String::from_utf8(out.stdout).unwrap();
    let want = "fig3 fig4 fig5 fig7 fig8 ttcp ablations scale collectives chaos simprof \
                svcbench svcsoak rmcbench topobench";
    assert_eq!(
        names.lines().collect::<Vec<_>>(),
        want.split_whitespace().collect::<Vec<_>>()
    );
}

#[test]
fn smoke_check_passes_on_the_committed_file_and_fails_on_a_flipped_digit() {
    assert_eq!(
        exit_code(&["topobench", "--smoke", "--check", COMMITTED]),
        0
    );

    let committed = std::fs::read_to_string(COMMITTED).unwrap();
    let at = committed.find("\"smoke_digest\": \"").unwrap() + "\"smoke_digest\": \"".len();
    let flipped = if &committed[at..at + 1] == "0" {
        "1"
    } else {
        "0"
    };
    let mut tampered = committed.clone();
    tampered.replace_range(at..at + 1, flipped);
    let path = std::env::temp_dir().join(format!("bench-cli-{}.json", std::process::id()));
    std::fs::write(&path, tampered).unwrap();
    let code = exit_code(&["topobench", "--smoke", "--check", path.to_str().unwrap()]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(code, 1);
}

#[test]
fn usage_errors_exit_2_before_or_instead_of_passing_silently() {
    for args in [
        &["topobench", "--smoke", "--check"][..],
        &["topobench", "--smoke", "--chekc", COMMITTED],
        &[
            "topobench",
            "--smoke",
            "--check",
            "/no/such/BENCH_topo.json",
        ],
        &["topobench", "--smoke", "--write-json", "unwritten.json"],
        // No smoke digest is committed for these two, so there is no
        // `--smoke` run to check.
        &["svcbench", "--smoke", "--check", COMMITTED],
        &["rmcbench", "--smoke"],
        &["chaos", "--seeds", "abc"],
        &["fig3", "--check", COMMITTED],
        &["topobenhc", "--smoke"],
        &[],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: bench"), "{args:?}: {stderr}");
    }
    assert!(!std::path::Path::new("unwritten.json").exists());
}
