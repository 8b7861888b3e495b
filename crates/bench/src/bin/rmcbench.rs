//! The one-sided remote-memory benchmark binary: raw fetch latency
//! and bandwidth, the zero-copy svc `get` against its SRPC baseline,
//! and the disaggregated-memory pager. See `shrimp_bench::rmcbench`
//! for the experiment definitions.
//!
//! Usage:
//!   `cargo run --release -p shrimp-bench --bin rmcbench [-- FLAGS]`
//!
//! * default: run the committed configuration, print the human-
//!   readable curve and the `BENCH_rmc.json` content;
//! * `--smoke`: run the CI-sized configuration instead;
//! * `--curve`: print only the `results/rmc_curve.txt` content;
//! * `--json`: print only the `BENCH_rmc.json` content;
//! * `--write-curve PATH` / `--write-json PATH`: write the artifacts
//!   from one run (what `scripts/regen_results.sh` uses);
//! * `--check BENCH_rmc.json`: CI gate — re-run the cells and exit
//!   non-zero unless the digest matches the committed file
//!   bit-for-bit and the largest fetch reaches 0.9 × the DU-0copy
//!   bandwidth measured in the same run.

use shrimp_bench::rmcbench::{
    committed_digest, render_curve, render_json, rmc_digest, run_all, RmcConfig,
};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = if args.iter().any(|a| a == "--smoke") {
        RmcConfig::smoke()
    } else {
        RmcConfig::paper()
    };

    let outcome = run_all(&cfg);
    let curve_txt = render_curve(&cfg, &outcome);
    let json = render_json(&cfg, &outcome);

    if let Some(path) = arg_value(&args, "--write-curve") {
        std::fs::write(&path, &curve_txt).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if let Some(path) = arg_value(&args, "--write-json") {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }

    let curve_only = args.iter().any(|a| a == "--curve");
    let json_only = args.iter().any(|a| a == "--json");
    let wrote = args
        .iter()
        .any(|a| a == "--write-curve" || a == "--write-json");
    if curve_only {
        print!("{curve_txt}");
    } else if json_only {
        print!("{json}");
    } else if !wrote {
        print!("{curve_txt}");
        println!();
        print!("{json}");
    }

    if let Some(path) = arg_value(&args, "--check") {
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let want = committed_digest(&committed, "rmc_digest");
        let got = rmc_digest(&outcome);
        let ok = want == Some(got);
        eprintln!(
            "check: rmc digest {:016x} vs committed {} — {}",
            got,
            want.map_or("<missing>".to_string(), |d| format!("{d:016x}")),
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            eprintln!("check: rmc virtual results diverged from {path}");
            std::process::exit(1);
        }
        let largest = outcome.fetch.last().expect("a fetch sweep");
        let ok = largest.mb_s >= 0.9 * outcome.du0copy_mb_s;
        eprintln!(
            "check: {} B fetch {:.1} MB/s vs DU-0copy {:.1} MB/s — {}",
            largest.size,
            largest.mb_s,
            outcome.du0copy_mb_s,
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            eprintln!("check: a one-sided read fell below 0.9 x the deposit bandwidth");
            std::process::exit(1);
        }
    }
}
