//! `bench <workload> [flags]`: the one driver for every virtual-time
//! experiment in this crate (`bench --list`, `bench <workload> --help`).

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    shrimp_bench::harness::main(shrimp_bench::WORKLOADS, &argv)
}
