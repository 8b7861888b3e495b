//! Criterion benches: run a representative cell of each paper figure and
//! track the *simulator's* wall-clock cost (the simulated results
//! themselves are deterministic; see `bench fig3` ... `bench fig8` for those).

use criterion::{criterion_group, criterion_main, Criterion};
use shrimp_bench::nx_pingpong::{nx_pingpong, NxVariant};
use shrimp_bench::pingpong::{paper_pingpong, Strategy};
use shrimp_bench::rpc_compare::{compatible_roundtrip, specialized_roundtrip};
use shrimp_bench::socket_bench::{one_way_pump, socket_pingpong};
use shrimp_bench::vrpc_bench::{vrpc_roundtrip, VrpcVariant};
use shrimp_sim::SimDur;
use shrimp_sockets::SocketVariant;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);

    g.bench_function("fig3_vmmc_du0_4b", |b| {
        b.iter(|| paper_pingpong(Strategy::Du0Copy, 4))
    });
    g.bench_function("fig3_vmmc_au1_10k", |b| {
        b.iter(|| paper_pingpong(Strategy::Au1Copy, 10240))
    });
    g.bench_function("fig4_nx_au1_1k", |b| {
        b.iter(|| nx_pingpong(NxVariant::Au1Copy, 1024))
    });
    g.bench_function("fig4_nx_du0_10k", |b| {
        b.iter(|| nx_pingpong(NxVariant::Du0Copy, 10240))
    });
    g.bench_function("fig5_vrpc_null", |b| {
        b.iter(|| vrpc_roundtrip(VrpcVariant::Au1Copy, 4))
    });
    g.bench_function("fig7_socket_au2_1k", |b| {
        b.iter(|| socket_pingpong(SocketVariant::Au2Copy, 1024))
    });
    g.bench_function("fig8_compatible_null", |b| {
        b.iter(|| compatible_roundtrip(4))
    });
    g.bench_function("fig8_specialized_null", |b| {
        b.iter(|| specialized_roundtrip(4))
    });
    g.bench_function("ttcp_oneway_7k", |b| {
        b.iter(|| one_way_pump(SocketVariant::Du1Copy, 7168, 10, SimDur::ZERO))
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
