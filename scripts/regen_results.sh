#!/usr/bin/env bash
# Regenerate every committed results/*.txt, and the BENCH_*.json digest
# baselines CI's bench-smoke jobs gate on, from its `bench` workload, so
# outputs can be diffed against the tree after engine changes (virtual
# results are deterministic: an engine-only change must leave every
# file byte-identical; see DESIGN.md §5c). The svcsoak run itself
# asserts zero lost acked writes, the p999 bound and the shed bound;
# svcsoak and topobench also run their smoke configuration, whose
# digest is part of their JSON.
#
# Usage: scripts/regen_results.sh [results-dir]   (default: results/)
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-results}"
mkdir -p "$out"

cargo build --release -p shrimp-bench --bin bench

# One CPU where taskset exists, as simperf and the benchmark run: the
# simulator hands one token between its threads, and unpinned those
# handoffs cross cores (the outputs are virtual time and do not move;
# only the wall time does).
pin=()
if command -v taskset >/dev/null; then
    pin=(taskset -c 0)
fi

# workload [arguments] | text file | json file (ledger workloads only)
while IFS='|' read -r workload text json; do
    echo ">> $workload"
    # shellcheck disable=SC2086 # "simprof fig5" is a workload and its argument
    "${pin[@]}" target/release/bench $workload --write-text "$out/$text" ${json:+--write-json "$json"}
done <<'TABLE'
fig3|fig3.txt
fig4|fig4.txt
fig5|fig5.txt
fig7|fig7.txt
fig8|fig8.txt
ttcp|ttcp.txt
ablations|ablations.txt
scale|scale.txt
chaos --smoke|chaos_smoke.txt
collectives --smoke --seed 7|collectives_smoke.txt
simprof fig5|fig5_breakdown.txt
simprof srpc|srpc_decomposition.txt
simprof rmc|rmc_decomposition.txt
simprof svc-get|svc_get_decomposition.txt
simprof svc-put|svc_put_decomposition.txt
svcbench|svc_curve.txt|BENCH_svc.json
svcsoak|svc_soak.txt|BENCH_svcsoak.json
rmcbench|rmc_curve.txt|BENCH_rmc.json
topobench|topo_curve.txt|BENCH_topo.json
TABLE

echo
echo "Diff against the committed tree with: git diff -- results/ 'BENCH_*.json'"
