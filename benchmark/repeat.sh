#!/usr/bin/env bash
# Repeatability check: every workload twice with the default seed and
# once with a second seed.
#
# Between the two same-seed sets, every virt_* metric, the failed count
# and the virt_digest must be identical, and setup_s, wall_s and
# peak_rss_mb must agree within the bounds BENCHMARK.json gives them.
# Prints one row per workload x metric; exits 1 on any disagreement.
#
#   benchmark/repeat.sh [seconds] [seed] [second seed]
set -euo pipefail
cd "$(dirname "$0")/.."

seconds="${1:-15}"
seed="${2:-1}"
other_seed="${3:-2}"
out="benchmark/out/repeat"
mkdir -p "$out"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/shrimp-benchmark"

for w in msg_small msg_bulk coll_8x8 svc_4x4; do
  for run in "a:$seed" "b:$seed" "c:$other_seed"; do
    echo "== $w, set ${run%%:*}, seed ${run##*:}" >&2
    "$bin" --workload "$w" --seed "${run##*:}" --seconds "$seconds" --trace 0 \
      2>/dev/null | tail -n 2 > "$out/$w-${run%%:*}.jsonl"
  done
done

python3 - "$out" <<'PY'
import json, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bad = 0
print(f"{'workload':10} {'metric':13} {'set a':>16} {'set b':>16} {'other seed':>16}  verdict")
for w in [x["name"] for x in spec["workloads"]]:
    runs = {}
    for s in "abc":
        detail, result = [json.loads(l) for l in open(f"{out}/{w}-{s}.jsonl")]
        runs[s] = (detail["detail"], result)
    for s, (_, result) in runs.items():
        if not result["correct"] or result["failed"]:
            print(f"{w}: set {s} was not correct ({result['failed']} failed)")
            bad += 1
    (da, ra), (db, rb), (dc, rc) = runs["a"], runs["b"], runs["c"]
    same = da["virt_digest"] == db["virt_digest"]
    bad += not same
    print(f"{w:10} {'virt_digest':13} {da['virt_digest']:>16} {db['virt_digest']:>16} "
          f"{dc['virt_digest']:>16}  {'identical' if same else 'DIFFERS'}")
    if ra["failed"] != rb["failed"]:
        print(f"{w}: failed counts differ: {ra['failed']} and {rb['failed']}")
        bad += 1
    for m in spec["end_to_end"]:
        n = m["name"]
        a, b, c = (r["metrics"][n]["value"] for r in (ra, rb, rc))
        if n.startswith("virt_"):
            ok = a == b
            verdict = "identical" if ok else "DIFFERS"
        else:
            rel = abs(a - b) / min(a, b)
            ok = rel <= m["bound"]
            verdict = f"{100 * rel:.1f}% apart, bound {100 * m['bound']:.0f}%" + ("" if ok else " EXCEEDED")
        bad += not ok
        print(f"{w:10} {n:13} {a:16.6f} {b:16.6f} {c:16.6f}  {verdict}")
    for s, (d, _) in runs.items():
        if d["rep_spread_pct"] > 10:
            print(f"{w}: set {s}: reps spread {d['rep_spread_pct']:.1f}% of their median (informative)")
sys.exit(1 if bad else 0)
PY
