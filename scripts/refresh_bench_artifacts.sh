#!/usr/bin/env bash
# Regenerates the committed BENCH_*.json trajectory artifacts at full
# scale and copies them to the repo root:
#
#   BENCH_throughput.json  — scheme replay throughput (accesses/second)
#   BENCH_run_all.json     — run_all wall clock and stage breakdown
#   BENCH_serve.json       — serve request latency against a live server,
#                            sampled tier vs exact tier side by side
#   BENCH_sampling.json    — sampled-fidelity MPKI relative error and
#                            speedup per (benchmark, scheme, rate)
#   BENCH_mix.json         — multi-programmed shared-LLC mixes: weighted
#                            speedup and fairness per (mix, scheme)
#
# Also byte-checks the full-scale run_all stdout against the archived
# run_all_output.txt, and the refreshed BENCH_mix.json against the
# committed copy apart from its timing fields (`elapsed_secs`,
# `available_parallelism`): the numbers in the committed artifacts must
# come from a run whose scientific output is the committed one. Mix
# results never reach stdout, so the second check is their only pin
# at full scale. The refreshed BENCH_run_all.json must also list the
# committed experiment cells, the same names in the same order.
#
# Timings are machine-dependent; re-run this script and commit the result
# whenever the artifact *shape* changes (new sections, schemes, stages).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${STEM_ARTIFACT_DIR:-target/bench-artifacts}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"

echo "==> cargo build --release"
cargo build --release --workspace --bins --benches

echo "==> throughput bench (full scale)"
STEM_CSV_DIR="$OUT" cargo bench -q -p stem-bench --bench scheme_throughput

echo "==> sampling bench (full scale: error + speedup per benchmark x scheme x rate)"
STEM_CSV_DIR="$OUT" cargo bench -q -p stem-bench --bench sampling_bench

echo "==> run_all (archive scale)"
# STEM_SWEEP_ACCESSES=800000 matches the archived run_all_output.txt
# (see README "reproduction" section).
STEM_SWEEP_ACCESSES=800000 STEM_CSV_DIR="$OUT" target/release/run_all \
    >"$OUT/run_all_stdout.txt" 2>"$OUT/run_all_stderr.txt"
if ! cmp -s "$OUT/run_all_stdout.txt" run_all_output.txt; then
    echo "ERROR: full-scale run_all stdout differs from the archived run_all_output.txt" >&2
    echo "       (diff $OUT/run_all_stdout.txt run_all_output.txt; re-archive only if the change is intended)" >&2
    exit 1
fi
echo "    stdout matches the archived run_all_output.txt"
# Blank the two timing values and compare everything else byte for byte.
untimed() { sed -E 's/"(elapsed_secs|available_parallelism)": [^,]*/"\1": _/' "$1"; }
if [ -s BENCH_mix.json ] && ! cmp -s <(untimed "$OUT/BENCH_mix.json") <(untimed BENCH_mix.json); then
    echo "ERROR: BENCH_mix.json differs from the committed copy beyond its timing fields" >&2
    echo "       (diff <(sed ... $OUT/BENCH_mix.json) <(sed ... BENCH_mix.json); re-commit only if the change is intended)" >&2
    exit 1
fi
echo "    BENCH_mix.json matches the committed copy apart from timings"
# The cells are a contract: the repo benchmark's reproduce latencies are
# taken over them and STEM_INJECT_PANIC names them. The refreshed list
# must equal the committed one, name for name and in order.
cell_names() { grep -o '"name": "[^"]*"' "$1"; }
if [ -s BENCH_run_all.json ] && ! cmp -s <(cell_names "$OUT/BENCH_run_all.json") <(cell_names BENCH_run_all.json); then
    echo "ERROR: BENCH_run_all.json lists other experiment cells than the committed copy" >&2
    echo "       (compare the \"name\" entries of $OUT/BENCH_run_all.json and BENCH_run_all.json;" >&2
    echo "       a renamed, added or reordered cell changes what the repo benchmark measures)" >&2
    exit 1
fi
echo "    BENCH_run_all.json lists the committed experiment cells in order"

echo "==> serve bench (live server)"
ADDR_FILE="$OUT/serve-addr.txt"
rm -f "$ADDR_FILE"
STEM_SERVE_ADDR=127.0.0.1:0 STEM_SERVE_ADDR_FILE="$ADDR_FILE" \
    target/release/serve >"$OUT/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$ADDR_FILE" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$OUT/serve.log" >&2; exit 1; }
    sleep 0.1
done
ADDR="$(cat "$ADDR_FILE")"
# A sampled body makes serve_client bench the exact twin too, so the
# committed BENCH_serve.json carries both tiers side by side.
REQ='{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4, "accesses": 5000, "fidelity": "sampled", "sample_rate": 4}'
STEM_CSV_DIR="$OUT" target/release/serve_client "$ADDR" BENCH /run "$REQ" 200
target/release/serve_client "$ADDR" POST /shutdown >/dev/null
wait "$SERVE_PID"

for f in BENCH_throughput.json BENCH_run_all.json BENCH_serve.json BENCH_sampling.json BENCH_mix.json; do
    [ -s "$OUT/$f" ] || { echo "ERROR: $OUT/$f was not produced" >&2; exit 1; }
    cp "$OUT/$f" "$f"
    echo "    refreshed $f"
done
echo "==> artifacts refreshed; review and commit the five BENCH_*.json files"
