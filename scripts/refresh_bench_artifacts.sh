#!/usr/bin/env bash
# Regenerates the committed BENCH_*.json trajectory artifacts at full
# scale and copies them to the repo root:
#
#   BENCH_throughput.json  — scheme replay throughput (accesses/second)
#   BENCH_run_all.json     — run_all wall clock, stage breakdown, and the
#                            cold vs warm-once+restore snapshot speedup
#   BENCH_serve.json       — serve request latency against a live server,
#                            sampled tier vs exact tier side by side
#   BENCH_sampling.json    — sampled-fidelity MPKI relative error and
#                            speedup per (benchmark, scheme, rate)
#   BENCH_snapshot.json    — warm-state snapshot reuse: cold vs
#                            warm-once+restore per (benchmark, scheme)
#   BENCH_mix.json         — multi-programmed shared-LLC mixes: weighted
#                            speedup and fairness per (mix, scheme)
#
# Also byte-checks the full-scale run_all stdout against the archived
# run_all_output.txt: the numbers in the committed artifacts must come
# from a run whose scientific output is the committed one.
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

echo "==> snapshot bench (full scale: cold vs warm-once+restore per benchmark x scheme)"
STEM_CSV_DIR="$OUT" cargo bench -q -p stem-bench --bench snapshot_bench

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

echo "==> run_all cold control (STEM_SNAPSHOTS=0; restored output must be byte-identical)"
# The tentpole invariant at archive scale: with warm-state snapshots
# disabled, every sweep point re-warms from scratch — and the scientific
# output must not move by a single byte.
mkdir -p "$OUT/cold"
STEM_SWEEP_ACCESSES=800000 STEM_SNAPSHOTS=0 STEM_CSV_DIR="$OUT/cold" \
    target/release/run_all >"$OUT/run_all_stdout_cold.txt" 2>"$OUT/run_all_stderr_cold.txt"
if ! cmp -s "$OUT/run_all_stdout_cold.txt" "$OUT/run_all_stdout.txt"; then
    echo "ERROR: STEM_SNAPSHOTS=0 changed run_all's stdout at full scale" >&2
    exit 1
fi
echo "    cold (STEM_SNAPSHOTS=0) stdout is byte-identical to the snapshots-on run"

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

for f in BENCH_throughput.json BENCH_run_all.json BENCH_serve.json BENCH_sampling.json BENCH_snapshot.json BENCH_mix.json; do
    [ -s "$OUT/$f" ] || { echo "ERROR: $OUT/$f was not produced" >&2; exit 1; }
    cp "$OUT/$f" "$f"
    echo "    refreshed $f"
done
echo "==> artifacts refreshed; review and commit the six BENCH_*.json files"
