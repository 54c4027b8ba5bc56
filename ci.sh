#!/usr/bin/env bash
# Offline CI gate: format, build, test, and fault-injection smoke.
# Everything here must pass with no network access — the workspace has no
# external dependencies by design (see DESIGN.md §7.4).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> README names only STEM_* variables the code reads"
# A knob deleted from the code must leave the docs too: every STEM_* name
# README.md mentions has to appear as a string literal under crates/.
for var in $(grep -o 'STEM_[A-Z0-9_]*[A-Z0-9]' README.md | sort -u); do
    grep -rqF "\"$var\"" crates/ || {
        echo "ERROR: README.md names $var, which nothing under crates/ reads" >&2
        exit 1
    }
done

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
# The clippy component ships with the baked-in toolchain; if a stripped
# environment lacks it, skip the lint gate rather than failing offline
# (rustup cannot fetch components without network access).
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "    cargo clippy unavailable; skipping lint gate"
fi

echo "==> cargo doc (workspace, rustdoc warnings are errors)"
# Catches dangling intra-doc links (e.g. to a deleted or private item),
# which neither the build nor clippy reports.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release (workspace, bins, benches)"
cargo build --release --workspace --bins --benches

echo "==> cargo test -q (workspace)"
# STEM_CHECKED_ACCESSES keeps the 1M-access audited runs tractable in CI;
# drop the override locally for the full acceptance-grade run. The audited
# replays and the benchmark matrix fan out over STEM_THREADS workers
# (default: all cores) with byte-identical results at any count.
STEM_CHECKED_ACCESSES="${STEM_CHECKED_ACCESSES:-200000}" cargo test -q --workspace

echo "==> benchmark unit tests + type-check (the benchmark package is outside the workspace)"
# The frozen benchmark package builds against the workspace's public API,
# so checking it catches an API change that would break it. Building it
# rewrites its stale Cargo.lock by one line: keep a copy, put it back
# (also on failure), and then require benchmark/ to be unchanged.
LOCK_COPY="$(mktemp)"
cp benchmark/Cargo.lock "$LOCK_COPY"
trap 'cp "$LOCK_COPY" benchmark/Cargo.lock' EXIT
(cd benchmark && cargo test --offline -q)
cargo check --offline --manifest-path benchmark/Cargo.toml
cp "$LOCK_COPY" benchmark/Cargo.lock
trap - EXIT
rm -f "$LOCK_COPY"
git diff --quiet -- benchmark/ || {
    echo "ERROR: building the benchmark package changed files under benchmark/" >&2
    git diff --stat -- benchmark/ >&2
    exit 1
}

echo "==> throughput bench (smoke) + BENCH_throughput.json"
# Smoke-sized iterations keep CI fast; drop the override for real numbers.
# 50k accesses keeps each timed iteration in the milliseconds — big enough
# for the per-scheme replay timings to mean something, small enough for
# the gate. The JSON lands under STEM_CSV_DIR next to the correctness
# artifacts so every PR records its accesses/second (see EXPERIMENTS.md).
CSV_DIR="${STEM_CSV_DIR:-target/ci-artifacts}"
mkdir -p "$CSV_DIR"
# cargo runs bench binaries with the *package* dir as cwd, so a relative
# STEM_CSV_DIR would land under crates/bench/ — resolve it first.
CSV_DIR="$(cd "$CSV_DIR" && pwd)"
STEM_BENCH_ACCESSES="${STEM_BENCH_ACCESSES:-50000}" STEM_CSV_DIR="$CSV_DIR" \
    cargo bench -q -p stem-bench --bench scheme_throughput
if [ ! -s "$CSV_DIR/BENCH_throughput.json" ]; then
    echo "ERROR: $CSV_DIR/BENCH_throughput.json was not written" >&2
    exit 1
fi
grep -q '"decoded"' "$CSV_DIR/BENCH_throughput.json" || {
    echo "ERROR: BENCH_throughput.json is missing the decoded (scheme replay throughput) section" >&2
    exit 1
}
grep -q '"decoded_wide"' "$CSV_DIR/BENCH_throughput.json" || {
    echo "ERROR: BENCH_throughput.json is missing the decoded_wide (2048x32 replay throughput) section" >&2
    exit 1
}
grep -q '"generate"' "$CSV_DIR/BENCH_throughput.json" || {
    echo "ERROR: BENCH_throughput.json is missing the generate (synthesis throughput) section" >&2
    exit 1
}
grep -q '"l1_filter"' "$CSV_DIR/BENCH_throughput.json" || {
    echo "ERROR: BENCH_throughput.json is missing the l1_filter (L1 pass throughput) section" >&2
    exit 1
}
echo "    archived $CSV_DIR/BENCH_throughput.json"

echo "==> trace ingestion round-trip gate (convert -> ingest -> replay, byte-compare)"
# The committed fixture is the canonical text form: binary and back must
# reproduce it bit-identically in both directions, and replaying the
# ingested fixture (the mix_quickstart example drives it through the
# shared-LLC mix subsystem) must print byte-identical results on repeat.
TRC_DIR="$CSV_DIR/trace-roundtrip"
mkdir -p "$TRC_DIR"
CONVERT=target/release/trace_convert
"$CONVERT" fixtures/sample_mix.trace "$TRC_DIR/fixture.stemtrc" 2>/dev/null
"$CONVERT" "$TRC_DIR/fixture.stemtrc" "$TRC_DIR/fixture_back.trace" 2>/dev/null
cmp fixtures/sample_mix.trace "$TRC_DIR/fixture_back.trace" || {
    echo "ERROR: text -> binary -> text did not reproduce the fixture" >&2
    exit 1
}
"$CONVERT" "$TRC_DIR/fixture_back.trace" "$TRC_DIR/fixture_back.stemtrc" 2>/dev/null
cmp "$TRC_DIR/fixture.stemtrc" "$TRC_DIR/fixture_back.stemtrc" || {
    echo "ERROR: binary -> text -> binary did not reproduce the container" >&2
    exit 1
}
cargo run --release -q --example mix_quickstart >"$TRC_DIR/replay1.txt"
cargo run --release -q --example mix_quickstart >"$TRC_DIR/replay2.txt"
cmp "$TRC_DIR/replay1.txt" "$TRC_DIR/replay2.txt" || {
    echo "ERROR: re-ingested fixture replay is not deterministic" >&2
    exit 1
}
grep -q 'weighted speedup' "$TRC_DIR/replay1.txt" || {
    echo "ERROR: mix_quickstart did not report mix metrics" >&2
    exit 1
}
echo "    fixture round-trips bit-identically; ingested replay is byte-stable"

echo "==> fault-injection smoke"
STEM_FAULT_ACCESSES=2000 cargo run --release -q -p stem-bench --bin fault_injection

echo "==> resilient-driver smoke (injected cell panic must yield nonzero exit)"
set +e
STEM_ACCESSES=2000 STEM_SWEEP_ACCESSES=500 STEM_PERIODS=2 \
    STEM_INJECT_PANIC=matrix/omnetpp/STEM \
    cargo run --release -q -p stem-bench --bin run_all >/dev/null 2>&1
status=$?
set -e
if [ "$status" -eq 0 ]; then
    echo "ERROR: run_all ignored an injected panic (exit 0)" >&2
    exit 1
fi
echo "    run_all contained the injected cell panic and exited $status (expected nonzero)"

echo "==> thread determinism gate (stdout + CSVs byte-identical across STEM_THREADS and to the pinned fixture)"
# The worker pool is an execution strategy, never a result change:
# run_all's stdout and every CSV must be byte-identical at any thread
# count. Timing telemetry (stderr, the JSON) is exempt by design. The
# single-thread run must also match fixtures/run_all_small/ byte for
# byte: stdout alone misses the mix results, which only mix.csv and
# BENCH_mix.json carry. To re-pin after an intended result change, copy
# det-t1's stdout.txt and *.csv over the fixture directory.
RUN_ALL_BIN=target/release/run_all
run_det() { # <threads> <dir>
    mkdir -p "$2"
    STEM_ACCESSES=3000 STEM_SWEEP_ACCESSES=600 STEM_PERIODS=1 \
        STEM_THREADS="$1" STEM_CSV_DIR="$2" \
        "$RUN_ALL_BIN" >"$2/stdout.txt" 2>"$2/stderr.txt"
}
DET_BASE="$CSV_DIR/det-t1"
DET_DIR="$CSV_DIR/det-t5"
run_det 1 "$DET_BASE"
run_det 5 "$DET_DIR"
cmp "$DET_BASE/stdout.txt" "$DET_DIR/stdout.txt" || {
    echo "ERROR: run_all stdout differs at STEM_THREADS=5" >&2
    exit 1
}
for csv in "$DET_BASE"/*.csv; do
    cmp "$csv" "$DET_DIR/$(basename "$csv")" || {
        echo "ERROR: $(basename "$csv") differs at STEM_THREADS=5" >&2
        exit 1
    }
done
# The cell list is part of the determinism contract too: the same names
# in the same order at any thread count.
cell_names() { grep -o '"name": "[^"]*"' "$1/BENCH_run_all.json"; }
cmp <(cell_names "$DET_BASE") <(cell_names "$DET_DIR") || {
    echo "ERROR: BENCH_run_all.json lists other cells at STEM_THREADS=5" >&2
    exit 1
}
# run_all records its own peak RSS (VmHWM at exit), a positive number.
grep -q '"peak_rss_mb": [1-9]' "$DET_BASE/BENCH_run_all.json" || {
    echo "ERROR: BENCH_run_all.json is missing a positive peak_rss_mb" >&2
    exit 1
}
PINNED=fixtures/run_all_small
for f in "$PINNED"/*; do
    cmp "$f" "$DET_BASE/$(basename "$f")" || {
        echo "ERROR: $(basename "$f") differs from the pinned $PINNED copy" >&2
        exit 1
    }
done
for csv in "$DET_BASE"/*.csv; do
    [ -e "$PINNED/$(basename "$csv")" ] || {
        echo "ERROR: run_all wrote $(basename "$csv"), which $PINNED does not pin" >&2
        exit 1
    }
done
echo "    byte-identical stdout, CSVs and cell lists at threads in {1,5}, equal to $PINNED"

echo "==> sampled-fidelity smoke gate (pinned error bound, byte-identical stdout across threads)"
# The sampled tier must be (a) accurate within the pinned MPKI
# relative-error bound on the fixed (benchmark, seed, scale) smoke cell,
# and (b) a pure function of (benchmark, scheme, rate, seed): stdout
# byte-identical at any STEM_THREADS setting. The bound is
# deliberately loose against the measured smoke numbers (max ~0.053,
# dominated by DIP's documented set-dueling approximation at rate 1/32;
# per-set schemes stay under ~0.013 — see DESIGN.md §14).
run_samp() { # <threads> <dir>
    mkdir -p "$2"
    STEM_BENCH_ACCESSES="${STEM_SAMPLING_ACCESSES:-60000}" \
        STEM_SAMPLING_BENCHMARKS=omnetpp \
        STEM_SAMPLING_ERROR_BOUND="${STEM_SAMPLING_ERROR_BOUND:-0.10}" \
        STEM_THREADS="$1" STEM_CSV_DIR="$2" \
        cargo bench -q -p stem-bench --bench sampling_bench \
        >"$2/stdout.txt" 2>"$2/stderr.txt"
}
SAMP_BASE="$CSV_DIR/sampling-t1"
SAMP_ALT="$CSV_DIR/sampling-t4"
run_samp 1 "$SAMP_BASE"
run_samp 4 "$SAMP_ALT"
cmp "$SAMP_BASE/stdout.txt" "$SAMP_ALT/stdout.txt" || {
    echo "ERROR: sampled-fidelity stdout differs across STEM_THREADS" >&2
    exit 1
}
if [ ! -s "$SAMP_BASE/BENCH_sampling.json" ]; then
    echo "ERROR: $SAMP_BASE/BENCH_sampling.json was not written" >&2
    exit 1
fi
cp "$SAMP_BASE/BENCH_sampling.json" "$CSV_DIR/BENCH_sampling.json"
echo "    all cells within the pinned rel-error bound; stdout byte-identical across {1,4} threads"
# Negative check: a misspelled benchmark must fail the gate, not shrink
# it to zero measured cells and pass.
if STEM_SAMPLING_BENCHMARKS=omnettp STEM_SAMPLING_ERROR_BOUND=0.10 \
    cargo bench -q -p stem-bench --bench sampling_bench \
    >"$CSV_DIR/sampling-typo.txt" 2>&1; then
    echo "ERROR: sampling_bench passed its gate with an unknown benchmark name" >&2
    exit 1
fi
echo "    an unknown benchmark name fails the gate"

echo "==> serve smoke (loopback ephemeral port, cache hit, capacity profile, sampled tier, mix requests, graceful drain)"
ADDR_FILE="$CSV_DIR/serve-addr.txt"
SERVE_LOG="$CSV_DIR/serve-smoke.log"
rm -f "$ADDR_FILE"
STEM_SERVE_ADDR=127.0.0.1:0 STEM_SERVE_ADDR_FILE="$ADDR_FILE" \
    STEM_SERVE_TRACE_DIR="$(pwd)/fixtures" \
    cargo run --release -q -p stem-serve --bin serve >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$ADDR_FILE" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "ERROR: serve exited before binding; log follows" >&2
        cat "$SERVE_LOG" >&2
        exit 1
    fi
    sleep 0.1
done
if [ ! -s "$ADDR_FILE" ]; then
    echo "ERROR: serve never published its address" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
ADDR="$(cat "$ADDR_FILE")"
client() { cargo run --release -q -p stem-serve --bin serve_client -- "$ADDR" "$@"; }
client GET /healthz | grep -q '"ok"'
REQ='{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4, "accesses": 5000}'
FIRST="$(client POST /run "$REQ")"
SECOND="$(client POST /run "$REQ")"
if [ "$FIRST" != "$SECOND" ]; then
    echo "ERROR: repeated request bodies differ" >&2
    exit 1
fi
# The profiled request drives the capacity profiler: the repeat must
# still be a pure cache hit with a byte-identical body.
REQP='{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4, "accesses": 5000, "profile": true}'
FIRSTP="$(client POST /run "$REQP")"
SECONDP="$(client POST /run "$REQP")"
if [ "$FIRSTP" != "$SECONDP" ]; then
    echo "ERROR: repeated profiled request bodies differ" >&2
    exit 1
fi
echo "$FIRSTP" | grep -q 'banded_fractions' || {
    echo "ERROR: profiled response is missing the capacity profile" >&2
    exit 1
}
# The sampled tier: a distinct experiment (its own cache entry — the
# canonical form carries the fidelity axis), byte-stable on repeat, and
# counted in stem_serve_sampled_requests_total.
REQS='{"benchmark": "mcf", "scheme": "lru", "sets": 64, "ways": 4, "accesses": 5000, "fidelity": "sampled", "sample_rate": 4}'
FIRSTS="$(client POST /run "$REQS")"
SECONDS_S="$(client POST /run "$REQS")"
if [ "$FIRSTS" != "$SECONDS_S" ]; then
    echo "ERROR: repeated sampled request bodies differ" >&2
    exit 1
fi
echo "$FIRSTS" | grep -q 'sampled_metrics' || {
    echo "ERROR: sampled response is missing sampled_metrics" >&2
    exit 1
}
if [ "$FIRSTS" = "$FIRST" ]; then
    echo "ERROR: sampled response aliased the exact response" >&2
    exit 1
fi
# The mix form (DESIGN.md §16): two benchmark analogs co-run on the
# shared LLC; the repeat must be a pure cache hit with a byte-identical
# body carrying the co-scheduling metrics.
REQM='{"mix": [{"benchmark": "omnetpp"}, {"benchmark": "gromacs"}], "scheme": "lru", "sets": 64, "ways": 8, "accesses": 8000}'
FIRSTM="$(client POST /run "$REQM")"
SECONDM="$(client POST /run "$REQM")"
if [ "$FIRSTM" != "$SECONDM" ]; then
    echo "ERROR: repeated mix request bodies differ" >&2
    exit 1
fi
echo "$FIRSTM" | grep -q 'weighted_speedup' || {
    echo "ERROR: mix response is missing the co-scheduling metrics" >&2
    exit 1
}
# A trace-file component: the server resolves it against
# STEM_SERVE_TRACE_DIR (pointed at the committed fixture directory above)
# and labels the core with the file it ingested.
REQT='{"mix": [{"trace": "sample_mix.trace"}, {"benchmark": "gromacs"}], "scheme": "stem", "sets": 64, "ways": 8, "accesses": 8000}'
FIRSTT="$(client POST /run "$REQT")"
SECONDT="$(client POST /run "$REQT")"
if [ "$FIRSTT" != "$SECONDT" ]; then
    echo "ERROR: repeated trace-component mix request bodies differ" >&2
    exit 1
fi
echo "$FIRSTT" | grep -q 'trace:sample_mix.trace' || {
    echo "ERROR: trace-component mix response is missing the trace label" >&2
    exit 1
}
METRICS="$(client GET /metrics)"
echo "$METRICS" | grep -q '^stem_serve_sim_executions_total 5$' || {
    echo "ERROR: expected exactly five simulation executions; /metrics follows" >&2
    echo "$METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '^stem_serve_cache_hits_total 5$' || {
    echo "ERROR: a repeated request was not a cache hit; /metrics follows" >&2
    echo "$METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '^stem_serve_sampled_requests_total 2$' || {
    echo "ERROR: expected exactly two sampled-tier requests; /metrics follows" >&2
    echo "$METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '^stem_serve_mix_requests_total 4$' || {
    echo "ERROR: expected exactly four mix requests; /metrics follows" >&2
    echo "$METRICS" >&2
    exit 1
}
# The snapshot cache: the exact request warmed cold (one miss), and the
# profiled request — same warm prefix, different response — cloned the
# warmed system (one hit). Neither the sampled tier nor mix requests consult
# the store, so the counts stay exactly there.
echo "$METRICS" | grep -q '^stem_serve_snapshot_misses_total 1$' || {
    echo "ERROR: expected exactly one snapshot-cache miss; /metrics follows" >&2
    echo "$METRICS" >&2
    exit 1
}
echo "$METRICS" | grep -q '^stem_serve_snapshot_hits_total 1$' || {
    echo "ERROR: the profiled request did not restore the warm snapshot; /metrics follows" >&2
    echo "$METRICS" >&2
    exit 1
}
echo "==> serve bench + BENCH_serve.json (sampled vs exact, side by side)"
# A short healthy serial run against the live server: requests/sec plus
# p50/p99, archived next to the other BENCH_*.json artifacts. The sampled
# body makes the client bench its exact twin too, recording both tiers
# side by side. Cache hits dominate after the first request, so this
# times the serving stack, not the simulator.
STEM_CSV_DIR="$CSV_DIR" client BENCH /run "$REQS" 20
grep -q '"sampled"' "$CSV_DIR/BENCH_serve.json" || {
    echo "ERROR: BENCH_serve.json is missing the sampled-vs-exact sections" >&2
    exit 1
}
if [ ! -s "$CSV_DIR/BENCH_serve.json" ]; then
    echo "ERROR: $CSV_DIR/BENCH_serve.json was not written" >&2
    exit 1
fi
echo "    archived $CSV_DIR/BENCH_serve.json"
client POST /shutdown | grep -q draining
set +e
wait "$SERVE_PID"
SERVE_STATUS=$?
set -e
if [ "$SERVE_STATUS" -ne 0 ]; then
    echo "ERROR: serve drain exited $SERVE_STATUS (wanted 0)" >&2
    exit 1
fi
echo "    serve answered /healthz, served the repeat from cache, and drained with exit 0"

echo "==> chaos smoke (fixed seed, in-memory transport, no-panic/no-hang gate)"
# Fully in-process: a seeded storm of fault-injected connections (split
# I/O, garbage, truncation, resets, slow-loris) interleaved with healthy
# requests; the binary exits nonzero unless stem_serve_panics_total is 0
# and /healthz still answers through the server's own front door.
cargo run --release -q -p stem-serve --bin chaos_smoke

echo "==> every generated BENCH_*.json records the host's core count"
# A timing read without the parallelism it ran on cannot be compared
# across hosts, so each artifact carries "available_parallelism".
for f in "$CSV_DIR/BENCH_throughput.json" "$CSV_DIR/BENCH_sampling.json" \
    "$CSV_DIR/BENCH_serve.json" "$DET_BASE/BENCH_run_all.json" "$DET_BASE/BENCH_mix.json"; do
    grep -q '"available_parallelism": [1-9]' "$f" || {
        echo "ERROR: $f does not record available_parallelism" >&2
        exit 1
    }
done
echo "    all five artifacts record available_parallelism"

echo "==> benchmark artifact drift check (warn-only)"
# The repo root carries the committed BENCH_*.json trajectory artifacts
# (regenerated by scripts/refresh_bench_artifacts.sh at full scale). CI's
# smoke-sized copies are expected to differ in timings — the warning is a
# reminder to refresh the committed artifacts when the *shape* changed
# (new sections, schemes, or stages), not a failure.
for f in BENCH_throughput.json BENCH_serve.json BENCH_sampling.json; do
    if [ ! -s "$f" ]; then
        echo "    WARNING: committed $f is missing from the repo root"
    elif ! cmp -s "$CSV_DIR/$f" "$f"; then
        echo "    note: $f drifted from the committed copy (timings move every run; refresh if the shape changed)"
    else
        echo "    $f matches the committed copy"
    fi
done
[ -s BENCH_run_all.json ] || echo "    WARNING: committed BENCH_run_all.json is missing from the repo root"
[ -s BENCH_mix.json ] || echo "    WARNING: committed BENCH_mix.json is missing from the repo root"

echo "==> CI PASSED"
