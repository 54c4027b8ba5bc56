#!/usr/bin/env bash
# The repository benchmark in one command: builds the repository's release
# binaries (run_all, serve) and the benchmark, then runs the workloads.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--smoke | --traced]
#                    [--seconds S] [--trace 0|1]
#
# Without --workload all four workloads run. Build output goes to
# $CARGO_TARGET_DIR (default: target). See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark/run.sh: no repository here (Cargo.toml and crates/ are missing)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p stem-bench -p stem-serve --bin run_all --bin serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stem-benchmark" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
