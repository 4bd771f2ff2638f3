#!/usr/bin/env bash
# Builds the daemon (`commalloc serve`) and the e2ebench binary from
# source, then runs e2ebench with the given arguments:
#
#   bash e2ebench/run.sh --workload churn_journaled --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh --repeat 5 [--workload NAME] [--seconds S]
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the JSON result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/service ] || [ ! -f e2ebench/Cargo.toml ]; then
    echo "e2ebench: run from the root of a commalloc source tree" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q -p commalloc-cli >&2
cargo build --release --offline -q --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --daemon "$CARGO_TARGET_DIR/release/commalloc" "$@"
