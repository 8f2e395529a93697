#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument goes to the `perfbench` binary, e.g.
#   bash perfbench/run.sh --workload flow --seed 1 --seconds 20 --trace 0
# The build goes to $CARGO_TARGET_DIR (default .bench_build); its output
# goes to stderr, so the result stays the last line of stdout.
set -euo pipefail
here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
