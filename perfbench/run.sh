#!/usr/bin/env bash
# Builds the benchmark and the `experiments` binary it drives, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload pushpull-er10k --seed 1 --seconds 30 --trace 0
#
# The last line of standard output is the run's JSON result. Both builds share
# CARGO_TARGET_DIR (default `.bench_build`); scratch files go below it.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path perfbench/Cargo.toml
cargo build --release --quiet -p rpc-experiments --bin experiments
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --experiments "$CARGO_TARGET_DIR/release/experiments" \
    --work-dir "$CARGO_TARGET_DIR/perfbench" \
    "$@"
