#!/usr/bin/env bash
# Build diffaudit and the benchmark from source, then run the benchmark.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload audit-full --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark's scratch files go to .bench_work/ and span files to
# .bench_spans/, all under the current directory.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q -p diffaudit-serve --bin diffaudit >&2
cargo build --release --offline -q --manifest-path perfbench/harness/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --diffaudit "$CARGO_TARGET_DIR/release/diffaudit" "$@"
