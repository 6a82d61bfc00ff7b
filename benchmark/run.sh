#!/usr/bin/env bash
# The one command that produces every benchmark result.
#
#   bash benchmark/run.sh [--workload W] [--seed S] [--seconds T]
#                         [--trace 0|1|OUT] [--repeat N]
#
# Builds the `fosm` binary and the benchmark in release mode, offline,
# then runs the benchmark with the given arguments (see
# benchmark/README.md). Both builds share one target directory:
# $CARGO_TARGET_DIR when set, `target/` at the repository root
# otherwise. Exits non-zero when a build, an operation or an oracle
# fails.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "benchmark/run.sh: $(pwd) is not a fosm checkout" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --locked --quiet -p fosm-cli >&2
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/fosm-benchmark" "$@"
