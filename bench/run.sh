#!/usr/bin/env bash
# Build the perf ledger's harness from source and run it.
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bench/run.sh --repeat 10            # noise self-check, every workload
#   bench/run.sh --quick 1              # smoke test, every check on
#
# The last line of stdout is the result (see bench/README.md); the
# build's and the harness's chatter goes to stderr. The build lands in
# $CARGO_TARGET_DIR (default: the repository's own target/), and the
# harness writes its inputs, stores and span files to ltam-bench/ in
# that same directory.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ltam-perf" "$@"
