#!/usr/bin/env bash
# Builds the benchmark (and with it the verifier's crates) from source, then
# runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh run --seed <n> [--traced] [--out <file>]
#   bash perfbench/run.sh compare --base <file>... --new <file>...
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
# ./target); build output goes to stderr so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail

# Cargo resolves a relative target directory against the working directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
