#!/usr/bin/env bash
# Build the CLI under test and the benchmark harness, then run the harness.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --seed N --out FILE [--aa] [--smoke]
#
# Both builds go to $CARGO_TARGET_DIR (default: <repo>/target), and every
# file a run writes goes under it too.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr; stdout is the harness's alone.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p spdyier-experiments
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

exec "$target/release/spdyier-benchmark" --root "$root" --target-dir "$target" "$@"
