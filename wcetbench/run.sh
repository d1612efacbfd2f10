#!/usr/bin/env bash
# Builds the `wcet` binary and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash wcetbench/run.sh --workload <cold_corpus|edit_loop|serve_stream> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Cargo's
# progress goes to stderr; the result is the last line of stdout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml --bin wcet >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2
exec "$target/release/wcetbench" --wcet "$target/release/wcet" --build-dir "$target" "$@"
