#!/usr/bin/env bash
# Builds the program under test (`kgq`) and the benchmark (`kgq_bench`) in
# release mode, offline, into one target directory, then hands its
# arguments to `kgq_bench`. With no arguments: every workload end to end,
# then every workload traced.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
  echo "perfbench/run.sh: $(pwd) is not a kgq checkout (no Cargo.toml and crates/)" >&2
  exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin kgq 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
bench="$CARGO_TARGET_DIR/release/kgq_bench"
if [ "$#" -eq 0 ]; then
  "$bench" --workload all --trace 0
  exec "$bench" --workload all --trace 1
fi
exec "$bench" "$@"
