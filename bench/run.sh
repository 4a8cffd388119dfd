#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh --workload iv-point --seed 1 --seconds 15 --trace 0
#
# The binary and the Go build cache live in .bench_build/ at the root,
# so a run reads and writes nothing outside the checkout. The first run
# compiles the standard library into that cache and takes a few minutes;
# later runs rebuild only what changed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
