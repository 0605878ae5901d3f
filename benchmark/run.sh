#!/usr/bin/env bash
# Build the benchmark from source into .bench_build/ at the root of the
# checkout (caches included, so nothing is written outside it) and run it
# with the given arguments. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" -tmp "$out/tmp" "$@"
