#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# executes it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload kv-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay in
# .bench_build at the root of the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
