#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload window --seed 1 --seconds 5 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# database files, span dumps) stays under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --dir "$build/perfbench-work" "$@"
