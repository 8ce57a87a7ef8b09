#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload y1_offline --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds and writes stays
# under .bench_build/ there; the Go toolchain must already be installed
# (the module has no dependencies outside the standard library).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/unchartedbench" .)
exec "$build/unchartedbench" "$@"
