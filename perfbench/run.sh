#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# e.g. bash perfbench/run.sh --workload paper-fig13 --seed 1 --seconds 30 --trace 0
# Run it from the root of the repository. Everything the build and the
# run write stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
