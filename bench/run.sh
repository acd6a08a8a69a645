#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload node-jobs --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# lands in .bench_build/ under the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command's settings and telemetry
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
