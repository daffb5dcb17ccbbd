#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare <before.jsonl|dir> <after.jsonl|dir>
#   bash perfbench/run.sh golden perfbench/golden
#
# Run it from the repository root. Everything the build and the runs
# leave behind (Go build cache, binary, stores, traces, result files)
# goes under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps telemetry
export GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOENV=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
