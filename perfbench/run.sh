#!/usr/bin/env bash
# Builds the benchmark and the wedserve server from this checkout's source
# and runs one workload. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload road-search --seed 1 --seconds 12 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd perfbench && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/wedserve" subtraj/cmd/wedserve)
exec "$build/bin/perfbench" -dir "$build" -wedserve "$build/bin/wedserve" "$@"
