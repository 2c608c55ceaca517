#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash perfbench/run.sh --workload service-cold --seed 1 --seconds 50 --trace 0
#
# Run from the repository root. Every build product, the Go build cache
# and the span files stay under .bench_build/ in that directory.
set -euo pipefail
root=$PWD
build=$root/.bench_build
export GOCACHE=$build/go-cache GOPATH=$build/go-path XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$build"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/trace" "$@"
