#!/usr/bin/env bash
# Builds maxsatbench and runs it from the root of a checkout of the
# repository; the arguments pass through, for example
#
#	bash cmd/maxsatbench/run.sh --workload cold-unique --seed 1 --seconds 15 --trace 0
#
# Everything the build leaves behind (Go build cache, temporary files, the
# go command's telemetry counters, the benchmark and daemon binaries) goes
# under .bench_build/ in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
go -C cmd/maxsatbench build -o "$build/maxsatbench" .
exec "$build/maxsatbench" "$@"
