#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go's build cache, module cache and telemetry counters too, so
# nothing is written outside it) and runs it with the arguments given.
# Run it from the root of the checkout:
#
#	bash benchmark/run.sh --workload point_read --seed 1 --seconds 20 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -C "$(dirname "$0")" -o "$build/prisma-benchmark" .
exec "$build/prisma-benchmark" "$@"
