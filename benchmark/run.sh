#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#
#   bash benchmark/run.sh --workload batch-anti --seed 2014 --seconds 20 --trace 0
#
# Everything the Go toolchain writes — build cache, temporary files, its
# own bookkeeping, the two binaries — stays under .bench_build in the
# checkout, so a run reads and writes nothing outside it. The first run in
# a fresh checkout compiles the standard library into that cache; later
# runs find everything built. Arguments go to the benchmark unchanged (see
# README.md here, or -h).
set -euo pipefail
cd "$(dirname "$0")/.."
# The benchmark is a package of the caqe module and measures the rest of it:
# in a directory that holds the benchmark alone there is nothing to build or
# run, and no process is started.
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $PWD: the program to measure is not here" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# A go command that finds no telemetry mode in its configuration directory
# starts a detached child of itself to tidy the counter files, and that
# child outlives the run. With the mode off it starts none.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
# The toolchain that is installed builds it; none is fetched.
export GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" -build-dir "$build" "$@"
