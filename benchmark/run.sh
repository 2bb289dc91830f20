#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json "command"): build the
# harness from source into the checkout's own build directory, then run it
# with the driver's arguments. Everything the build writes — compiler cache,
# temporary files, the binary — stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
