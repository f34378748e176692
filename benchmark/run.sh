#!/bin/sh
# Builds the benchmark inside the checkout (binary, Go build cache and
# the go command's own config and telemetry files under .bench_build/)
# and runs it from benchmark/, passing every argument on:
# run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -e
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
