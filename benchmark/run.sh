#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# the checkout's .bench_build/ (Go's build cache and temp files included, so
# nothing is written outside the checkout) and runs it from this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/cadybench" .
exec "$build/cadybench" "$@"
