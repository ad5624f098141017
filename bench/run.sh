#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ (Go's build cache and GOPATH included, so nothing is written
# outside the checkout, whatever HOME is) and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/ilsim-bench" ./bench
exec "$build/ilsim-bench" "$@"
