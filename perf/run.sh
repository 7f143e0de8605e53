#!/bin/sh
# The benchmark's entry point (BENCHMARK.json "command"): build perf from
# source into .bench_build and run it from the repository root. The Go
# caches are kept inside the checkout so a run reads and writes nothing
# outside it; a first run in a fresh checkout therefore also compiles the
# standard library.
set -e
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
go -C perf build -o "$root/.bench_build/perf" .
exec "$root/.bench_build/perf" "$@"
