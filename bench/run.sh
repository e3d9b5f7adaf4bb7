#!/usr/bin/env bash
# The command BENCHMARK.json names: builds cqbench from source and runs it
# with the arguments given. Everything the build and the run read or write
# stays inside the checkout, under .bench_build: Go's build cache and
# temporary files, the daemons' state directories, the span files.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$build/cqbench" ./cqbench)
exec "$build/cqbench" -out "$build/out" "$@"
