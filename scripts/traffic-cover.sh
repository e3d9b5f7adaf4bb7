#!/usr/bin/env bash
# Lists the functions of the cqjoin module that no gated benchmark workload
# and no experiment executes: it builds cqbench and joinsim with coverage of
# every cqjoin package, runs the four workloads BENCHMARK.json gates (seed 1,
# 4 s phases) and `joinsim -exp all` under one GOCOVERDIR, and prints each
# non-test function at 0.0 %. A claim that "no workload runs this" is then
# one command to check:
#
#	bash scripts/traffic-cover.sh
#
# Everything it builds and writes stays under .bench_build/traffic-cover; the
# profile it reads is .bench_build/traffic-cover/profile.txt. It edits nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
cover="$build/traffic-cover"
rm -rf "$cover"
mkdir -p "$cover/data" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -cover -coverpkg=cqjoin/... -o "$cover/cqbench" ./cqbench)
go build -cover -coverpkg=cqjoin/... -o "$cover/joinsim" ./cmd/joinsim

export GOCOVERDIR="$cover/data"
for workload in sim-steady sim-subchurn tcp-steady tcp-hot; do
	echo "# $workload" >&2
	"$cover/cqbench" -workload "$workload" -seed 1 -seconds 4 -out "$cover/out" >"$cover/$workload.txt"
done
echo "# joinsim -exp all" >&2
"$cover/joinsim" -exp all >"$cover/joinsim.txt" 2>/dev/null
unset GOCOVERDIR

# cqbench's own module (cqjoin/bench) is out of the root module's reach, so
# `go tool cover` cannot resolve its files: its lines go before the report.
go tool covdata textfmt -i "$cover/data" -o "$cover/profile.all"
grep -v '^cqjoin/bench/' "$cover/profile.all" >"$cover/profile.txt"
go tool cover -func "$cover/profile.txt" | awk '$NF == "0.0%"'
