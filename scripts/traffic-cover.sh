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
# Each of those functions must have its keeper in scripts/traffic-cover.keep:
# a line "path:Func  Keeper" (Func is Type.Method for a method), or a line
# for its file or a directory above it ("path  Keeper", a directory ending in
# "/"), naming the test or examples/<dir> that exercises it. The script exits
# 1 if one has none, and lists without failing the ledgered functions that
# did run, since TCP timing decides a few of them. TestTrafficCoverLedger
# checks that every line names code and a keeper that exist.
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
go tool cover -func "$cover/profile.txt" >"$cover/funcs.txt"
awk '$NF == "0.0%"' "$cover/funcs.txt"

# Name each function as the ledger does, from its declaration's line, and hold
# it to the ledger.
awk -v ledger=scripts/traffic-cover.keep '
BEGIN {
	while ((getline line < ledger) > 0) {
		sub(/#.*/, "", line)
		if (split(line, f, " ") >= 1)
			keep[f[1]] = 1
	}
}
function kept(key, path,    dir) {
	if (key in keep || path in keep)
		return 1
	for (dir = path; sub(/\/[^\/]*$/, "", dir);)
		if ((dir "/") in keep)
			return 1
	return 0
}
$1 ~ /\.go:[0-9]+:$/ {
	split($1, loc, ":")
	path = loc[1]
	sub(/^cqjoin\//, "", path)
	if (!(path in read)) {
		read[path] = 1
		for (n = 1; (getline src < path) > 0; n++)
			decl[path, n] = src
		close(path)
	}
	name = $2
	if (match(decl[path, loc[2]], /^func \([^)]*\)/)) {
		recv = substr(decl[path, loc[2]], RSTART + 6, RLENGTH - 7)
		sub(/^.* /, "", recv)
		sub(/^\*/, "", recv)
		sub(/\[.*$/, "", recv)
		name = recv "." name
	}
	key = path ":" name
	if ($NF == "0.0%" && !kept(key, path)) {
		print "# no keeper in the ledger: " key > "/dev/stderr"
		missing++
	} else if ($NF != "0.0%" && kept(key, path)) {
		print "# ledgered, and ran: " key " " $NF > "/dev/stderr"
	}
}
END { exit missing > 0 }
' "$cover/funcs.txt"
