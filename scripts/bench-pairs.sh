#!/usr/bin/env bash
# Runs the benchmark's pair protocol between two commits and prints, for
# every metric cqbench reports, the median on each side, the parent's
# interquartile range, in how many pairs the change came out lower, and the
# verdict against the metric's bound in BENCHMARK.json:
#
#	bash scripts/bench-pairs.sh PARENT [CHANGE] --workload W --pairs N [--seconds S] [--seed N]
#
# CHANGE defaults to HEAD, --seconds to 10 and --seed to 1. Each commit is
# unpacked with `git archive` under .bench_build/pairs/ (no worktree) and its
# own bench/cqbench is built there, with the Go cache and temporary files
# under .bench_build as bench/run.sh keeps them; each run is what run.sh
# runs, `cqbench -out <side>/.bench_build/out --workload W --seed N --seconds
# S`. Pair i runs the parent first when i is odd and the change first when it
# is even. Every run's output stays in .bench_build/pairs/runs/W/, one file a
# pair and side. Each call clears that directory and the two unpacked trees
# before it rebuilds them, so the files there are all its own; a call for
# another workload leaves them.
#
# A bound is relative to the parent's median: a metric is past it when the
# change's median is worse by more than that fraction, and unresolved when
# the parent's own interquartile range is wider than that, unless every
# change run is better than every parent run. The script prints every
# `# oracle:` line and exits 1 when one reports a missing, duplicate or
# unexpected notification, when the change fails more operations than the
# parent, or when a metric is past its bound. It edits nothing under bench/.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

usage() {
	echo "usage: $0 PARENT [CHANGE] --workload W --pairs N [--seconds S] [--seed N]" >&2
	exit 2
}
parent= change= workload= pairs= seconds=10 seed=1
while [ $# -gt 0 ]; do
	case $1 in
	--workload | --pairs | --seconds | --seed)
		[ $# -ge 2 ] || usage
		declare "${1#--}=$2"
		shift 2
		;;
	-*) usage ;;
	*)
		if [ -z "$parent" ]; then
			parent=$1
		elif [ -z "$change" ]; then
			change=$1
		else
			usage
		fi
		shift
		;;
	esac
done
[ -n "$parent" ] && [ -n "$workload" ] && [ -n "$pairs" ] || usage
[ "$pairs" -ge 1 ] 2>/dev/null || usage
parent=$(git rev-parse --verify "$parent^{commit}")
change=$(git rev-parse --verify "${change:-HEAD}^{commit}")

build="$root/.bench_build"
work="$build/pairs"
runs="$work/runs/$workload"
rm -rf "$work/parent" "$work/change" "$runs"
mkdir -p "$runs" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
for side in parent change; do
	mkdir -p "$work/$side"
	git archive "${!side}" | tar -x -C "$work/$side"
	(cd "$work/$side/bench" && go build -o "$work/$side/cqbench" ./cqbench)
done

# run SIDE PAIR: one cqbench run, its output in runs/W/PAIR-SIDE.txt. A run
# that fails its operations exits 1 and still prints its metrics.
run() {
	local dir="$work/$1"
	echo "# pair $2: $1" >&2
	mkdir -p "$dir/.bench_build/tmp"
	TMPDIR="$dir/.bench_build/tmp" "$dir/cqbench" -out "$dir/.bench_build/out" \
		-workload "$workload" -seed "$seed" -seconds "$seconds" >"$runs/$2-$1.txt" || true
}
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
done

echo "# bench-pairs: workload=$workload pairs=$pairs seconds=$seconds seed=$seed parent=${parent:0:12} change=${change:0:12}"
awk -v pairs="$pairs" -v runs="$runs" -v spec="$work/parent/BENCHMARK.json" '
function median(a, n,    i, j, v, s) {
	for (i = 1; i <= n; i++)
		s[i] = a[i]
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && s[j - 1] > s[j]; j--) {
			v = s[j]; s[j] = s[j - 1]; s[j - 1] = v
		}
	for (i = 1; i <= n; i++)
		sorted[i] = s[i]
	return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2
}
# quantile q of sorted[1..n], interpolating between ranks.
function quantile(q, n,    r, lo) {
	r = 1 + q * (n - 1)
	lo = int(r)
	return lo >= n ? sorted[n] : sorted[lo] + (r - lo) * (sorted[lo + 1] - sorted[lo])
}
BEGIN {
	while ((getline line < spec) > 0) {
		if (line ~ /"name":/) {
			split(line, q, "\"")
			name = q[4]
		} else if (line ~ /"better":/) {
			split(line, q, "\"")
			better[name] = q[4]
		} else if (line ~ /"bound":/) {
			v = line
			sub(/.*"bound": */, "", v)
			bound[name] = v + 0
		}
	}
	for (i = 1; i <= pairs; i++)
		for (s = 0; s < 2; s++) {
			side = s ? "change" : "parent"
			file = runs "/" i "-" side ".txt"
			got = 0
			while ((getline line < file) > 0) {
				if (line ~ /^# oracle:/) {
					print "# " side " " i ": " substr(line, 3)
					for (k = split(line, f, /[ =]/); k > 0; k--)
						if ((f[k] == "missing" || f[k] == "duplicate" || f[k] == "unexpected") && f[k + 1] != "0")
							oraclebad = 1
				} else if (line ~ /^\{/) {
					v = line
					sub(/.*"failed":/, "", v)
					failed[side] += v + 0
				} else if (line !~ /^#/ && split(line, f, " ") == 3) {
					if (!(f[1] in unit)) {
						order[++nm] = f[1]
						unit[f[1]] = f[3]
					}
					val[f[1], side, i] = f[2]
					got++
				}
			}
			close(file)
			if (!got) {
				print "# " side " " i ": no metrics (see " file ")"
				oraclebad = 1
			}
		}
	printf "%-40s %-6s %14s %14s %8s %12s %6s %6s  %s\n", "metric", "unit", "parent", "change", "delta", "parent IQR", "lower", "bound", "verdict"
	for (m = 1; m <= nm; m++) {
		name = order[m]
		n = 0
		lower = 0
		for (i = 1; i <= pairs; i++)
			if ((name, "parent", i) in val && (name, "change", i) in val) {
				n++
				p[n] = val[name, "parent", i] + 0
				c[n] = val[name, "change", i] + 0
				if (c[n] < p[n])
					lower++
				if (n == 1 || p[n] < pmin) pmin = p[n]
				if (n == 1 || p[n] > pmax) pmax = p[n]
				if (n == 1 || c[n] < cmin) cmin = c[n]
				if (n == 1 || c[n] > cmax) cmax = c[n]
			}
		if (!n)
			continue
		mc = median(c, n)
		mp = median(p, n)
		iqr = quantile(0.75, n) - quantile(0.25, n)
		delta = mp != 0 ? sprintf("%+.2f%%", 100 * (mc - mp) / mp) : "-"
		verdict = "-"
		b = "-"
		if (name in bound) {
			b = bound[name]
			scale = mp < 0 ? -mp : mp
			worse = better[name] == "higher" ? mp - mc : mc - mp
			allbetter = better[name] == "higher" ? cmin > pmax : cmax < pmin
			if (scale && worse / scale > bound[name]) {
				verdict = "PAST BOUND"
				past++
			} else if (scale && iqr / scale > bound[name] && !allbetter)
				verdict = "unresolved" # the parent spreads wider than the bound
			else
				verdict = "ok"
		}
		printf "%-40s %-6s %14.4f %14.4f %8s %12.4f %3d/%-2d %6s  %s\n", name, unit[name], mp, mc, delta, iqr, lower, n, b, verdict
	}
	printf "# failed ops: parent %d, change %d\n", failed["parent"], failed["change"]
	if (oraclebad)
		print "# FAIL: an oracle line reports missing, duplicate or unexpected notifications, or a run printed no metrics"
	if (failed["change"] > failed["parent"])
		print "# FAIL: the change failed more operations than the parent"
	if (past)
		print "# FAIL: " past " metric(s) past their bound"
	exit (oraclebad || past || failed["change"] > failed["parent"]) ? 1 : 0
}'
