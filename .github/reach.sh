#!/usr/bin/env bash
# Run coverage: which production code does any committed run reach?
#
# Builds every binary with coverage over all of internal/ plus its own main
# package (go1.24 writes no counters when the main package is left out),
# runs what CI and the README run — the experiment table at CI flags, a
# -trace run and a -diff of two fresh artefacts, the four examples, both
# compstor-sim modes, compstor-gendata, and bench's four workloads traced —
# merges the counters and prints every function no run enters, then
#
#   zero-coverage functions: F
#   unreached statement lines: U of T
#
# From the repository root:
#
#   bash .github/reach.sh [max-functions max-lines]
#
# With the two ceilings given, it exits non-zero when either is exceeded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
w="$(mktemp -d)"
trap 'rm -rf "$w"' EXIT
mkdir -p "$w/bin" "$w/cov" "$w/out"
export GOCOVERDIR="$w/cov"

for m in cmd/compstor-bench cmd/compstor-sim cmd/compstor-gendata \
	examples/quickstart examples/logsearch examples/compression examples/shellpipe; do
	pkgs="$(go list -deps "./$m" | grep '^compstor/internal/' | paste -sd, -)"
	go build -cover -coverpkg="$pkgs,compstor/$m" -o "$w/bin/$(basename "$m")" "./$m"
done
(cd bench && GOWORK=off go build -cover -coverpkg="compstor/internal/...,compstor/bench" -o "$w/bin/bench" .)

b="$w/bin"
"$b/compstor-bench" -run all -books 8 -mean 4096 -devices 1,2 -outdir "$w/out/a" >/dev/null
"$b/compstor-bench" -run degraded -books 4 -mean 4096 -devices 2 -outdir "$w/out/b" -trace "$w/out/trace.json" >/dev/null
"$b/compstor-bench" -diff "$w/out/a/BENCH_degraded.json" "$w/out/b/BENCH_degraded.json" >/dev/null
for e in quickstart logsearch compression shellpipe; do
	"$b/$e" >/dev/null
done
"$b/compstor-sim" -devices 2 -books 6 -mean 4096 -app gawk -compare >/dev/null
"$b/compstor-sim" -books 2 -mean 4096 -script 'grep -c the books/book000.txt' >/dev/null
"$b/compstor-gendata" -out "$w/out/corpus" -books 2 -mean 4096 -gz -bz2 >/dev/null
for wl in scan batch_apps serve_mix ftl_churn; do
	"$b/bench" -workload "$wl" -seconds 2 -trace 1 >/dev/null
done

# compstor/bench is a module of its own that `go tool cover` cannot resolve
# from the root; its rows are dropped.
go tool covdata textfmt -i="$GOCOVERDIR" -o "$w/all.out"
grep -v '^compstor/bench/' "$w/all.out" >"$w/cover.out"
go tool cover -func="$w/cover.out" | awk '$NF == "0.0%" && $1 != "total:"' | tee "$w/zero.txt"
funcs=$(wc -l <"$w/zero.txt")
# A statement line is reached when any block spanning it ran.
read -r unreached total < <(awk -F'[ :,]' 'NR > 1 && $(NF-1) > 0 {
	split($2, s, "."); split($3, e, ".")
	for (l = s[1]; l <= e[1]; l++) { k = $1 ":" l; seen[k] = 1; if ($NF > 0) hit[k] = 1 }
} END { for (k in seen) { n++; if (!(k in hit)) u++ }; print u + 0, n + 0 }' "$w/cover.out")
echo "zero-coverage functions: $funcs"
echo "unreached statement lines: $unreached of $total"
if [ $# -eq 2 ]; then
	test "$funcs" -le "$1"
	test "$unreached" -le "$2"
fi
